import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dscluster as d
from dscluster import graph as graph_module
from dscluster.errors import FixtureFormatError, InvalidArgumentError, SizeLimitError
from dscluster.graph import MAX_NODES

from conftest import random_edge_graph


def reference_hops(graph, sources=None):
    """Hop rows of ``sources`` (default: every node) by one deque BFS per
    source, UNREACHABLE where there is no path: the reference the
    bit-parallel kernel must equal."""
    n = graph.node_count
    sources = range(n) if sources is None else sources
    neighbor_lists = [np.flatnonzero(graph.adj[u]) for u in range(n)]
    rows = np.full((len(sources), n), d.UNREACHABLE, dtype=np.int64)
    for row, src in zip(rows, sources):
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in neighbor_lists[u]:
                if row[v] == d.UNREACHABLE:
                    row[v] = row[u] + 1
                    queue.append(int(v))
    return rows


def reference_components(graph):
    """Components read off the reference hop rows, ordered by least node."""
    reachable = reference_hops(graph) != d.UNREACHABLE
    return [list(c) for c in sorted({tuple(np.flatnonzero(row).tolist()) for row in reachable})]


def edge_list_graph(n, p, seed):
    """Graph over ``n`` nodes from a random edge list with edge density ``p``."""
    rng = np.random.default_rng(seed)
    u, v = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
    return d.graph_from_edges(n, list(zip(u.tolist(), v.tolist())))


#: Sizes around the 64-bit words the kernel packs rows into, plus n = 1.
WORD_EDGE_SIZES = [1, 63, 64, 65, 129]
#: Edge densities from all isolated nodes to a complete graph.
DENSITIES = [0.0, 0.01, 0.03, 0.1, 0.5, 1.0]

random_graphs = st.builds(
    edge_list_graph,
    n=st.integers(1, 12) | st.sampled_from(WORD_EDGE_SIZES),
    p=st.sampled_from(DENSITIES) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


class TestDeployRandom:
    def test_single_node_inside_square(self):
        pos = d.deploy_random(1, 50.0, seed=9)
        assert pos.shape == (1, 2)
        assert 0 <= pos[0, 0] <= 50 and 0 <= pos[0, 1] <= 50

    def test_identical_seed_identical_positions(self):
        a = d.deploy_random(23, 100.0, seed=7)
        b = d.deploy_random(23, 100.0, seed=7)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        a = d.deploy_random(23, 100.0, seed=7)
        b = d.deploy_random(23, 100.0, seed=8)
        assert not np.array_equal(a, b)

    def test_monte_carlo_uniform_mean(self):
        # mean of U[0, 100] is 50; n=500 keeps the sample mean within +/-5
        pos = d.deploy_random(500, 100.0, seed=3)
        assert abs(pos[:, 0].mean() - 50.0) < 5.0
        assert abs(pos[:, 1].mean() - 50.0) < 5.0

    @pytest.mark.parametrize("n,terrain", [(0, 100.0), (-1, 100.0), (5, 0.0), (5, -2.0)])
    def test_invalid_arguments(self, n, terrain):
        with pytest.raises(InvalidArgumentError):
            d.deploy_random(n, terrain, seed=0)

    def test_oversized_deployment_rejected_before_sampling(self):
        with pytest.raises(SizeLimitError, match=str(MAX_NODES)):
            d.deploy_random(10**12, 100.0, seed=0)


class TestBuildGraph:
    def test_exact_range_is_adjacent(self):
        graph = d.build_graph(np.array([[0.0, 0.0], [10.0, 0.0]]), range_=10.0)
        assert graph.adjacent(0, 1)

    def test_beyond_range_not_adjacent(self):
        graph = d.build_graph(np.array([[0.0, 0.0], [10.0 + 1e-9, 0.0]]), range_=10.0)
        assert not graph.adjacent(0, 1)

    def test_matches_pairwise_distance_oracle(self):
        pos = d.deploy_random(10, 100.0, seed=5)
        graph = d.build_graph(pos, range_=30.0)
        for u in range(10):
            for v in range(u + 1, 10):
                expected = math.hypot(*(pos[u] - pos[v])) <= 30.0
                assert graph.adjacent(u, v) == expected

    def test_bad_range(self):
        with pytest.raises(InvalidArgumentError):
            d.build_graph(np.zeros((3, 2)), range_=0.0)


class TestHopTable:
    def test_zero_diagonal(self, bundle):
        assert (bundle.tables.hop.diagonal() == 0).all()

    def test_path_graph_enumeration(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        hop = d.hop_distance_table(graph)
        assert hop[0, 3] == 3
        assert hop[0, 2] == 2
        assert hop[1, 3] == 2

    def test_reference_topology_entries(self, bundle):
        hop = bundle.tables.hop
        assert hop[0, 12] == 7
        assert hop[16, 17] == 2

    def test_symmetry_and_adjacency_coherence(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            graph = random_edge_graph(rng, n_high=9)
            hop = d.hop_distance_table(graph)
            assert np.array_equal(hop, hop.T)
            ones = hop == 1
            assert np.array_equal(ones, graph.adj)

    def test_unreachable_pairs_marked(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        hop = d.hop_distance_table(graph)
        assert hop[0, 2] == d.UNREACHABLE
        assert hop[0, 1] == 1


class TestBitParallelKernel:
    """The all-pairs kernel against one deque BFS per source."""

    @given(random_graphs)
    def test_equals_reference_bfs(self, graph):
        hop = d.hop_distance_table(graph)
        assert hop.dtype == np.int64
        assert np.array_equal(hop, reference_hops(graph))

    @pytest.mark.parametrize("p", DENSITIES)
    @pytest.mark.parametrize("n", WORD_EDGE_SIZES)
    def test_word_boundaries(self, n, p):
        graph = edge_list_graph(n, p, seed=n)
        assert np.array_equal(d.hop_distance_table(graph), reference_hops(graph))

    @pytest.mark.parametrize("level_bytes", [1, 4000])
    def test_block_size_does_not_change_the_table(self, monkeypatch, level_bytes):
        # one source per block; then blocks of 12, 3 and 2 sources at n = 40, 65, 100
        monkeypatch.setattr(graph_module, "_LEVEL_BYTES", level_bytes)
        for seed, n in enumerate([1, 5, 40, 65, 100]):
            graph = edge_list_graph(n, 0.05, seed)
            assert np.array_equal(d.hop_distance_table(graph), reference_hops(graph))

    def test_rgg_spanning_several_blocks(self):
        graph = d.build_graph(d.deploy_random(1000, 500.0, seed=3), 30.0)
        assert graph.is_connected
        hop = d.hop_distance_table(graph)
        assert np.array_equal(hop, hop.T)
        assert np.array_equal(hop == 1, graph.adj)
        # sources 0, 7, 14, ... reach into every block of 16 MB / (128 B x 1000)
        sources = list(range(0, 1000, 7))
        assert np.array_equal(hop[sources], reference_hops(graph, sources))

    def test_peak_memory_bounded_on_complete_graph(self):
        # the int64 table is 32 MB; an unblocked level 2 would gather 1 GB
        n = 2000
        graph = d.NetworkGraph(adj=~np.eye(n, dtype=bool))
        tracemalloc.start()
        try:
            hop = d.hop_distance_table(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n * n
        assert np.array_equal(hop, 1 - np.eye(n, dtype=np.int64))


def reference_euclid(positions):
    """Pairwise distances by the three-dimensional formula the table must
    equal bit for bit (perfbench/seeds.py keeps a copy of it to pick
    connected deployments)."""
    delta = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


coordinates = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150) | st.just(0.0)


class TestEuclideanTable:
    @given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=70))
    def test_bit_equal_to_reference_formula(self, points):
        positions = np.array(points)
        table = d.euclidean_distance_table(positions)
        assert table.tobytes() == reference_euclid(positions).tobytes()

    def test_peak_memory_two_planes(self):
        # the result and one more n x n plane; a 3-D difference array needs five
        n = 2000
        positions = d.deploy_random(n, 100.0, seed=1)
        tracemalloc.start()
        try:
            d.euclidean_distance_table(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n * n

    def test_coincident_zero(self):
        table = d.euclidean_distance_table(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert table[0, 1] == 0.0

    def test_pythagorean_triple(self):
        table = d.euclidean_distance_table(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert table[0, 1] == pytest.approx(5.0)

    def test_fixture_table_ingested_verbatim(self, bundle):
        assert bundle.tables.euclid[0, 1] == pytest.approx(0.32)


class TestComponents:
    def test_connected_fixture(self, bundle):
        assert bundle.graph.is_connected
        assert bundle.graph.components() == [list(range(23))]

    def test_split_components(self):
        graph = d.graph_from_edges(5, [(0, 1), (2, 3)])
        assert graph.components() == [[0, 1], [2, 3], [4]]

    @given(random_graphs)
    def test_equal_reference_components(self, graph):
        assert graph.components() == reference_components(graph)


class TestIngestFixture:
    def _euclid(self, n):
        pos = d.deploy_random(n, 10.0, seed=1)
        return d.euclidean_distance_table(pos)

    def test_asymmetric_matrix_rejected(self):
        euclid = self._euclid(3)
        euclid[0, 1] += 0.5
        with pytest.raises(FixtureFormatError, match="asymmetric"):
            d.ingest_fixture([(0, 1)], euclid)

    def test_nan_entry_rejected_as_non_finite(self):
        euclid = self._euclid(4)
        euclid[0, 3] = np.nan
        with pytest.raises(FixtureFormatError, match="non-finite entry at \\(0, 3\\)"):
            d.ingest_fixture([(0, 1)], euclid)

    def test_oversized_edge_list_rejected(self):
        with pytest.raises(SizeLimitError, match=str(MAX_NODES)):
            d.graph_from_edges(MAX_NODES + 1, [])

    def test_nonzero_diagonal_rejected(self):
        euclid = self._euclid(3)
        euclid[1, 1] = 2.0
        with pytest.raises(FixtureFormatError, match="diagonal"):
            d.ingest_fixture([(0, 1)], euclid)

    def test_self_loop_rejected(self):
        with pytest.raises(FixtureFormatError, match="self-loop"):
            d.ingest_fixture([(1, 1)], self._euclid(3))

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(FixtureFormatError, match="out of range"):
            d.ingest_fixture([(0, 5)], self._euclid(3))

    def test_override_length_validated(self):
        with pytest.raises(FixtureFormatError, match="override"):
            d.ingest_fixture(
                [(0, 1)], self._euclid(3), d.FixtureOverrides(ns=[1.0, 2.0])
            )

    def test_hop_recomputed_from_adjacency(self):
        euclid = self._euclid(4)
        graph, tables, _ = d.ingest_fixture([(0, 1), (1, 2), (2, 3)], euclid)
        assert tables.hop[0, 3] == 3
        assert np.array_equal(tables.euclid, euclid)

    def test_fixture_hop_one_matches_edges(self, bundle):
        edges_from_hop = {
            (u, v)
            for u in range(23)
            for v in range(u + 1, 23)
            if bundle.tables.hop[u, v] == 1
        }
        assert edges_from_hop == set(bundle.graph.edges())
