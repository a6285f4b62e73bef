import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dscluster as d
from dscluster import graph as graph_module
from dscluster.errors import (
    DisconnectedGraphError,
    FixtureFormatError,
    InvalidArgumentError,
    SizeLimitError,
)
from dscluster.fileio import load_fixture
from dscluster.graph import MAX_NODES

from conftest import cluster_state, euclidean_distance_table, random_edge_graph, reference_euclid


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


coordinates = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150) | st.just(0.0)


def reference_adjacency(positions, range_):
    """Unit-disk adjacency by thresholding the whole reference table, the
    diagonal cleared: what the sweep must equal bit for bit."""
    adj = reference_euclid(positions) <= range_
    np.fill_diagonal(adj, False)
    return adj


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
        assert graph.adj[0, 1]

    def test_beyond_range_not_adjacent(self):
        graph = d.build_graph(np.array([[0.0, 0.0], [10.0 + 1e-9, 0.0]]), range_=10.0)
        assert not graph.adj[0, 1]

    def test_matches_pairwise_distance_oracle(self):
        pos = d.deploy_random(10, 100.0, seed=5)
        graph = d.build_graph(pos, range_=30.0)
        for u in range(10):
            for v in range(u + 1, 10):
                expected = math.hypot(*(pos[u] - pos[v])) <= 30.0
                assert graph.adj[u, v] == expected

    def test_bad_range(self):
        with pytest.raises(InvalidArgumentError):
            d.build_graph(np.zeros((3, 2)), range_=0.0)

    def test_keeps_positions_and_no_table(self):
        positions = d.deploy_random(12, 100.0, seed=5)
        graph = d.build_graph(positions, 30.0)
        assert graph.euclid is None
        assert graph.positions.tobytes() == positions.tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (0, 2), (3,), (2, 2, 2)])
    def test_malformed_positions_refused(self, shape):
        with pytest.raises(InvalidArgumentError, match=r"\(n, 2\) array"):
            d.build_graph(np.zeros(shape), 1.0)

    def test_oversized_positions_refused_before_any_allocation(self):
        positions = np.zeros((MAX_NODES + 1, 2))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                d.build_graph(positions, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10  # the bool adjacency alone would be 25 MB


class TestSweep:
    """``build_graph`` decides only the candidate pairs of its x-sorted
    sweep; its adjacency must still be the thresholded whole table."""

    @given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40), st.data())
    def test_equals_thresholded_table(self, points, data):
        positions = np.array(points)
        distances = reference_euclid(positions)
        ranges = st.floats(1e-300, 1e300)
        if (distances > 0).any():
            # a range read off the table puts some pairs exactly on it
            ranges |= st.sampled_from(np.unique(distances[distances > 0]).tolist())
        range_ = data.draw(ranges)
        adj = d.build_graph(positions, range_).adj
        assert np.array_equal(adj, reference_adjacency(positions, range_))

    @pytest.mark.parametrize("points, range_, edges", [
        # 3-4-5 triangles scaled to the range: every leg from the corner ties it
        ([(0.0, 0.0), (3.0, 4.0), (-4.0, 3.0), (4.0, -3.0)], 5.0, 3),
        ([(0.0, 0.0), (0.75, 1.0), (-1.0, 0.75)], 1.25, 2),
        ([(1e6, 1e6), (1e6 + 3 * 2**-3, 1e6 + 4 * 2**-3)], 5 * 2**-3, 1),
        ([(0.0, 0.0), (3.0, 4.0)], np.nextafter(5.0, 0.0), 0),
        # x_v is the float after x_u + r, yet the rounded distance is r: the
        # window's margin keeps the pair
        ([(29.86961328189226, 0.0), (63.5021576919146, 0.0)], 33.632544410022334, 1),
        # dx * dx underflows to 0, so a gap far beyond a tiny range is adjacent
        ([(0.0, 0.0), (1e-163, 0.0)], 1e-170, 1),
        # coincident nodes are at distance 0
        ([(2.0, 2.0)] * 3, 1e-9, 3),
        # one column of equal x: only the y gaps decide
        ([(5.0, 0.0), (5.0, 10.0), (5.0, 20.0), (5.0, 30.5)], 10.0, 2),
        ([(3.0, 3.0)], 1.0, 0),
    ], ids=["triangles", "scaled-triangles", "far-triangle", "just-short", "rounding-margin",
            "underflow", "coincident", "equal-x", "one-node"])
    def test_ties_and_degenerate_layouts(self, points, range_, edges):
        positions = np.array(points)
        adj = d.build_graph(positions, range_).adj
        assert np.array_equal(adj, reference_adjacency(positions, range_))
        assert adj.sum() == 2 * edges

    def test_coordinates_near_1e150(self):
        # near 1e150 neighbouring floats lie 2e134 apart, so the window
        # x + 30 rounds to x itself: only nodes of equal x are candidates
        rng = np.random.default_rng(4)
        ulp = np.spacing(1e150)
        far = 1e150 + rng.integers(0, 3, size=(30, 2)) * ulp
        near = rng.uniform(0.0, 60.0, size=(30, 2))
        positions = np.concatenate((far, near))[rng.permutation(60)]
        adj = d.build_graph(positions, 30.0).adj
        assert np.array_equal(adj, reference_adjacency(positions, 30.0))
        assert adj.any()

    def test_one_pair_per_chunk(self, monkeypatch):
        positions = d.deploy_random(300, 274.0, seed=1)
        expected = d.build_graph(positions, 30.0).adj
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 8)  # one 8-byte pair a block
        assert np.array_equal(d.build_graph(positions, 30.0).adj, expected)
        clustered = np.concatenate((positions[:100] / 20.0, positions[100:]))
        assert np.array_equal(d.build_graph(clustered, 30.0).adj,
                              reference_adjacency(clustered, 30.0))

    def test_peak_memory_on_a_complete_graph(self):
        # every pair is a candidate and adjacent: the 4 MB adjacency plus the
        # pair columns (ids, coordinates, squares) of one chunk of at most
        # _BLOCK_BYTES / 8 + n pairs and what the chunk before it left, under 160
        # bytes a pair; a float table would be 32 MB
        n = 2000
        positions = d.deploy_random(n, 10.0, seed=2)
        tracemalloc.start()
        try:
            graph = d.build_graph(positions, 30.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.adj.sum() == n * (n - 1)
        assert peak < n * n + 160 * (graph_module._BLOCK_BYTES // 8 + n)


class TestHopTable:
    def test_zero_diagonal(self, paper_hop):
        assert (paper_hop.diagonal() == 0).all()

    def test_path_graph_enumeration(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        hop = d.hop_distance_table(graph)
        assert hop[0, 3] == 3
        assert hop[0, 2] == 2
        assert hop[1, 3] == 2

    def test_reference_topology_entries(self, paper_hop):
        hop = paper_hop
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

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
    def test_degrees_count_the_packed_rows(self, n):
        # packbits pads each row to whole bytes; the padding must count nothing
        rng = np.random.default_rng(n)
        adj = np.triu(rng.random((n, n)) < 0.4, k=1)
        adj |= adj.T
        degrees = graph_module.degrees(adj)
        assert degrees.dtype == np.intp
        assert degrees.tolist() == adj.sum(axis=1).tolist()


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

    @pytest.mark.parametrize("block_bytes", [1, 4000])
    def test_block_size_does_not_change_the_table(self, monkeypatch, block_bytes):
        # one node per chunk; then chunks of at most 500 and 250 gathered rows
        # (8- and 16-byte rows), which split n = 65 in two and n = 100 in three
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", block_bytes)
        for seed, n in enumerate([1, 5, 40, 65, 100]):
            graph = edge_list_graph(n, 0.05, seed)
            assert np.array_equal(d.hop_distance_table(graph), reference_hops(graph))

    def test_rgg_spanning_several_blocks(self):
        graph = d.build_graph(d.deploy_random(1000, 500.0, seed=3), 30.0)
        assert len(graph.components()) == 1
        hop = d.hop_distance_table(graph)
        assert np.array_equal(hop, hop.T)
        assert np.array_equal(hop == 1, graph.adj)
        # rows of every 7th source, spread over the whole deployment
        sources = list(range(0, 1000, 7))
        assert np.array_equal(hop[sources], reference_hops(graph, sources))

    def test_peak_memory_bounded_on_complete_graph(self):
        # the int64 table is 32 MB; one unchunked level would gather 1 GB of rows
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

    def test_peak_memory_on_the_sparse_rgg(self):
        # the table, a one-byte distance accumulator and a few packed n x n bit
        # sets; decoding in int64 would need a second table
        n = 1000
        graph = d.build_graph(d.deploy_random(n, 500.0, seed=3), 30.0)
        tracemalloc.start()
        try:
            d.hop_distance_table(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_empty_graph_and_empty_cluster_union(self):
        hop = d.hop_distance_table(d.NetworkGraph(adj=np.zeros((0, 0), dtype=bool)))
        assert hop.shape == (0, 0) and hop.dtype == np.int64
        state = cluster_state(3, [])
        assert d.check_cluster_diameter(state, d.graph_from_edges(3, [(0, 1)])).passed

    @pytest.mark.parametrize("n", [128, 129, 256, 257, 258, 300])
    def test_paths_beyond_eight_distance_planes(self, n):
        # diameters around the limits of a one-byte signed accumulator (127)
        # and of eight distance planes (255)
        graph = d.graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])
        hop = d.hop_distance_table(graph)
        assert hop.dtype == np.int64
        assert hop.max() == n - 1
        assert np.array_equal(hop, reference_hops(graph))

    @pytest.mark.parametrize("block_bytes", [1 << 17, 1000])
    def test_connected_then_disconnected(self, monkeypatch, block_bytes):
        # a connected table ends on full source sets and skips the
        # UNREACHABLE pass; cutting two edges of a path leaves unreachable pairs.
        # 1000-byte blocks of the one-byte accumulator decode n = 300 in
        # blocks of 3 rows and n = 70 in 14
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", block_bytes)
        path = [(v, v + 1) for v in range(69)]
        for graph in (d.build_graph(d.deploy_random(300, 274.0, seed=1), 30.0),
                      d.graph_from_edges(70, path),
                      d.graph_from_edges(70, path[:20] + path[21:50] + path[51:])):
            hop = d.hop_distance_table(graph)
            assert np.array_equal(hop, reference_hops(graph))
        assert (hop == d.UNREACHABLE).sum() == 2 * (21 * 30 + 21 * 19 + 30 * 19)

    @pytest.mark.parametrize("block_bytes", [1, 16 << 20])
    def test_isolated_nodes_keep_their_own_rows(self, monkeypatch, block_bytes):
        # isolated nodes 0 and 4 sit right before nodes that have neighbours, 9 at the end
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", block_bytes)
        graph = d.graph_from_edges(10, [(1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (3, 5)])
        hop = d.hop_distance_table(graph)
        assert np.array_equal(hop, reference_hops(graph))
        for v in (0, 4, 9):
            assert np.flatnonzero(hop[v] != d.UNREACHABLE).tolist() == [v]

    def test_chunks_split_mid_graph(self, monkeypatch):
        # 40-byte rows, so at most 500 gathered rows per chunk
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 20000)
        graph = d.build_graph(d.deploy_random(300, 274.0, seed=1), 30.0)
        assert len(list(graph_module._neighbour_chunks(graph.adj, 40))) > 1
        assert np.array_equal(d.hop_distance_table(graph), reference_hops(graph))


class TestSourceColumns:
    """``hop_columns`` from a set of sources against the reference rows."""

    @given(random_graphs, st.data())
    def test_equals_the_reference_rows_of_its_sources(self, graph, data):
        n = graph.node_count
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                     unique=True))
        table = graph_module.hop_columns(graph, sources)
        assert table.shape == (n, len(sources))
        assert np.array_equal(table.T, reference_hops(graph, sources))
        # the narrowest signed dtype of the distance planes: D < 2 ** planes
        assert table.dtype == np.min_scalar_type(-(1 << int(table.max()).bit_length()))

    @pytest.mark.parametrize("count", [63, 64, 65, 129, 200])
    def test_several_words_of_sources_in_any_order(self, count):
        graph = d.build_graph(d.deploy_random(200, 173.0, seed=2), 30.0)
        sources = np.random.default_rng(count).permutation(200)[:count]
        table = graph_module.hop_columns(graph, sources)
        assert np.array_equal(table.T, reference_hops(graph, sources.tolist()))

    @pytest.mark.parametrize("n, dtype", [(128, np.int8), (129, np.int16), (300, np.int16)])
    def test_path_ends_in_the_narrowest_table(self, n, dtype):
        graph = d.graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])
        table = graph_module.hop_columns(graph, [n - 1, 0])
        assert table.dtype == dtype
        assert table[:, 1].tolist() == list(range(n))
        assert table[:, 0].tolist() == list(range(n - 1, -1, -1))

    def test_shared_chunks_and_dtype_give_the_same_table(self, monkeypatch):
        # several chunks of one-word rows, passed in as one caller builds them once
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 8 * 300)
        graph = d.build_graph(d.deploy_random(300, 274.0, seed=1), 30.0)
        chunks = list(graph_module._neighbour_chunks(graph.adj, 8))
        assert len(chunks) > 1
        expected = reference_hops(graph, range(64)).T
        for sources in (range(64), range(64, 128)):
            shared = graph_module.hop_columns(graph, list(sources), chunks=chunks)
            assert np.array_equal(shared, graph_module.hop_columns(graph, list(sources)))
        wide = graph_module.hop_columns(graph, range(64), np.int64, chunks)
        assert wide.dtype == np.int64 and np.array_equal(wide, expected)

    def test_all_pairs_table_is_the_case_of_every_source(self):
        graph = edge_list_graph(129, 0.03, seed=5)
        whole = graph_module.hop_columns(graph, range(129), np.int64)
        assert np.array_equal(whole, d.hop_distance_table(graph))


class TestEuclideanTable:
    @given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=70))
    def test_bit_equal_to_reference_formula(self, points):
        positions = np.array(points)
        table = euclidean_distance_table(positions)
        assert table.tobytes() == reference_euclid(positions).tobytes()

    @pytest.mark.parametrize("n, block", [(1, 1 << 17), (7, 7), (70, 1400)])
    def test_row_blocks_bit_equal_to_reference_formula(self, monkeypatch, n, block):
        # blocks of `block` 8-byte entries: one block; seven one-row blocks;
        # three 20-row blocks and a ragged 10
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 8 * block)
        rng = np.random.default_rng(n)
        positions = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-100, 100, size=(n, 2))
        table = euclidean_distance_table(positions)
        assert table.tobytes() == reference_euclid(positions).tobytes()

    def test_peak_memory_two_planes(self):
        # the result and the row stream's pair of 256 KB buffers; one more n x n
        # plane would make 2.0, and a 3-D difference array needs five
        n = 2000
        positions = d.deploy_random(n, 100.0, seed=1)
        tracemalloc.start()
        try:
            euclidean_distance_table(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * n * n

    def test_coincident_zero(self):
        table = euclidean_distance_table(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert table[0, 1] == 0.0

    def test_pythagorean_triple(self):
        table = euclidean_distance_table(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert table[0, 1] == pytest.approx(5.0)

    def test_fixture_table_ingested_verbatim(self, bundle):
        assert bundle.graph.euclid[0, 1] == pytest.approx(0.32)


class TestComponents:
    def test_connected_fixture(self, bundle):
        assert len(bundle.graph.components()) == 1
        assert bundle.graph.components() == [list(range(23))]

    def test_split_components(self):
        graph = d.graph_from_edges(5, [(0, 1), (2, 3)])
        assert graph.components() == [[0, 1], [2, 3], [4]]

    @given(random_graphs)
    def test_equal_reference_components(self, graph):
        assert graph.components() == reference_components(graph)

    @given(random_graphs)
    def test_hop_row_zero_decides_connectivity(self, graph):
        """``require_connected`` refuses exactly the graphs of more than one
        component, and lists them."""
        components = reference_components(graph)
        if len(components) == 1:
            graph_module.require_connected(graph, d.hop_distance_table(graph))
        else:
            with pytest.raises(DisconnectedGraphError) as err:
                graph_module.require_connected(graph, d.hop_distance_table(graph))
            assert err.value.components == components


class TestRefusedTopologies:
    """``NetworkGraph`` takes only a square, irreflexive, symmetric
    adjacency, and ``graph_from_edges`` only edges that are pairs."""

    @pytest.mark.parametrize("adj, message", [
        (np.zeros(3, dtype=bool), "adjacency must be a square matrix"),
        (np.zeros((2, 3), dtype=bool), "adjacency must be a square matrix"),
        (np.eye(2, dtype=bool), "adjacency must be irreflexive"),
        (np.array([[0, 1], [0, 0]], dtype=bool), "adjacency must be symmetric"),
    ])
    def test_malformed_adjacency(self, adj, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            d.NetworkGraph(adj=adj)

    @pytest.mark.parametrize("edge, message", [
        ((0,), r"edge \(0,\) is not a pair"),
        ((0, 1, 2), r"edge \(0, 1, 2\) is not a pair"),
        ([], r"edge \[\] is not a pair"),
    ])
    def test_edge_that_is_not_a_pair(self, edge, message):
        with pytest.raises(FixtureFormatError, match=f"^{message}$"):
            d.graph_from_edges(3, [(0, 1), edge])


class TestIngestFixture:
    """``fileio.load_fixture`` takes a fixture's graph and Euclidean matrix
    verbatim, and refuses a malformed matrix, edge list or override column."""

    def _euclid(self, n):
        pos = d.deploy_random(n, 10.0, seed=1)
        return euclidean_distance_table(pos)

    def _load(self, edges, euclid, **extra):
        return load_fixture({"nodes": len(euclid), "edges": [list(e) for e in edges],
                             "euclid": euclid.tolist(), **extra})

    def test_asymmetric_matrix_rejected(self):
        euclid = self._euclid(3)
        euclid[0, 1] += 0.5
        with pytest.raises(FixtureFormatError, match="asymmetric"):
            self._load([(0, 1)], euclid)

    def test_oversized_edge_list_rejected(self):
        with pytest.raises(SizeLimitError, match=str(MAX_NODES)):
            d.graph_from_edges(MAX_NODES + 1, [])

    def test_nonzero_diagonal_rejected(self):
        euclid = self._euclid(3)
        euclid[1, 1] = 2.0
        with pytest.raises(FixtureFormatError, match="diagonal"):
            self._load([(0, 1)], euclid)

    def test_self_loop_rejected(self):
        with pytest.raises(FixtureFormatError, match="self-loop"):
            self._load([(1, 1)], self._euclid(3))

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(FixtureFormatError, match="out of range"):
            self._load([(0, 5)], self._euclid(3))

    def test_override_length_validated(self):
        with pytest.raises(FixtureFormatError, match="override"):
            self._load([(0, 1)], self._euclid(3), ns_override=[1.0, 2.0])

    def test_hop_recomputed_from_adjacency(self):
        euclid = self._euclid(4)
        bundle = self._load([(0, 1), (1, 2), (2, 3)], euclid)
        assert d.compute_tables(bundle.graph)[0, 3] == 3
        assert np.array_equal(bundle.graph.euclid, euclid)

    def test_fixture_hop_one_matches_edges(self, bundle, paper_hop):
        edges_from_hop = {
            (u, v)
            for u in range(23)
            for v in range(u + 1, 23)
            if paper_hop[u, v] == 1
        }
        assert edges_from_hop == set(bundle.graph.edges())
