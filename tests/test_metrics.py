import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dscluster as d
from dscluster import graph as graph_module
from dscluster import metrics as metrics_module
from dscluster.cli import main
from dscluster.errors import (
    ConfigurationError,
    DisconnectedGraphError,
    InvalidArgumentError,
    UnreachableNodeError,
)
from dscluster.metrics import closeness_indices, neighbor_bands, path_columns

from conftest import election_key, euclidean_distance_table, fixture_inputs, random_edge_graph


def _tables_for(graph):
    return d.hop_distance_table(graph)


def closer_cardinalities(u, v, table):
    """(c(u|v), c(v|u)): how many nodes are strictly closer to u than to v
    in a hop or Euclidean table, and vice versa.  Every node counts,
    including u and v; ties belong to neither side.  The closeness
    reference that the column kernel must equal."""
    if u == v:
        raise InvalidArgumentError(f"nodes must be distinct, got u == v == {u}")
    return int(np.sum(table[u] < table[v])), int(np.sum(table[v] < table[u]))


class TestCloserCardinalities:
    def test_three_node_path(self):
        hop = _tables_for(d.graph_from_edges(3, [(0, 1), (1, 2)]))
        # only each endpoint is strictly closer to itself; the middle ties
        assert closer_cardinalities(0, 2, hop) == (1, 1)

    def test_same_node_rejected(self):
        hop = _tables_for(d.graph_from_edges(2, [(0, 1)]))
        with pytest.raises(InvalidArgumentError):
            closer_cardinalities(1, 1, hop)

    def test_tie_accounting_sums_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            graph = random_edge_graph(rng, n_low=3, n_high=8)
            n = graph.node_count
            hop = _tables_for(graph)
            euclid = euclidean_distance_table(
                np.random.default_rng(1).uniform(0, 10, (n, 2))
            )
            for u in range(n):
                for v in range(u + 1, n):
                    for table in (hop, euclid):
                        c_uv, c_vu = closer_cardinalities(u, v, table)
                        ties = int(np.sum(table[u] == table[v]))
                        assert c_uv + c_vu + ties == n

    def test_collinear_euclidean(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        euclid = euclidean_distance_table(positions)
        assert closer_cardinalities(0, 2, euclid) == (2, 1)

    def test_coincident_nodes_all_tie(self):
        positions = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 0.0]])
        euclid = euclidean_distance_table(positions)
        assert closer_cardinalities(0, 1, euclid) == (0, 0)


class TestClosenessIndices:
    def test_cycle_symmetry_forces_zero(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        hop = _tables_for(graph)
        for u in range(5):
            assert d.hop_closeness_index(u, hop) == 0

    def test_star_center_matches_bruteforce(self):
        graph = d.graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        hop = _tables_for(graph)

        def brute(u):
            total = 0
            for v in range(5):
                if v == u:
                    continue
                c_uv = sum(1 for w in range(5) if hop[u, w] < hop[v, w])
                c_vu = sum(1 for w in range(5) if hop[v, w] < hop[u, w])
                total += c_uv - c_vu
            return total

        for u in range(5):
            assert d.hop_closeness_index(u, hop) == brute(u)

    def test_reference_hop_matrix_reproduces_published_column(self, reference):
        # the published index column is exactly what the published matrix yields
        hop = np.array(reference["hop"])
        for u in range(23):
            assert d.hop_closeness_index(u, hop) == reference["g_h"][u]

    def test_bfs_recomputation_on_fixture(self, paper_hop, reference):
        values = [d.hop_closeness_index(u, paper_hop) for u in range(23)]
        assert sum(values) == 0
        assert values[18] == 105  # matches the published value for node 18

    def test_disconnected_rejected(self):
        hop = _tables_for(d.graph_from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(UnreachableNodeError):
            d.hop_closeness_index(0, hop)

    def test_euclidean_two_nodes_zero(self):
        euclid = euclidean_distance_table(np.array([[0.0, 0.0], [2.0, 0.0]]))
        for u in (0, 1):
            assert d.euclidean_closeness_index(u, euclid) == 0

    def test_euclidean_center_of_circle_is_maximal(self):
        angles = np.linspace(0, 2 * math.pi, 6, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        positions = np.vstack([[0.0, 0.0], ring])
        euclid = euclidean_distance_table(positions)
        values = [d.euclidean_closeness_index(u, euclid) for u in range(7)]
        assert values[0] == max(values)
        assert values.index(max(values)) == 0

    def test_euclidean_column_on_fixture(self, bundle, reference):
        # recomputation reproduces the published column at every node except
        # node 7, whose published value carries a sign error (+86 for -86):
        # the corrected value restores the antisymmetry sum to zero
        euclid = bundle.graph.euclid
        values = [d.euclidean_closeness_index(u, euclid) for u in range(23)]
        for u in range(23):
            if u == 7:
                continue
            assert values[u] == reference["g_ed"][u]
        assert values[7] == -86
        assert reference["g_ed"][7] == 86
        assert sum(values) == 0

    def test_antisymmetry_sum_zero_random(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 12))
            positions = rng.uniform(0, 50, (n, 2))
            graph = d.build_graph(positions, range_=60.0)  # dense, connected
            hop = _tables_for(graph)
            euclid = euclidean_distance_table(positions)
            assert sum(d.hop_closeness_index(u, hop) for u in range(n)) == 0
            assert sum(d.euclidean_closeness_index(u, euclid) for u in range(n)) == 0


class TestCombinedIndex:
    @pytest.mark.parametrize(
        "g_h,g_ed,expected", [(-47, -125, -86.0), (46, 153, 99.5), (0, 0, 0.0)]
    )
    def test_average(self, g_h, g_ed, expected):
        assert d.combined_closeness_index(g_h, g_ed) == expected


class TestNeighborCategories:
    def test_band_boundaries(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [8.0, 0.0], [7.5, 0.0]])
        euclid = euclidean_distance_table(positions)
        # r=10: strong [0,5], medium (5,7.5], weak (7.5,10]
        m1, m2, m3 = d.neighbor_categories(0, euclid, range_=10.0)
        assert (m1, m2, m3) == (1, 1, 1)

    def test_rebinning_oracle(self):
        positions = d.deploy_random(10, 60.0, seed=21)
        euclid = euclidean_distance_table(positions)
        r = 30.0
        for u in range(10):
            m1, m2, m3 = d.neighbor_categories(u, euclid, r)
            strong = medium = weak = 0
            for v in range(10):
                if v == u:
                    continue
                ed = euclid[u, v]
                if ed <= r / 2:
                    strong += 1
                elif ed <= 3 * r / 4:
                    medium += 1
                elif ed <= r:
                    weak += 1
            assert (m1, m2, m3) == (strong, medium, weak)

    def test_partition_equals_degree(self):
        positions = d.deploy_random(12, 80.0, seed=4)
        graph = d.build_graph(positions, range_=35.0)
        euclid = euclidean_distance_table(positions)
        for u in range(12):
            m1, m2, m3 = d.neighbor_categories(u, euclid, 35.0)
            assert m1 + m2 + m3 == graph.adj[u].sum()

    def test_missing_range(self):
        euclid = euclidean_distance_table(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            d.neighbor_categories(0, euclid, range_=0.0)


class TestNeighborStrength:
    @pytest.mark.parametrize(
        "m1,m2,m3,k,expected",
        [(0, 0, 0, 100.0, 0.0), (2, 1, 0, 100.0, 250.0), (1, 2, 4, 100.0, 300.0)],
    )
    def test_formula(self, m1, m2, m3, k, expected):
        assert d.neighbor_strength(m1, m2, m3, k) == expected

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            d.neighbor_strength(-1, 0, 0, 100.0)

    def test_fixture_override_reported_unchanged(self, paper_metrics):
        assert paper_metrics.ns_values[3] == 400.0


class TestPathStatistics:
    def test_fixture_node_3(self, bundle, paper_hop):
        ecc, mhd, med = d.path_statistics(3, paper_hop, bundle.graph.euclid)
        assert ecc == 6
        # the published table prints 0.29 for 1/MHD, computed under a
        # different denominator convention; stay within +/-0.01 of it
        assert abs(1.0 / mhd - 0.29) <= 0.01

    def test_single_edge(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        hop = _tables_for(graph)
        euclid = euclidean_distance_table(np.array([[0.0, 0.0], [1.0, 0.0]]))
        for u in (0, 1):
            ecc, mhd, med = d.path_statistics(u, hop, euclid)
            assert (ecc, mhd, med) == (1, 1.0, 1.0)

    def test_five_node_path_middle(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        hop = _tables_for(graph)
        euclid = np.zeros((5, 5))
        ecc, mhd, _ = d.path_statistics(2, hop, euclid)
        assert ecc == 2
        assert mhd == 1.5

    def test_single_node_zeros(self):
        graph = d.graph_from_edges(1, [])
        hop = _tables_for(graph)
        assert d.path_statistics(0, hop, np.zeros((1, 1))) == (0, 0.0, 0.0)

    def test_unreachable_raises(self):
        hop = _tables_for(d.graph_from_edges(3, [(0, 1)]))
        with pytest.raises(UnreachableNodeError):
            d.path_statistics(0, hop, np.zeros((3, 3)))


class TestNodeWeight:
    def test_linear_combination_identity(self):
        # only the degree term contributes; equal factors of 1/6
        assert d.combine_weight(6, 0.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_zero_reciprocals_rejected(self):
        # two coincident nodes: MED is zero, so 1/MED and the weight are undefined
        graph, hop = fixture_inputs([(0, 1)], np.zeros((2, 2)))
        overrides = d.FixtureOverrides(ns=[1.0, 1.0])
        with pytest.raises(InvalidArgumentError, match="weight undefined"):
            d.compute_network_metrics(graph, hop, overrides=overrides)

    def test_fixture_weights_recomputed(self, bundle, paper_hop, reference):
        # drop the weight override so the formula actually runs
        overrides = dataclasses.replace(bundle.overrides, w=None)
        metrics = d.compute_network_metrics(
            bundle.graph, paper_hop, bundle.config, overrides
        )
        expected = reference["table3"]["w"]
        assert metrics.weights[3] == pytest.approx(68.96, abs=0.02)
        assert metrics.weights[20] == pytest.approx(-5.73, abs=0.02)
        assert metrics.weights[20] < 0  # negative weights are valid
        for u in range(23):
            assert metrics.weights[u] == pytest.approx(expected[u], abs=0.02)

    def test_weight_linearity_in_alphas(self):
        positions = d.deploy_random(12, 80.0, seed=17)
        graph = d.build_graph(positions, range_=40.0)
        hop = d.compute_tables(graph)
        base = d.compute_network_metrics(graph, hop, d.WeightConfig())
        scaled = d.compute_network_metrics(
            graph, hop, d.WeightConfig(alphas=(0.5,) * 6)
        )
        assert np.allclose(scaled.weights, 3.0 * base.weights)
        assert int(np.argmax(scaled.weights)) == int(np.argmax(base.weights))


def _path_metrics(weights, ns):
    """Metrics of a path of len(weights) nodes whose weight and NS columns
    are the given overrides."""
    n = len(weights)
    euclid = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    graph, hop = fixture_inputs([(i, i + 1) for i in range(n - 1)], euclid)
    return d.compute_network_metrics(graph, hop, overrides=d.FixtureOverrides(ns=ns, w=weights))


class TestElectionOrder:
    """``order``, ``rank`` and ``best`` against the per-node tuple key, on
    columns full of ties: equal weights and NS, negative weights, and
    0.0 beside -0.0, which the tuple key holds equal."""

    @given(st.lists(st.tuples(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 4.0]),
                              st.sampled_from([0.0, 1.0, 2.0])), min_size=2, max_size=12))
    @example([(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0), (-0.0, 1.0)])
    @example([(-2.5, 0.0), (-0.0, 2.0), (0.0, 2.0), (-2.5, 0.0), (4.0, 0.0)])
    def test_columns_match_the_tuple_key(self, nodes):
        weights, ns = (list(column) for column in zip(*nodes))
        metrics = _path_metrics(weights, ns)
        n, key = len(nodes), election_key(metrics)
        expected = sorted(range(n), key=key, reverse=True)
        assert metrics.order.tolist() == expected
        assert metrics.rank[expected].tolist() == list(range(n))
        for start in range(n):
            candidates = np.arange(start, n)[::-1]
            assert metrics.best(candidates) == max(candidates.tolist(), key=key)
        assert metrics.best(np.arange(0)) == -1

    def test_signed_zero_weights_tie(self):
        metrics = _path_metrics([-0.0, 0.0, -0.0], [1.0, 1.0, 1.0])
        assert math.copysign(1.0, metrics.weights[0]) < 0  # the override keeps its sign
        assert metrics.order.tolist() == [0, 1, 2]

    def test_single_node_order(self):
        graph = d.build_graph(np.array([[1.0, 1.0]]), range_=5.0)
        metrics = d.compute_network_metrics(graph, d.compute_tables(graph))
        assert (metrics.order.tolist(), metrics.rank.tolist()) == ([0], [0])


class TestComputeNetworkMetrics:
    def test_fixture_without_ns_override_needs_range(self, bundle, paper_hop):
        with pytest.raises(ConfigurationError):
            d.compute_network_metrics(
                bundle.graph, paper_hop, bundle.config, d.FixtureOverrides()
            )

    def test_graph_without_euclidean_table_refused(self):
        # a bare edge list carries no Euclidean table, so MED and the
        # Euclidean closeness cannot be computed
        g = d.graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidArgumentError, match="no Euclidean table"):
            d.compute_network_metrics(g, d.compute_tables(g))

    @pytest.mark.parametrize("overrides", [None, d.FixtureOverrides(ns=[1.0], w=[1.0, 2.0])])
    @pytest.mark.parametrize("kind", ["positions", "fixture", "edges"])
    def test_disconnected_graph_refused_first(self, kind, overrides):
        """A disconnected graph is refused, with its components, before the
        overrides (here of the wrong length) or the distances are read: an
        edge-list graph has none, and a fixture graph no range."""
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0], [30.0, 0.0]])
        graph = d.build_graph(positions, 2.0)
        if kind == "fixture":
            graph = fixture_inputs(graph.edges(), euclidean_distance_table(positions))[0]
        elif kind == "edges":
            graph = d.graph_from_edges(5, graph.edges())
        with pytest.raises(DisconnectedGraphError) as refused:
            d.compute_network_metrics(graph, d.compute_tables(graph), overrides=overrides)
        assert refused.value.components == [[0, 1], [2, 3], [4]]

    def test_categories_bypassed_with_override(self, paper_metrics):
        assert paper_metrics.bands is None

    def test_single_node_weight_undefined(self):
        graph = d.build_graph(np.array([[1.0, 1.0]]), range_=5.0)
        hop = d.compute_tables(graph)
        metrics = d.compute_network_metrics(graph, hop)
        assert math.isnan(metrics.weights[0])
        assert d.metrics_records(metrics)[0]["w"] is None

    def test_peak_memory_bounded_at_n_1000(self):
        # only the 8 MB hop table exists before the call; the Euclidean rows
        # are computed block by block, and the closeness kernel counts both
        # tables in column blocks instead of sorting a whole copy of either
        graph = d.build_graph(d.deploy_random(1000, 500.0, seed=3), 30.0)
        hop = d.compute_tables(graph)
        tracemalloc.start()
        try:
            d.compute_network_metrics(graph, hop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_dump_field_names(self, paper_metrics):
        records = d.metrics_records(paper_metrics)
        expected_keys = [
            "node", "deg", "g_h", "g_ed", "cci", "ecc", "mhd", "med",
            "m1", "m2", "m3", "ns", "w",
        ]
        assert all(list(r.keys()) == expected_keys for r in records)
        assert records[3]["ns"] == 400.0
        assert records[3]["w"] == pytest.approx(68.96)


@st.composite
def small_tables(draw):
    """(hop, euclid) of one small network: a symmetric integer hop-like
    table, and distances between points of a 4 x 4 grid, so coincident
    points and equal distances, hence ties, are common."""
    n = draw(st.integers(1, 8))
    hop = np.zeros((n, n), dtype=np.int64)
    pairs = n * (n - 1) // 2
    hop[np.triu_indices(n, 1)] = draw(st.lists(st.integers(1, 4), min_size=pairs, max_size=pairs))
    grid = st.tuples(st.integers(0, 3), st.integers(0, 3))
    points = draw(st.lists(grid, min_size=n, max_size=n))
    return hop + hop.T, euclidean_distance_table(np.array(points, dtype=float))


@st.composite
def integer_tables(draw):
    """Square integer tables, not symmetric, shifted far below or above
    zero, whose values span up to 2n + 2 levels: the closeness kernel
    counts those spanning at most n + 1 by histogram, the others by sort."""
    n = draw(st.integers(1, 9))
    span = draw(st.integers(0, 2 * n + 2))
    shift = draw(st.integers(-3, 3) | st.integers(-2**62, 2**62))
    values = draw(st.lists(st.integers(0, span), min_size=n * n, max_size=n * n))
    return np.array(values, dtype=np.int64).reshape(n, n) + shift


@st.composite
def float_tables(draw):
    """Square float tables drawn from a few values, so ties are common and
    -0.0 meets 0.0."""
    n = draw(st.integers(1, 9))
    pool = st.sampled_from([-0.0, 0.0, 0.5, 1.0, -2.0, 1e-300, 1e300, math.inf])
    values = draw(st.lists(pool, min_size=n * n, max_size=n * n))
    return np.array(values).reshape(n, n)


@st.composite
def near_tie_tables(draw):
    """Square float tables whose entries agree in all but their low
    mantissa bits, so that many packed sort keys share a truncated value
    while the values differ.  Mixed in: exact ties, -0.0 next to 0.0,
    subnormals (0.0 or -0.0 plus a few low bits), inf and distinct values.
    The sizes lie on both sides of the id-width steps at 64 and 128 nodes;
    the entries come from a drawn seed, as a drawn list of 16 641 would
    overrun hypothesis's buffer."""
    n = draw(st.integers(1, 9) | st.sampled_from([63, 64, 65, 127, 128, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 9))  # the low bits that vary
    bases = np.array([-0.0, 0.0, 1.0, 2.5, 1e300]).view(np.int64)
    table = (rng.choice(bases, size=(n, n)) + rng.integers(0, 1 << spread, size=(n, n))).view(float)
    distinct = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    table[distinct] = rng.uniform(0.0, 100.0, size=distinct.sum())
    special = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    table[special] = rng.choice([-0.0, 0.0, math.inf], size=special.sum())
    return table


def closeness_by_pairs(table):
    """g(u) of every node as the sum of c(u|v) - c(v|u) over v != u: the
    definition the closeness kernel must equal."""
    n = table.shape[0]
    return [
        sum(c_uv - c_vu for v in range(n) if v != u
            for c_uv, c_vu in [closer_cardinalities(u, v, table)])
        for u in range(n)
    ]


def closeness_by_columns(table):
    """The same definition in one vectorised count: g(u) sums, over every v
    and w, [t[v, w] > t[u, w]] - [t[v, w] < t[u, w]].  O(n**3) memory, the
    reference for tables too large for ``closeness_by_pairs``."""
    above = (table[None] > table[:, None]).sum(axis=(1, 2))
    below = (table[None] < table[:, None]).sum(axis=(1, 2))
    return (above - below).tolist()


def closeness_reference(table):
    return closeness_by_pairs(table) if len(table) <= 9 else closeness_by_columns(table)


class TestColumnKernelProperties:
    """Each whole-network kernel against the per-node definition."""

    @given(small_tables())
    def test_closeness_is_sum_of_cardinality_differences(self, tables):
        for table in tables:
            assert closeness_indices(table).tolist() == closeness_by_pairs(table)

    @pytest.mark.parametrize("columns", [1, 3])
    @given(table=integer_tables() | float_tables() | small_tables().map(lambda t: t[1])
           | near_tie_tables())
    def test_closeness_in_column_blocks(self, columns, table):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_BLOCK_BYTES", columns * table.shape[0] * 8)
            assert closeness_indices(table).tolist() == closeness_reference(table)

    @given(near_tie_tables().filter(lambda t: len(t) <= 9))
    def test_vectorised_reference_is_the_definition(self, table):
        assert closeness_by_columns(table) == closeness_by_pairs(table)

    @pytest.mark.parametrize("tied_first", [True, False])
    def test_closeness_blocks_with_and_without_ties(self, monkeypatch, tied_first):
        # two 4-column blocks of a float table: one whose columns hold tie
        # groups, one whose columns are all distinct, in either order
        n = 8
        rng = np.random.default_rng(5)
        tied = rng.integers(0, 3, size=(n, 4)).astype(float)
        distinct = np.stack([rng.permutation(n) for _ in range(4)], axis=1) / 2.0
        blocks = (tied, distinct) if tied_first else (distinct, tied)
        table = np.concatenate(blocks, axis=1)
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 4 * n * 8)
        assert closeness_indices(table).tolist() == closeness_by_pairs(table)

    def test_closeness_sort_equals_histogram_at_block_scale(self):
        # an n = 300 hop table spans several default-size column blocks; cast
        # to float it takes the sort branch, whose thousands of tie groups
        # must count as the histogram branch counts the integer table
        graph = d.build_graph(d.deploy_random(300, 274.0, seed=1), 30.0)
        hop = d.compute_tables(graph)
        assert hop.nbytes > 2 * graph_module._BLOCK_BYTES
        assert closeness_indices(hop.astype(float)).tolist() == closeness_indices(hop).tolist()

    @given(small_tables(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.5]))
    def test_bands_count_every_other_node_once(self, tables, r):
        _, euclid = tables
        n = euclid.shape[0]
        expected = [
            [sum(1 for v in range(n) if v != u and low < euclid[u, v] <= high)
             for low, high in ((-1.0, r / 2), (r / 2, 3 * r / 4), (3 * r / 4, r))]
            for u in range(n)
        ]
        assert neighbor_bands(euclid, r).tolist() == expected

    @given(small_tables())
    def test_path_columns_are_row_max_and_means(self, tables):
        hop, euclid = tables
        n = hop.shape[0]
        ecc, mhd, med = path_columns(hop, euclid)
        others = max(n - 1, 1)
        assert ecc.tolist() == [max(row) for row in hop.tolist()]
        assert mhd.tolist() == [sum(row) / others for row in hop.tolist()]
        assert med.tolist() == [float(row.sum()) / others for row in euclid]


class TestPackedKeys:
    """The sort count orders a float64 row by packed (value, node) keys, and
    hands the argsort kernel only the rows whose keys cannot be trusted."""

    @pytest.fixture
    def handed(self, monkeypatch):
        """Every row that reaches ``_argsort_count``."""
        seen = []
        kernel = metrics_module._argsort_count

        def counted(rows, *buffers):
            seen.extend(rows.tolist())
            return kernel(rows, *buffers)

        monkeypatch.setattr(metrics_module, "_argsort_count", counted)
        return seen

    @pytest.mark.parametrize("n, terrain, seed", [(1000, 500.0, 3), (40, 100.0, 1)])
    def test_deployments_never_reach_argsort(self, handed, n, terrain, seed):
        graph = d.build_graph(d.deploy_random(n, terrain, seed=seed), 30.0)
        d.compute_network_metrics(graph, d.compute_tables(graph))
        assert handed == []

    def test_every_tied_row_of_paper23_reaches_argsort(self, handed, bundle):
        # integer distances: every key with a truncated tie has an exact one
        columns = bundle.graph.euclid.T
        closeness_indices(bundle.graph.euclid)
        tied = [column.tolist() for column in columns if len(set(column)) < len(column)]
        assert 0 < len(tied) < len(columns)
        assert sorted(handed) == sorted(tied)


def lattice_positions(side, spacing):
    """A side x side square lattice: every distance recurs, so the closeness
    sort meets long tie groups and the bands meet pairs exactly on a bound."""
    index = np.arange(side * side)
    return np.stack((index % side, index // side), axis=1) * float(spacing)


class TestStreamedRows:
    """A position graph's Euclidean metrics come from rows computed block by
    block from its positions; a fixture-style graph carrying the whole
    table reads slices of it.  The two must agree bit for bit."""

    @staticmethod
    def _metrics(positions, range_):
        graph = d.build_graph(positions, range_)
        table = euclidean_distance_table(positions)
        fixture = d.NetworkGraph(adj=graph.adj, range_=graph.range_, euclid=table)
        hop = d.compute_tables(graph)
        return d.compute_network_metrics(graph, hop), d.compute_network_metrics(fixture, hop), table

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["one-block", "one-row", "ragged"])
    @pytest.mark.parametrize("layout", ["deployment", "lattice"])
    def test_position_graph_equals_whole_table(self, monkeypatch, rows, layout):
        if layout == "lattice":  # 64 nodes; the range ties the diagonal neighbours
            positions, range_ = lattice_positions(8, 10.0), math.sqrt(200.0)
        else:
            positions, range_ = d.deploy_random(60, 100.0, seed=2), 30.0
        if rows is not None:
            monkeypatch.setattr(graph_module, "_BLOCK_BYTES", rows * len(positions) * 8)
        streamed, sliced, table = self._metrics(positions, range_)
        for name in ("g_ed", "med", "bands", "ns_values", "cci", "weights"):
            assert getattr(streamed, name).tobytes() == getattr(sliced, name).tobytes(), name
        assert streamed.g_ed.tolist() == closeness_indices(table).tolist()
        assert streamed.bands.tolist() == neighbor_bands(table, range_).tolist()

    def test_three_blocks_at_n_300(self):
        # 109 rows a block: two full blocks and a ragged one of 82 rows
        positions = d.deploy_random(300, 274.0, seed=1)
        assert -(-300 // graph_module.block_rows(8 * 300)) == 3
        streamed, sliced, _ = self._metrics(positions, 30.0)
        for name in ("g_ed", "med", "bands", "weights"):
            assert getattr(streamed, name).tobytes() == getattr(sliced, name).tobytes(), name


class TestRowBlocksComputed:
    """Only the metrics read Euclidean rows: building a graph, ``verify``
    and a refresh that keeps its weights compute none, and a refresh that
    recomputes its weights computes each row block once."""

    @pytest.fixture
    def starts(self, monkeypatch):
        """The first row of every block that ``distance_rows`` computes."""
        seen = []
        compute = graph_module.distance_rows

        def counted(positions):
            for start, block in compute(positions):
                seen.append(start)
                yield start, block

        monkeypatch.setattr(graph_module, "distance_rows", counted)
        # 7 rows a block, so a 40-node table is six blocks, the last of 5 rows
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 7 * 40 * 8)
        return seen

    @staticmethod
    def _scenario(tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "node_count": 40, "terrain_size": 100.0, "range": 30.0, "v_max": 5.0,
            "broadcast_interval": 1.0, "dt": 1.0, "steps": 8, "seed": 1}))
        return str(path)

    TABLE = [0, 7, 14, 21, 28, 35]

    def test_cluster_once_and_verify_never(self, starts, tmp_path):
        scenario, report = self._scenario(tmp_path), str(tmp_path / "report.json")
        assert main(["cluster", "--scenario", scenario, "--out", report]) == 0
        assert starts == self.TABLE
        starts.clear()
        assert main(["verify", "--scenario", scenario, "--report", report,
                     "--out", str(tmp_path / "verify.txt")]) == 0
        assert starts == []

    def test_simulate_reads_the_t0_table_only(self, starts, tmp_path):
        assert main(["simulate", "--scenario", self._scenario(tmp_path),
                     "--out", str(tmp_path / "sim.json")]) == 0
        assert starts == self.TABLE

    def test_recomputed_weights_read_each_refresh_once(self, starts, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--recompute-weights", "--scenario", self._scenario(tmp_path),
                     "--out", str(out)]) == 0
        summaries = json.loads(out.read_text())["summaries"]
        recomputed = sum(not any("disconnected" in w for w in s["warnings"]) for s in summaries)
        assert len(summaries) == 8 and recomputed > 0
        assert starts == self.TABLE * (1 + recomputed)
