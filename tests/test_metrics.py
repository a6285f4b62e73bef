import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dscluster as d
from dscluster import metrics as metrics_module
from dscluster.errors import (
    ConfigurationError,
    InvalidArgumentError,
    UnreachableNodeError,
)
from dscluster.metrics import closeness_indices, neighbor_bands, path_columns

from conftest import random_edge_graph


def _tables_for(graph):
    return d.hop_distance_table(graph)


class TestCloserCardinalities:
    def test_three_node_path(self):
        hop = _tables_for(d.graph_from_edges(3, [(0, 1), (1, 2)]))
        # only each endpoint is strictly closer to itself; the middle ties
        assert d.closer_hop_cardinalities(0, 2, hop) == (1, 1)

    def test_same_node_rejected(self):
        hop = _tables_for(d.graph_from_edges(2, [(0, 1)]))
        with pytest.raises(InvalidArgumentError):
            d.closer_hop_cardinalities(1, 1, hop)

    def test_tie_accounting_sums_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            graph = random_edge_graph(rng, n_low=3, n_high=8)
            n = graph.node_count
            hop = _tables_for(graph)
            euclid = d.euclidean_distance_table(
                np.random.default_rng(1).uniform(0, 10, (n, 2))
            )
            for u in range(n):
                for v in range(u + 1, n):
                    for table, counter in (
                        (hop, d.closer_hop_cardinalities),
                        (euclid, d.closer_euclidean_cardinalities),
                    ):
                        c_uv, c_vu = counter(u, v, table)
                        ties = int(np.sum(table[u] == table[v]))
                        assert c_uv + c_vu + ties == n

    def test_collinear_euclidean(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        euclid = d.euclidean_distance_table(positions)
        assert d.closer_euclidean_cardinalities(0, 2, euclid) == (2, 1)

    def test_coincident_nodes_all_tie(self):
        positions = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 0.0]])
        euclid = d.euclidean_distance_table(positions)
        assert d.closer_euclidean_cardinalities(0, 1, euclid) == (0, 0)


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

    def test_bfs_recomputation_on_fixture(self, bundle, reference):
        hop = bundle.tables.hop
        values = [d.hop_closeness_index(u, hop) for u in range(23)]
        assert sum(values) == 0
        assert values[18] == 105  # matches the published value for node 18

    def test_disconnected_rejected(self):
        hop = _tables_for(d.graph_from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(UnreachableNodeError):
            d.hop_closeness_index(0, hop)

    def test_euclidean_two_nodes_zero(self):
        euclid = d.euclidean_distance_table(np.array([[0.0, 0.0], [2.0, 0.0]]))
        for u in (0, 1):
            assert d.euclidean_closeness_index(u, euclid) == 0

    def test_euclidean_center_of_circle_is_maximal(self):
        angles = np.linspace(0, 2 * math.pi, 6, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        positions = np.vstack([[0.0, 0.0], ring])
        euclid = d.euclidean_distance_table(positions)
        values = [d.euclidean_closeness_index(u, euclid) for u in range(7)]
        assert values[0] == max(values)
        assert values.index(max(values)) == 0

    def test_euclidean_column_on_fixture(self, bundle, reference):
        # recomputation reproduces the published column at every node except
        # node 7, whose published value carries a sign error (+86 for -86):
        # the corrected value restores the antisymmetry sum to zero
        euclid = bundle.tables.euclid
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
            euclid = d.euclidean_distance_table(positions)
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
        euclid = d.euclidean_distance_table(positions)
        # r=10: strong [0,5], medium (5,7.5], weak (7.5,10]
        m1, m2, m3 = d.neighbor_categories(0, euclid, range_=10.0)
        assert (m1, m2, m3) == (1, 1, 1)

    def test_rebinning_oracle(self):
        positions = d.deploy_random(10, 60.0, seed=21)
        euclid = d.euclidean_distance_table(positions)
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
        euclid = d.euclidean_distance_table(positions)
        for u in range(12):
            m1, m2, m3 = d.neighbor_categories(u, euclid, 35.0)
            assert m1 + m2 + m3 == graph.adj[u].sum()

    def test_missing_range(self):
        euclid = d.euclidean_distance_table(np.zeros((2, 2)))
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
        assert paper_metrics.ns(3) == 400.0


class TestPathStatistics:
    def test_fixture_node_3(self, bundle):
        ecc, mhd, med = d.path_statistics(3, bundle.tables.hop, bundle.tables.euclid)
        assert ecc == 6
        # the published table prints 0.29 for 1/MHD, computed under a
        # different denominator convention; stay within +/-0.01 of it
        assert abs(1.0 / mhd - 0.29) <= 0.01

    def test_single_edge(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        hop = _tables_for(graph)
        euclid = d.euclidean_distance_table(np.array([[0.0, 0.0], [1.0, 0.0]]))
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
        graph, tables, overrides = d.ingest_fixture(
            [(0, 1)], np.zeros((2, 2)), d.FixtureOverrides(ns=[1.0, 1.0])
        )
        with pytest.raises(InvalidArgumentError, match="weight undefined"):
            d.compute_network_metrics(graph, tables, overrides=overrides)

    def test_fixture_weights_recomputed(self, bundle, reference):
        # drop the weight override so the formula actually runs
        overrides = dataclasses.replace(bundle.overrides, w=None)
        metrics = d.compute_network_metrics(
            bundle.graph, bundle.tables, bundle.config, overrides
        )
        expected = reference["table3"]["w"]
        assert metrics.weight(3) == pytest.approx(68.96, abs=0.02)
        assert metrics.weight(20) == pytest.approx(-5.73, abs=0.02)
        assert metrics.weight(20) < 0  # negative weights are valid
        for u in range(23):
            assert metrics.weight(u) == pytest.approx(expected[u], abs=0.02)

    def test_weight_linearity_in_alphas(self):
        positions = d.deploy_random(12, 80.0, seed=17)
        graph = d.build_graph(positions, range_=40.0)
        tables = d.compute_tables(graph)
        base = d.compute_network_metrics(graph, tables, d.WeightConfig())
        scaled = d.compute_network_metrics(
            graph, tables, d.WeightConfig(alphas=(0.5,) * 6)
        )
        assert np.allclose(scaled.weights, 3.0 * base.weights)
        assert int(np.argmax(scaled.weights)) == int(np.argmax(base.weights))


class TestComputeNetworkMetrics:
    def test_fixture_without_ns_override_needs_range(self, bundle):
        with pytest.raises(ConfigurationError):
            d.compute_network_metrics(
                bundle.graph, bundle.tables, bundle.config, d.FixtureOverrides()
            )

    def test_categories_bypassed_with_override(self, paper_metrics):
        assert paper_metrics.bands is None

    def test_single_node_weight_undefined(self):
        graph = d.build_graph(np.array([[1.0, 1.0]]), range_=5.0)
        tables = d.compute_tables(graph)
        metrics = d.compute_network_metrics(graph, tables)
        assert math.isnan(metrics.weight(0))
        assert d.metrics_records(metrics)[0]["w"] is None

    def test_peak_memory_bounded_at_n_1000(self):
        # the two 8 MB tables already exist; the closeness kernel counts them
        # in column blocks instead of sorting a whole copy of each
        graph = d.build_graph(d.deploy_random(1000, 500.0, seed=3), 30.0)
        tables = d.compute_tables(graph)
        tracemalloc.start()
        try:
            d.compute_network_metrics(graph, tables)
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
    return hop + hop.T, d.euclidean_distance_table(np.array(points, dtype=float))


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


def closeness_by_pairs(table):
    """g(u) of every node as the sum of c(u|v) - c(v|u) over v != u: the
    definition the closeness kernel must equal."""
    n = table.shape[0]
    return [
        sum(c_uv - c_vu for v in range(n) if v != u
            for c_uv, c_vu in [d.closer_hop_cardinalities(u, v, table)])
        for u in range(n)
    ]


class TestColumnKernelProperties:
    """Each whole-network kernel against the per-node definition."""

    @given(small_tables())
    def test_closeness_is_sum_of_cardinality_differences(self, tables):
        for table in tables:
            assert closeness_indices(table).tolist() == closeness_by_pairs(table)

    @pytest.mark.parametrize("columns", [1, 3])
    @given(table=integer_tables() | float_tables() | small_tables().map(lambda t: t[1]))
    def test_closeness_in_column_blocks(self, columns, table):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics_module, "_CLOSENESS_BLOCK", columns * table.shape[0])
            assert closeness_indices(table).tolist() == closeness_by_pairs(table)

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
