import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dscluster as d
from dscluster.engine import PHASE_ADJUSTED
from dscluster.errors import InvalidArgumentError, SizeLimitError

from conftest import random_edge_graph


def _state(node_count, clusters, phase=PHASE_ADJUSTED):
    records = [
        d.ClusterRecord(id=i + 1, master=m, proxy=p, members=set(members))
        for i, (m, p, members) in enumerate(clusters)
    ]
    return d.ClusterState(
        node_count=node_count, clusters=records, critical=set(),
        hidden_masters_1=set(), hidden_masters_2=set(), deferred=set(),
        phase=phase,
    )


def _per_cluster_diameter_witnesses(state, graph):
    """One BFS per cluster on its member-induced subgraph: the reference for
    the single BFS over all clusters."""
    witnesses = []
    for cluster in state.clusters:
        order = sorted(cluster.members)
        hop = d.hop_distance_table(d.NetworkGraph(adj=graph.adj[np.ix_(order, order)]))
        for i, j in np.argwhere((hop == d.UNREACHABLE) | (hop > 3)):
            distance = None if hop[i, j] == d.UNREACHABLE else int(hop[i, j])
            witnesses.append({"cluster": cluster.id, "pair": [order[i], order[j]],
                              "distance": distance})
    return witnesses


@st.composite
def _graph_and_clusters(draw):
    """A small graph and up to five clusters with any member sets (empty,
    overlapping, leaders outside) under distinct ids in any order."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    nodes = st.integers(0, n - 1)
    count = draw(st.integers(0, 5))
    ids = draw(st.permutations(range(1, count + 1)))
    clusters = [
        d.ClusterRecord(id=cid, master=draw(nodes), proxy=None,
                        members=draw(st.sets(nodes)))
        for cid in ids
    ]
    return d.graph_from_edges(n, edges), clusters


def _loop_dominance_and_independence(state, graph, hop):
    """(dominance, independence) witnesses by one scalar lookup per member
    and leader and one adjacency test per pair of masters: the reference
    for the gathered check."""
    dominance = []
    for cluster in state.clusters:
        for v in sorted(cluster.members - cluster.leaders):
            dists = [hop[v, l] for l in cluster.leaders]
            reachable = [h for h in dists if h != d.UNREACHABLE]
            if not reachable or min(reachable) > 2:
                dominance.append({"cluster": cluster.id, "node": v})
    independence = []
    masters = sorted(state.masters())
    for i, a in enumerate(masters):
        for b in masters[i + 1:]:
            if graph.adjacent(a, b):
                independence.append({"masters": [a, b]})
    return dominance, independence


@st.composite
def _graph_and_led_clusters(draw):
    """A small, often disconnected graph and up to six clusters whose leaders
    and members are any nodes: proxy-less, overlapping, sharing masters."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    nodes = st.integers(0, n - 1)
    clusters = [
        (draw(nodes), draw(st.none() | nodes), draw(st.sets(nodes)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return d.graph_from_edges(n, edges), _state(n, clusters)


class TestClusterDiameter:
    @given(_graph_and_clusters())
    def test_single_bfs_matches_per_cluster_reference(self, drawn):
        graph, clusters = drawn
        state = d.ClusterState(
            node_count=graph.node_count, clusters=clusters, critical=set(),
            hidden_masters_1=set(), hidden_masters_2=set(), deferred=set(),
        )
        expected = _per_cluster_diameter_witnesses(state, graph)
        check = d.check_cluster_diameter(state, graph)
        assert check.witnesses == expected
        assert check.passed == (not expected)

    def test_overlapping_clusters_beyond_the_size_bound_refused(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        clusters = [(0, 1, {0, 1})] * (d.graph.MAX_NODES // 2 + 1)
        with pytest.raises(SizeLimitError):
            d.check_cluster_diameter(_state(2, clusters), graph)

    def test_reference_initial_cluster(self, bundle, paper_states):
        formation, _, _ = paper_states
        check = d.check_cluster_diameter(formation, bundle.graph)
        assert check.passed

    def test_singleton_cluster(self):
        graph = d.graph_from_edges(1, [])
        state = _state(1, [(0, None, {0})])
        assert d.check_cluster_diameter(state, graph).passed

    def test_path_cluster_diameter_three(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        state = _state(4, [(1, 2, {0, 1, 2, 3})])
        assert d.check_cluster_diameter(state, graph).passed

    def test_overlong_path_fails_with_witness(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        state = _state(5, [(1, 2, {0, 1, 2, 3, 4})])
        check = d.check_cluster_diameter(state, graph)
        assert not check.passed
        assert {"cluster": 1, "pair": [0, 4], "distance": 4} in check.witnesses

    def test_distances_stay_inside_the_cluster(self):
        # 0-1-2-3-4 is a member path; the non-member 5 would shorten 0..4 to
        # 2 hops, and member 6 has no edge at all
        graph = d.graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)])
        state = _state(7, [(1, 2, {0, 1, 2, 3, 4, 6}), (5, None, {5})])
        check = d.check_cluster_diameter(state, graph)
        members = [0, 1, 2, 3, 4, 6]
        expected = [
            {"cluster": 1, "pair": [u, v], "distance": None if 6 in (u, v) else 4}
            for u in members for v in members
            if u != v and (6 in (u, v) or {u, v} == {0, 4})
        ]
        assert check.witnesses == expected


class TestDoubleStar:
    def test_reference_pruned_cluster(self, bundle, paper_states):
        _, final, _ = paper_states
        check = d.check_double_star(final, bundle.graph)
        assert check.passed

    def test_missing_proxy_vacuous_with_note(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        state = _state(2, [(0, None, {0, 1})])
        check = d.check_double_star(state, graph)
        assert check.passed
        assert "without a proxy" in check.note

    def test_stranded_member_fails(self):
        # node 3 touches neither leader
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        state = _state(4, [(0, 1, {0, 1, 2, 3})])
        check = d.check_double_star(state, graph)
        assert not check.passed
        assert {"cluster": 1, "stranded_member": 3} in check.witnesses

    def test_leaders_not_adjacent_fails(self):
        graph = d.graph_from_edges(3, [(0, 1), (1, 2)])
        state = _state(3, [(0, 2, {0, 1, 2})])
        check = d.check_double_star(state, graph)
        assert not check.passed
        assert {"cluster": 1, "missing_edge": [0, 2]} in check.witnesses


class TestPartition:
    def test_reference_final_state_covers_everything(self, bundle, paper_states):
        _, final, _ = paper_states
        assert d.check_partition(final, bundle.graph).passed

    def test_duplicate_membership_detected(self, bundle, paper_states):
        _, final, _ = paper_states
        broken = final.copy()
        broken.clusters[0].members.add(20)
        check = d.check_partition(broken, bundle.graph)
        assert not check.passed
        assert any(w.get("node") == 20 and "clusters" in w for w in check.witnesses)

    def test_uncovered_node_detected(self, bundle, paper_states):
        _, final, _ = paper_states
        broken = final.copy()
        broken.clusters[-1].members.discard(20)
        check = d.check_partition(broken, bundle.graph)
        assert not check.passed

    def test_formation_phase_allows_critical_outside(self, bundle, paper_states):
        formation, _, _ = paper_states
        assert d.check_partition(formation, bundle.graph).passed

    def test_empty_state_vacuous(self):
        state = _state(0, [])
        graph = d.graph_from_edges(1, [])  # graph unused beyond adjacency lookups
        assert d.check_partition(state, graph).passed


class TestDominanceAndIndependence:
    @given(_graph_and_led_clusters())
    def test_gathers_match_the_loop_reference(self, drawn):
        graph, state = drawn
        dominance, independence = _loop_dominance_and_independence(
            state, graph, d.hop_distance_table(graph))
        check = d.check_dominance_and_independence(state, graph, d.hop_distance_table(graph))
        assert check.witnesses == dominance + independence
        assert check.details == {"slave_dominance_ok": not dominance,
                                 "master_independence_ok": not independence}

    def test_unreachable_overlapping_and_proxy_less_clusters(self):
        # 0-1-2-3 and 4-5 are separate components; 6 is isolated
        graph = d.graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
        state = _state(7, [(1, 2, {0, 1, 2, 3, 4}), (5, None, {3, 4, 5, 6}), (0, None, {0, 3})])
        check = d.check_dominance_and_independence(state, graph, d.hop_distance_table(graph))
        assert check.witnesses == [
            {"cluster": 1, "node": 4}, {"cluster": 2, "node": 3}, {"cluster": 2, "node": 6},
            {"cluster": 3, "node": 3}, {"masters": [0, 1]},
        ]
        dominance, independence = _loop_dominance_and_independence(
            state, graph, d.hop_distance_table(graph))
        assert check.witnesses == dominance + independence

    def test_reference_final_state(self, bundle, paper_states):
        _, final, _ = paper_states
        check = d.check_dominance_and_independence(
            final, bundle.graph, bundle.tables.hop
        )
        assert check.passed
        assert check.details == {
            "slave_dominance_ok": True,
            "master_independence_ok": True,
        }

    def test_reference_masters_pairwise_far(self, bundle, paper_states):
        _, final, _ = paper_states
        masters = sorted(final.masters())
        assert masters == [3, 6, 9, 13, 18, 20]
        hop = bundle.tables.hop
        for i, a in enumerate(masters):
            for b in masters[i + 1:]:
                assert hop[a, b] >= 2

    def test_reference_members_within_two_hops(self, bundle, paper_states):
        _, final, _ = paper_states
        hop = bundle.tables.hop
        for c in final.clusters:
            for v in c.members - c.leaders:
                assert min(hop[v, l] for l in c.leaders) <= 2

    def test_adjacent_masters_fail(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        state = _state(4, [(0, 1, {0, 1}), (3, 2, {2, 3})])
        check = d.check_dominance_and_independence(
            state, graph, d.hop_distance_table(graph)
        )
        assert not check.passed
        assert not check.details["master_independence_ok"]
        assert check.details["slave_dominance_ok"]

    def test_far_member_fails_dominance(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        state = _state(5, [(0, 1, {0, 1, 4}), (2, 3, {2, 3})])
        check = d.check_dominance_and_independence(
            state, graph, d.hop_distance_table(graph)
        )
        assert not check.passed
        assert not check.details["slave_dominance_ok"]
        assert {"cluster": 1, "node": 4} in check.witnesses


class TestEfficientEdgeDomination:
    def test_single_edge_dominates_itself(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        assert d.check_efficient_edge_domination([(0, 1)], graph)

    def test_middle_edge_of_path_four(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert d.check_efficient_edge_domination([(1, 2)], graph)

    def test_double_domination_rejected(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not d.check_efficient_edge_domination([(0, 1), (1, 2)], graph)

    def test_non_edge_rejected(self):
        graph = d.graph_from_edges(3, [(0, 1)])
        with pytest.raises(InvalidArgumentError):
            d.check_efficient_edge_domination([(0, 2)], graph)

    def test_agrees_with_naive_counter(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            graph = random_edge_graph(rng, n_low=3, n_high=7)
            edges = graph.edges()
            if not edges:
                continue
            k = int(rng.integers(1, len(edges) + 1))
            picks = [edges[i] for i in rng.choice(len(edges), size=k, replace=False)]
            naive = all(
                sum(1 for (u, v) in picks if a in (u, v) or b in (u, v)) == 1
                for (a, b) in edges
            )
            assert d.check_efficient_edge_domination(picks, graph) == naive


class TestLineGraphDominationNumber:
    def test_single_edge(self):
        assert d.line_graph_domination_number(d.graph_from_edges(2, [(0, 1)])) == 1

    def test_path_four(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert d.line_graph_domination_number(graph) == 1

    def test_two_disjoint_edges(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        assert d.line_graph_domination_number(graph) == 2

    def test_empty_graph(self):
        assert d.line_graph_domination_number(d.graph_from_edges(3, [])) == 0

    def test_size_limit(self):
        edges = [(0, v) for v in range(1, 22)]
        graph = d.graph_from_edges(22, edges)
        with pytest.raises(SizeLimitError):
            d.line_graph_domination_number(graph)


class TestReport:
    def test_radius_and_diameter(self, bundle, paper_states):
        _, final, _ = paper_states
        report = d.run_property_checks(final, bundle.graph, bundle.tables.hop)
        assert (report.radius, report.diameter) == (6, 7)
        assert report.passed
        assert report.failures() == []

    def test_disconnected_radius_none(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        hop = d.hop_distance_table(graph)
        state = _state(4, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        report = d.run_property_checks(state, graph, hop)
        assert report.radius is None and report.diameter is None

    def test_to_dict_shape(self, bundle, paper_states):
        _, final, _ = paper_states
        doc = d.run_property_checks(final, bundle.graph, bundle.tables.hop).to_dict()
        assert set(doc) == {"passed", "radius", "diameter", "checks"}
        assert [c["name"] for c in doc["checks"]] == [
            "cluster-diameter", "double-star", "partition",
            "dominance-and-independence",
        ]
