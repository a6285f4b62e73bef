import json
import tempfile
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import dscluster as d
from dscluster.cli import main
from dscluster.errors import DisconnectedGraphError, InvalidArgumentError

from conftest import (
    ClusterRecord,
    cluster_records,
    cluster_state,
    connected_deployments,
    connected_rgg_suite,
    election_key,
    fixture_inputs,
    node_set,
)

# step-by-step election/adjustment trail on the bundled 23-node fixture
GOLDEN_EVENTS = [
    {"action": "elect_master", "node": 3},
    {"action": "elect_proxy", "node": 1, "master": 3},
    {"action": "form_cluster", "id": 1, "master": 3, "proxy": 1,
     "members": [0, 1, 2, 3, 4, 5, 22], "hidden_masters": []},
    {"action": "defer", "node": 13},
    {"action": "defer", "node": 11},
    {"action": "elect_master", "node": 18},
    {"action": "elect_proxy", "node": 16, "master": 18},
    {"action": "form_cluster", "id": 2, "master": 18, "proxy": 16,
     "members": [13, 14, 15, 16, 17, 18, 19, 21], "hidden_masters": [13, 14]},
    {"action": "elect_master", "node": 9},
    {"action": "elect_proxy", "node": 10, "master": 9},
    {"action": "form_cluster", "id": 3, "master": 9, "proxy": 10,
     "members": [8, 9, 10, 11, 12], "hidden_masters": [11]},
    {"action": "defer", "node": 6},
    {"action": "defer", "node": 7},
    {"action": "defer", "node": 20},
    {"action": "adjust_cluster", "id": 4, "master": 13, "proxy": 11,
     "members": [11, 12, 13, 14, 15]},
    {"action": "prune_cluster", "id": 2, "removed": [13, 14, 15]},
    {"action": "prune_cluster", "id": 3, "removed": [11, 12]},
    {"action": "adjust_cluster", "id": 5, "master": 6, "proxy": 7, "members": [6, 7]},
    {"action": "singleton_master", "id": 6, "node": 20},
]


def _clusters_as_tuples(state):
    return {
        (c.master, c.proxy, tuple(sorted(c.members)))
        for c in cluster_records(state)
    }


def near_column(pairs, hop):
    """Formation's ``near`` column once ``pairs`` are elected: the least hop
    distance to any elected master or proxy, unbounded before the first."""
    leaders = [x for pair in pairs for x in pair if x is not None]
    return hop[leaders].min(axis=0, initial=np.iinfo(np.int64).max)


class TestMasterEligibility:
    def test_first_master_unconditional(self, bundle, paper_hop, paper_metrics):
        # before any election no node is 3 hops from a leader, so formation
        # elects the top-ranked node without asking
        assert not d.master_eligibility(3, near_column([], paper_hop))
        assert max(range(23), key=election_key(paper_metrics)) == 3
        formation = d.run_m_dsec(bundle.graph, paper_hop, paper_metrics)
        assert formation.events[0] == {"action": "elect_master", "node": 3}

    def test_exactly_three_to_proxy(self, paper_hop):
        # node 18 against pair (3, 1): 4 hops to the master, 3 to the proxy
        assert d.master_eligibility(18, near_column([(3, 1)], paper_hop))

    def test_no_exact_three_deferred(self, paper_hop):
        # node 13 against pair (3, 1): 6 and 5 hops, never exactly 3
        assert not d.master_eligibility(13, near_column([(3, 1)], paper_hop))

    def test_adjacent_to_master_rejected(self, paper_hop):
        assert not d.master_eligibility(0, near_column([(3, 1)], paper_hop))

    def test_missing_proxy_ignored(self, paper_hop):
        hop = paper_hop
        assert not d.master_eligibility(18, near_column([(3, None)], hop))  # d=4, no exact 3
        assert hop[8, 3] == 3
        assert d.master_eligibility(8, near_column([(3, None)], hop))


class TestElectProxy:
    def test_initial_master_takes_heaviest_neighbor(self, bundle, paper_hop, paper_metrics):
        near = near_column([], paper_hop)
        assert d.elect_proxy(3, near, paper_metrics, bundle.graph) == 1

    def test_distance_constraint_skips_heavier_neighbor(self, bundle, paper_hop, paper_metrics):
        # neighbour 11 outweighs 10 but sits 2 hops from proxy 16
        near = near_column([(3, 1), (18, 16)], paper_hop)
        assert d.elect_proxy(9, near, paper_metrics, bundle.graph) == 10

    def test_no_qualifying_neighbor(self, bundle, paper_hop, paper_metrics):
        # 17's only neighbour (18) sits 1 hop from the elected master 16
        near = near_column([(16, 13)], paper_hop)
        assert d.elect_proxy(17, near, paper_metrics, bundle.graph) is None


Partitions = namedtuple("Partitions", "n_prime n_dprime n_m")


def _neighbors(graph, u):
    return np.flatnonzero(graph.adj[u]).tolist()


def reference_partitions(u, graph, metrics, masters, proxies):
    """N'(u), N''(u) and N_M(u) against the given masters and proxies, as
    sets built one neighbour at a time: the reference for the engine's
    adjacency masks (see the ``engine`` module docstring)."""
    w_u = metrics.weights[u]
    nbrs = _neighbors(graph, u)
    return Partitions(
        n_prime={v for v in nbrs if metrics.weights[v] > w_u and v not in masters},
        n_dprime={v for v in nbrs
                  if v not in masters and v not in proxies and metrics.weights[v] < w_u},
        n_m={v for v in nbrs if any(graph.adj[v, m] for m in masters)},
    )


def reference_run_adjusted(state, graph, metrics, branches):
    """Adjustment on sets of nodes and a node -> cluster id dict, one
    neighbourhood set at a time: the reference for ``run_adjusted``.
    ``branches`` counts the critical nodes that reach the type-I
    hidden-master branch."""
    critical, hidden_masters_1 = node_set(state.critical), node_set(state.hm1)
    if not critical:
        return state

    clusters = cluster_records(state)
    working = {c.id: c for c in clusters}
    membership = {}  # node -> cluster id; when duplicated, the lowest cluster id wins
    for c in sorted(clusters, key=lambda c: c.id):
        for m in c.members:
            membership.setdefault(m, c.id)
    masters = {c.master for c in clusters}
    proxies = {c.proxy for c in clusters if c.proxy is not None}
    pending = set(critical)
    events = list(state.events)
    next_id = max(working, default=0) + 1
    rank = election_key(metrics)

    def partitions(u):
        return reference_partitions(u, graph, metrics, masters, proxies)

    def attempt(c):
        if any(graph.adj[c, m] for m in masters):
            return None
        own = partitions(c)
        if c in hidden_masters_1 and any(graph.adj[c, p] for p in proxies):
            branches["hidden-master"] += 1
            base = {v for v in _neighbors(graph, c) if v not in masters and v not in proxies}
            for partner in sorted(base, key=rank, reverse=True):
                if partner in pending:
                    if partner in hidden_masters_1:
                        extra = partitions(partner).n_dprime
                    else:
                        extra = set(_neighbors(graph, partner))
                    return partner, {c, partner} | base | extra
                if partner in own.n_m:
                    continue
                return partner, {c, partner} | base | partitions(partner).n_dprime
            return None
        pool = own.n_dprime - own.n_m
        if not pool:
            return None
        partner = max(pool, key=rank)
        mate = partitions(partner)
        return partner, {c, partner} | pool | (mate.n_dprime - mate.n_m)

    for c in sorted(critical, key=rank, reverse=True):
        outcome = attempt(c) if c in pending else None
        if outcome is None:
            continue
        partner, members = outcome
        members -= masters | proxies
        lost = {}
        for m in sorted(members):
            old = membership.get(m)
            if old is not None:
                working[old].members.discard(m)
                lost.setdefault(old, []).append(m)
            membership[m] = next_id
        working[next_id] = ClusterRecord(id=next_id, master=c, proxy=partner, members=members)
        masters.add(c)
        proxies.add(partner)
        events.append({"action": "adjust_cluster", "id": next_id, "master": c,
                       "proxy": partner, "members": sorted(members)})
        for old_id in sorted(lost):
            events.append({"action": "prune_cluster", "id": old_id, "removed": lost[old_id]})
        pending -= members
        next_id += 1

    for c in sorted(pending, key=rank, reverse=True):
        if membership.get(c) is not None:
            continue
        working[next_id] = ClusterRecord(id=next_id, master=c, proxy=None, members={c})
        events.append({"action": "singleton_master", "id": next_id, "node": c})
        next_id += 1

    clusters = [working[cid] for cid in sorted(working)]
    return replace(cluster_state(state.node_count, clusters), hm1=state.hm1, hm2=state.hm2,
                   deferred=state.deferred, events=events)


class TestNeighborPartitions:
    """The reference sets on the bundled fixture."""

    # the roles after formation on the bundled fixture
    MASTERS = {3, 9, 18}
    PROXIES = {1, 10, 16}

    def _parts(self, u, bundle, metrics, masters=MASTERS, proxies=PROXIES):
        return reference_partitions(u, bundle.graph, metrics, masters, proxies)

    def test_roles_are_formation_roles(self, paper_states):
        formation, _ = paper_states
        assert set(formation.masters.tolist()) == self.MASTERS
        assert set(formation.proxies.tolist()) == self.PROXIES

    def test_proxy_16(self, bundle, paper_metrics):
        parts = self._parts(16, bundle, paper_metrics)
        assert sorted(parts.n_prime) == [13, 14]  # master 18 excluded

    def test_node_11_lighter_non_leaders(self, bundle, paper_metrics):
        # 9 is a master, 10 a proxy, and 13 outweighs 11, leaving {12, 14}
        parts = self._parts(11, bundle, paper_metrics)
        assert sorted(parts.n_dprime) == [12, 14]

    def test_all_leader_neighbors_empty(self, bundle, paper_metrics):
        parts = self._parts(17, bundle, paper_metrics)
        assert parts.n_dprime == set()

    def test_near_master_set(self, bundle, paper_metrics):
        parts = self._parts(6, bundle, paper_metrics)
        assert sorted(parts.n_m) == [5, 8]

    def test_no_roles(self, bundle, paper_metrics):
        # with no masters or proxies, N' and N'' split the neighbourhood by
        # weight and N_M is empty
        parts = self._parts(16, bundle, paper_metrics, set(), set())
        w = paper_metrics.weights
        nbrs = _neighbors(bundle.graph, 16)
        assert parts.n_prime == {v for v in nbrs if w[v] > w[16]}
        assert parts.n_dprime == {v for v in nbrs if w[v] < w[16]}
        assert parts.n_m == set()


class TestMasksMatchTheSetReference:
    """Formation's type-I hidden masters are N'(proxy) inside the new
    cluster, and adjustment on masks returns the clusters and events of
    the set-based reference on the same formation state."""

    def test_random_geometric_graphs(self):
        branches = Counter()

        # a type-I hidden master whose partner is a deferred node: the partner
        # brings all its neighbours (about 1 draw in 500 reaches this)
        @example((30, 31.944357319022107, 76867))
        @given(connected_deployments(5, 60))
        def check(deployment):
            n, range_, seed = deployment
            graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
            hop = d.compute_tables(graph)
            metrics = d.compute_network_metrics(graph, hop)
            formation = d.run_m_dsec(graph, hop, metrics)
            masters = set()
            for event in formation.events:
                if event["action"] == "elect_master":
                    masters.add(event["node"])
                elif event["action"] == "form_cluster" and event["proxy"] is not None:
                    n_prime = reference_partitions(event["proxy"], graph, metrics, masters, set())
                    assert event["hidden_masters"] == sorted(n_prime.n_prime & set(event["members"]))
            expected = reference_run_adjusted(formation, graph, metrics, branches)
            final = d.run_adjusted(formation, graph, metrics)
            assert _clustering(final, range(n)) == _clustering(expected, range(n))
            assert final.events == expected.events
            branches["prune"] += any(e["action"] == "prune_cluster" for e in final.events)

        check()
        assert branches["hidden-master"] > 0 and branches["prune"] > 0, branches


class TestSeparationEdgeCases:
    """master_eligibility / elect_proxy on a 7-node path whose hop table
    carries planted UNREACHABLE entries, and on pairs without a proxy."""

    @pytest.fixture
    def path7(self):
        n = 7
        edges = [(i, i + 1) for i in range(n - 1)]
        euclid = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
        weights = [1.0, 6.0, 4.0, 7.0, 5.0, 3.0, 2.0]
        overrides = d.FixtureOverrides(ns=[0.0] * n, w=weights)
        graph, hop = fixture_inputs(edges, euclid)
        metrics = d.compute_network_metrics(graph, hop, overrides=overrides)
        return hop.copy(), metrics, graph

    @staticmethod
    def _cut(hop, u, v):
        hop[u, v] = hop[v, u] = d.UNREACHABLE

    def test_unreachable_leader_is_too_close(self, path7):
        hop, _, _ = path7
        assert d.master_eligibility(3, near_column([(0, None)], hop))
        self._cut(hop, 3, 0)
        assert not d.master_eligibility(3, near_column([(0, None)], hop))

    def test_unreachable_proxy_is_too_close(self, path7):
        hop, _, _ = path7
        assert d.master_eligibility(6, near_column([(0, 3)], hop))
        self._cut(hop, 6, 0)
        assert not d.master_eligibility(6, near_column([(0, 3)], hop))

    def test_proxy_none_imposes_nothing(self, path7):
        hop, metrics, graph = path7
        # 4 outweighs 2 but sits 2 hops from master 6; 2 sits 4 hops away
        assert d.elect_proxy(3, near_column([], hop), metrics, graph) == 4
        assert d.elect_proxy(3, near_column([(6, None)], hop), metrics, graph) == 2

    def test_unreachable_candidate_skipped(self, path7):
        hop, metrics, graph = path7
        self._cut(hop, 2, 6)
        assert d.elect_proxy(3, near_column([(6, None)], hop), metrics, graph) is None


class TestFormation:
    def test_reference_clusters(self, paper_states):
        formation, _ = paper_states
        assert _clusters_as_tuples(formation) == {
            (3, 1, (0, 1, 2, 3, 4, 5, 22)),
            (18, 16, (13, 14, 15, 16, 17, 18, 19, 21)),
            (9, 10, (8, 9, 10, 11, 12)),
        }

    def test_reference_bookkeeping(self, paper_states):
        formation, _ = paper_states
        assert node_set(formation.hm1) == {11, 13, 14}
        assert node_set(formation.critical) == {6, 7, 11, 13, 14, 20}
        assert node_set(formation.deferred) == {6, 7, 11, 13, 20}
        # final unabsorbed deferred nodes, none adjacent to a proxy
        assert node_set(formation.hm2) == {6, 7, 20}

    @given(connected_deployments(2, 60))
    def test_hm2_is_the_unclustered_set(self, deployment):
        """The deferred nodes adjacent to no proxy are exactly the nodes no
        cluster of the formation lists: a node free at the end was deferred
        when visited, and every free neighbour of a leader joined it."""
        n, range_, seed = deployment
        graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
        hop = d.compute_tables(graph)
        formation = d.run_m_dsec(graph, hop, d.compute_network_metrics(graph, hop))
        unclustered = formation.statuses() == d.STATUSES.index("unclustered")
        proxies = formation.proxies[formation.proxies >= 0]
        by_definition = formation.deferred & unclustered & ~graph.adj[:, proxies].any(axis=1)
        assert np.array_equal(formation.hm2, unclustered)
        assert np.array_equal(formation.hm2, by_definition)

    @staticmethod
    def _assert_hm1_touches_its_own_proxy(formation, graph):
        """Each hm1 node is listed once, in a cluster with a proxy that it
        is adjacent to, so adjustment's hm1 branch needs no proxy test."""
        listed = formation.hm1[formation.nodes]
        nodes, own = formation.nodes[listed], formation.proxies[formation.cluster[listed]]
        assert np.array_equal(np.sort(nodes), np.flatnonzero(formation.hm1))
        assert (own >= 0).all() and graph.adj[nodes, own].all()

    @given(connected_deployments(2, 60))
    def test_hm1_touches_its_own_proxy(self, deployment):
        n, range_, seed = deployment
        graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
        hop = d.compute_tables(graph)
        formation = d.run_m_dsec(graph, hop, d.compute_network_metrics(graph, hop))
        self._assert_hm1_touches_its_own_proxy(formation, graph)

    def test_hm1_touches_its_own_proxy_on_paper23(self, bundle, paper_states):
        formation, _ = paper_states
        assert node_set(formation.hm1) == {11, 13, 14}
        self._assert_hm1_touches_its_own_proxy(formation, bundle.graph)

    def test_golden_event_trail(self, paper_states):
        _, final = paper_states
        assert final.events == GOLDEN_EVENTS

    def test_statuses(self, paper_states):
        formation, _ = paper_states
        st = [d.STATUSES[code] for code in formation.statuses()]
        assert (st[3], st[16], st[0]) == ("master", "proxy", "slave")
        # statuses read every state as a complete clustering: the type-I
        # hidden master 13 is a slave, the deferred node 20 unclustered
        assert (st[13], st[20]) == ("slave", "unclustered")

    def test_single_node(self):
        graph = d.build_graph(np.array([[5.0, 5.0]]), range_=10.0)
        hop = d.compute_tables(graph)
        state = d.run_m_dsec(graph, hop, None)
        assert cluster_records(state) == [ClusterRecord(1, 0, None, {0})]
        assert not state.critical.any()

    def test_star_graph_perfect(self):
        # hub with four spokes at unit range; the hub's degree dominates
        edges = [(0, v) for v in range(1, 5)]
        euclid = np.full((5, 5), 2.0)
        np.fill_diagonal(euclid, 0.0)
        for v in range(1, 5):
            euclid[0, v] = euclid[v, 0] = 1.0
        overrides = d.FixtureOverrides(ns=[400.0, 100.0, 100.0, 100.0, 100.0])
        graph, hop = fixture_inputs(edges, euclid)
        metrics = d.compute_network_metrics(graph, hop, overrides=overrides)
        formation, final = d.form_and_adjust(graph, hop, metrics)
        assert d.classification(formation) == "perfect"
        assert final is formation
        # the four leaves tie on weight and NS; the lowest id wins
        assert cluster_records(formation) == [ClusterRecord(1, 0, 1, {0, 1, 2, 3, 4})]
        assert not formation.critical.any()
        # no critical node left, and full coverage is required
        assert [d.STATUSES[code] for code in formation.statuses()] == ["master", "proxy"] + [
            "slave"] * 3
        dropped = cluster_state(5, [(0, 1, {0, 1, 2, 3})])
        assert not d.check_partition(dropped, graph).passed

    def test_disconnected_refused(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError) as err:
            d.run_m_dsec(graph, d.hop_distance_table(graph), None)
        assert err.value.components == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (0, 3)]])
    def test_more_than_one_node_needs_metrics(self, edges):
        graph = d.graph_from_edges(len(edges) + 1, edges)
        with pytest.raises(InvalidArgumentError,
                           match=r"^metrics with weights are required for n > 1$"):
            d.run_m_dsec(graph, d.hop_distance_table(graph), None)

    def test_deferred_nodes_failed_eligibility(self, paper_hop, paper_states, paper_metrics):
        # replay the event trail: every deferral really failed the distance test
        formation, _ = paper_states
        pairs = []
        for event in formation.events:
            if event["action"] == "form_cluster":
                pairs.append((event["master"], event["proxy"]))
            elif event["action"] == "defer":
                assert not d.master_eligibility(
                    event["node"], near_column(pairs, paper_hop)
                )

    def test_master_outweighs_proxy_on_fixture(self, paper_states, paper_metrics):
        formation, _ = paper_states
        for m, p in zip(formation.masters.tolist(), formation.proxies.tolist()):
            assert paper_metrics.weights[m] >= paper_metrics.weights[p]


class TestTieBreaking:
    def _fixture(self, weights, ns):
        n = len(weights)
        edges = [(i, i + 1) for i in range(n - 1)]
        euclid = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
        overrides = d.FixtureOverrides(ns=ns, w=weights)
        graph, hop = fixture_inputs(edges, euclid)
        metrics = d.compute_network_metrics(graph, hop, overrides=overrides)
        return graph, hop, metrics

    def test_weight_tie_higher_ns_wins(self):
        graph, hop, metrics = self._fixture([5.0, 5.0, 1.0], [10.0, 20.0, 0.0])
        state = d.run_m_dsec(graph, hop, metrics)
        assert state.masters[0] == 1

    def test_full_tie_lower_id_wins(self):
        graph, hop, metrics = self._fixture([5.0, 5.0, 1.0], [10.0, 10.0, 0.0])
        state = d.run_m_dsec(graph, hop, metrics)
        assert state.masters[0] == 0

    def test_rank_orders_weight_ns_id(self):
        _, _, metrics = self._fixture([5.0, 5.0, 5.0, 6.0], [10.0, 20.0, 10.0, 0.0])
        order = sorted(range(4), key=election_key(metrics), reverse=True)
        assert metrics.order.tolist() == order == [3, 1, 0, 2]

    def test_rerun_identical(self):
        for seed, graph in connected_rgg_suite(5, start_seed=300):
            hop = d.compute_tables(graph)
            metrics = d.compute_network_metrics(graph, hop)
            a = d.form_and_adjust(graph, hop, metrics)
            b = d.form_and_adjust(graph, hop, metrics)
            report_a = d.cluster_report(*a)
            report_b = d.cluster_report(*b)
            assert json.dumps(report_a) == json.dumps(report_b)


class TestAdjustment:
    def test_reference_adjusted_clusters(self, paper_states):
        _, final = paper_states
        assert not final.critical.any()
        assert _clusters_as_tuples(final) == {
            (3, 1, (0, 1, 2, 3, 4, 5, 22)),
            (18, 16, (16, 17, 18, 19, 21)),
            (9, 10, (8, 9, 10)),
            (13, 11, (11, 12, 13, 14, 15)),
            (6, 7, (6, 7)),
            (20, None, (20,)),
        }

    def test_partition_after_adjustment(self, bundle, paper_states):
        _, final = paper_states
        check = d.check_partition(final, bundle.graph)
        assert check.passed
        assert len(final.nodes) == 23

    def test_no_critical_is_identity(self):
        edges = [(0, v) for v in range(1, 5)]
        euclid = np.full((5, 5), 2.0)
        np.fill_diagonal(euclid, 0.0)
        for v in range(1, 5):
            euclid[0, v] = euclid[v, 0] = 1.0
        overrides = d.FixtureOverrides(ns=[0.0] * 5)
        graph, hop = fixture_inputs(edges, euclid)
        metrics = d.compute_network_metrics(graph, hop, overrides=overrides)
        state = d.run_m_dsec(graph, hop, metrics)
        assert not state.critical.any()
        assert d.run_adjusted(state, graph, metrics) is state

    def test_members_leave_donor_clusters(self, paper_states):
        _, final = paper_states
        owner = {v: c.id for c in cluster_records(final) for v in c.members}
        for node in (13, 14, 15):
            assert owner[node] == 4  # pulled out of cluster 2
        for node in (11, 12):
            assert owner[node] == 4  # pulled out of cluster 3


class TestClassify:
    def test_reference_is_fairly_perfect(self, paper_states):
        formation, _ = paper_states
        assert d.classification(formation) == d.CLASS_FAIRLY_PERFECT


class TestRandomisedInvariants:
    def test_disjoint_members_and_pair_edges(self):
        for seed, graph in connected_rgg_suite(30, start_seed=500):
            hop = d.compute_tables(graph)
            metrics = d.compute_network_metrics(graph, hop)
            formation, final = d.form_and_adjust(graph, hop, metrics)
            for state in (formation, final):
                seen = set()
                for c in cluster_records(state):
                    assert not (c.members & seen)
                    seen |= c.members
                    assert c.master in c.members
                    if c.proxy is not None:
                        assert graph.adj[c.master, c.proxy]
            covered = set().union(*(c.members for c in cluster_records(final)))
            assert covered == set(range(graph.node_count))


def _hidden_masters_touch_their_proxy(graph, formation, final):
    """Adjustment tests only whether a type-I hidden master touches some
    proxy, because formation puts each one in N'(y) of the proxy y of the
    cluster that lists it, and no proxy is lost during adjustment.  Returns
    how many hidden masters were seen."""
    listed, hidden_masters_1 = set(), node_set(formation.hm1)
    for c in cluster_records(formation):
        for v in hidden_masters_1 & c.members:
            assert c.proxy is not None and graph.adj[v, c.proxy]
            listed.add(v)
    assert listed == hidden_masters_1
    assert set(formation.proxies.tolist()) <= set(final.proxies.tolist())
    return len(listed)


class TestAdjustmentPreconditions:
    def test_paper_fixture(self, bundle, paper_states):
        assert _hidden_masters_touch_their_proxy(bundle.graph, *paper_states) > 0

    def test_random_geometric_graphs(self):
        seen = 0
        for seed, graph in connected_rgg_suite(40, start_seed=700):
            hop = d.compute_tables(graph)
            metrics = d.compute_network_metrics(graph, hop)
            seen += _hidden_masters_touch_their_proxy(
                graph, *d.form_and_adjust(graph, hop, metrics))
        assert seen > 0


STRUCTURAL_CHECKS = ("cluster-diameter", "double-star", "partition", "dominance-and-independence")


class TestEnginePassesItsVerifier:
    """On every connected unit-disk graph the engine's final clustering
    passes the structural checks, and the CLI's own report verifies."""

    @given(
        n=st.integers(2, 40),
        range_=st.floats(20.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cluster_then_verify_passes(self, n, range_, seed):
        graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
        assume(len(graph.components()) == 1)
        hop = d.compute_tables(graph)
        metrics = d.compute_network_metrics(graph, hop)
        _, final = d.form_and_adjust(graph, hop, metrics)
        assert [c for c in d.run_property_checks(final, graph) if not c.passed] == []

        with tempfile.TemporaryDirectory() as tmp:
            scenario, out, text = (Path(tmp, name) for name in ("s.json", "r.json", "v.txt"))
            scenario.write_text(json.dumps({
                "node_count": n, "terrain_size": 100.0, "range": range_,
                "v_max": 0.0, "seed": seed,
            }))
            inputs = ["--scenario", str(scenario)]
            assert main(["cluster", *inputs, "--out", str(out)]) == 0
            code = main(["verify", *inputs, "--report", str(out), "--out", str(text)])
            lines = text.read_text().splitlines()
        status = {line.split()[1]: line.split()[0] for line in lines[1:] if line[0] != " "}
        assert [status[name] for name in STRUCTURAL_CHECKS] == ["pass"] * 4, lines
        # a perfect report also gets efficient-edge-domination, which the
        # engine's perfect label guarantees
        assert code == 0, lines


def _clustering(state, label):
    """(clusters as (id, master, proxy, members), deferred, critical) with
    every node renamed by ``label``."""
    rename = label.__getitem__
    clusters = [
        (c.id, rename(c.master), None if c.proxy is None else rename(c.proxy),
         sorted(map(rename, c.members)))
        for c in cluster_records(state)
    ]
    return (clusters, sorted(map(rename, node_set(state.deferred))),
            sorted(map(rename, node_set(state.critical))))


@st.composite
def relabelled_deployments(draw):
    """(positions, perm) of a connected deployment (terrain 100, range 30)
    and a permutation of its nodes."""
    n, _, seed = draw(connected_deployments(10, 60, 30.0, 30.0))
    return d.deploy_random(n, 100.0, seed), np.array(draw(st.permutations(range(n))))


class TestRelabelling:
    """The weights are permutation-equivariant and ids only break exact
    ties, so clustering ``positions[perm]`` gives the formation and final
    clusters of ``positions`` with every node v renamed to its new index."""

    @staticmethod
    def _states(positions):
        graph = d.build_graph(positions, 30.0)
        hop = d.compute_tables(graph)
        metrics = d.compute_network_metrics(graph, hop)
        return metrics.weights, d.form_and_adjust(graph, hop, metrics)

    def test_clusters_follow_the_nodes(self):
        runs, ties = [], []

        @given(relabelled_deployments())
        def check(deployment):
            positions, perm = deployment
            weights, states = self._states(positions)
            runs.append(len(positions))
            if len(np.unique(weights)) < len(weights):
                ties.append(len(positions))  # ids break this tie: no oracle
                return
            new_label = np.argsort(perm)  # node perm[i] is node i after relabelling
            _, relabelled = self._states(positions[perm])
            for state, other in zip(states, relabelled):
                assert _clustering(other, range(len(perm))) == _clustering(state, new_label)

        check()
        assert len(ties) * 10 <= len(runs), (len(ties), len(runs))
