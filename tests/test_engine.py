import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dscluster as d
from dscluster.cli import main
from dscluster.errors import DisconnectedGraphError

from conftest import connected_rgg_suite

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
        for c in state.clusters
    }


class TestMasterEligibility:
    def test_first_master_unconditional(self, bundle):
        assert d.master_eligibility(3, [], bundle.tables.hop)

    def test_exactly_three_to_proxy(self, bundle):
        # node 18 against pair (3, 1): 4 hops to the master, 3 to the proxy
        assert d.master_eligibility(18, [(3, 1)], bundle.tables.hop)

    def test_no_exact_three_deferred(self, bundle):
        # node 13 against pair (3, 1): 6 and 5 hops, never exactly 3
        assert not d.master_eligibility(13, [(3, 1)], bundle.tables.hop)

    def test_adjacent_to_master_rejected(self, bundle):
        assert not d.master_eligibility(0, [(3, 1)], bundle.tables.hop)

    def test_missing_proxy_ignored(self, bundle):
        hop = bundle.tables.hop
        assert not d.master_eligibility(18, [(3, None)], hop)  # d=4, no exact 3
        assert hop[8, 3] == 3
        assert d.master_eligibility(8, [(3, None)], hop)


class TestElectProxy:
    def test_initial_master_takes_heaviest_neighbor(self, bundle, paper_metrics):
        assert d.elect_proxy(3, [], paper_metrics, bundle.tables.hop) == 1

    def test_distance_constraint_skips_heavier_neighbor(self, bundle, paper_metrics):
        # neighbour 11 outweighs 10 but sits 2 hops from proxy 16
        pairs = [(3, 1), (18, 16)]
        assert d.elect_proxy(9, pairs, paper_metrics, bundle.tables.hop) == 10

    def test_no_qualifying_neighbor(self, bundle, paper_metrics):
        # 17's only neighbour (18) sits 1 hop from the elected master 16
        pairs = [(16, 13)]
        assert d.elect_proxy(17, pairs, paper_metrics, bundle.tables.hop) is None


class TestNeighborPartitions:
    # the roles after formation on the bundled fixture
    MASTERS = {3, 9, 18}
    PROXIES = {1, 10, 16}

    def _parts(self, u, bundle, metrics, masters=MASTERS, proxies=PROXIES):
        return d.neighbor_partitions(u, bundle.graph, metrics, masters, proxies)

    def test_roles_are_formation_roles(self, paper_states):
        formation, _ = paper_states
        assert formation.masters() == self.MASTERS
        assert formation.proxies() == self.PROXIES

    def test_proxy_16(self, bundle, paper_metrics):
        parts = self._parts(16, bundle, paper_metrics)
        assert sorted(parts.n_prime) == [13, 14]  # master 18 excluded

    def test_node_11_lighter_non_leaders(self, bundle, paper_metrics):
        # 9 is a master, 10 a proxy, and 13 outweighs 11, leaving {12, 14}
        parts = self._parts(11, bundle, paper_metrics)
        assert sorted(parts.n_dprime) == [12, 14]

    def test_all_leader_neighbors_empty(self, bundle, paper_metrics):
        parts = self._parts(17, bundle, paper_metrics)
        assert parts.n_dprime == frozenset()

    def test_near_master_set(self, bundle, paper_metrics):
        parts = self._parts(6, bundle, paper_metrics)
        assert sorted(parts.n_m) == [5, 8]

    def test_no_roles(self, bundle, paper_metrics):
        # with no masters or proxies, N' and N'' split the neighbourhood by
        # weight and N_M is empty
        parts = self._parts(16, bundle, paper_metrics, set(), set())
        w = paper_metrics.weight
        nbrs = bundle.graph.neighbors(16)
        assert parts.n_prime == {v for v in nbrs if w(v) > w(16)}
        assert parts.n_dprime == {v for v in nbrs if w(v) < w(16)}
        assert parts.n_m == frozenset()


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
        graph, tables, overrides = d.ingest_fixture(edges, euclid, overrides)
        metrics = d.compute_network_metrics(graph, tables, overrides=overrides)
        return tables.hop.copy(), metrics

    @staticmethod
    def _cut(hop, u, v):
        hop[u, v] = hop[v, u] = d.UNREACHABLE

    def test_unreachable_leader_is_too_close(self, path7):
        hop, _ = path7
        assert d.master_eligibility(3, [(0, None)], hop)
        self._cut(hop, 3, 0)
        assert not d.master_eligibility(3, [(0, None)], hop)

    def test_unreachable_proxy_is_too_close(self, path7):
        hop, _ = path7
        assert d.master_eligibility(6, [(0, 3)], hop)
        self._cut(hop, 6, 0)
        assert not d.master_eligibility(6, [(0, 3)], hop)

    def test_proxy_none_imposes_nothing(self, path7):
        hop, metrics = path7
        # 4 outweighs 2 but sits 2 hops from master 6; 2 sits 4 hops away
        assert d.elect_proxy(3, [], metrics, hop) == 4
        assert d.elect_proxy(3, [(6, None)], metrics, hop) == 2

    def test_unreachable_candidate_skipped(self, path7):
        hop, metrics = path7
        self._cut(hop, 2, 6)
        assert d.elect_proxy(3, [(6, None)], metrics, hop) is None


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
        assert formation.hidden_masters_1 == {11, 13, 14}
        assert formation.critical == {6, 7, 11, 13, 14, 20}
        assert formation.deferred == {6, 7, 11, 13, 20}
        # final unabsorbed deferred nodes, none adjacent to a proxy
        assert formation.hidden_masters_2 == {6, 7, 20}

    def test_golden_event_trail(self, paper_states):
        _, final = paper_states
        assert final.events == GOLDEN_EVENTS

    def test_statuses(self, paper_states):
        formation, _ = paper_states
        st = formation.statuses()
        assert st[3] == d.NodeStatus.MASTER
        assert st[16] == d.NodeStatus.PROXY
        assert st[0] == d.NodeStatus.SLAVE
        assert st[13] == d.NodeStatus.HIDDEN_MASTER_I
        assert st[20] == d.NodeStatus.HIDDEN_MASTER_II

    def test_single_node(self):
        graph = d.build_graph(np.array([[5.0, 5.0]]), range_=10.0)
        tables = d.compute_tables(graph)
        state = d.run_m_dsec(graph, tables, None)
        assert len(state.clusters) == 1
        assert state.clusters[0].master == 0
        assert state.clusters[0].proxy is None
        assert state.critical == set()

    def test_star_graph_perfect(self):
        # hub with four spokes at unit range; the hub's degree dominates
        edges = [(0, v) for v in range(1, 5)]
        euclid = np.full((5, 5), 2.0)
        np.fill_diagonal(euclid, 0.0)
        for v in range(1, 5):
            euclid[0, v] = euclid[v, 0] = 1.0
        overrides = d.FixtureOverrides(ns=[400.0, 100.0, 100.0, 100.0, 100.0])
        graph, tables, overrides = d.ingest_fixture(edges, euclid, overrides)
        metrics = d.compute_network_metrics(graph, tables, overrides=overrides)
        formation, final = d.form_and_adjust(graph, tables, metrics)
        assert d.classification(formation) == "perfect"
        assert final is formation
        assert len(formation.clusters) == 1
        record = formation.clusters[0]
        assert record.master == 0
        # the four leaves tie on weight and NS; the lowest id wins
        assert record.proxy == 1
        assert record.members == {0, 1, 2, 3, 4}
        assert formation.critical == set()
        # no critical node left: hidden masters never show, full coverage is required
        assert not {"hm1", "hm2"} & {s.value for s in formation.statuses().values()}
        dropped = formation.copy()
        dropped.clusters[0].members.discard(4)
        assert not d.check_partition(dropped, graph).passed

    def test_disconnected_refused(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        euclid = np.zeros((4, 4))
        tables = d.DistanceTables(hop=d.hop_distance_table(graph), euclid=euclid)
        with pytest.raises(DisconnectedGraphError) as err:
            d.run_m_dsec(graph, tables, None)
        assert err.value.components == [[0, 1], [2, 3]]

    def test_deferred_nodes_failed_eligibility(self, bundle, paper_states, paper_metrics):
        # replay the event trail: every deferral really failed the distance test
        formation, _ = paper_states
        pairs = []
        for event in formation.events:
            if event["action"] == "form_cluster":
                pairs.append((event["master"], event["proxy"]))
            elif event["action"] == "defer":
                assert not d.master_eligibility(
                    event["node"], pairs, bundle.tables.hop
                )

    def test_master_outweighs_proxy_on_fixture(self, paper_states, paper_metrics):
        formation, _ = paper_states
        for c in formation.clusters:
            assert paper_metrics.weight(c.master) >= paper_metrics.weight(c.proxy)


class TestTieBreaking:
    def _fixture(self, weights, ns):
        n = len(weights)
        edges = [(i, i + 1) for i in range(n - 1)]
        euclid = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
        overrides = d.FixtureOverrides(ns=ns, w=weights)
        graph, tables, overrides = d.ingest_fixture(edges, euclid, overrides)
        metrics = d.compute_network_metrics(graph, tables, overrides=overrides)
        return graph, tables, metrics

    def test_weight_tie_higher_ns_wins(self):
        graph, tables, metrics = self._fixture([5.0, 5.0, 1.0], [10.0, 20.0, 0.0])
        state = d.run_m_dsec(graph, tables, metrics)
        assert state.clusters[0].master == 1

    def test_full_tie_lower_id_wins(self):
        graph, tables, metrics = self._fixture([5.0, 5.0, 1.0], [10.0, 10.0, 0.0])
        state = d.run_m_dsec(graph, tables, metrics)
        assert state.clusters[0].master == 0

    def test_rank_orders_weight_ns_id(self):
        _, _, metrics = self._fixture([5.0, 5.0, 5.0, 6.0], [10.0, 20.0, 10.0, 0.0])
        order = sorted(range(4), key=metrics.rank, reverse=True)
        assert order == [3, 1, 0, 2]

    def test_rerun_identical(self):
        for seed, graph in connected_rgg_suite(5, start_seed=300):
            tables = d.compute_tables(graph)
            metrics = d.compute_network_metrics(graph, tables)
            a = d.form_and_adjust(graph, tables, metrics)
            b = d.form_and_adjust(graph, tables, metrics)
            report_a = d.cluster_report(*a)
            report_b = d.cluster_report(*b)
            assert json.dumps(report_a) == json.dumps(report_b)


class TestAdjustment:
    def test_reference_adjusted_clusters(self, paper_states):
        _, final = paper_states
        assert final.critical == set()
        assert _clusters_as_tuples(final) == {
            (3, 1, (0, 1, 2, 3, 4, 5, 22)),
            (18, 16, (16, 17, 18, 19, 21)),
            (9, 10, (8, 9, 10)),
            (13, 11, (11, 12, 13, 14, 15)),
            (6, 7, (6, 7)),
            (20, None, (20,)),
        }
        assert final.critical == set()

    def test_partition_after_adjustment(self, bundle, paper_states):
        _, final = paper_states
        check = d.check_partition(final, bundle.graph)
        assert check.passed
        assert sum(len(c.members) for c in final.clusters) == 23

    def test_no_critical_is_identity(self):
        edges = [(0, v) for v in range(1, 5)]
        euclid = np.full((5, 5), 2.0)
        np.fill_diagonal(euclid, 0.0)
        for v in range(1, 5):
            euclid[0, v] = euclid[v, 0] = 1.0
        overrides = d.FixtureOverrides(ns=[0.0] * 5)
        graph, tables, overrides = d.ingest_fixture(edges, euclid, overrides)
        metrics = d.compute_network_metrics(graph, tables, overrides=overrides)
        state = d.run_m_dsec(graph, tables, metrics)
        assert state.critical == set()
        assert d.run_adjusted(state, graph, metrics, tables.hop) is state

    def test_members_leave_donor_clusters(self, paper_states):
        _, final = paper_states
        owner = final.membership()
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
            tables = d.compute_tables(graph)
            metrics = d.compute_network_metrics(graph, tables)
            formation, final = d.form_and_adjust(graph, tables, metrics)
            for state in (formation, final):
                seen = set()
                for c in state.clusters:
                    assert not (c.members & seen)
                    seen |= c.members
                    assert c.master in c.members
                    if c.proxy is not None:
                        assert graph.adjacent(c.master, c.proxy)
            covered = set().union(*(c.members for c in final.clusters))
            assert covered == set(range(graph.node_count))


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
        assume(graph.is_connected)
        tables = d.compute_tables(graph)
        metrics = d.compute_network_metrics(graph, tables)
        _, final = d.form_and_adjust(graph, tables, metrics)
        report = d.run_property_checks(final, graph, tables.hop)
        assert report.passed, [c for c in report.checks if not c.passed]

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
            perfect = json.loads(out.read_text())["classification"] == "perfect"
        status = {line.split()[1]: line.split()[0] for line in lines[1:] if line[0] != " "}
        assert [status[name] for name in STRUCTURAL_CHECKS] == ["pass"] * 4, lines
        # A perfect report also gets the edge-domination checks, which fail
        # whenever an edge touches no master or proxy (ROADMAP item 1); every other
        # report must verify outright.
        assert code == 0 or perfect, lines
