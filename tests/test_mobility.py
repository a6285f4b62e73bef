import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

import dscluster as d
from dscluster import fileio, mobility
from dscluster.errors import DisconnectedGraphError, InvalidArgumentError
from dscluster.mobility import (
    EVENT_ACK,
    EVENT_BECOME_MASTER,
    EVENT_BOUNDARY_EXIT,
    EVENT_FIND_CH,
    EVENT_JOIN,
    _Simulation,
)

from conftest import (
    ClusterRecord,
    cluster_records,
    cluster_state,
    connected_deployments,
    election_key,
    fixture_inputs,
)


def _cluster_of(state, node):
    """The cluster holding ``node``, as a record, or None."""
    return next((c for c in cluster_records(state) if node in c.members), None)


def _event(time, kind, node, target=None):
    """A maintenance event record as the references build it."""
    return {"time": time, "kind": kind, "node": node, "target": target}


def _metrics_for(n, edges, weights, ns=None):
    euclid = np.zeros((n, n))
    overrides = d.FixtureOverrides(ns=ns or [0.0] * n, w=weights)
    graph, hop = fixture_inputs(edges, euclid)
    return graph, d.compute_network_metrics(graph, hop, overrides=overrides)


class TestScenario:
    def test_defaults(self):
        sc = d.Scenario(node_count=10, terrain_size=100, range_=30, v_max=2)
        assert sc.broadcast_interval == 1.0
        assert sc.alphas == (1 / 6,) * 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(node_count=0),
            dict(terrain_size=0),
            dict(range_=0),
            dict(v_max=-1),
            dict(broadcast_interval=0),
            dict(dt=0),
            dict(steps=-1),
            dict(alphas=(1, 2, 3)),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(node_count=10, terrain_size=100.0, range_=30.0, v_max=2.0)
        base.update(kwargs)
        with pytest.raises(InvalidArgumentError):
            d.Scenario(**base)


class TestStepPositions:
    def test_zero_speed_is_stationary(self):
        rng = np.random.default_rng(0)
        pos = d.deploy_random(20, 100.0, seed=1)
        moved = d.step_positions(pos, v_max=0.0, dt=1.0, terrain_size=100.0, rng=rng)
        assert np.array_equal(moved, pos)

    def test_draws_do_not_depend_on_speed(self):
        """A step makes the same draws at any v_max, so one seed drives
        comparable trajectories across speeds."""
        pos = d.deploy_random(20, 100.0, seed=1)
        states = []
        for v_max in (0.0, 5.0):
            rng = np.random.default_rng(3)
            d.step_positions(pos, v_max=v_max, dt=1.0, terrain_size=100.0, rng=rng)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    def test_reflection_keeps_positions_in_bounds(self):
        rng = np.random.default_rng(5)
        pos = np.array([[0.0, 0.0], [100.0, 100.0], [0.5, 99.5]])
        for _ in range(200):
            pos = d.step_positions(pos, v_max=40.0, dt=1.0, terrain_size=100.0, rng=rng)
            assert (pos >= 0.0).all() and (pos <= 100.0).all()

    def test_replay_is_identical(self):
        trajectories = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            pos = d.deploy_random(10, 50.0, seed=9)
            frames = []
            for _ in range(100):
                pos = d.step_positions(pos, v_max=5.0, dt=0.5, terrain_size=50.0, rng=rng)
                frames.append(pos.copy())
            trajectories.append(np.stack(frames))
        assert np.array_equal(trajectories[0], trajectories[1])


class TestHelloRefresh:
    # chain at r=6: member 0 touches both leaders, member 3 only the proxy
    POSITIONS = np.array([[8.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0]])
    CLUSTERS = [(1, 2, {0, 1, 2, 3})]

    def test_no_movement_no_events(self):
        state = cluster_state(4, self.CLUSTERS)
        graph, events = d.hello_refresh(self.POSITIONS, 6.0, state)
        assert events == []
        assert graph.adj[0, 1]

    def test_displaced_member_reported_once(self):
        state = cluster_state(4, self.CLUSTERS)
        positions = self.POSITIONS.copy()
        positions[3] = [60.0, 60.0]
        _, events = d.hello_refresh(positions, 6.0, state, time=2.0)
        assert len(events) == 1
        assert events[0]["kind"] == EVENT_BOUNDARY_EXIT
        assert events[0]["node"] == 3
        assert events[0]["target"] == [1, 2]
        assert events[0]["time"] == 2.0

    def test_member_still_touching_proxy_not_reported(self):
        state = cluster_state(4, self.CLUSTERS)
        positions = self.POSITIONS.copy()
        positions[1] = [70.0, 70.0]  # the master leaves instead
        _, events = d.hello_refresh(positions, 6.0, state)
        assert all(e["node"] != 0 for e in events)  # 0 still reaches proxy 2

    def test_gathers_match_the_loop_reference(self):
        # clusters under shuffled ids, with and without proxies, overlapping
        # and leader-only; exits must come out in (cluster id, node) order
        rng = np.random.default_rng(11)
        positions = d.deploy_random(60, 100.0, seed=4)
        clusters = []
        for _ in range(12):
            master, proxy = rng.choice(60, size=2, replace=False).tolist()
            members = set(rng.choice(60, size=int(rng.integers(0, 15))).tolist())
            clusters.append((master, None if rng.random() < 0.3 else proxy, members))
        state = cluster_state(60, [ClusterRecord(int(cid), *cluster) for cid, cluster in
                                   zip(rng.permutation(len(clusters)) + 1, clusters)])
        graph, events = d.hello_refresh(positions, 20.0, state, time=3.0)
        expected = [
            _event(3.0, EVENT_BOUNDARY_EXIT, v, [c.master, c.proxy])
            for c in sorted(cluster_records(state), key=lambda c: c.id)
            for v in sorted(c.members - c.leaders)
            if not any(graph.adj[v, leader] for leader in c.leaders)
        ]
        assert len(expected) > 5
        assert events == expected
        assert all(type(e["node"]) is int for e in events)


class TestFindCH:
    def test_single_adjacent_proxy_joins(self):
        edges = [(0, 1), (2, 3), (3, 4), (1, 2)]
        graph, metrics = _metrics_for(5, edges, [10.0, 5.0, 8.0, 4.0, 0.0])
        state = cluster_state(5, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        events = d.find_ch(4, state, graph, metrics, time=1.0)
        assert [e["kind"] for e in events] == [EVENT_FIND_CH, EVENT_ACK, EVENT_JOIN]
        assert events[-1]["target"] == [2, 3]
        assert 4 in cluster_records(state)[1].members

    def test_heavier_acknowledger_wins(self):
        # two acknowledgers with the reference weights 52.96 and 43.96
        edges = [(0, 1), (2, 3), (4, 0), (4, 3)]
        graph, metrics = _metrics_for(
            5, edges, [52.96, 30.0, 40.0, 43.96, 0.0]
        )
        state = cluster_state(5, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        events = d.find_ch(4, state, graph, metrics)
        acks = [e for e in events if e["kind"] == EVENT_ACK]
        assert len(acks) == 2
        assert events[-1]["kind"] == EVENT_JOIN
        assert events[-1]["target"] == [0, 1]
        assert 4 in cluster_records(state)[0].members

    def test_isolated_node_becomes_master(self):
        edges = [(0, 1), (1, 4), (1, 2), (2, 3)]
        graph, metrics = _metrics_for(5, edges, [10.0, 5.0, 8.0, 4.0, 0.0])
        state = cluster_state(5, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        # 4 touches only member 1... no wait, 1 is a proxy; use a custom state
        state = cluster_state(5, [(0, None, {0, 1}), (2, 3, {2, 3})])
        graph2 = d.graph_from_edges(5, [(0, 1), (2, 3)])
        events = d.find_ch(4, state, graph2, metrics)
        assert [e["kind"] for e in events] == [EVENT_FIND_CH, EVENT_BECOME_MASTER]
        new = _cluster_of(state, 4)
        assert new.master == 4 and new.members == {4}
        assert new.id == 3


def _loop_find_ch(node, clusters, graph, metrics, time):
    """find_CH by scanning every cluster and testing every leader: the
    reference for the gathered version, on a list of cluster records."""
    for cluster in clusters:
        cluster.members.discard(node)
    rank = election_key(metrics)
    events = [_event(time, EVENT_FIND_CH, node)]
    acknowledgers = []
    for cluster in sorted(clusters, key=lambda c: c.id):
        for leader in sorted(cluster.leaders):
            if graph.adj[node, leader]:
                acknowledgers.append((leader, cluster))
    for leader, cluster in sorted(acknowledgers, key=lambda t: t[0]):
        events.append(_event(time, EVENT_ACK, node, [cluster.master, cluster.proxy]))
    if acknowledgers:
        leader, cluster = max(acknowledgers, key=lambda t: rank(t[0]))
        cluster.members.add(node)
        events.append(_event(time, EVENT_JOIN, node, [cluster.master, cluster.proxy]))
    else:
        new_id = max((c.id for c in clusters), default=0) + 1
        clusters.append(ClusterRecord(id=new_id, master=node, proxy=None, members={node}))
        events.append(_event(time, EVENT_BECOME_MASTER, node))
    return events


def _loop_resolve_leader_exits(clusters, graph, metrics, time):
    """Leader exits by one adjacency test per member of every cluster: the
    reference for the gathered version, on a list of cluster records."""
    def elect(cluster):
        candidates = [v for v in cluster.members - {cluster.master}
                      if graph.adj[v, cluster.master]]
        return max(candidates, key=election_key(metrics), default=None)

    orphans, dissolved = [], []
    for cluster in sorted(clusters, key=lambda c: c.id):
        if len(cluster.members) <= 1:
            continue
        pair = [cluster.master, cluster.proxy]
        master_exited = not any(graph.adj[cluster.master, v]
                                for v in cluster.members - {cluster.master})
        proxy_exited = cluster.proxy is not None and (
            not any(graph.adj[cluster.proxy, v] for v in cluster.members - {cluster.proxy})
            or not (master_exited or graph.adj[cluster.master, cluster.proxy])
        )
        if master_exited and (cluster.proxy is None or proxy_exited):
            dissolved.append(cluster)
            displaced = sorted(cluster.members)
        elif master_exited:
            displaced = [cluster.master]
            cluster.members.discard(cluster.master)
            cluster.master = cluster.proxy
            cluster.proxy = elect(cluster)
        elif proxy_exited:
            displaced = [cluster.proxy]
            cluster.members.discard(cluster.proxy)
            cluster.proxy = elect(cluster)
        else:
            continue
        orphans += [_event(time, EVENT_BOUNDARY_EXIT, v, pair) for v in displaced]
    for cluster in dissolved:
        clusters.remove(cluster)
    return orphans


def _records(clusters):
    return [(c.id, c.master, c.proxy, sorted(c.members)) for c in clusters]


@st.composite
def _maintained_network(draw, disjoint):
    """A sparse graph of up to 40 nodes (a broken path along a random order
    plus chords), rank weights with ties, and up to eight clusters under
    shuffled ids.  Disjoint clusters are maintenance states: each is a run
    of that order led by members, proxy-less ones and singletons included.
    Otherwise clusters are any node sets, overlapping, with leaders inside
    or outside them."""
    n = draw(st.integers(2, 40))
    nodes = st.integers(0, n - 1)
    order = draw(st.permutations(range(n)))
    kept = draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    chords = draw(st.lists(st.tuples(nodes, nodes), max_size=n // 3))
    edges = sorted({(min(u, v), max(u, v)) for u, v in
                    [(order[i], order[i + 1]) for i, keep in enumerate(kept) if keep] + chords
                    if u != v})
    weights = draw(st.lists(st.integers(0, 5).map(float), min_size=n, max_size=n))
    # ranks come from the weights alone; metrics need a connected graph
    _, metrics = _metrics_for(n, list(zip(order, order[1:])), weights)
    graph = d.graph_from_edges(n, edges)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=7)))
    groups = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])][:draw(st.integers(0, 8))]
    clusters = []
    for cid, group in zip(draw(st.permutations(range(1, len(groups) + 1))), groups):
        if disjoint:
            master = draw(st.sampled_from(group))
            proxy = draw(st.none() | st.sampled_from(group).filter(lambda v: v != master)) \
                if len(group) > 1 else None
            members = set(group)
        else:
            members = draw(st.sets(nodes, max_size=12))
            master, proxy = draw(nodes), draw(st.none() | nodes)
        clusters.append(ClusterRecord(id=cid, master=master, proxy=proxy, members=members))
    return graph, metrics, cluster_state(n, clusters)


class TestGatheredMaintenance:
    """The gathered maintenance steps against their per-cluster loops."""

    @given(_maintained_network(disjoint=True))
    def test_leader_exits_match_the_loop_reference(self, drawn):
        graph, metrics, state = drawn
        reference = cluster_records(state)
        expected = _loop_resolve_leader_exits(reference, graph, metrics, 2.0)
        sim = _Simulation.__new__(_Simulation)
        sim.graph, sim.metrics, sim.state = graph, metrics, state
        assert sim._resolve_leader_exits(2.0) == expected
        assert _records(cluster_records(state)) == _records(reference)

    @given(st.booleans().flatmap(_maintained_network), st.data())
    def test_find_ch_matches_the_loop_reference(self, drawn, data):
        graph, metrics, state = drawn
        exits = data.draw(st.lists(st.integers(0, state.node_count - 1), unique=True,
                                   max_size=6))
        reference = cluster_records(state)
        for node in exits:
            expected = _loop_find_ch(node, reference, graph, metrics, 1.0)
            assert d.find_ch(node, state, graph, metrics, 1.0) == expected
            assert _records(cluster_records(state)) == _records(reference)


class TestLeaderExits:
    def _sim(self, node_count=4, terrain=12.0, range_=6.0):
        # any connected seed works; the test overwrites positions and state
        for seed in range(100):
            try:
                return _Simulation(d.Scenario(
                    node_count=node_count, terrain_size=terrain, range_=range_,
                    v_max=0.0, steps=0, seed=seed,
                ))
            except DisconnectedGraphError:
                continue
        raise AssertionError("no connected seed found")

    def test_master_exit_promotes_proxy(self):
        sim = self._sim()
        sim.positions = np.array([[50.0, 50.0], [5.0, 0.0], [8.0, 0.0], [10.0, 0.0]])
        sim.state = cluster_state(4, [(0, 1, {0, 1, 2, 3})])
        sim._refresh(1.0)
        cluster = _cluster_of(sim.state, 1)
        assert cluster.master == 1
        assert cluster.proxy in (2, 3)
        assert cluster.members == {1, 2, 3}
        wanderer = _cluster_of(sim.state, 0)
        assert wanderer.master == 0 and wanderer.members == {0}
        kinds = [e["kind"] for e in sim.events]
        assert kinds == [EVENT_BOUNDARY_EXIT, EVENT_FIND_CH, EVENT_BECOME_MASTER]
        assert sim.summaries[-1]["partition_ok"]

    def test_both_leaders_exit_dissolves_cluster(self):
        sim = self._sim()
        sim.positions = np.array([[50.0, 50.0], [60.0, 60.0], [0.0, 0.0], [3.0, 0.0]])
        sim.state = cluster_state(4, [(0, 1, {0, 1, 2, 3})])
        sim._refresh(1.0)
        owners = {v: _cluster_of(sim.state, v) for v in range(4)}
        assert owners[0].members == {0}
        assert owners[1].members == {1}
        assert owners[2].members == {2, 3}
        assert owners[2].master == 2
        # node 3 re-affiliated with the freshly declared master 2
        joins = [e for e in sim.events if e["kind"] == EVENT_JOIN]
        assert [(e["node"], e["target"]) for e in joins] == [(3, [2, None])]
        assert sim.summaries[-1]["partition_ok"]
        assert sim.summaries[-1]["slave_dominance_ok"]

    def test_proxy_exit_reelected(self):
        sim = self._sim()
        sim.positions = np.array([[5.0, 0.0], [50.0, 50.0], [8.0, 0.0], [12.0, 0.0]])
        sim.state = cluster_state(4, [(0, 1, {0, 1, 2, 3})])
        sim._refresh(1.0)
        cluster = _cluster_of(sim.state, 0)
        assert cluster.master == 0
        assert cluster.proxy == 2  # only member adjacent to the master
        assert _cluster_of(sim.state, 1).members == {1}


class TestRunSimulation:
    def test_zero_steps_equals_formation_output(self):
        sc = d.Scenario(node_count=25, terrain_size=100, range_=35, v_max=4,
                        steps=0, seed=11)
        result = d.run_simulation(sc)
        final = {
            (c.master, c.proxy, tuple(sorted(c.members)))
            for c in cluster_records(result.final_state)
        }
        adjusted = {
            (c.master, c.proxy, tuple(sorted(c.members)))
            for c in cluster_records(result.adjusted_state)
        }
        assert final == adjusted
        assert result.events == []

    def test_static_network_has_no_events(self):
        sc = d.Scenario(node_count=25, terrain_size=100, range_=35, v_max=0,
                        steps=100, seed=11)
        result = d.run_simulation(sc)
        assert result.events == []
        assert len(result.summaries) == 100
        assert all(s["event_count"] == 0 for s in result.summaries)
        final = {
            (c.master, c.proxy, tuple(sorted(c.members)))
            for c in cluster_records(result.final_state)
        }
        adjusted = {
            (c.master, c.proxy, tuple(sorted(c.members)))
            for c in cluster_records(result.adjusted_state)
        }
        assert final == adjusted

    def test_fixed_seed_replay_identical(self):
        sc = d.Scenario(node_count=30, terrain_size=100, range_=35, v_max=5,
                        steps=40, seed=11)
        a, b = _Simulation(sc), _Simulation(sc)
        result_a, result_b = a.run(), b.run()
        assert result_a.events == result_b.events
        assert result_a.summaries == result_b.summaries
        assert np.array_equal(a.positions, b.positions)

    def test_partition_and_dominance_hold_throughout(self):
        sc = d.Scenario(node_count=30, terrain_size=100, range_=35, v_max=5,
                        steps=60, seed=11)
        result = d.run_simulation(sc)
        assert len(result.events) > 0  # motion actually caused maintenance
        assert all(s["partition_ok"] for s in result.summaries)
        assert all(s["slave_dominance_ok"] for s in result.summaries)

    def test_every_node_keeps_a_status(self):
        sc = d.Scenario(node_count=30, terrain_size=100, range_=35, v_max=8,
                        steps=50, seed=23)
        result = d.run_simulation(sc)
        statuses = result.final_state.statuses()
        assert len(statuses) == 30
        assert d.STATUSES.index("unclustered") not in statuses

    def test_broadcast_interval_gates_refreshes(self):
        sc = d.Scenario(node_count=20, terrain_size=100, range_=40, v_max=3,
                        steps=10, broadcast_interval=2.0, dt=1.0, seed=11)
        result = d.run_simulation(sc)
        assert len(result.summaries) == 5
        assert [s["time"] for s in result.summaries] == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_disconnected_initial_graph_refused(self):
        with pytest.raises(DisconnectedGraphError):
            d.run_simulation(d.Scenario(
                node_count=10, terrain_size=500, range_=10, v_max=1,
                steps=1, seed=1,
            ))

    def test_event_log_ordering(self):
        sc = d.Scenario(node_count=30, terrain_size=100, range_=35, v_max=6,
                        steps=50, seed=11)
        result = d.run_simulation(sc)
        times = [e["time"] for e in result.events]
        assert times == sorted(times)
        # per refresh instant, displaced nodes appear in ascending id order
        by_time = {}
        for e in result.events:
            if e["kind"] == EVENT_BOUNDARY_EXIT:
                by_time.setdefault(e["time"], []).append(e["node"])
        for nodes in by_time.values():
            assert nodes == sorted(nodes)

    def test_recompute_weights_option_runs(self):
        sc = d.Scenario(node_count=20, terrain_size=100, range_=40, v_max=4,
                        steps=10, seed=11, recompute_weights=True)
        result = d.run_simulation(sc)
        assert all(s["partition_ok"] for s in result.summaries)

    def test_force_recluster_option_runs(self):
        sc = d.Scenario(node_count=20, terrain_size=100, range_=40, v_max=4,
                        steps=10, seed=11, force_recluster=True)
        result = d.run_simulation(sc)
        assert any(s["reclustered"] for s in result.summaries)
        assert all(s["partition_ok"] for s in result.summaries)

    def test_force_recluster_reads_connectivity_off_the_hop_table(self, monkeypatch):
        calls = []
        components = d.NetworkGraph.components

        def counted(graph):
            calls.append(graph.node_count)
            return components(graph)

        monkeypatch.setattr(d.NetworkGraph, "components", counted)
        sc = d.Scenario(node_count=20, terrain_size=100, range_=40, v_max=4,
                        steps=10, seed=12, force_recluster=True)
        summaries = d.run_simulation(sc).summaries
        assert len(summaries) == 10 and all(s["reclustered"] for s in summaries)
        assert calls == []

    @pytest.mark.parametrize(
        "flag", [pytest.param(None, id="unflagged"), "recompute_weights", "force_recluster"])
    def test_flagged_refresh_builds_one_hop_table(self, flag, monkeypatch):
        """In every mode, the t = 0 tables make one hop table through
        ``compute_tables`` and each refresh makes one through mobility's own
        ``hop_distance_table``, which the summary and any recomputation share."""
        calls = {d.graph: 0, mobility: 0}
        for module in calls:
            table = module.hop_distance_table

            def counted(graph, table=table, module=module):
                calls[module] += 1
                return table(graph)

            monkeypatch.setattr(module, "hop_distance_table", counted)
        sc = d.Scenario(node_count=40, terrain_size=100, range_=30, v_max=5,
                        steps=20, seed=1, **({flag: True} if flag else {}))
        assert len(d.run_simulation(sc).summaries) == 20
        assert calls == {d.graph: 1, mobility: 20}

    def test_events_are_the_records_written(self):
        sc = d.Scenario(node_count=30, terrain_size=100, range_=35, v_max=5,
                        steps=20, seed=11)
        result = d.run_simulation(sc)
        assert result.events
        assert all(type(e) is dict and list(e) == ["time", "kind", "node", "target"]
                   for e in result.events)
        lines = fileio.events_ndjson(result.events).splitlines()
        assert [json.loads(line) for line in lines] == \
            fileio.simulation_report(result)["maintenance_events"]

    def test_force_recluster_falls_back_to_maintenance_when_disconnected(self):
        # the first five refreshes find the graph disconnected, the last three re-form
        sc = d.Scenario(node_count=15, terrain_size=100, range_=35, v_max=10,
                        steps=8, seed=1, force_recluster=True)
        summaries = d.run_simulation(sc).summaries
        warned = [s for s in summaries if s["warnings"]]
        assert warned
        for s in warned:
            assert s["warnings"] == [
                "graph disconnected at refresh: weights kept, re-clustering skipped"]
            assert not s["reclustered"]
        assert any(s["event_count"] for s in warned)
        assert all(s["partition_ok"] for s in summaries)


class TestMaintenanceKeepsDoubleStars:
    """After every refresh each cluster is a double star (or a star) of
    diameter at most 3 and the clusters partition the nodes.  Only master
    independence may break: drifting masters that meet are logged, and
    re-clustering them is deferred."""

    @given(
        n=st.integers(2, 60),
        range_=st.floats(20.0, 50.0),
        v_max=st.floats(0.0, 10.0),
        steps=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_summary_passes_the_structural_checks(self, n, range_, v_max, steps, seed):
        scenario = d.Scenario(node_count=n, terrain_size=100.0, range_=range_, v_max=v_max,
                              steps=steps, seed=seed)
        try:
            result = d.run_simulation(scenario)
        except DisconnectedGraphError:
            reject()
        for summary in result.summaries:
            checks = summary["checks"]
            assert checks["partition"], summary
            assert checks["double-star"], summary
            assert checks["cluster-diameter"], summary
            assert summary["slave_dominance_ok"], summary


class TestNoMotionNoMaintenance:
    """With ``v_max`` 0 nothing moves, so every refresh finds the adjusted
    clustering intact: no maintenance event is logged, and the final
    clusters are the formation report's adjusted clusters."""

    @given(connected_deployments(20, 80))
    def test_static_network_keeps_its_clusters(self, deployment):
        n, range_, seed = deployment
        scenario = d.Scenario(node_count=n, terrain_size=100.0, range_=range_, v_max=0.0,
                              steps=3, seed=seed)
        report = fileio.simulation_report(d.run_simulation(scenario))
        assert report["maintenance_events"] == []
        assert [s["event_count"] for s in report["summaries"]] == [0, 0, 0]
        assert report["final_clusters"] == report["formation"]["clusters"]


def _stepwise_refresh_times(dt, interval, steps):
    """Refresh times of a loop that advances the next refresh time one
    broadcast interval at a time: the oracle for the simulator's schedule."""
    time, next_refresh, out = 0.0, interval, []
    for _ in range(steps):
        time += dt
        if time + 1e-9 < next_refresh:
            continue
        while next_refresh <= time + 1e-9:
            next_refresh += interval
        out.append(time)
    return out


class TestRefreshSchedule:
    GRID = (0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.5, 2.5, 3.0, 7.0)

    def test_matches_stepwise_oracle(self, monkeypatch):
        monkeypatch.setattr(mobility, "step_positions", lambda positions, *_: positions)
        base = d.Scenario(node_count=2, terrain_size=1.0, range_=10.0, v_max=1.0)
        sim = _Simulation(base)
        for dt, interval in itertools.product(self.GRID, self.GRID):
            times = []
            sim.scenario = replace(base, dt=dt, broadcast_interval=interval, steps=2000)
            sim._refresh = times.append
            sim.run()
            assert times == _stepwise_refresh_times(dt, interval, 2000), (dt, interval)

    def test_huge_dt_finishes(self, tmp_path):
        # The stepwise schedule needs dt / interval additions per step and never
        # ends once they stop changing the float; a hang fails on the timeout.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "node_count": 6, "terrain_size": 12.0, "range": 30.0, "v_max": 1.0,
            "dt": 1e17, "steps": 2,
        }))
        env = dict(os.environ, PYTHONPATH=str(Path(d.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "dscluster.cli", "simulate", "--scenario", str(scenario)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert [s["time"] for s in json.loads(done.stdout)["summaries"]] == [1e17, 2e17]
