import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dscluster as d
from dscluster.errors import DisconnectedGraphError, InvalidArgumentError
from dscluster import mobility
from dscluster.mobility import (
    EVENT_ACK,
    EVENT_BECOME_MASTER,
    EVENT_BOUNDARY_EXIT,
    EVENT_FIND_CH,
    EVENT_JOIN,
    _Simulation,
)


def _state(node_count, clusters):
    records = [
        d.ClusterRecord(id=i + 1, master=m, proxy=p, members=set(members))
        for i, (m, p, members) in enumerate(clusters)
    ]
    return d.ClusterState(
        node_count=node_count, clusters=records, critical=set(),
        hidden_masters_1=set(), hidden_masters_2=set(), deferred=set(),
    )


def _cluster_of(state, node):
    """The cluster holding ``node``, or None."""
    return next((c for c in state.clusters if node in c.members), None)


def _metrics_for(n, edges, weights, ns=None):
    euclid = np.zeros((n, n))
    overrides = d.FixtureOverrides(ns=ns or [0.0] * n, w=weights)
    graph, tables, overrides = d.ingest_fixture(edges, euclid, overrides)
    return graph, d.compute_network_metrics(graph, tables, overrides=overrides)


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
        state = _state(4, self.CLUSTERS)
        graph, events = d.hello_refresh(self.POSITIONS, 6.0, state)
        assert events == []
        assert graph.adjacent(0, 1)

    def test_displaced_member_reported_once(self):
        state = _state(4, self.CLUSTERS)
        positions = self.POSITIONS.copy()
        positions[3] = [60.0, 60.0]
        _, events = d.hello_refresh(positions, 6.0, state, time=2.0)
        assert len(events) == 1
        assert events[0].kind == EVENT_BOUNDARY_EXIT
        assert events[0].node == 3
        assert events[0].target == (1, 2)
        assert events[0].time == 2.0

    def test_member_still_touching_proxy_not_reported(self):
        state = _state(4, self.CLUSTERS)
        positions = self.POSITIONS.copy()
        positions[1] = [70.0, 70.0]  # the master leaves instead
        _, events = d.hello_refresh(positions, 6.0, state)
        assert all(e.node != 0 for e in events)  # 0 still reaches proxy 2

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
        state = _state(60, clusters)
        for cluster, cid in zip(state.clusters, rng.permutation(len(clusters)) + 1):
            cluster.id = int(cid)
        graph, events = d.hello_refresh(positions, 20.0, state, time=3.0)
        expected = [
            mobility.MaintenanceEvent(3.0, EVENT_BOUNDARY_EXIT, v, (c.master, c.proxy))
            for c in sorted(state.clusters, key=lambda c: c.id)
            for v in sorted(c.members - c.leaders)
            if not any(graph.adjacent(v, leader) for leader in c.leaders)
        ]
        assert len(expected) > 5
        assert events == expected
        assert all(type(e.node) is int for e in events)


class TestFindCH:
    def test_single_adjacent_proxy_joins(self):
        edges = [(0, 1), (2, 3), (3, 4), (1, 2)]
        graph, metrics = _metrics_for(5, edges, [10.0, 5.0, 8.0, 4.0, 0.0])
        state = _state(5, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        events = d.find_ch(4, state, graph, metrics, time=1.0)
        assert [e.kind for e in events] == [EVENT_FIND_CH, EVENT_ACK, EVENT_JOIN]
        assert events[-1].target == (2, 3)
        assert 4 in state.clusters[1].members

    def test_heavier_acknowledger_wins(self):
        # two acknowledgers with the reference weights 52.96 and 43.96
        edges = [(0, 1), (2, 3), (4, 0), (4, 3)]
        graph, metrics = _metrics_for(
            5, edges, [52.96, 30.0, 40.0, 43.96, 0.0]
        )
        state = _state(5, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        events = d.find_ch(4, state, graph, metrics)
        acks = [e for e in events if e.kind == EVENT_ACK]
        assert len(acks) == 2
        assert events[-1].kind == EVENT_JOIN
        assert events[-1].target == (0, 1)
        assert 4 in state.clusters[0].members

    def test_isolated_node_becomes_master(self):
        edges = [(0, 1), (1, 4), (1, 2), (2, 3)]
        graph, metrics = _metrics_for(5, edges, [10.0, 5.0, 8.0, 4.0, 0.0])
        state = _state(5, [(0, 1, {0, 1}), (2, 3, {2, 3})])
        # 4 touches only member 1... no wait, 1 is a proxy; use a custom state
        state = _state(5, [(0, None, {0, 1}), (2, 3, {2, 3})])
        graph2 = d.graph_from_edges(5, [(0, 1), (2, 3)])
        events = d.find_ch(4, state, graph2, metrics)
        assert [e.kind for e in events] == [EVENT_FIND_CH, EVENT_BECOME_MASTER]
        new = _cluster_of(state, 4)
        assert new.master == 4 and new.members == {4}
        assert new.id == 3


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
        sim.state = _state(4, [(0, 1, {0, 1, 2, 3})])
        sim._refresh(1.0)
        cluster = _cluster_of(sim.state, 1)
        assert cluster.master == 1
        assert cluster.proxy in (2, 3)
        assert cluster.members == {1, 2, 3}
        wanderer = _cluster_of(sim.state, 0)
        assert wanderer.master == 0 and wanderer.members == {0}
        kinds = [e.kind for e in sim.events]
        assert kinds == [EVENT_BOUNDARY_EXIT, EVENT_FIND_CH, EVENT_BECOME_MASTER]
        assert sim.summaries[-1]["partition_ok"]

    def test_both_leaders_exit_dissolves_cluster(self):
        sim = self._sim()
        sim.positions = np.array([[50.0, 50.0], [60.0, 60.0], [0.0, 0.0], [3.0, 0.0]])
        sim.state = _state(4, [(0, 1, {0, 1, 2, 3})])
        sim._refresh(1.0)
        owners = {v: _cluster_of(sim.state, v) for v in range(4)}
        assert owners[0].members == {0}
        assert owners[1].members == {1}
        assert owners[2].members == {2, 3}
        assert owners[2].master == 2
        # node 3 re-affiliated with the freshly declared master 2
        joins = [e for e in sim.events if e.kind == EVENT_JOIN]
        assert [(e.node, e.target) for e in joins] == [(3, (2, None))]
        assert sim.summaries[-1]["partition_ok"]
        assert sim.summaries[-1]["slave_dominance_ok"]

    def test_proxy_exit_reelected(self):
        sim = self._sim()
        sim.positions = np.array([[5.0, 0.0], [50.0, 50.0], [8.0, 0.0], [12.0, 0.0]])
        sim.state = _state(4, [(0, 1, {0, 1, 2, 3})])
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
            for c in result.final_state.clusters
        }
        adjusted = {
            (c.master, c.proxy, tuple(sorted(c.members)))
            for c in result.adjusted_state.clusters
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
            for c in result.final_state.clusters
        }
        adjusted = {
            (c.master, c.proxy, tuple(sorted(c.members)))
            for c in result.adjusted_state.clusters
        }
        assert final == adjusted

    def test_fixed_seed_replay_identical(self):
        sc = d.Scenario(node_count=30, terrain_size=100, range_=35, v_max=5,
                        steps=40, seed=11)
        a = d.run_simulation(sc)
        b = d.run_simulation(sc)
        assert [e.to_dict() for e in a.events] == [e.to_dict() for e in b.events]
        assert a.summaries == b.summaries
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
        assert set(statuses) == set(range(30))
        assert d.NodeStatus.UNCLUSTERED not in statuses.values()

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
        times = [e.time for e in result.events]
        assert times == sorted(times)
        # per refresh instant, displaced nodes appear in ascending id order
        by_time = {}
        for e in result.events:
            if e.kind == EVENT_BOUNDARY_EXIT:
                by_time.setdefault(e.time, []).append(e.node)
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
