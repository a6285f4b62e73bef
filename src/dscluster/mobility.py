"""Node mobility and the cluster maintenance loop.

Nodes move with independent random headings and speeds, reflecting off
the terrain boundary.  A step that completes a broadcast interval (counted
as floor((t + 1e-9) / interval)) rebuilds the neighbourhoods from current
positions, once however many intervals the step spans.  A leader with no
neighbour left among its cluster's members has exited, and so has a proxy
no longer adjacent to a master that stays: the proxy is the master's
substitute, so losing the (master, proxy) edge is a leader failure.  An
exited master hands over to its proxy, an exited proxy is re-elected
among the master's neighbours, and a cluster with no leader left
dissolves.  Every cluster thus keeps its (master, proxy) edge, and with
every member adjacent to a leader it stays a double star of diameter at
most 3.  Every displaced node (an exited leader, a member of a dissolved
cluster, or a member out of reach of both its leaders) becomes one
boundary-exit event; in node order, each re-affiliates by polling
adjacent masters/proxies (find_CH), joining the top-ranked acknowledger or
becoming the master of its own cluster.  Every election, a proxy's
re-election and find_CH's join alike, reads ``NetworkMetrics.rank``.
The exits and the hello check read every cluster at once from one
gather of the state's ordinary members against their clusters' leaders,
and find_CH from one gather of the node's adjacency row at every leader.
Maintenance replaces the state's columns with edited copies, so the state
it started from stays as it was, and keeps its events in cluster id order.
Every event is kept as the record reports and NDJSON lines write: a dict
of time, kind, node and the [master, proxy] target it concerns (None for
none).  Clusters are never re-formed from scratch unless explicitly
requested: drifting masters that become adjacent are only logged.

Weights are those computed at formation time, from the t = 0 tables,
unless the scenario asks for recomputation.  Every refresh, in every
mode, builds one all-pairs hop table.  Only a refresh that recomputes
weights or re-forms clusters reads it: connectivity, then the metrics or
formation; it keeps maintaining a disconnected graph.  The summary's
checks read the adjacency alone.  A refresh builds its graph twice
(``_refresh`` and ``hello_refresh``), each time by the x-sorted sweep of
``build_graph``, which computes the distances of the candidate pairs only
and keeps no distance table.  Only a refresh that recomputes weights
computes Euclidean distances for every pair, streamed into the metrics a
block of rows at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import ClusterState, form_and_adjust
from .errors import InvalidArgumentError
from .graph import (
    UNREACHABLE,
    NetworkGraph,
    _check_size,
    build_graph,
    compute_tables,
    hop_distance_table,
    sample_positions,
)
from .metrics import DEFAULT_ALPHAS, NetworkMetrics, WeightConfig, compute_network_metrics
from .verify import run_property_checks

EVENT_BOUNDARY_EXIT = "boundary-exit"
EVENT_FIND_CH = "find-ch"
EVENT_ACK = "ack"
EVENT_JOIN = "join"
EVENT_BECOME_MASTER = "become-master"


@dataclass(frozen=True)
class Scenario:
    """Simulation parameters; all randomness flows from ``seed``."""

    node_count: int
    terrain_size: float
    range_: float
    v_max: float
    broadcast_interval: float = 1.0
    dt: float = 1.0
    steps: int = 0
    ns_threshold: float = 100.0
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    seed: int = 0
    recompute_weights: bool = False
    force_recluster: bool = False

    def __post_init__(self):
        if self.node_count < 1:
            raise InvalidArgumentError("node_count must be >= 1")
        _check_size(self.node_count)
        if self.terrain_size <= 0:
            raise InvalidArgumentError("terrain_size must be positive")
        if self.range_ <= 0:
            raise InvalidArgumentError("range must be positive")
        if self.v_max < 0:
            raise InvalidArgumentError("v_max must be >= 0")
        if self.broadcast_interval <= 0:
            raise InvalidArgumentError("broadcast_interval must be positive")
        if self.dt <= 0:
            raise InvalidArgumentError("dt must be positive")
        if self.steps < 0:
            raise InvalidArgumentError("steps must be >= 0")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")
        # distances square coordinate differences; motion scales speeds by dt
        if not math.isfinite(2.0 * self.terrain_size * self.terrain_size):
            raise InvalidArgumentError("terrain_size is too large: its squared diagonal overflows")
        if not math.isfinite(self.v_max * self.dt):
            raise InvalidArgumentError("v_max * dt must be finite")
        try:
            refreshes = self.steps * self.dt / self.broadcast_interval
        except OverflowError:  # a step count beyond the float range
            refreshes = math.inf
        if not math.isfinite(refreshes):
            raise InvalidArgumentError("steps * dt / broadcast_interval must be finite")
        object.__setattr__(self, "alphas", WeightConfig(self.alphas).alphas)


@dataclass
class SimulationResult:
    scenario: Scenario
    formation_state: ClusterState
    adjusted_state: ClusterState
    final_state: ClusterState
    events: list[dict]
    summaries: list[dict]


def _event(time: float, kind: str, node: int, *target: int) -> dict:
    """One maintenance event as reports and NDJSON lines write it; the
    target is the [master, proxy] pair it concerns, if any, a -1 as None."""
    return {"time": time, "kind": kind, "node": node,
            "target": [None if v < 0 else v for v in target] or None}


def _reflect(coords: np.ndarray, terrain_size: float) -> np.ndarray:
    # fold onto [0, T] as a triangle wave; handles multiple crossings
    folded = np.mod(coords, 2.0 * terrain_size)
    return np.where(folded > terrain_size, 2.0 * terrain_size - folded, folded)


def step_positions(
    positions: np.ndarray,
    v_max: float,
    dt: float,
    terrain_size: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Advance every node one step: uniform heading in [0, 2pi), uniform
    speed in [0, v_max], reflecting off the terrain boundary.  The same
    draws are made regardless of v_max, so trajectories with different
    speeds stay comparable under one seed."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    headings = rng.uniform(0.0, 2.0 * math.pi, size=n)
    speeds = rng.uniform(0.0, v_max, size=n)
    delta = (speeds * dt)[:, None] * np.stack(
        [np.cos(headings), np.sin(headings)], axis=1
    )
    return _reflect(pos + delta, terrain_size)


def hello_refresh(
    positions: np.ndarray,
    range_: float,
    state: ClusterState,
    time: float = 0.0,
) -> tuple[NetworkGraph, list[dict]]:
    """Rebuild adjacency from current positions and report every ordinary
    member no longer adjacent to its own master or proxy, in (cluster id,
    node) order, by one adjacency gather of the members against their
    clusters' leaders."""
    graph = build_graph(positions, range_)
    members, owner, leaders = state.ordinary()
    lost = np.flatnonzero(~graph.adj[members[:, None], leaders].any(axis=1))
    lost = lost[state.ids[owner[lost]].argsort(kind="stable")]
    return graph, [_event(time, EVENT_BOUNDARY_EXIT, v, m, p) for v, m, p in zip(
        members[lost].tolist(), state.masters[owner[lost]].tolist(),
        state.proxies[owner[lost]].tolist())]


def find_ch(
    node: int,
    state: ClusterState,
    graph: NetworkGraph,
    metrics: NetworkMetrics,
    time: float = 0.0,
) -> list[dict]:
    """Re-affiliation for a node that left its cluster's reach.

    Every master/proxy adjacent to the node acknowledges (one gather of
    the node's adjacency row at every cluster's leaders, in cluster id
    order; acknowledgements are logged by leader id); the node joins the
    top-ranked acknowledger (least ``NetworkMetrics.rank``).  With no
    acknowledgers it becomes a master of a new singleton cluster.  The
    state's columns are replaced with the edited ones.
    """
    kept = state.nodes != node
    nodes, cluster = state.nodes[kept], state.cluster[kept]
    events = [_event(time, EVENT_FIND_CH, node)]
    order = state.ids.argsort(kind="stable")
    masters, proxies = state.masters.tolist(), state.proxies.tolist()
    leaders = state.leaders()[order]
    heard = graph.adj[node, leaders]
    heard[:, 1] &= leaders[:, 0] != leaders[:, 1]  # a proxy-less cluster lists its master twice
    rows, columns = np.nonzero(heard)
    acked, clusters = leaders[rows, columns], order[rows]
    for i in clusters[acked.argsort(kind="stable")].tolist():
        events.append(_event(time, EVENT_ACK, node, masters[i], proxies[i]))
    if acked.size:
        i = int(clusters[metrics.rank[acked].argmin()])
        events.append(_event(time, EVENT_JOIN, node, masters[i], proxies[i]))
    else:  # a new cluster at the end of the list
        i = len(masters)
        state.ids = np.append(state.ids, int(state.ids.max()) + 1 if i else 1)
        state.masters, state.proxies = np.append(state.masters, node), np.append(state.proxies, -1)
        events.append(_event(time, EVENT_BECOME_MASTER, node))
    start, end = np.searchsorted(cluster, [i, i + 1])
    at = start + np.searchsorted(nodes[start:end], node)  # the listing stays sorted
    state.nodes = np.concatenate((nodes[:at], [node], nodes[at:]))
    state.cluster = np.concatenate((cluster[:at], [i], cluster[at:]))
    return events


class _Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.config = WeightConfig(scenario.alphas, scenario.ns_threshold)
        self.rng = np.random.default_rng(scenario.seed)
        self.positions = sample_positions(
            self.rng, scenario.node_count, scenario.terrain_size
        )
        self.graph = build_graph(self.positions, scenario.range_)
        hop = compute_tables(self.graph)
        self.metrics = compute_network_metrics(self.graph, hop, self.config)
        self.formation, self.adjusted = form_and_adjust(self.graph, hop, self.metrics)
        self.state = replace(self.adjusted)  # maintenance replaces its columns, never edits them
        self.events: list[dict] = []
        self.summaries: list[dict] = []

    def run(self) -> SimulationResult:
        s = self.scenario
        time = 0.0
        intervals = 0  # whole broadcast intervals elapsed at the last refresh
        for _ in range(s.steps):
            self.positions = step_positions(
                self.positions, s.v_max, s.dt, s.terrain_size, self.rng
            )
            time += s.dt
            elapsed = math.floor((time + 1e-9) / s.broadcast_interval)
            if elapsed > intervals:
                intervals = elapsed
                self._refresh(time)
        return SimulationResult(
            scenario=s,
            formation_state=self.formation,
            adjusted_state=self.adjusted,
            final_state=self.state,
            events=self.events,
            summaries=self.summaries,
        )

    def _refresh(self, time: float) -> None:
        s = self.scenario
        warnings: list[str] = []
        self.graph = build_graph(self.positions, s.range_)
        hop = hop_distance_table(self.graph)
        reclustered = False

        if s.recompute_weights or s.force_recluster:
            if (hop[0] != UNREACHABLE).all():
                if s.recompute_weights:
                    self.metrics = compute_network_metrics(self.graph, hop, self.config)
                if s.force_recluster:
                    self.state = form_and_adjust(self.graph, hop, self.metrics)[1]
                    reclustered = True
            else:
                warnings.append(
                    "graph disconnected at refresh: weights kept, re-clustering skipped"
                )

        step_events: list[dict] = []
        if not reclustered:
            exits = self._resolve_leader_exits(time)
            exits += hello_refresh(self.positions, s.range_, self.state, time)[1]
            for exit_event in sorted(exits, key=lambda e: e["node"]):
                step_events.append(exit_event)
                step_events.extend(
                    find_ch(exit_event["node"], self.state, self.graph, self.metrics, time)
                )
        self.events.extend(step_events)
        self._summarise(time, step_events, warnings, reclustered)

    def _resolve_leader_exits(self, time: float) -> list[dict]:
        """Promote proxies for exited masters, re-elect proxies, dissolve
        clusters whose leaders all left; returns a boundary-exit event for
        every displaced node, in cluster id order.

        A leader has exited when no other member of its cluster is adjacent
        to it; a proxy has also exited when it lost its edge to a master
        that stays.  Both are read for every cluster at once from one
        gather of the ordinary members against their leaders.  Clusters
        of one member are left alone.
        """
        adj, state = self.graph.adj, self.state
        count = len(state.ids)
        members, owner, leaders = state.ordinary()
        masters, proxies, pairs = state.masters.copy(), state.proxies.copy(), state.leaders()
        led = proxies >= 0
        linked = led & adj[pairs[:, 0], pairs[:, 1]]
        touch = adj[members[:, None], leaders]
        heard = [np.bincount(owner, weights=touch[:, i], minlength=count) > 0 for i in (0, 1)]
        master_exited = ~(linked | heard[0])
        proxy_exited = led & ~linked & (~master_exited | ~heard[1])
        crowded = led | (np.bincount(owner, minlength=count) > 0)
        flagged = np.flatnonzero(crowded & (master_exited | proxy_exited))
        if not flagged.size:
            return []
        nodes, bounds = state.nodes, state.bounds()
        listed = np.ones(len(nodes), dtype=bool)  # entries kept
        kept = np.ones(count, dtype=bool)  # clusters kept
        orphans: list[dict] = []
        for i in flagged[state.ids[flagged].argsort(kind="stable")].tolist():
            pair = (int(masters[i]), int(proxies[i]))
            rows = slice(*np.searchsorted(owner, [i, i + 1]))
            entries = slice(bounds[i], bounds[i + 1])
            if master_exited[i] and (not led[i] or proxy_exited[i]):
                kept[i] = listed[entries] = False
                displaced = nodes[entries].tolist()
            else:  # one leader leaves; the other leads, the top-ranked member beside it its proxy
                gone = 0 if master_exited[i] else 1
                displaced = [pair[gone]]
                listed[entries] &= nodes[entries] != pair[gone]
                masters[i] = pair[1 - gone]
                proxies[i] = self.metrics.best(members[rows][touch[rows, 1 - gone]])
            orphans += [_event(time, EVENT_BOUNDARY_EXIT, v, *pair) for v in displaced]
        state.ids, state.masters, state.proxies = state.ids[kept], masters[kept], proxies[kept]
        state.nodes = nodes[listed]
        state.cluster = (np.cumsum(kept) - 1)[state.cluster[listed]]
        return orphans

    def _summarise(
        self,
        time: float,
        step_events: list[dict],
        warnings: list[str],
        reclustered: bool,
    ) -> None:
        checks = {c.name: c for c in run_property_checks(self.state, self.graph)}
        dominance = checks["dominance-and-independence"]
        if not dominance.details["master_independence_ok"]:
            warnings.append("adjacent masters after motion (re-clustering deferred)")
        self.summaries.append({
            "time": time,
            "checks": {name: c.passed for name, c in checks.items()},
            "partition_ok": checks["partition"].passed,
            "slave_dominance_ok": dominance.details["slave_dominance_ok"],
            "master_independence_ok": dominance.details["master_independence_ok"],
            "event_count": len(step_events),
            "reclustered": reclustered,
            "warnings": warnings,
        })


def run_simulation(scenario: Scenario) -> SimulationResult:
    """Form clusters at t=0, then alternate movement, neighbourhood refresh
    and re-affiliation for the scenario's step count.  Fully deterministic
    for a given scenario."""
    return _Simulation(scenario).run()
