"""Node mobility and the cluster maintenance loop.

Nodes move with independent random headings and speeds, reflecting off
the terrain boundary.  A step that completes a broadcast interval (counted
as floor((t + 1e-9) / interval)) rebuilds the neighbourhoods from current
positions, once however many intervals the step spans.  Every displaced
node (a leader that lost its cluster, or a member out of reach of both
its leaders) becomes one boundary-exit event; in node order, each
re-affiliates by polling adjacent masters/proxies (find_CH), joining the
heaviest acknowledger or becoming the master of its own cluster.
Clusters are never re-formed from scratch unless explicitly requested:
drifting masters that become adjacent are only logged.

Weights are those computed at formation time; the global distance tables
behind them are not refreshed during maintenance unless the scenario asks
for recomputation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ClusterRecord, ClusterState, form_and_adjust
from .errors import DisconnectedGraphError, InvalidArgumentError
from .graph import (
    NetworkGraph,
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
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) != 6:
            raise InvalidArgumentError("exactly 6 weighing factors required")


@dataclass(frozen=True)
class MaintenanceEvent:
    time: float
    kind: str
    node: int
    target: tuple[int, int | None] | None = None

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "target": None if self.target is None else list(self.target),
        }


@dataclass
class SimulationResult:
    scenario: Scenario
    formation_state: ClusterState
    adjusted_state: ClusterState
    final_state: ClusterState
    events: list[MaintenanceEvent]
    summaries: list[dict]
    positions: np.ndarray


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
) -> tuple[NetworkGraph, list[MaintenanceEvent]]:
    """Rebuild adjacency from current positions and report every ordinary
    member no longer adjacent to its own master or proxy, by one adjacency
    gather per cluster (ordinary members by leaders)."""
    graph = build_graph(positions, range_)
    events = []
    for cluster in sorted(state.clusters, key=lambda c: c.id):
        pair = (cluster.master, cluster.proxy)
        members = np.array(sorted(cluster.members - cluster.leaders), dtype=np.intp)
        linked = graph.adj[np.ix_(members, sorted(cluster.leaders))].any(axis=1)
        events += [MaintenanceEvent(time, EVENT_BOUNDARY_EXIT, int(v), pair)
                   for v in members[~linked]]
    return graph, events


def find_ch(
    node: int,
    state: ClusterState,
    graph: NetworkGraph,
    metrics: NetworkMetrics,
    time: float = 0.0,
) -> list[MaintenanceEvent]:
    """Re-affiliation for a node that left its cluster's reach.

    Every master/proxy adjacent to the node acknowledges; the node joins
    the top-ranked acknowledger (``NetworkMetrics.rank``).  With no
    acknowledgers it becomes a master of a new singleton cluster.  The
    state is updated in place.
    """
    for cluster in state.clusters:
        cluster.members.discard(node)
    events = [MaintenanceEvent(time, EVENT_FIND_CH, node)]
    acknowledgers: list[tuple[int, ClusterRecord]] = []
    for cluster in sorted(state.clusters, key=lambda c: c.id):
        for leader in sorted(cluster.leaders):
            if graph.adjacent(node, leader):
                acknowledgers.append((leader, cluster))
    for leader, cluster in sorted(acknowledgers, key=lambda t: t[0]):
        events.append(
            MaintenanceEvent(time, EVENT_ACK, node, (cluster.master, cluster.proxy))
        )
    if acknowledgers:
        leader, cluster = max(acknowledgers, key=lambda t: metrics.rank(t[0]))
        cluster.members.add(node)
        events.append(
            MaintenanceEvent(time, EVENT_JOIN, node, (cluster.master, cluster.proxy))
        )
    else:
        new_id = max((c.id for c in state.clusters), default=0) + 1
        state.clusters.append(ClusterRecord(id=new_id, master=node, proxy=None, members={node}))
        events.append(MaintenanceEvent(time, EVENT_BECOME_MASTER, node))
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
        if not self.graph.is_connected:
            raise DisconnectedGraphError(self.graph.components())
        tables = compute_tables(self.graph)
        self.metrics = compute_network_metrics(self.graph, tables, self.config)
        self.formation, self.adjusted = form_and_adjust(self.graph, tables, self.metrics)
        self.state = self.adjusted.copy()
        self.events: list[MaintenanceEvent] = []
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
            positions=self.positions,
        )

    def _refresh(self, time: float) -> None:
        s = self.scenario
        warnings: list[str] = []
        self.graph = build_graph(self.positions, s.range_)
        reclustered = False

        if s.recompute_weights or s.force_recluster:
            if self.graph.is_connected:
                tables = compute_tables(self.graph)
                if s.recompute_weights:
                    self.metrics = compute_network_metrics(self.graph, tables, self.config)
                if s.force_recluster:
                    _, adjusted = form_and_adjust(self.graph, tables, self.metrics)
                    self.state = adjusted.copy()
                    reclustered = True
            else:
                warnings.append(
                    "graph disconnected at refresh: weights kept, re-clustering skipped"
                )

        step_events: list[MaintenanceEvent] = []
        if not reclustered:
            exits = self._resolve_leader_exits(time)
            exits += hello_refresh(self.positions, s.range_, self.state, time)[1]
            for exit_event in sorted(exits, key=lambda e: e.node):
                step_events.append(exit_event)
                step_events.extend(
                    find_ch(exit_event.node, self.state, self.graph, self.metrics, time)
                )
        self.events.extend(step_events)
        self._summarise(time, step_events, warnings, reclustered)

    def _resolve_leader_exits(self, time: float) -> list[MaintenanceEvent]:
        """Promote proxies for exited masters, re-elect proxies, dissolve
        clusters whose leaders all left; returns a boundary-exit event for
        every displaced node."""
        orphans: list[MaintenanceEvent] = []
        dissolved: list[ClusterRecord] = []
        for cluster in sorted(self.state.clusters, key=lambda c: c.id):
            if len(cluster.members) <= 1:
                continue
            pair = (cluster.master, cluster.proxy)
            master_exited = not any(
                self.graph.adjacent(cluster.master, v)
                for v in cluster.members - {cluster.master}
            )
            proxy_exited = cluster.proxy is not None and not any(
                self.graph.adjacent(cluster.proxy, v)
                for v in cluster.members - {cluster.proxy}
            )
            if master_exited and (cluster.proxy is None or proxy_exited):
                dissolved.append(cluster)
                displaced = sorted(cluster.members)
            elif master_exited:
                displaced = [cluster.master]
                cluster.members.discard(cluster.master)
                cluster.master = cluster.proxy
                cluster.proxy = self._elect_maintenance_proxy(cluster)
            elif proxy_exited:
                displaced = [cluster.proxy]
                cluster.members.discard(cluster.proxy)
                cluster.proxy = self._elect_maintenance_proxy(cluster)
            else:
                continue
            orphans += [MaintenanceEvent(time, EVENT_BOUNDARY_EXIT, v, pair) for v in displaced]
        for cluster in dissolved:
            self.state.clusters.remove(cluster)
        return orphans

    def _elect_maintenance_proxy(self, cluster: ClusterRecord) -> int | None:
        candidates = [
            v for v in cluster.members - {cluster.master}
            if self.graph.adjacent(v, cluster.master)
        ]
        return max(candidates, key=self.metrics.rank, default=None)

    def _summarise(
        self,
        time: float,
        step_events: list[MaintenanceEvent],
        warnings: list[str],
        reclustered: bool,
    ) -> None:
        hop_now = hop_distance_table(self.graph)
        report = run_property_checks(self.state, self.graph, hop_now)
        dominance = next(
            c for c in report.checks if c.name == "dominance-and-independence"
        )
        if not dominance.details["master_independence_ok"]:
            warnings.append("adjacent masters after motion (re-clustering deferred)")
        self.summaries.append({
            "time": time,
            "checks": {c.name: c.passed for c in report.checks},
            "partition_ok": next(
                c.passed for c in report.checks if c.name == "partition"
            ),
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
