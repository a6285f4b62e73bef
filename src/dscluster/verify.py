"""Structural property checks for cluster states.

Every check returns a CheckResult whose failures carry concrete witnesses
(cluster ids, nodes or node pairs).  The edge-domination helpers use
exhaustive search and are deliberately capped at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .engine import ClusterState, PHASE_FORMATION
from .errors import InvalidArgumentError, SizeLimitError
from .graph import MAX_NODES, UNREACHABLE, NetworkGraph, hop_distance_table

#: Brute-force bound for line_graph_domination_number.
EDGE_LIMIT = 20


@dataclass
class CheckResult:
    name: str
    passed: bool
    witnesses: list = field(default_factory=list)
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "witnesses": self.witnesses}
        if self.note:
            out["note"] = self.note
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class PropertyReport:
    checks: list[CheckResult]
    radius: int | None = None
    diameter: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "radius": self.radius,
            "diameter": self.diameter,
            "checks": [c.to_dict() for c in self.checks],
        }


def check_cluster_diameter(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """Every cluster's member-induced subgraph has diameter at most 3.

    One BFS serves every cluster: it runs on the disjoint union of the
    member-induced subgraphs, laid out cluster by cluster with the edges
    between different clusters masked out.  A node listed by several
    clusters appears once per cluster, so the union is refused beyond
    ``MAX_NODES`` members in total (only overlapping clusters get there).
    """
    sizes = [len(cluster.members) for cluster in state.clusters]
    if sum(sizes) > MAX_NODES:
        raise SizeLimitError(
            f"clusters list {sum(sizes)} members in total, more than the {MAX_NODES} "
            "the diameter check is built for"
        )
    order = np.array([v for cluster in state.clusters for v in sorted(cluster.members)], dtype=int)
    owner = np.repeat(np.arange(len(state.clusters)), sizes)
    same = owner[:, None] == owner[None, :]
    hop = hop_distance_table(NetworkGraph(adj=graph.adj[order][:, order] & same))
    too_far = (hop == UNREACHABLE) | (hop > 3)
    too_far &= same
    witnesses = []
    for i, j in zip(*np.divmod(np.flatnonzero(too_far), order.size)):
        distance = None if hop[i, j] == UNREACHABLE else int(hop[i, j])
        witnesses.append({"cluster": state.clusters[owner[i]].id,
                          "pair": [int(order[i]), int(order[j])], "distance": distance})
    return CheckResult("cluster-diameter", not witnesses, witnesses)


def check_double_star(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """A spanning double star embeds in every two-leader cluster: the
    (master, proxy) edge exists and every other member is adjacent to one
    of them, so that edge dominates every spoke.  Clusters without a proxy
    pass vacuously (a plain star)."""
    witnesses = []
    starless = 0
    for cluster in state.clusters:
        if cluster.proxy is None:
            starless += 1
            continue
        m, p = cluster.master, cluster.proxy
        if not graph.adjacent(m, p):
            witnesses.append({"cluster": cluster.id, "missing_edge": [m, p]})
            continue
        for v in sorted(cluster.members - {m, p}):
            if not (graph.adjacent(v, m) or graph.adjacent(v, p)):
                witnesses.append({"cluster": cluster.id, "stranded_member": v})
    note = f"{starless} cluster(s) without a proxy: star form, vacuous pass" if starless else ""
    return CheckResult("double-star", not witnesses, witnesses, note)


def check_partition(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """Cluster member sets are pairwise disjoint.  Once formation is
    complete (no critical set) or adjustment / maintenance has run, every
    node must additionally lie in exactly one cluster."""
    witnesses = []
    seen: dict[int, int] = {}
    for cluster in state.clusters:
        for v in sorted(cluster.members):
            if v in seen:
                witnesses.append({"node": v, "clusters": [seen[v], cluster.id]})
            else:
                seen[v] = cluster.id
    coverage_required = state.phase != PHASE_FORMATION or not state.critical
    if coverage_required:
        for v in range(state.node_count):
            if v not in seen:
                witnesses.append({"node": v, "uncovered": True})
    else:
        # mid-formation, only critical nodes may sit outside every cluster
        uncovered = {v for v in range(state.node_count) if v not in seen}
        for v in sorted(uncovered - state.critical):
            witnesses.append({"node": v, "uncovered_non_critical": True})
    return CheckResult("partition", not witnesses, witnesses)


def check_dominance_and_independence(
    state: ClusterState, graph: NetworkGraph, hop: np.ndarray
) -> CheckResult:
    """Every ordinary member sits within 2 hops of its own master or proxy,
    and no two masters are adjacent.  The two halves are reported
    separately in ``details`` (motion may be allowed to break master
    independence while dominance must still hold)."""
    ordinary = [sorted(cluster.members - cluster.leaders) for cluster in state.clusters]
    nodes = np.array([v for members in ordinary for v in members], dtype=np.intp)
    owner = np.repeat(np.arange(len(ordinary)), [len(members) for members in ordinary])
    leaders = np.array([(c.master, c.master if c.proxy is None else c.proxy)
                        for c in state.clusters], dtype=np.intp).reshape(-1, 2)[owner]
    near = hop[nodes[:, None], leaders]
    dominated = ((near != UNREACHABLE) & (near <= 2)).any(axis=1)
    dominance_witnesses = [{"cluster": state.clusters[i].id, "node": int(v)}
                           for i, v in zip(owner[~dominated], nodes[~dominated])]
    masters = sorted(state.masters())
    pairs = np.nonzero(np.triu(graph.adj[np.ix_(masters, masters)], 1))
    independence_witnesses = [{"masters": [masters[i], masters[j]]} for i, j in zip(*pairs)]
    witnesses = dominance_witnesses + independence_witnesses
    return CheckResult(
        "dominance-and-independence",
        not witnesses,
        witnesses,
        details={
            "slave_dominance_ok": not dominance_witnesses,
            "master_independence_ok": not independence_witnesses,
        },
    )


def check_efficient_edge_domination(
    edge_set: list[tuple[int, int]], graph: NetworkGraph
) -> bool:
    """True iff every edge of the graph shares an endpoint with exactly
    one edge of ``edge_set`` (an edge dominates itself)."""
    for u, v in edge_set:
        if not graph.adjacent(u, v):
            raise InvalidArgumentError(f"({u}, {v}) is not an edge of the graph")
    return all(
        sum(1 for u, v in edge_set if a in (u, v) or b in (u, v)) == 1
        for a, b in graph.edges()
    )


def line_graph_domination_number(graph: NetworkGraph, limit: int = EDGE_LIMIT) -> int:
    """Minimum size of an edge set dominating every edge, by exhaustive
    search in increasing subset size.  Refuses graphs with more than
    ``limit`` edges."""
    edges = graph.edges()
    if len(edges) > limit:
        raise SizeLimitError(f"{len(edges)} edges exceeds brute-force bound {limit}")
    if not edges:
        return 0
    for k in range(1, len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            endpoints = set()
            for u, v in subset:
                endpoints.add(u)
                endpoints.add(v)
            if all(a in endpoints or b in endpoints for a, b in edges):
                return k
    return len(edges)


def graph_radius_diameter(hop: np.ndarray) -> tuple[int | None, int | None]:
    """(radius, diameter) from a hop table; None when disconnected."""
    if hop.shape[0] == 0 or np.any(hop == UNREACHABLE):
        return None, None
    ecc = hop.max(axis=1)
    return int(ecc.min()), int(ecc.max())


def run_property_checks(
    state: ClusterState, graph: NetworkGraph, hop: np.ndarray
) -> PropertyReport:
    """The four structural checks plus the graph's radius and diameter."""
    radius, diameter = graph_radius_diameter(hop)
    checks = [
        check_cluster_diameter(state, graph),
        check_double_star(state, graph),
        check_partition(state, graph),
        check_dominance_and_independence(state, graph, hop),
    ]
    return PropertyReport(checks=checks, radius=radius, diameter=diameter)
