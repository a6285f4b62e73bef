"""Property checks for cluster states.

Every check returns a CheckResult whose failures carry concrete witnesses
(cluster ids, nodes or node pairs); a check passes exactly when it has
none.  The four structural checks apply to every clustering, and none
of them builds an n x n array.  The double-star check and the diameter
bound share one reading of a cluster's (double) star (``_star_breaks``):
the diameter bound measures only the clusters that break it, each on its
own adjacency block.  The dominance check reads the clusters as node
columns (``member_columns``, ``leader_pairs``) and gathers hop entries at
(member, leader) pairs; it is the only check that reads the caller's hop
table.  This module
also owns the paper's two extra claims for a perfect clustering, which
reduce to one linear check (``perfect_claims``).  The engine labels
perfect only a formation that passes it, so every report the engine
writes verifies with exit 0.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .engine import ClusterRecord, ClusterState
from .errors import SizeLimitError
from .graph import MAX_NODES, UNREACHABLE, NetworkGraph, hop_distance_table


@dataclass
class CheckResult:
    name: str
    witnesses: list = field(default_factory=list)
    note: str = ""
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses


@dataclass
class PropertyReport:
    checks: list[CheckResult]
    radius: int | None = None
    diameter: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def member_columns(groups: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Node lists as two columns: the nodes concatenated in list order, and
    the list position of each one's list."""
    sizes = [len(group) for group in groups]
    nodes = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp, count=sum(sizes))
    return nodes, np.repeat(np.arange(len(groups)), sizes)


def ordinary_members(cluster: ClusterRecord) -> list[int]:
    """The members that are neither master nor proxy, sorted."""
    return sorted(cluster.members - {cluster.master, cluster.proxy})


def leader_pairs(clusters: list[ClusterRecord]) -> np.ndarray:
    """Every cluster's (master, proxy) pair, with the master again for no proxy."""
    return np.array([[c.master for c in clusters],
                     [c.master if c.proxy is None else c.proxy for c in clusters]],
                    dtype=np.intp).reshape(2, -1).T


def _star_breaks(cluster: ClusterRecord, adj: np.ndarray) -> list[dict]:
    """Why ``cluster`` spans no double star: each leader that is no member,
    then a (master, proxy) pair that is no edge, or else each other member
    adjacent to neither leader.  A cluster without a proxy is read as a
    star of its master."""
    breaks = []
    if not cluster.leaders <= cluster.members:
        breaks = [{"cluster": cluster.id, "leader_outside": v}
                  for v in sorted(cluster.leaders - cluster.members)]
    m, p = cluster.master, cluster.proxy
    if p is None:
        p = m
    elif not adj[m, p]:
        breaks.append({"cluster": cluster.id, "missing_edge": [m, p]})
        return breaks
    for v in sorted(cluster.members - {m, p}):
        if not (adj[v, m] or adj[v, p]):
            breaks.append({"cluster": cluster.id, "stranded_member": v})
    return breaks


def check_cluster_diameter(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """Every cluster's member-induced subgraph has diameter at most 3.

    Distances stay inside a cluster, so the check never builds an n x n
    table.  A cluster that spans its leaders' (double) star, the
    double-star check's condition, has no two members more than 3 hops
    apart.  Each other cluster of k > 1 members gets one
    ``hop_distance_table`` on its own k x k adjacency block, which gives
    every witness pair its exact distance, or None when it is disconnected
    inside the cluster.  Witnesses come in cluster list order, then by the
    sorted positions of the pair's members.  The clusters are refused
    beyond ``MAX_NODES`` members in total (only overlapping clusters get
    there).
    """
    total = sum(len(cluster.members) for cluster in state.clusters)
    if total > MAX_NODES:
        raise SizeLimitError(
            f"clusters list {total} members in total, more than the {MAX_NODES} "
            "the diameter check is built for"
        )
    witnesses = []
    for cluster in state.clusters:
        if len(cluster.members) < 2 or not _star_breaks(cluster, graph.adj):
            continue
        order = sorted(cluster.members)
        hop = hop_distance_table(NetworkGraph(adj=graph.adj[np.ix_(order, order)]))
        for a, b in np.argwhere((hop == UNREACHABLE) | (hop > 3)).tolist():
            distance = None if hop[a, b] == UNREACHABLE else int(hop[a, b])
            witnesses.append({"cluster": cluster.id,
                              "pair": [order[a], order[b]], "distance": distance})
    return CheckResult("cluster-diameter", witnesses)


def check_double_star(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """A spanning double star embeds in every two-leader cluster: both
    leaders are members, the (master, proxy) edge exists and every other
    member is adjacent to one of them, so that edge dominates every spoke.
    A cluster without a proxy is checked as a star: its master among its
    members and every other member adjacent to it."""
    witnesses = [w for cluster in state.clusters for w in _star_breaks(cluster, graph.adj)]
    starless = sum(cluster.proxy is None for cluster in state.clusters)
    note = f"{starless} cluster(s) without a proxy, checked as stars" if starless else ""
    return CheckResult("double-star", witnesses, note)


def check_partition(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """Every node lies in exactly one cluster: member sets are pairwise
    disjoint and cover the nodes.  The state is read as a complete
    clustering whatever its critical set, so a formation state's critical
    nodes outside every cluster are witnesses too."""
    witnesses = []
    seen: dict[int, int] = {}
    for cluster in state.clusters:
        for v in sorted(cluster.members):
            if v in seen:
                witnesses.append({"node": v, "clusters": [seen[v], cluster.id]})
            else:
                seen[v] = cluster.id
    for v in range(state.node_count):
        if v not in seen:
            witnesses.append({"node": v, "uncovered": True})
    return CheckResult("partition", witnesses)


def check_dominance_and_independence(
    state: ClusterState, graph: NetworkGraph, hop: np.ndarray
) -> CheckResult:
    """Every ordinary member sits within 2 hops of its own master or proxy,
    and no two masters are adjacent.  The two halves are reported
    separately in ``details`` (motion may be allowed to break master
    independence while dominance must still hold)."""
    nodes, owner = member_columns([ordinary_members(c) for c in state.clusters])
    near = hop[nodes[:, None], leader_pairs(state.clusters)[owner]]
    dominated = ((near != UNREACHABLE) & (near <= 2)).any(axis=1)
    dominance_witnesses = [{"cluster": state.clusters[i].id, "node": v}
                           for i, v in zip(owner[~dominated].tolist(), nodes[~dominated].tolist())]
    masters = sorted(state.masters())
    pairs = np.nonzero(np.triu(graph.adj[np.ix_(masters, masters)], 1))
    independence_witnesses = [{"masters": [masters[i], masters[j]]} for i, j in zip(*pairs)]
    return CheckResult(
        "dominance-and-independence",
        dominance_witnesses + independence_witnesses,
        details={
            "slave_dominance_ok": not dominance_witnesses,
            "master_independence_ok": not independence_witnesses,
        },
    )


def perfect_claims(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """The paper's two claims for a perfect clustering, read on H, the
    union of the clusters' double stars: each (master, proxy) edge plus
    each member's edges to its own leaders.  The claims are that the
    (master, proxy) pairs dominate H's edges efficiently, and that they
    are as many as H's edge domination number.

    The structural checks give partition and double-star, so H splits
    into one component per cluster, and every edge of a cluster's
    component touches its master or its proxy.  A pair that is an edge
    then dominates its own component exactly once, and touches no other.
    So efficient domination holds exactly when every pair is an edge and
    every cluster of two or more members has a proxy: the star of a
    proxy-less cluster has edges that no pair touches.  One edge dominates
    a star or a double star, so the edge domination number is the count
    of clusters with two or more members, which equals the count of pairs
    under the same condition; the count claim needs no line of its own.
    Only a report labelled perfect is held to this: a fairly-perfect
    clustering may keep a proxy-less cluster of several members.
    Witnesses name each proxy-less cluster of two or more members and
    each pair that is no edge; one pass over the clusters, whatever the
    size of the graph.
    """
    witnesses = []
    for cluster in state.clusters:
        m, p = cluster.master, cluster.proxy
        if p is None:
            if len(cluster.members) > 1:
                witnesses.append({"cluster": cluster.id, "no_proxy": sorted(cluster.members)})
        elif not graph.adj[m, p]:
            witnesses.append({"cluster": cluster.id, "missing_edge": [m, p]})
    return CheckResult("efficient-edge-domination", witnesses)


def graph_radius_diameter(hop: np.ndarray) -> tuple[int | None, int | None]:
    """(radius, diameter) from a hop table; None when disconnected.
    UNREACHABLE is the table's only negative entry, so its minimum tells."""
    if hop.shape[0] == 0 or hop.min() == UNREACHABLE:
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
