"""Property checks for cluster states.

Every check returns a CheckResult whose failures carry concrete witnesses
(cluster ids, nodes or node pairs); a check passes exactly when it has
none.  The four structural checks apply to every clustering, and none
of them builds an n x n array.  Each reads the state's columns directly,
as gathers of the member listing against the per-cluster leaders.  The
double-star check and the diameter bound share one reading of the
clusters' (double) stars (``_star_breaks``): the diameter bound measures
only the clusters that break theirs, each on its own adjacency block.
The dominance check reads the adjacency too: a member is within 2 hops
of a leader iff it is adjacent to the leader or shares a neighbour with
it, so no check reads a hop table of the whole graph.  This module also
owns the paper's two extra claims for a perfect clustering, which reduce
to one linear check (``perfect_claims``).  The engine labels perfect only a
formation that passes it, so every report the engine writes verifies
with exit 0.  ``run_property_checks`` returns the four structural
checks as a list, in a fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import ClusterState
from .errors import SizeLimitError
from .graph import MAX_NODES, UNREACHABLE, NetworkGraph, block_rows, hop_distance_table


@dataclass
class CheckResult:
    name: str
    witnesses: list = field(default_factory=list)
    note: str = ""
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.witnesses


def _star_breaks(state: ClusterState, adj: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """Which clusters span no double star, as a column in list order, and
    why, in list order: for each, each leader that is no member, then a
    (master, proxy) pair that is no edge, or else each other member
    adjacent to neither leader.  A cluster without a proxy is read as a
    star of its master."""
    nodes, cluster, pairs = state.nodes, state.cluster, state.leaders()
    entry = pairs[cluster]  # each listed member's leaders
    at_master, at_proxy = nodes == entry[:, 0], nodes == entry[:, 1]
    inside = np.zeros((2, len(pairs)), dtype=bool)  # master, proxy listed in their cluster
    inside[0, cluster[at_master]] = True
    inside[1, cluster[at_proxy]] = True
    paired = (state.proxies < 0) | adj[pairs[:, 0], pairs[:, 1]]
    stranded = (paired[cluster] & ~(at_master | at_proxy)
                & ~(adj[nodes, entry[:, 0]] | adj[nodes, entry[:, 1]]))
    broken = ~(inside[0] & inside[1] & paired)
    broken[cluster[stranded]] = True
    if not broken.any():
        return broken, []
    spokes: dict[int, list[int]] = {}
    for i, v in zip(cluster[stranded].tolist(), nodes[stranded].tolist()):
        spokes.setdefault(i, []).append(v)
    breaks = []
    for i in np.flatnonzero(broken).tolist():
        cid, (m, p) = int(state.ids[i]), pairs[i].tolist()
        outside = {v for v, listed in ((m, inside[0, i]), (p, inside[1, i])) if not listed}
        breaks += [{"cluster": cid, "leader_outside": v} for v in sorted(outside)]
        if not paired[i]:
            breaks.append({"cluster": cid, "missing_edge": [m, p]})
        breaks += [{"cluster": cid, "stranded_member": v} for v in spokes.get(i, [])]
    return broken, breaks


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
    total = len(state.nodes)
    if total > MAX_NODES:
        raise SizeLimitError(
            f"clusters list {total} members in total, more than the {MAX_NODES} "
            "the diameter check is built for"
        )
    broken, _ = _star_breaks(state, graph.adj)
    bounds = state.bounds()
    witnesses = []
    for i in (broken & (bounds[1:] - bounds[:-1] > 1)).nonzero()[0].tolist():
        order = state.nodes[bounds[i]:bounds[i + 1]].tolist()
        hop = hop_distance_table(NetworkGraph(adj=graph.adj[np.ix_(order, order)]))
        for a, b in np.argwhere((hop == UNREACHABLE) | (hop > 3)).tolist():
            distance = None if hop[a, b] == UNREACHABLE else int(hop[a, b])
            witnesses.append({"cluster": int(state.ids[i]),
                              "pair": [order[a], order[b]], "distance": distance})
    return CheckResult("cluster-diameter", witnesses)


def check_double_star(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """A spanning double star embeds in every two-leader cluster: both
    leaders are members, the (master, proxy) edge exists and every other
    member is adjacent to one of them, so that edge dominates every spoke.
    A cluster without a proxy is checked as a star: its master among its
    members and every other member adjacent to it."""
    witnesses = _star_breaks(state, graph.adj)[1]
    starless = int((state.proxies < 0).sum())
    note = f"{starless} cluster(s) without a proxy, checked as stars" if starless else ""
    return CheckResult("double-star", witnesses, note)


def check_partition(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """Every node lies in exactly one cluster: member sets are pairwise
    disjoint and cover the nodes.  The state is read as a complete
    clustering whatever its critical set, so a formation state's critical
    nodes outside every cluster are witnesses too.  A node listed again
    names the cluster that first lists it and the one that lists it again,
    in listing order."""
    nodes, ids = state.nodes, state.ids[state.cluster]
    entries = np.arange(len(nodes))
    first = np.full(state.node_count, len(nodes))  # each node's first entry in the listing
    np.minimum.at(first, nodes, entries)
    again = (first[nodes] != entries).nonzero()[0]
    witnesses = [{"node": v, "clusters": [a, b]} for v, a, b in zip(
        nodes[again].tolist(), ids[first[nodes[again]]].tolist(), ids[again].tolist())]
    uncovered = (first == len(nodes)).nonzero()[0].tolist()
    witnesses += [{"node": v, "uncovered": True} for v in uncovered]
    return CheckResult("partition", witnesses)


def check_dominance_and_independence(state: ClusterState, graph: NetworkGraph) -> CheckResult:
    """Every ordinary member sits within 2 hops of its own master or proxy,
    and no two masters are adjacent.  The two halves are reported
    separately in ``details`` (motion may be allowed to break master
    independence while dominance must still hold).

    A member is within 2 hops of a leader iff it is adjacent to it or
    shares a neighbour with it.  The adjacency entries of every (member,
    leader) pair are one gather; only the members adjacent to neither
    leader gather their adjacency rows against their leaders', a block of
    rows at a time."""
    adj = graph.adj
    members, owner, leaders = state.ordinary()
    far = ~(adj[members, leaders[:, 0]] | adj[members, leaders[:, 1]])
    stray = np.flatnonzero(far)
    step = block_rows(3 * state.node_count)  # three gathered rows per member
    for a in range(0, len(stray), step):
        part = stray[a:a + step]
        shared = adj[members[part]] & (adj[leaders[part, 0]] | adj[leaders[part, 1]])
        far[part] = ~shared.any(axis=1)
    dominance_witnesses = [{"cluster": c, "node": v} for c, v in
                           zip(state.ids[owner[far]].tolist(), members[far].tolist())]
    is_master = np.zeros(state.node_count, dtype=bool)
    is_master[state.masters] = True
    leading = np.flatnonzero(is_master).tolist()
    pairs = np.nonzero(np.triu(adj[np.ix_(leading, leading)], 1))
    independence_witnesses = [{"masters": [leading[i], leading[j]]} for i, j in zip(*pairs)]
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
    bounds = state.bounds().tolist()
    witnesses = []
    for i, (cid, m, p) in enumerate(zip(state.ids.tolist(), state.masters.tolist(),
                                        state.proxies.tolist())):
        if p < 0:
            if bounds[i + 1] - bounds[i] > 1:
                members = state.nodes[bounds[i]:bounds[i + 1]].tolist()
                witnesses.append({"cluster": cid, "no_proxy": members})
        elif not graph.adj[m, p]:
            witnesses.append({"cluster": cid, "missing_edge": [m, p]})
    return CheckResult("efficient-edge-domination", witnesses)


def run_property_checks(state: ClusterState, graph: NetworkGraph) -> list[CheckResult]:
    """The four structural checks, as a list in this order."""
    return [
        check_cluster_diameter(state, graph),
        check_double_star(state, graph),
        check_partition(state, graph),
        check_dominance_and_independence(state, graph),
    ]
