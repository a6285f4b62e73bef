"""Cluster formation and adjustment.

Every election reads one order, the column ``NetworkMetrics.rank``:
higher weight, then higher NS, then the lower node id.  Both passes keep
roles as boolean node columns and read each neighbourhood as a masked row
of ``graph.adj``.  Each keeps the clustering as an ``owner`` column, each
node's cluster list position (-1 for none), and builds the member listing
of its ``ClusterState`` from it once, at the end.
Critical nodes are handled in terms of three neighbourhood sets of a node
u: N'(u) = ``adj[u] & ~is_master & (weights > weights[u])``, its heavier
non-masters; N''(u) = ``adj[u] & ~(is_master | is_proxy) & (weights <
weights[u])``, its lighter non-leaders; and N_M(u) = ``adj[u] &
near_master``, its neighbours adjacent to a master, where ``near_master``
is ORed with ``adj[m]`` whenever m becomes a master.

Formation walks the nodes in rank order.  The first master is the
top-ranked node; every later master must sit exactly 3 hops from one
previously elected master or proxy while staying at least 3 hops from all
of them, which keeps clusters from overlapping.  Both conditions read one
int64 column, ``near``: each node's least hop distance to the masters and
proxies elected so far, lowered with ``np.minimum`` by the hop row of each
new leader.  A later master needs ``near`` exactly 3 and a proxy at least
3; an UNREACHABLE (-1) entry keeps ``near`` at -1, too close for either.
Each cluster is the elected pair plus both leaders' unclaimed neighbours,
so a double star (the (m, p) edge plus one spoke per member) always embeds
in it.

Nodes that fail the distance conditions are deferred; deferred nodes plus
type-I hidden masters (the members of a proxy's N') form the critical
set.  The adjustment pass then regroups critical nodes, in rank order,
into new clusters drawn from N'' and kept clear of N_M, pulling members
out of existing ones where needed, and declares any node still uncovered
a master on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .graph import NetworkGraph, require_connected
from .metrics import NetworkMetrics

CLASS_PERFECT = "perfect"
CLASS_FAIRLY_PERFECT = "fairly-perfect"


#: Node statuses, indexed by ``ClusterState.statuses``.
STATUSES = ("master", "proxy", "slave", "unclustered")


@dataclass
class ClusterState:
    """Snapshot of the clustering after formation, adjustment or a
    maintenance step, held as columns.

    Per cluster, in list order: ``ids``, ``masters`` and ``proxies`` (-1
    for none).  The member listing has one entry per listed member, its
    node (``nodes``) and its cluster's list position (``cluster``), grouped
    by cluster and sorted within each: a listing, not one owner per node,
    because a report may list a node in two clusters.  Boolean node
    columns: ``hm1``, ``hm2`` and ``deferred`` record the formation outcome
    and are kept through adjustment for the reports; ``critical`` marks the
    nodes still awaiting treatment, read only by adjustment, which clears
    it, and ``classification``.  Statuses and the property checks read
    every state as a complete clustering.
    """

    node_count: int
    ids: np.ndarray
    masters: np.ndarray
    proxies: np.ndarray
    nodes: np.ndarray
    cluster: np.ndarray
    critical: np.ndarray
    hm1: np.ndarray
    hm2: np.ndarray
    deferred: np.ndarray
    events: list[dict] = field(default_factory=list)

    def bounds(self) -> np.ndarray:
        """Cluster i lists ``nodes[bounds[i]:bounds[i + 1]]``."""
        return self.cluster.searchsorted(np.arange(len(self.ids) + 1))

    def leaders(self) -> np.ndarray:
        """One (master, proxy) row per cluster, the master twice for a
        cluster without a proxy."""
        return np.array([self.masters, np.where(self.proxies < 0, self.masters, self.proxies)]).T

    def ordinary(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, cluster positions, leader rows) of the listed members
        that are neither master nor proxy of their cluster."""
        pairs = self.leaders()[self.cluster]
        keep = (self.nodes != pairs[:, 0]) & (self.nodes != pairs[:, 1])
        return self.nodes[keep], self.cluster[keep], pairs[keep]

    def statuses(self) -> np.ndarray:
        """Each node's index in ``STATUSES``: master, proxy or slave of the
        last cluster that lists it, or unclustered."""
        nodes, cluster = self.nodes, self.cluster
        roles = np.where(nodes == self.masters[cluster], 0,
                         np.where(nodes == self.proxies[cluster], 1, 2))
        last = np.full(self.node_count, -1)  # each node's last entry in the listing
        np.maximum.at(last, nodes, np.arange(len(nodes)))
        codes = np.full(self.node_count, STATUSES.index("unclustered"))
        codes[last >= 0] = roles[last[last >= 0]]
        return codes


def _listing(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, cluster) of the member listing of a clustering given as each
    node's cluster list position (-1 for none)."""
    order = np.argsort(owner, kind="stable")
    nodes = order[owner[order] >= 0]
    return nodes, owner[nodes]


def master_eligibility(candidate: int, near: np.ndarray) -> bool:
    """Distance conditions for a master after the first: at least 3 hops
    from every elected master and proxy and exactly 3 from one of them,
    which is ``near[candidate] == 3`` (see ``run_m_dsec``)."""
    return bool(near[candidate] == 3)


def elect_proxy(
    master: int, near: np.ndarray, metrics: NetworkMetrics, graph: NetworkGraph
) -> int | None:
    """Top-ranked neighbour of the master that keeps >= 3 hops to every
    previously elected master and proxy (``near`` at least 3); None when no
    neighbour qualifies (the cluster then forms with a master only)."""
    candidates = np.flatnonzero(graph.adj[master] & (near >= 3))
    return metrics.best(candidates) if candidates.size else None


def run_m_dsec(
    graph: NetworkGraph, hop: np.ndarray, metrics: NetworkMetrics | None
) -> ClusterState:
    """Formation pass: returns clusters, hidden masters, the critical set
    and the deferred set.  Refuses disconnected graphs.  A lone node needs
    no weights: it is its own master."""
    require_connected(graph, hop)
    n = graph.node_count
    if metrics is None and n > 1:
        raise InvalidArgumentError("metrics with weights are required for n > 1")

    adj = graph.adj
    # see the module docstring; nothing is elected yet, so no node is near
    near = np.full(n, np.iinfo(np.int64).max)
    owner = np.full(n, -1)  # list position of each node's cluster; -1 while free
    is_master, is_proxy, hm1, deferred = np.zeros((4, n), dtype=bool)
    masters, proxies = [], []  # one entry per cluster, a proxy of -1 for none
    events: list[dict] = []

    for x in range(n) if metrics is None else metrics.order.tolist():
        if owner[x] >= 0:
            continue
        if masters and not master_eligibility(x, near):
            deferred[x] = True
            events.append({"action": "defer", "node": x})
            continue
        events.append({"action": "elect_master", "node": x})
        is_master[x] = True
        y = elect_proxy(x, near, metrics, graph)
        free = owner < 0
        members = free & adj[x]
        members[x] = True
        np.minimum(near, hop[x], out=near)
        hidden = []
        if y is not None:
            events.append({"action": "elect_proxy", "node": y, "master": x})
            is_proxy[y] = True
            members |= free & adj[y]
            members[y] = True
            np.minimum(near, hop[y], out=near)
            # N'(y) inside the cluster
            hidden = np.flatnonzero(
                members & adj[y] & ~is_master & (metrics.weights > metrics.weights[y])
            ).tolist()
            hm1[hidden] = True
        owner[members] = len(masters)
        masters.append(x)
        proxies.append(-1 if y is None else y)
        events.append({
            "action": "form_cluster", "id": len(masters), "master": x, "proxy": y,
            "members": np.flatnonzero(members).tolist(), "hidden_masters": hidden,
        })

    # hm2, the deferred nodes adjacent to no proxy, is the free set: each node
    # is visited once and, if free then, elected or deferred; a leader's free
    # neighbours all join its cluster, and no owner is ever reset to -1
    free = owner < 0
    nodes, cluster = _listing(owner)
    return ClusterState(
        node_count=n, ids=np.arange(1, len(masters) + 1),
        masters=np.array(masters, dtype=np.intp), proxies=np.array(proxies, dtype=np.intp),
        nodes=nodes, cluster=cluster, critical=free | hm1, hm1=hm1, hm2=free,
        deferred=deferred, events=events,
    )


def run_adjusted(
    state: ClusterState, graph: NetworkGraph, metrics: NetworkMetrics
) -> ClusterState:
    """Adjustment pass over the critical nodes, in rank order.

    A type-I hidden master pairs with the best non-leader neighbour on the
    far side of the proxy it touches; it always touches one, its own
    cluster's, since formation marks hm1 only among a new proxy's
    neighbours and this pass unmarks no proxy.  Other critical nodes pair
    within N'' - N_M.
    A critical node adjacent to a master never leads a cluster, so no two
    masters touch.  Members pulled into a new cluster leave their old one.
    Critical nodes that cannot form a cluster stay slaves if already
    covered, otherwise become masters on their own.  New clusters are
    appended to the list.  The pass reads the clustering as one owner per
    node, the first listed cluster winning for a node listed twice (the
    lowest id, as formation lists clusters in id order), and rebuilds the
    listing from it once at the end.  The result has an empty
    ``critical``: nothing is left awaiting treatment, so a node the pass
    failed to cover fails the partition check.
    """
    if not state.critical.any():
        return state

    n, adj, weights = state.node_count, graph.adj, metrics.weights
    ids, masters, proxies = state.ids.tolist(), state.masters.tolist(), state.proxies.tolist()
    owner = np.full(n, len(ids))  # each node's cluster list position, -1 for none
    np.minimum.at(owner, state.nodes, state.cluster)
    owner[owner == len(ids)] = -1
    is_master, is_proxy = np.zeros((2, n), dtype=bool)
    is_master[state.masters] = True
    is_proxy[state.proxies[state.proxies >= 0]] = True
    near_master = adj[:, is_master].any(axis=1)
    hm1 = state.hm1
    pending = state.critical.copy()  # critical nodes no new cluster has absorbed yet
    events = list(state.events)
    next_id = max(ids, default=0) + 1

    def ranked(column: np.ndarray) -> list[int]:
        return metrics.order[column[metrics.order]].tolist()

    def lighter(u: int) -> np.ndarray:
        """N''(u)."""
        return adj[u] & ~(is_master | is_proxy) & (weights < weights[u])

    def attempt(c: int):
        """Pick a partner and member column for critical node c, or None."""
        if near_master[c]:
            return None
        if hm1[c]:
            base = adj[c] & ~(is_master | is_proxy)
            # an ordinary member that touches a master is unusable
            partner = metrics.best(np.flatnonzero(base & (pending | ~near_master)))
            if partner < 0:
                return None
            extra = adj[partner] if pending[partner] and not hm1[partner] else lighter(partner)
            return partner, base | extra
        pool = lighter(c) & ~near_master
        partner = metrics.best(np.flatnonzero(pool))
        if partner < 0:
            return None
        return partner, pool | (lighter(partner) & ~near_master)

    for c in ranked(pending):
        outcome = attempt(c) if pending[c] else None
        if outcome is None:
            continue
        partner, members = outcome
        members[[c, partner]] = True
        members &= ~(is_master | is_proxy)  # existing leaders are never pulled
        events.append({
            "action": "adjust_cluster", "id": next_id, "master": c,
            "proxy": partner, "members": np.flatnonzero(members).tolist(),
        })
        for old in sorted(set(owner[members].tolist()) - {-1}, key=ids.__getitem__):
            removed = np.flatnonzero(members & (owner == old)).tolist()
            events.append({"action": "prune_cluster", "id": ids[old], "removed": removed})
        owner[members] = len(ids)
        ids.append(next_id)
        masters.append(c)
        proxies.append(partner)
        is_master[c] = is_proxy[partner] = True
        near_master |= adj[c]
        pending &= ~members
        next_id += 1

    for c in ranked(pending & (owner < 0)):
        owner[c] = len(ids)
        ids.append(next_id)
        masters.append(c)
        proxies.append(-1)
        events.append({"action": "singleton_master", "id": next_id, "node": c})
        next_id += 1

    nodes, cluster = _listing(owner)
    return replace(
        state, ids=np.array(ids), masters=np.array(masters, dtype=np.intp),
        proxies=np.array(proxies, dtype=np.intp),
        nodes=nodes, cluster=cluster, critical=np.zeros(n, dtype=bool), events=events,
    )


def classification(formation: ClusterState) -> str:
    """Perfect when formation leaves no critical node and every cluster of
    two or more members has a proxy, so every cluster is a double star
    (``verify.perfect_claims``); otherwise fairly-perfect: adjustment
    covers every critical node, as a singleton master if need be."""
    proxyless = ((formation.proxies < 0) & (np.diff(formation.bounds()) > 1)).any()
    return CLASS_FAIRLY_PERFECT if formation.critical.any() or proxyless else CLASS_PERFECT


def form_and_adjust(
    graph: NetworkGraph, hop: np.ndarray, metrics: NetworkMetrics | None
) -> tuple[ClusterState, ClusterState]:
    """(formation state, final state).  Adjustment returns a formation that
    left no critical node unchanged, so a perfect formation is its own
    final state."""
    initial = run_m_dsec(graph, hop, metrics)
    return initial, run_adjusted(initial, graph, metrics)
