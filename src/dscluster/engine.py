"""Cluster formation and adjustment.

Every election follows one order, ``NetworkMetrics.rank``: higher weight,
then higher NS, then the lower node id.  Both passes keep roles as boolean
node columns and read each neighbourhood as a masked row of ``graph.adj``.
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
from enum import Enum

import numpy as np

from .errors import InvalidArgumentError
from .graph import NetworkGraph, require_connected
from .metrics import NetworkMetrics

CLASS_PERFECT = "perfect"
CLASS_FAIRLY_PERFECT = "fairly-perfect"


class NodeStatus(str, Enum):
    MASTER = "master"
    PROXY = "proxy"
    SLAVE = "slave"
    UNCLUSTERED = "unclustered"


@dataclass
class ClusterRecord:
    """One cluster: its leaders plus the full member set (leaders included)."""

    id: int
    master: int
    proxy: int | None
    members: set[int]

    def copy(self) -> "ClusterRecord":
        return ClusterRecord(self.id, self.master, self.proxy, set(self.members))

    @property
    def leaders(self) -> set[int]:
        return {self.master} if self.proxy is None else {self.master, self.proxy}


@dataclass
class ClusterState:
    """Snapshot of the clustering after formation, adjustment or a
    maintenance step.

    ``hidden_masters_1``/``hidden_masters_2``/``deferred`` record the
    formation outcome and are kept unchanged through adjustment so reports
    can show how the final structure came about.  ``critical`` is the set
    still awaiting treatment; it matters only to adjustment, which empties
    it, and to ``classification``.  Statuses and the property checks read
    every state as a complete clustering.
    """

    node_count: int
    clusters: list[ClusterRecord]
    critical: set[int]
    hidden_masters_1: set[int]
    hidden_masters_2: set[int]
    deferred: set[int]
    events: list[dict] = field(default_factory=list)

    def copy(self) -> "ClusterState":
        return ClusterState(
            node_count=self.node_count,
            clusters=[c.copy() for c in self.clusters],
            critical=set(self.critical),
            hidden_masters_1=set(self.hidden_masters_1),
            hidden_masters_2=set(self.hidden_masters_2),
            deferred=set(self.deferred),
            events=list(self.events),
        )

    def masters(self) -> set[int]:
        return {c.master for c in self.clusters}

    def proxies(self) -> set[int]:
        return {c.proxy for c in self.clusters if c.proxy is not None}

    def membership(self) -> dict[int, int]:
        """node -> cluster id; when duplicated, the lowest cluster id wins
        (the partition check reports duplicates with witnesses)."""
        owner: dict[int, int] = {}
        for c in sorted(self.clusters, key=lambda c: c.id):
            for m in c.members:
                owner.setdefault(m, c.id)
        return owner

    def statuses(self) -> dict[int, NodeStatus]:
        """Role of every node: master, proxy or slave of the cluster that
        lists it, or unclustered."""
        st: dict[int, NodeStatus] = {}
        for c in self.clusters:
            for m in c.members:
                if m == c.master:
                    st[m] = NodeStatus.MASTER
                elif m == c.proxy:
                    st[m] = NodeStatus.PROXY
                else:
                    st[m] = NodeStatus.SLAVE
        return {v: st.get(v, NodeStatus.UNCLUSTERED) for v in range(self.node_count)}


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
    candidates = np.flatnonzero(graph.adj[master] & (near >= 3)).tolist()
    return max(candidates, key=metrics.rank) if candidates else None


def _column(n: int, nodes) -> np.ndarray:
    """Boolean node column, set at ``nodes``."""
    column = np.zeros(n, dtype=bool)
    column[list(nodes)] = True
    return column


def _nodes(column: np.ndarray) -> set[int]:
    return set(np.flatnonzero(column).tolist())


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
    free = np.ones(n, dtype=bool)  # in no cluster yet
    is_master, is_proxy, hm1, deferred = np.zeros((4, n), dtype=bool)
    clusters: list[ClusterRecord] = []
    events: list[dict] = []

    order = range(n) if metrics is None else sorted(range(n), key=metrics.rank, reverse=True)
    for x in order:
        if not free[x]:
            continue
        if clusters and not master_eligibility(x, near):
            deferred[x] = True
            events.append({"action": "defer", "node": x})
            continue
        events.append({"action": "elect_master", "node": x})
        is_master[x] = True
        y = elect_proxy(x, near, metrics, graph)
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
        listed = np.flatnonzero(members).tolist()
        record = ClusterRecord(id=len(clusters) + 1, master=x, proxy=y, members=set(listed))
        clusters.append(record)
        free &= ~members
        events.append({
            "action": "form_cluster", "id": record.id, "master": x, "proxy": y,
            "members": listed, "hidden_masters": hidden,
        })

    hm2 = deferred & free & ~adj[:, is_proxy].any(axis=1)
    return ClusterState(
        node_count=n, clusters=clusters, critical=_nodes(free | hm1),
        hidden_masters_1=_nodes(hm1), hidden_masters_2=_nodes(hm2), deferred=_nodes(deferred),
        events=events,
    )


def run_adjusted(
    state: ClusterState, graph: NetworkGraph, metrics: NetworkMetrics
) -> ClusterState:
    """Adjustment pass over the critical nodes, in rank order.

    A type-I hidden master pairs with the best non-leader neighbour on the
    far side of the proxy it touches (after formation it always touches
    one, its own cluster's); other critical nodes pair within N'' - N_M.
    A critical node adjacent to a master never leads a cluster, so no two
    masters touch.  Members pulled into a new cluster leave their old one.
    Critical nodes that cannot form a cluster stay slaves if already
    covered, otherwise become masters on their own.  The result has an
    empty ``critical``: nothing is left awaiting treatment, so a node the
    pass failed to cover fails the partition check.
    """
    if not state.critical:
        return state

    n, adj, weights = state.node_count, graph.adj, metrics.weights
    working: dict[int, ClusterRecord] = {c.id: c.copy() for c in state.clusters}
    membership = state.membership()
    owner = np.zeros(n, dtype=np.int64)  # cluster id of each node; formation ids start at 1
    owner[list(membership)] = list(membership.values())
    is_master = _column(n, state.masters())
    is_proxy = _column(n, state.proxies())
    near_master = adj[:, is_master].any(axis=1)
    hm1 = _column(n, state.hidden_masters_1)
    pending = _column(n, state.critical)  # critical nodes no new cluster has absorbed yet
    events = list(state.events)
    next_id = max(working, default=0) + 1

    def ranked(column: np.ndarray) -> list[int]:
        return sorted(np.flatnonzero(column).tolist(), key=metrics.rank, reverse=True)

    def lighter(u: int) -> np.ndarray:
        """N''(u)."""
        return adj[u] & ~(is_master | is_proxy) & (weights < weights[u])

    def attempt(c: int):
        """Pick a partner and member column for critical node c, or None."""
        if near_master[c]:
            return None
        if hm1[c] and (adj[c] & is_proxy).any():
            base = adj[c] & ~(is_master | is_proxy)
            for partner in ranked(base):
                if pending[partner]:
                    extra = lighter(partner) if hm1[partner] else adj[partner]
                elif near_master[partner]:
                    continue  # an ordinary member that touches a master is unusable
                else:
                    extra = lighter(partner)
                return partner, base | extra
            return None
        pool = lighter(c) & ~near_master
        if not pool.any():
            return None
        partner = ranked(pool)[0]
        return partner, pool | (lighter(partner) & ~near_master)

    for c in ranked(pending):
        outcome = attempt(c) if pending[c] else None
        if outcome is None:
            continue
        partner, members = outcome
        members[[c, partner]] = True
        members &= ~(is_master | is_proxy)  # existing leaders are never pulled
        listed = np.flatnonzero(members).tolist()
        working[next_id] = ClusterRecord(id=next_id, master=c, proxy=partner, members=set(listed))
        events.append({
            "action": "adjust_cluster", "id": next_id, "master": c,
            "proxy": partner, "members": listed,
        })
        for old_id in sorted(set(owner[members].tolist()) - {0}):  # 0: in no cluster
            removed = np.flatnonzero(members & (owner == old_id)).tolist()
            working[old_id].members.difference_update(removed)
            events.append({"action": "prune_cluster", "id": old_id, "removed": removed})
        owner[members] = next_id
        is_master[c] = is_proxy[partner] = True
        near_master |= adj[c]
        pending &= ~members
        next_id += 1

    for c in ranked(pending & (owner == 0)):
        working[next_id] = ClusterRecord(id=next_id, master=c, proxy=None, members={c})
        events.append({"action": "singleton_master", "id": next_id, "node": c})
        next_id += 1

    clusters = [working[cid] for cid in sorted(working)]
    return replace(state, clusters=clusters, critical=set(), events=events)


def classification(formation: ClusterState) -> str:
    """Perfect when formation leaves no critical node and every cluster of
    two or more members has a proxy, so every cluster is a double star
    (``verify.perfect_claims``); otherwise fairly-perfect: adjustment
    covers every critical node, as a singleton master if need be."""
    proxyless = any(c.proxy is None and len(c.members) > 1 for c in formation.clusters)
    return CLASS_FAIRLY_PERFECT if formation.critical or proxyless else CLASS_PERFECT


def form_and_adjust(
    graph: NetworkGraph, hop: np.ndarray, metrics: NetworkMetrics | None
) -> tuple[ClusterState, ClusterState]:
    """(formation state, final state).  Adjustment returns a formation that
    left no critical node unchanged, so a perfect formation is its own
    final state."""
    initial = run_m_dsec(graph, hop, metrics)
    return initial, run_adjusted(initial, graph, metrics)
