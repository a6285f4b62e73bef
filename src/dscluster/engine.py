"""Cluster formation and adjustment.

Every election follows one order, ``NetworkMetrics.rank``: higher weight,
then higher NS, then the lower node id.  Critical nodes are handled in
terms of three neighbourhood sets of a node u (``neighbor_partitions``):
N'(u), its heavier neighbours that are not masters; N''(u), its lighter
neighbours that are neither masters nor proxies; and N_M(u), its
neighbours adjacent to some master.

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
from .graph import DistanceTables, NetworkGraph, require_connected
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


@dataclass(frozen=True)
class NeighborPartitions:
    """N'(u), N''(u) and N_M(u) of one node u (see the module docstring)."""

    n_prime: frozenset[int]
    n_dprime: frozenset[int]
    n_m: frozenset[int]


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
    master: int, near: np.ndarray, metrics: NetworkMetrics, hop: np.ndarray
) -> int | None:
    """Top-ranked neighbour of the master that keeps >= 3 hops to every
    previously elected master and proxy (``near`` at least 3); None when no
    neighbour qualifies (the cluster then forms with a master only)."""
    candidates = np.flatnonzero((hop[master] == 1) & (near >= 3)).tolist()
    return max(candidates, key=metrics.rank) if candidates else None


def neighbor_partitions(
    u: int,
    graph: NetworkGraph,
    metrics: NetworkMetrics,
    masters: set[int],
    proxies: set[int],
) -> NeighborPartitions:
    """The paper's three neighbourhood sets of ``u`` against the given
    masters and proxies.

    N' (heavier non-masters) inside a proxy's cluster are its type-I
    hidden masters; N'' (lighter non-leaders) is where adjustment draws a
    partner and members; N_M (neighbours of masters) is what adjustment
    must leave alone.
    """
    w_u = metrics.weight(u)
    nbrs = graph.neighbors(u)
    by_master = graph.adj.take(nbrs, axis=0).take(sorted(masters), axis=1).any(axis=1)
    return NeighborPartitions(
        n_prime=frozenset(v for v in nbrs if metrics.weight(v) > w_u and v not in masters),
        n_dprime=frozenset(
            v for v in nbrs
            if v not in masters and v not in proxies and metrics.weight(v) < w_u
        ),
        n_m=frozenset(v for v, hit in zip(nbrs, by_master) if hit),
    )


def run_m_dsec(
    graph: NetworkGraph, tables: DistanceTables, metrics: NetworkMetrics | None
) -> ClusterState:
    """Formation pass: returns clusters, hidden masters, the critical set
    and the deferred set.  Refuses disconnected graphs.  A lone node needs
    no weights: it is its own master."""
    require_connected(graph, tables.hop)
    n = graph.node_count
    if metrics is None and n > 1:
        raise InvalidArgumentError("metrics with weights are required for n > 1")

    hop = tables.hop
    # see the module docstring; nothing is elected yet, so no node is near
    near = np.full(n, np.iinfo(np.int64).max)
    clustered: set[int] = set()
    deferred: set[int] = set()
    hm1: set[int] = set()
    masters: set[int] = set()
    proxies: set[int] = set()
    clusters: list[ClusterRecord] = []
    events: list[dict] = []

    order = range(n) if metrics is None else sorted(range(n), key=metrics.rank, reverse=True)
    for x in order:
        if x in clustered:
            continue
        if clusters and not master_eligibility(x, near):
            deferred.add(x)
            events.append({"action": "defer", "node": x})
            continue
        events.append({"action": "elect_master", "node": x})
        masters.add(x)
        y = elect_proxy(x, near, metrics, hop)
        members = {x} | (set(graph.neighbors(x)) - clustered)
        np.minimum(near, hop[x], out=near)
        hidden: frozenset[int] = frozenset()
        if y is not None:
            events.append({"action": "elect_proxy", "node": y, "master": x})
            proxies.add(y)
            members |= {y} | (set(graph.neighbors(y)) - clustered)
            np.minimum(near, hop[y], out=near)
            hidden = neighbor_partitions(y, graph, metrics, masters, proxies).n_prime & members
        record = ClusterRecord(id=len(clusters) + 1, master=x, proxy=y, members=members)
        clusters.append(record)
        hm1.update(hidden)
        clustered.update(members)
        events.append({
            "action": "form_cluster", "id": record.id, "master": x, "proxy": y,
            "members": sorted(members), "hidden_masters": sorted(hidden),
        })

    critical = (set(range(n)) - clustered) | hm1
    proxy_list = sorted(proxies)
    hm2 = {v for v in deferred if v not in clustered and not graph.adj[v, proxy_list].any()}
    return ClusterState(
        node_count=n, clusters=clusters, critical=critical,
        hidden_masters_1=hm1, hidden_masters_2=hm2, deferred=deferred,
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

    working: dict[int, ClusterRecord] = {c.id: c.copy() for c in state.clusters}
    membership = state.membership()
    masters = state.masters()
    proxies = state.proxies()
    pending = set(state.critical)  # critical nodes no new cluster has absorbed yet
    events = list(state.events)
    next_id = max(working, default=0) + 1

    def partitions(u: int) -> NeighborPartitions:
        return neighbor_partitions(u, graph, metrics, masters, proxies)

    def attempt(c: int):
        """Pick a partner and member set for critical node c, or None."""
        if graph.adj[c, sorted(masters)].any():
            return None
        own = partitions(c)
        if c in state.hidden_masters_1 and graph.adj[c, sorted(proxies)].any():
            base = {v for v in graph.neighbors(c) if v not in masters and v not in proxies}
            for partner in sorted(base, key=metrics.rank, reverse=True):
                if partner in pending:
                    if partner in state.hidden_masters_1:
                        extra = partitions(partner).n_dprime
                    else:
                        extra = set(graph.neighbors(partner))
                    return partner, {c, partner} | base | extra
                # partner is an ordinary member: unusable if it touches a master
                if partner in own.n_m:
                    continue
                return partner, {c, partner} | base | partitions(partner).n_dprime
            return None
        pool = own.n_dprime - own.n_m
        if not pool:
            return None
        partner = max(pool, key=metrics.rank)
        mate = partitions(partner)
        return partner, {c, partner} | pool | (mate.n_dprime - mate.n_m)

    for c in sorted(state.critical, key=metrics.rank, reverse=True):
        outcome = attempt(c) if c in pending else None
        if outcome is None:
            continue
        partner, members = outcome
        members -= masters | proxies  # existing leaders are never pulled
        lost: dict[int, list[int]] = {}
        for m in sorted(members):
            old = membership.get(m)
            if old is not None:
                working[old].members.discard(m)
                lost.setdefault(old, []).append(m)
            membership[m] = next_id
        record = ClusterRecord(id=next_id, master=c, proxy=partner, members=members)
        working[next_id] = record
        masters.add(c)
        proxies.add(partner)
        events.append({
            "action": "adjust_cluster", "id": next_id, "master": c,
            "proxy": partner, "members": sorted(members),
        })
        for old_id in sorted(lost):
            events.append({
                "action": "prune_cluster", "id": old_id, "removed": sorted(lost[old_id]),
            })
        pending -= members
        next_id += 1

    for c in sorted(pending, key=metrics.rank, reverse=True):
        if membership.get(c) is not None:
            continue  # still covered as a slave; nothing left to improve
        working[next_id] = ClusterRecord(id=next_id, master=c, proxy=None, members={c})
        events.append({"action": "singleton_master", "id": next_id, "node": c})
        next_id += 1

    clusters = [working[cid] for cid in sorted(working)]
    return replace(state, clusters=clusters, critical=set(), events=events)


def classification(formation: ClusterState) -> str:
    """Perfect when formation leaves no critical node, otherwise
    fairly-perfect: adjustment covers every critical node, as a singleton
    master if need be."""
    return CLASS_FAIRLY_PERFECT if formation.critical else CLASS_PERFECT


def form_and_adjust(
    graph: NetworkGraph, tables: DistanceTables, metrics: NetworkMetrics | None
) -> tuple[ClusterState, ClusterState]:
    """(formation state, final state).  Adjustment returns a formation that
    left no critical node unchanged, so a perfect formation is its own
    final state."""
    initial = run_m_dsec(graph, tables, metrics)
    return initial, run_adjusted(initial, graph, metrics)
