import ast
import itertools
import json
import resource
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dscluster as d
from dscluster import fileio
from dscluster import graph as graph_module
from dscluster.cli import main
from dscluster.errors import DisconnectedGraphError, SizeLimitError
from dscluster.graph import radius_diameter
from dscluster.mobility import _Simulation
from dscluster.verify import perfect_claims

from conftest import (
    ClusterRecord,
    cluster_records,
    cluster_state,
    connected_deployments,
    random_edge_graph,
)


def _per_cluster_diameter_witnesses(state, graph):
    """One BFS per cluster on its member-induced subgraph: the reference for
    the single BFS over all clusters."""
    witnesses = []
    for cluster in cluster_records(state):
        order = sorted(cluster.members)
        hop = d.hop_distance_table(d.NetworkGraph(adj=graph.adj[np.ix_(order, order)]))
        for i, j in np.argwhere((hop == d.UNREACHABLE) | (hop > 3)):
            distance = None if hop[i, j] == d.UNREACHABLE else int(hop[i, j])
            witnesses.append({"cluster": cluster.id, "pair": [order[i], order[j]],
                              "distance": distance})
    return witnesses


def _union_bfs_diameter_witnesses(state, graph):
    """One BFS over the disjoint union of the member-induced subgraphs, laid
    out cluster by cluster with the edges between clusters masked out: the
    earlier implementation, kept as the reference for the block check."""
    clusters = cluster_records(state)
    sizes = [len(cluster.members) for cluster in clusters]
    order = np.array([v for cluster in clusters for v in sorted(cluster.members)], dtype=int)
    owner = np.repeat(np.arange(len(clusters)), sizes)
    same = owner[:, None] == owner[None, :]
    hop = d.hop_distance_table(d.NetworkGraph(adj=graph.adj[order][:, order] & same))
    too_far = ((hop == d.UNREACHABLE) | (hop > 3)) & same
    witnesses = []
    for i, j in zip(*np.divmod(np.flatnonzero(too_far), order.size)):
        distance = None if hop[i, j] == d.UNREACHABLE else int(hop[i, j])
        witnesses.append({"cluster": clusters[owner[i]].id,
                          "pair": [int(order[i]), int(order[j])], "distance": distance})
    return witnesses


@st.composite
def _long_clusters(draw):
    """A sparse graph of up to 48 nodes, mostly one path along a random node
    order plus a few chords, and up to six clusters of up to about 20
    members, each a stretch of that path plus a few stray nodes.  So
    distances inside the clusters run past 3 hops and some pairs are
    disconnected; clusters may overlap, lack a proxy, be singletons or
    empty, and carry leaders outside their members, under shuffled ids.
    A proxy is often a neighbour of its master.  Some nodes may be
    critical."""
    n = draw(st.integers(2, 48))
    nodes = st.integers(0, n - 1)
    order = draw(st.permutations(range(n)))
    kept = draw(st.lists(st.integers(0, 5), min_size=n - 1, max_size=n - 1))
    chords = draw(st.lists(st.tuples(nodes, nodes), max_size=n // 6))
    edges = {(min(u, v), max(u, v)) for u, v in
             [(order[i], order[i + 1]) for i, keep in enumerate(kept) if keep] + chords
             if u != v}
    count = draw(st.integers(0, 6))
    clusters = []
    for cid in draw(st.permutations(range(1, count + 1))):
        start = draw(st.integers(0, n - 1))
        stretch = order[start:start + draw(st.integers(0, 20))]
        members = set(stretch) | draw(st.sets(nodes, max_size=3))
        inside = st.sampled_from(sorted(members)) if members else nodes
        master = draw(inside | nodes)
        touching = sorted({u + v - master for u, v in edges if master in (u, v)})
        near = st.sampled_from(touching) if touching else inside
        clusters.append(ClusterRecord(id=cid, master=master,
                                      proxy=draw(st.none() | near | inside | nodes),
                                      members=members))
    state = cluster_state(n, clusters, critical=draw(st.sets(nodes, max_size=3)))
    return d.graph_from_edges(n, sorted(edges)), state


def _loop_partition_witnesses(state):
    """Partition witnesses by one pass over each cluster's sorted members,
    then over the nodes: the reference for the check on the listing."""
    witnesses = []
    seen = {}
    for cluster in cluster_records(state):
        for v in sorted(cluster.members):
            if v in seen:
                witnesses.append({"node": v, "clusters": [seen[v], cluster.id]})
            else:
                seen[v] = cluster.id
    for v in range(state.node_count):
        if v not in seen:
            witnesses.append({"node": v, "uncovered": True})
    return witnesses


def _loop_double_star(state, graph):
    """(witnesses, note) of the double-star check by one pass per cluster:
    the reference for the check on the listing."""
    clusters = cluster_records(state)
    witnesses = []
    for cluster in clusters:
        if not cluster.leaders <= cluster.members:
            witnesses += [{"cluster": cluster.id, "leader_outside": v}
                          for v in sorted(cluster.leaders - cluster.members)]
        m, p = cluster.master, cluster.proxy
        if p is None:
            p = m
        elif not graph.adj[m, p]:
            witnesses.append({"cluster": cluster.id, "missing_edge": [m, p]})
            continue
        for v in sorted(cluster.members - {m, p}):
            if not (graph.adj[v, m] or graph.adj[v, p]):
                witnesses.append({"cluster": cluster.id, "stranded_member": v})
    starless = sum(cluster.proxy is None for cluster in clusters)
    note = f"{starless} cluster(s) without a proxy, checked as stars" if starless else ""
    return witnesses, note


@contextmanager
def _address_space_cap(headroom):
    """Cap this process's address space at its present size plus
    ``headroom`` bytes, so that an allocation far past a memory bound fails
    with MemoryError instead of exhausting the machine."""
    with open("/proc/self/status") as status:
        size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + headroom if hard == resource.RLIM_INFINITY else min(hard, size + headroom)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _peak_bytes(check, *args):
    """Peak traced allocation of one call."""
    tracemalloc.start()
    try:
        check(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def _graph_and_clusters(draw):
    """A small graph and up to five clusters with any member sets (empty,
    overlapping, leaders outside) under distinct ids in any order."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    nodes = st.integers(0, n - 1)
    count = draw(st.integers(0, 5))
    ids = draw(st.permutations(range(1, count + 1)))
    clusters = [
        ClusterRecord(id=cid, master=draw(nodes), proxy=None, members=draw(st.sets(nodes)))
        for cid in ids
    ]
    return d.graph_from_edges(n, edges), clusters


def _loop_dominance_and_independence(state, graph, hop):
    """(dominance, independence) witnesses by one scalar lookup per member
    and leader and one adjacency test per pair of masters: the reference
    for the gathered check."""
    clusters = cluster_records(state)
    dominance = []
    for cluster in clusters:
        for v in sorted(cluster.members - cluster.leaders):
            dists = [hop[v, l] for l in cluster.leaders]
            reachable = [h for h in dists if h != d.UNREACHABLE]
            if not reachable or min(reachable) > 2:
                dominance.append({"cluster": cluster.id, "node": v})
    independence = []
    masters = sorted({cluster.master for cluster in clusters})
    for i, a in enumerate(masters):
        for b in masters[i + 1:]:
            if graph.adj[a, b]:
                independence.append({"masters": [a, b]})
    return dominance, independence


def _hop_dominance_and_independence(state, graph, hop):
    """The dominance check as it read the all-pairs hop table, one gather
    of hop entries at every (member, leader) pair: the reference for the
    check on the adjacency."""
    members, owner, leaders = state.ordinary()
    near = hop[members[:, None], leaders]
    far = ~((near != d.UNREACHABLE) & (near <= 2)).any(axis=1)
    dominance = [{"cluster": c, "node": v} for c, v in
                 zip(state.ids[owner[far]].tolist(), members[far].tolist())]
    is_master = np.zeros(state.node_count, dtype=bool)
    is_master[state.masters] = True
    leading = np.flatnonzero(is_master).tolist()
    pairs = np.nonzero(np.triu(graph.adj[np.ix_(leading, leading)], 1))
    independence = [{"masters": [leading[i], leading[j]]} for i, j in zip(*pairs)]
    return dominance + independence, {"slave_dominance_ok": not dominance,
                                      "master_independence_ok": not independence}


def graph_radius_diameter(hop):
    """(radius, diameter) from the all-pairs hop table, None when
    disconnected: the reference for the bounded ``radius_diameter``.
    UNREACHABLE is the table's only negative entry, so its minimum tells."""
    if hop.shape[0] == 0 or hop.min() == d.UNREACHABLE:
        return None, None
    ecc = hop.max(axis=1)
    return int(ecc.min()), int(ecc.max())


@st.composite
def _graph_and_led_clusters(draw):
    """A small, often disconnected graph and up to six clusters whose leaders
    and members are any nodes: proxy-less, overlapping, sharing masters."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    nodes = st.integers(0, n - 1)
    clusters = [
        (draw(nodes), draw(st.none() | nodes), draw(st.sets(nodes)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return d.graph_from_edges(n, edges), cluster_state(n, clusters)


class TestClusterDiameter:
    @given(_graph_and_clusters())
    def test_single_bfs_matches_per_cluster_reference(self, drawn):
        graph, clusters = drawn
        state = cluster_state(graph.node_count, clusters)
        expected = _per_cluster_diameter_witnesses(state, graph)
        check = d.check_cluster_diameter(state, graph)
        assert check.witnesses == expected
        assert check.passed == (not expected)

    @given(_long_clusters())
    def test_blocks_match_the_union_bfs_reference(self, drawn):
        graph, state = drawn
        expected = _union_bfs_diameter_witnesses(state, graph)
        assert expected == _per_cluster_diameter_witnesses(state, graph)
        assert d.check_cluster_diameter(state, graph).witnesses == expected

    def test_exact_distances_past_three_hops(self):
        # clusters of 2, 3, 5, 9 and 17 members led by their first member
        # (the 2-member one is its master's star and needs no hop table);
        # the 5- and 9-member paths run to 4 and 8 hops, and the 17-member
        # cluster is a 7-node path plus ten isolated members
        edges, clusters, start = [], [], 0
        for size, path in ((2, 2), (3, 3), (5, 5), (9, 9), (17, 7)):
            members = list(range(start, start + size))
            edges += list(zip(members[:path - 1], members[1:path]))
            clusters.append((members[0], None, set(members)))
            start += size
        graph = d.graph_from_edges(start, edges)
        state = cluster_state(start, [ClusterRecord(cid, *cluster)
                                      for cid, cluster in zip((4, 2, 5, 1, 3), clusters)])
        witnesses = d.check_cluster_diameter(state, graph).witnesses
        assert witnesses == _union_bfs_diameter_witnesses(state, graph)
        distances = {w["distance"] for w in witnesses}
        assert distances == {4, 5, 6, 7, 8, None}
        # in cluster list order, whatever the ids
        assert list(dict.fromkeys(w["cluster"] for w in witnesses)) == [5, 1, 3]

    def test_a_thousand_member_chain_matches_the_union_bfs(self):
        # one 1000-member cluster: a 30-node path led by its first node,
        # which also carries 970 leaves, so distances run to 30 hops (a plain
        # 1000-node path would list about a million witness pairs)
        edges = [(v, v + 1) for v in range(29)] + [(0, v) for v in range(30, 1000)]
        graph = d.graph_from_edges(1000, edges)
        state = cluster_state(1000, [(0, None, set(range(1000)))])
        witnesses = d.check_cluster_diameter(state, graph).witnesses
        assert witnesses == _union_bfs_diameter_witnesses(state, graph)
        assert max(w["distance"] for w in witnesses) == 30

    @pytest.mark.parametrize("master, proxy, extra", [
        (1, 4, []),  # every member touches 1 or 4, but the leaders do not touch
        (5, None, [(5, v) for v in range(5)]),  # the master touches all but is no member
        (5, 0, [(5, v) for v in range(5)]),  # so does a master beside a member proxy
        (0, 5, [(5, v) for v in range(5)]),  # the proxy touches all but is no member
    ])
    def test_a_star_counts_only_inside_the_cluster(self, master, proxy, extra):
        # members 0..4 form a path, 4 hops end to end inside the cluster
        graph = d.graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)] + extra)
        state = cluster_state(6, [(master, proxy, {0, 1, 2, 3, 4})])
        witnesses = d.check_cluster_diameter(state, graph).witnesses
        assert witnesses == _union_bfs_diameter_witnesses(state, graph)
        assert {"cluster": 1, "pair": [0, 4], "distance": 4} in witnesses

    def test_rgg_clustering_peaks_below_two_megabytes(self):
        # the n = 1000 scenario of the golden digests: about 130 clusters of
        # up to 16 members, where an n x n hop table alone takes 8 MB
        sim = _Simulation(d.Scenario(node_count=1000, terrain_size=500.0, range_=30.0,
                                     v_max=0.0, seed=3))
        assert d.check_cluster_diameter(sim.state, sim.graph).passed
        assert _peak_bytes(d.check_cluster_diameter, sim.state, sim.graph) < 2_000_000

    def test_memory_follows_the_cluster_sizes(self):
        # a 1500-member star and 1000 two-member clusters: their own blocks
        # hold sum(k^2) = 2.254e6 pairs, where the union of the clusters
        # holds 1.2e7 and 1001 blocks of the largest size 2.3e9.  Every
        # master lies outside its cluster (node 3500), so no cluster passes
        # as its leaders' star and every one gets its own hop table.
        edges = [(0, v) for v in range(1, 1500)]
        clusters = [(3500, None, set(range(1500)))]
        for u in range(1500, 3500, 2):
            edges.append((u, u + 1))
            clusters.append((3500, None, {u, u + 1}))
        graph = d.graph_from_edges(3501, edges)
        state = cluster_state(3501, clusters)
        pairs = 1500 ** 2 + 1000 * 2 ** 2
        with _address_space_cap(1 << 30):
            peak = _peak_bytes(d.check_cluster_diameter, state, graph)
        assert d.check_cluster_diameter(state, graph).passed
        assert peak < 20 * pairs

    def test_overlapping_clusters_beyond_the_size_bound_refused(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        clusters = [(0, 1, {0, 1})] * (d.graph.MAX_NODES // 2 + 1)
        with pytest.raises(SizeLimitError):
            d.check_cluster_diameter(cluster_state(2, clusters), graph)

    def test_reference_initial_cluster(self, bundle, paper_states):
        formation, _ = paper_states
        check = d.check_cluster_diameter(formation, bundle.graph)
        assert check.passed

    def test_singleton_cluster(self):
        graph = d.graph_from_edges(1, [])
        state = cluster_state(1, [(0, None, {0})])
        assert d.check_cluster_diameter(state, graph).passed

    def test_path_cluster_diameter_three(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        state = cluster_state(4, [(1, 2, {0, 1, 2, 3})])
        assert d.check_cluster_diameter(state, graph).passed

    def test_overlong_path_fails_with_witness(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        state = cluster_state(5, [(1, 2, {0, 1, 2, 3, 4})])
        check = d.check_cluster_diameter(state, graph)
        assert not check.passed
        assert {"cluster": 1, "pair": [0, 4], "distance": 4} in check.witnesses

    def test_distances_stay_inside_the_cluster(self):
        # 0-1-2-3-4 is a member path; the non-member 5 would shorten 0..4 to
        # 2 hops, and member 6 has no edge at all
        graph = d.graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4)])
        state = cluster_state(7, [(1, 2, {0, 1, 2, 3, 4, 6}), (5, None, {5})])
        check = d.check_cluster_diameter(state, graph)
        members = [0, 1, 2, 3, 4, 6]
        expected = [
            {"cluster": 1, "pair": [u, v], "distance": None if 6 in (u, v) else 4}
            for u in members for v in members
            if u != v and (6 in (u, v) or {u, v} == {0, 4})
        ]
        assert check.witnesses == expected


class TestDoubleStar:
    @given(_long_clusters())
    def test_matches_the_loop_reference(self, drawn):
        graph, state = drawn
        check = d.check_double_star(state, graph)
        assert (check.witnesses, check.note) == _loop_double_star(state, graph)

    def test_reference_pruned_cluster(self, bundle, paper_states):
        _, final = paper_states
        check = d.check_double_star(final, bundle.graph)
        assert check.passed

    def test_missing_proxy_vacuous_with_note(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        state = cluster_state(2, [(0, None, {0, 1})])
        check = d.check_double_star(state, graph)
        assert check.passed
        assert "without a proxy" in check.note

    def test_stranded_member_fails(self):
        # node 3 touches neither leader
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        state = cluster_state(4, [(0, 1, {0, 1, 2, 3})])
        check = d.check_double_star(state, graph)
        assert not check.passed
        assert {"cluster": 1, "stranded_member": 3} in check.witnesses

    def test_leaders_not_adjacent_fails(self):
        graph = d.graph_from_edges(3, [(0, 1), (1, 2)])
        state = cluster_state(3, [(0, 2, {0, 1, 2})])
        check = d.check_double_star(state, graph)
        assert not check.passed
        assert {"cluster": 1, "missing_edge": [0, 2]} in check.witnesses

    def test_leader_outside_its_cluster_fails(self):
        # node 1 leads cluster 1 while cluster 2 lists it as a slave; every
        # other check passes on this state
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)])
        state = cluster_state(5, [(1, 2, {0, 2}), (4, 3, {1, 3, 4})])
        checks = d.run_property_checks(state, graph)
        assert {c.name: c.witnesses for c in checks if not c.passed} == {
            "double-star": [{"cluster": 1, "leader_outside": 1}]}

    def test_proxyless_master_outside_its_cluster_fails(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        state = cluster_state(2, [(0, None, {1})])
        check = d.check_double_star(state, graph)
        assert check.witnesses == [{"cluster": 1, "leader_outside": 0}]


class TestPartition:
    @given(_long_clusters())
    def test_matches_the_loop_reference(self, drawn):
        graph, state = drawn
        assert d.check_partition(state, graph).witnesses == _loop_partition_witnesses(state)

    def test_reference_final_state_covers_everything(self, bundle, paper_states):
        _, final = paper_states
        assert d.check_partition(final, bundle.graph).passed

    def test_duplicate_membership_detected(self, bundle, paper_states):
        _, final = paper_states
        clusters = cluster_records(final)
        clusters[0].members.add(20)
        check = d.check_partition(cluster_state(final.node_count, clusters), bundle.graph)
        assert not check.passed
        assert any(w.get("node") == 20 and "clusters" in w for w in check.witnesses)

    def test_uncovered_node_detected(self, bundle, paper_states):
        _, final = paper_states
        clusters = cluster_records(final)
        clusters[-1].members.discard(20)
        check = d.check_partition(cluster_state(final.node_count, clusters), bundle.graph)
        assert not check.passed

    def test_formation_state_leaves_critical_nodes_uncovered(self, bundle, paper_states):
        # the check reads every state as a complete clustering, so the
        # deferred nodes formation left outside every cluster are witnesses
        formation, _ = paper_states
        check = d.check_partition(formation, bundle.graph)
        assert check.witnesses == [{"node": v, "uncovered": True} for v in (6, 7, 20)]

    def test_empty_state_vacuous(self):
        state = cluster_state(0, [])
        graph = d.graph_from_edges(1, [])  # graph unused beyond adjacency lookups
        assert d.check_partition(state, graph).passed


class TestStatuses:
    @given(_long_clusters())
    def test_match_the_loop_reference(self, drawn):
        # a node listed twice takes its role in the last cluster that lists it
        _, state = drawn
        expected = ["unclustered"] * state.node_count
        for cluster in cluster_records(state):
            for v in cluster.members:
                expected[v] = ("master" if v == cluster.master else
                               "proxy" if v == cluster.proxy else "slave")
        assert [d.STATUSES[code] for code in state.statuses()] == expected


class TestDominanceAndIndependence:
    @given(_graph_and_led_clusters())
    def test_gathers_match_the_loop_reference(self, drawn):
        graph, state = drawn
        dominance, independence = _loop_dominance_and_independence(
            state, graph, d.hop_distance_table(graph))
        check = d.check_dominance_and_independence(state, graph)
        assert check.witnesses == dominance + independence
        assert check.details == {"slave_dominance_ok": not dominance,
                                 "master_independence_ok": not independence}

    def test_unreachable_overlapping_and_proxy_less_clusters(self):
        # 0-1-2-3 and 4-5 are separate components; 6 is isolated
        graph = d.graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5)])
        state = cluster_state(7, [(1, 2, {0, 1, 2, 3, 4}), (5, None, {3, 4, 5, 6}),
                                  (0, None, {0, 3})])
        check = d.check_dominance_and_independence(state, graph)
        assert check.witnesses == [
            {"cluster": 1, "node": 4}, {"cluster": 2, "node": 3}, {"cluster": 2, "node": 6},
            {"cluster": 3, "node": 3}, {"masters": [0, 1]},
        ]
        dominance, independence = _loop_dominance_and_independence(
            state, graph, d.hop_distance_table(graph))
        assert check.witnesses == dominance + independence

    def test_reference_final_state(self, bundle, paper_states):
        _, final = paper_states
        check = d.check_dominance_and_independence(final, bundle.graph)
        assert check.passed
        assert check.details == {
            "slave_dominance_ok": True,
            "master_independence_ok": True,
        }

    def test_reference_masters_pairwise_far(self, paper_hop, paper_states):
        _, final = paper_states
        masters = sorted(final.masters.tolist())
        assert masters == [3, 6, 9, 13, 18, 20]
        hop = paper_hop
        for i, a in enumerate(masters):
            for b in masters[i + 1:]:
                assert hop[a, b] >= 2

    def test_reference_members_within_two_hops(self, paper_hop, paper_states):
        _, final = paper_states
        hop = paper_hop
        for c in cluster_records(final):
            for v in c.members - c.leaders:
                assert min(hop[v, l] for l in c.leaders) <= 2

    def test_adjacent_masters_fail(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        state = cluster_state(4, [(0, 1, {0, 1}), (3, 2, {2, 3})])
        check = d.check_dominance_and_independence(state, graph)
        assert not check.passed
        assert not check.details["master_independence_ok"]
        assert check.details["slave_dominance_ok"]

    def test_far_member_fails_dominance(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        state = cluster_state(5, [(0, 1, {0, 1, 4}), (2, 3, {2, 3})])
        check = d.check_dominance_and_independence(state, graph)
        assert not check.passed
        assert not check.details["slave_dominance_ok"]
        assert {"cluster": 1, "node": 4} in check.witnesses

    @given(_graph_and_clusters())
    def test_adjacency_equals_the_hop_reference(self, drawn):
        graph, clusters = drawn
        state = cluster_state(graph.node_count, clusters)
        check = d.check_dominance_and_independence(state, graph)
        expected = _hop_dominance_and_independence(state, graph, d.hop_distance_table(graph))
        assert (check.witnesses, check.details) == expected

    @given(_graph_and_led_clusters() | _long_clusters())
    def test_adjacency_equals_the_hop_reference_with_proxies(self, drawn):
        graph, state = drawn
        check = d.check_dominance_and_independence(state, graph)
        expected = _hop_dominance_and_independence(state, graph, d.hop_distance_table(graph))
        assert (check.witnesses, check.details) == expected

    def test_corrupted_engine_reports_equal_the_hop_reference(self):
        applied = Counter()

        @given(connected_deployments(5, 60), st.data())
        def check(deployment, data):
            n, range_, seed = deployment
            graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
            hop = d.hop_distance_table(graph)
            report = fileio.cluster_report(
                *d.form_and_adjust(graph, hop, d.compute_network_metrics(graph, hop)))
            for corrupt in CORRUPTIONS:
                edited = json.loads(json.dumps(report))
                if corrupt(edited["clusters"], graph.adj, data) is None:
                    continue
                applied[corrupt.__name__] += 1
                state = fileio.state_from_report(edited)
                result = d.check_dominance_and_independence(state, graph)
                expected = _hop_dominance_and_independence(state, graph, hop)
                assert (result.witnesses, result.details) == expected

        check()
        assert set(applied) == {corrupt.__name__ for corrupt in CORRUPTIONS}, applied

    @pytest.mark.parametrize("block_bytes", [1, 256 << 10])
    def test_two_and_three_hops_and_paths_through_other_clusters(self, monkeypatch,
                                                                  block_bytes):
        # 0-1-2-3 and 2-4-5: cluster 1 leads with (0, 1) and lists 3 and 5;
        # 3 reaches proxy 1 in 2 hops only through 2 of cluster 2, and 5 is
        # 3 hops from 1.  Blocks of one member and of every member agree.
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", block_bytes)
        graph = d.graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])
        state = cluster_state(7, [(0, 1, {0, 1, 3, 5, 6}), (2, 4, {2, 4})])
        hop = d.hop_distance_table(graph)
        assert hop[3, 1] == 2 and hop[5, 1] == 3 and hop[6, 1] == 4
        check = d.check_dominance_and_independence(state, graph)
        assert check.witnesses == [{"cluster": 1, "node": 5}, {"cluster": 1, "node": 6}]
        assert (check.witnesses, check.details) == _hop_dominance_and_independence(
            state, graph, hop)


#: Brute-force bound for the reference line_graph_domination_number.
EDGE_LIMIT = 20


def check_efficient_edge_domination(edge_set, graph):
    """True iff ``edge_set`` is a set of edges of the graph and every edge
    of the graph shares an endpoint with exactly one of them (an edge
    dominates itself): the claim as stated, the reference for
    ``perfect_claims``."""
    return all(graph.adj[u, v] for u, v in edge_set) and all(
        sum(1 for u, v in edge_set if a in (u, v) or b in (u, v)) == 1
        for a, b in graph.edges()
    )


def line_graph_domination_number(graph):
    """Minimum size of an edge set dominating every edge, by exhaustive
    search in increasing subset size.  Refuses graphs with more than
    ``EDGE_LIMIT`` edges."""
    edges = graph.edges()
    if len(edges) > EDGE_LIMIT:
        raise SizeLimitError(f"{len(edges)} edges exceeds brute-force bound {EDGE_LIMIT}")
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            endpoints = {v for edge in subset for v in edge}
            if all(a in endpoints or b in endpoints for a, b in edges):
                return k


def double_star_union(state, graph):
    """H: each (master, proxy) edge plus each member's edges to its own
    leaders, as a graph on all the nodes."""
    edges = set()
    for cluster in cluster_records(state):
        for v in cluster.members:
            edges |= {tuple(sorted((v, leader))) for leader in cluster.leaders
                      if graph.adj[v, leader]}
    return d.graph_from_edges(state.node_count, sorted(edges))


class TestEfficientEdgeDomination:
    def test_single_edge_dominates_itself(self):
        graph = d.graph_from_edges(2, [(0, 1)])
        assert check_efficient_edge_domination([(0, 1)], graph)

    def test_middle_edge_of_path_four(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert check_efficient_edge_domination([(1, 2)], graph)

    def test_double_domination_rejected(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not check_efficient_edge_domination([(0, 1), (1, 2)], graph)

    def test_non_edge_rejected(self):
        # a pair that is no edge of G makes the set no edge set of G
        graph = d.graph_from_edges(3, [(0, 1)])
        assert not check_efficient_edge_domination([(0, 2)], graph)

    def test_agrees_with_naive_counter(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            graph = random_edge_graph(rng, n_low=3, n_high=7)
            edges = graph.edges()
            if not edges:
                continue
            k = int(rng.integers(1, len(edges) + 1))
            picks = [edges[i] for i in rng.choice(len(edges), size=k, replace=False)]
            naive = all(
                sum(1 for (u, v) in picks if a in (u, v) or b in (u, v)) == 1
                for (a, b) in edges
            )
            assert check_efficient_edge_domination(picks, graph) == naive


class TestLineGraphDominationNumber:
    def test_single_edge(self):
        assert line_graph_domination_number(d.graph_from_edges(2, [(0, 1)])) == 1

    def test_path_four(self):
        graph = d.graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert line_graph_domination_number(graph) == 1

    def test_two_disjoint_edges(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        assert line_graph_domination_number(graph) == 2

    def test_empty_graph(self):
        assert line_graph_domination_number(d.graph_from_edges(3, [])) == 0

    def test_size_limit(self):
        edges = [(0, v) for v in range(1, 22)]
        graph = d.graph_from_edges(22, edges)
        with pytest.raises(SizeLimitError):
            line_graph_domination_number(graph)


class TestPerfectClaims:
    """``perfect_claims`` gives the verdict of both claims read literally on
    H, the union of the double stars, by the references above."""

    def test_proxyless_star_fails_and_singleton_passes(self):
        graph = d.graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        state = cluster_state(5, [(1, 0, {0, 1, 2}), (3, None, {3, 4})])
        assert perfect_claims(state, graph).witnesses == [{"cluster": 2, "no_proxy": [3, 4]}]
        state = cluster_state(5, [(1, 0, {0, 1, 2}), (3, 4, {3, 4})])
        assert perfect_claims(state, graph).passed
        state = cluster_state(3, [(1, 0, {0, 1}), (2, None, {2})])
        assert perfect_claims(state, d.graph_from_edges(3, [(0, 1), (1, 2)])).passed

    def test_pair_that_is_no_edge_fails(self):
        graph = d.graph_from_edges(3, [(0, 1), (1, 2)])
        state = cluster_state(3, [(0, 2, {0, 1, 2})])
        assert perfect_claims(state, graph).witnesses == [{"cluster": 1, "missing_edge": [0, 2]}]
        assert not check_efficient_edge_domination([(0, 2)], double_star_union(state, graph))

    def test_agrees_with_the_literal_claims_on_h(self):
        verdicts = Counter()

        @given(connected_deployments(3, 14, 35.0, 60.0))
        def check(deployment):
            n, range_, seed = deployment
            graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
            hop = d.compute_tables(graph)
            # the engine's final clustering passes partition and double-star
            _, state = d.form_and_adjust(graph, hop, d.compute_network_metrics(graph, hop))
            h = double_star_union(state, graph)
            if len(h.edges()) > EDGE_LIMIT:
                return
            pairs = [(c.master, c.proxy) for c in cluster_records(state) if c.proxy is not None]
            literal = (check_efficient_edge_domination(pairs, h)
                       and len(pairs) == line_graph_domination_number(h))
            verdict = perfect_claims(state, graph).passed
            assert verdict == literal, (n, range_, seed)
            verdicts[verdict] += 1

        check()
        assert verdicts[True] and verdicts[False], verdicts


class TestReport:
    def test_radius_and_diameter(self, bundle, paper_hop, paper_states):
        _, final = paper_states
        assert graph_radius_diameter(paper_hop) == (6, 7)
        assert radius_diameter(bundle.graph) == (6, 7)
        assert all(c.passed for c in d.run_property_checks(final, bundle.graph))

    def test_disconnected_radius_none(self):
        graph = d.graph_from_edges(4, [(0, 1), (2, 3)])
        assert graph_radius_diameter(d.hop_distance_table(graph)) == (None, None)
        with pytest.raises(DisconnectedGraphError) as refused:
            radius_diameter(graph)
        assert refused.value.components == [[0, 1], [2, 3]]

    def test_check_order(self, bundle, paper_states):
        _, final = paper_states
        checks = d.run_property_checks(final, bundle.graph)
        assert [c.name for c in checks] == [
            "cluster-diameter", "double-star", "partition",
            "dominance-and-independence",
        ]


@st.composite
def _radius_graphs(draw):
    """(kind, graph) of 1 to 200 nodes under shuffled ids: a random edge list
    of any density (often disconnected), a unit-disk deployment, a path, a
    star, a path beside an isolated node, or a graph whose nodes tie in
    eccentricity (a cycle, a complete graph, a grid)."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(
        ["edges", "disk", "path", "star", "isolated", "cycle", "complete", "grid"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "disk":
        terrain = 100.0 * np.sqrt(n / 40)  # the paper's density at every n
        return kind, d.build_graph(rng.uniform(0.0, terrain, (n, 2)), draw(st.floats(20.0, 50.0)))
    path = [(v, v + 1) for v in range(n - 1)]
    if kind == "edges":
        p = draw(st.sampled_from([0.01, 0.03, 0.1, 0.5]) | st.floats(0.0, 1.0))
        edges = list(zip(*np.nonzero(np.triu(rng.random((n, n)) < p, k=1))))
    elif kind == "star":
        edges = [(0, v) for v in range(1, n)]
    elif kind == "isolated":
        edges = path[:-1]
    elif kind == "cycle":
        edges = path + [(n - 1, 0)] if n > 2 else path
    elif kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "grid":
        side = int(np.ceil(np.sqrt(n)))
        edges = [(v, v + 1) for v in range(n - 1) if (v + 1) % side]
        edges += [(v, v + side) for v in range(n - side)]
    else:
        edges = path
    label = rng.permutation(n).tolist()
    return kind, d.graph_from_edges(n, [(label[u], label[v]) for u, v in edges])


class TestRadiusDiameter:
    """``graph.radius_diameter``'s eccentricity bounds against the whole
    hop table (``graph_radius_diameter``)."""

    def test_bounds_equal_the_whole_table(self, monkeypatch):
        kernel = graph_module.hop_columns
        batches = []

        def counted(graph, sources, *args, **kwargs):
            batches.append(len(sources))
            return kernel(graph, sources, *args, **kwargs)

        monkeypatch.setattr(graph_module, "hop_columns", counted)
        runs = Counter()

        @given(_radius_graphs())
        def check(drawn):
            kind, graph = drawn
            n = graph.node_count
            expected = graph_radius_diameter(kernel(graph, range(n), np.int64))
            batches.clear()
            if expected == (None, None):
                with pytest.raises(DisconnectedGraphError) as refused:
                    radius_diameter(graph)
                assert refused.value.components == graph.components()
                assert batches == [min(n, 64)]  # refused from the first batch
                runs["refused"] += 1
                return
            assert radius_diameter(graph) == expected, kind
            assert batches[0] == min(n, 64) and max(batches) <= 64
            assert len(batches) <= -(-n // 64)
            runs[kind, min(len(batches), 3)] += 1

        check()
        assert runs["refused"] and runs["path", 2] and runs["cycle", 3], runs

    @pytest.mark.parametrize("n", [65, 128, 200])
    def test_a_cycle_takes_every_node_as_a_source(self, n, monkeypatch):
        # every eccentricity ties, so no bound meets before its node is a source
        kernel, sources = graph_module.hop_columns, []
        monkeypatch.setattr(graph_module, "hop_columns",
                            lambda graph, batch, *a, **k: sources.extend(batch) or
                            kernel(graph, batch, *a, **k))
        graph = d.graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])
        assert radius_diameter(graph) == (n // 2, n // 2)
        assert sorted(sources) == list(range(n))

    def test_dense_cluster_deployment(self):
        graph = d.build_graph(d.deploy_random(1000, 500.0, 3), 30.0)
        assert radius_diameter(graph) == graph_radius_diameter(d.hop_distance_table(graph))


def _leaders(cluster):
    """A report cluster's master and proxy."""
    return [cluster["master"]] + ([] if cluster["proxy"] is None else [cluster["proxy"]])


def _drop_member(clusters, adj, data):
    cluster = data.draw(st.sampled_from(clusters))
    node = data.draw(st.sampled_from(cluster["members"]))
    cluster["members"].remove(node)
    return node, cluster["id"]


def _list_member_twice(clusters, adj, data):
    """List a member of one cluster in another as well."""
    if len(clusters) < 2:
        return None
    source, target = data.draw(st.permutations(clusters))[:2]
    node = data.draw(st.sampled_from(source["members"]))
    target["members"].append(node)
    return node, target["id"]


def _strand_slave(clusters, adj, data):
    """Move a slave into another cluster, next to none of its leaders."""
    moves = [(v, source, target) for source in clusters for target in clusters
             for v in source["members"]
             if target is not source and v not in _leaders(source)
             and not adj[v, _leaders(target)].any()]
    if not moves:
        return None
    node, source, target = data.draw(st.sampled_from(moves))
    source["members"].remove(node)
    target["members"].append(node)
    return node, target["id"]


def _distant_proxy(clusters, adj, data):
    """Make a member that the master does not touch the proxy."""
    swaps = [(v, cluster) for cluster in clusters if cluster["proxy"] is not None
             for v in cluster["members"] if not adj[cluster["master"], v]]
    if not swaps:
        return None
    node, cluster = data.draw(st.sampled_from(swaps))
    cluster["proxy"] = node
    return node, cluster["id"]


CORRUPTIONS = (_drop_member, _list_member_twice, _strand_slave, _distant_proxy)


def _named(witness):
    """(nodes, cluster ids) that one verify witness names."""
    nodes = {witness.get(key) for key in ("node", "stranded_member", "leader_outside")}
    nodes |= {*witness.get("pair", []), *witness.get("missing_edge", []),
              *witness.get("masters", [])}
    clusters = {witness.get("cluster"), *witness.get("clusters", [])}
    return nodes - {None}, clusters - {None}


STRUCTURAL_CHECKS = ("cluster-diameter", "double-star", "partition", "dominance-and-independence")


class TestEveryCorruptionIsCaught:
    """Each single edit of an engine report makes ``verify`` exit 2 with a
    witness of a structural check that names the edited node or cluster.

    The engine's reports pass every check, the perfect-only claim included,
    so the exit code and the witness both show the edit."""

    def test_single_edits_fail_with_a_witness(self, tmp_path):
        applied = Counter()
        scenario, report_path, text = (tmp_path / name for name in ("s.json", "r.json", "v.txt"))

        def verify(report):
            """verify's exit code and the witnesses of its structural checks."""
            report_path.write_text(json.dumps(report))
            code = main(["verify", "--scenario", str(scenario), "--report", str(report_path),
                         "--out", str(text)])
            witnesses = []
            for line in text.read_text().splitlines()[1:]:
                if not line.startswith(" "):
                    structural = line.split()[1] in STRUCTURAL_CHECKS
                elif structural:
                    witnesses.append(ast.literal_eval(line.split("witness: ", 1)[1]))
            return code, witnesses

        @given(connected_deployments(5, 60), st.data())
        def check(deployment, data):
            n, range_, seed = deployment
            scenario.write_text(json.dumps({"node_count": n, "terrain_size": 100.0,
                                            "range": range_, "v_max": 0.0, "seed": seed}))
            assert main(["cluster", "--scenario", str(scenario), "--out", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            code, witnesses = verify(report)
            assert (code, witnesses) == (0, [])
            adj = d.build_graph(d.deploy_random(n, 100.0, seed), range_).adj
            for corrupt in CORRUPTIONS:
                edited = json.loads(json.dumps(report))
                target = corrupt(edited["clusters"], adj, data)
                if target is None:
                    continue
                applied[corrupt.__name__] += 1
                node, cluster = target
                code, witnesses = verify(edited)
                assert code == 2, (corrupt.__name__, target)
                assert any(node in nodes or cluster in ids
                           for nodes, ids in map(_named, witnesses)), (corrupt.__name__, witnesses)

        check()
        assert set(applied) == {corrupt.__name__ for corrupt in CORRUPTIONS}, applied
