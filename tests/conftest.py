import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import dscluster as d
from dscluster import graph as graph_module
from dscluster.fileio import load_fixture

DATA = Path(__file__).parent / "data"

# One profile for every property test: no per-example deadline (timings on a
# loaded machine are noise) and a fixed example sequence, so a run is
# repeatable.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def reference():
    """Published reference columns for the bundled 23-node topology."""
    return json.loads((DATA / "reference_tables.json").read_text())


@pytest.fixture(scope="session")
def bundle():
    """The 23-node reference fixture shipped with the package."""
    return load_fixture(str(resources.files("dscluster.data").joinpath("paper23.json")))


@pytest.fixture(scope="session")
def paper_hop(bundle):
    """Hop table of the bundled fixture."""
    return d.compute_tables(bundle.graph)


@pytest.fixture(scope="session")
def paper_metrics(bundle, paper_hop):
    return d.compute_network_metrics(
        bundle.graph, paper_hop, bundle.config, bundle.overrides
    )


@pytest.fixture(scope="session")
def paper_states(bundle, paper_hop, paper_metrics):
    """(formation state, adjusted state) for the bundled fixture."""
    return d.form_and_adjust(bundle.graph, paper_hop, paper_metrics)


def fixture_inputs(edges, euclid):
    """(graph, hop table) of a fixture's edge list and Euclidean matrix, both
    taken verbatim, as ``load_fixture`` builds its graph."""
    euclid = np.asarray(euclid, dtype=float)
    graph = d.NetworkGraph(adj=d.graph_from_edges(len(euclid), edges).adj, euclid=euclid)
    return graph, d.compute_tables(graph)


def reference_euclid(positions):
    """Pairwise distances by the three-dimensional formula the table must
    equal bit for bit (perfbench/seeds.py keeps a copy of it to pick
    connected deployments)."""
    delta = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def euclidean_distance_table(positions):
    """The whole Euclidean table of ``positions``, assembled from the
    package's row stream (``graph.distance_rows``), in blocks of
    ``graph._BLOCK_BYTES``: the table that a fixture carries, and the one
    every streamed metric must agree with."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    table = np.empty((n, n))
    for start, rows in graph_module.distance_rows(positions):
        table[start:start + len(rows)] = rows
    return table


def connected_rgg_suite(count, n_low=5, n_high=40, terrain=100.0,
                        ranges=(25.0, 30.0, 35.0, 40.0), start_seed=1):
    """Deterministic stream of connected random geometric graphs spanning a
    density spread.  Yields (seed, graph) pairs."""
    seed = start_seed - 1
    produced = 0
    while produced < count:
        seed += 1
        n = int(np.random.default_rng(seed).integers(n_low, n_high + 1))
        r = ranges[seed % len(ranges)]
        positions = d.deploy_random(n, terrain, seed)
        graph = d.build_graph(positions, r)
        if len(graph.components()) != 1:
            continue
        produced += 1
        yield seed, graph


def random_edge_graph(rng, n_low=2, n_high=7, p=0.5):
    """Small random graph from an explicit edge list (may be disconnected)."""
    n = int(rng.integers(n_low, n_high + 1))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return d.graph_from_edges(n, edges)


@st.composite
def connected_deployments(draw, n_low, n_high, range_low=20.0, range_high=50.0,
                          terrain=100.0):
    """(n, range, seed) of a connected ``deploy_random`` deployment: n, the
    range and a starting seed are drawn, and seeds are walked upward to the
    first connected one."""
    n = draw(st.integers(n_low, n_high))
    range_ = draw(st.floats(range_low, range_high))
    seed = draw(st.integers(1, 10**6))
    while len(d.build_graph(d.deploy_random(n, terrain, seed), range_).components()) != 1:
        seed += 1
    return n, range_, seed


def election_key(metrics):
    """The paper's election order as a per-node tuple key, best last:
    (weight, NS, -id).  The set-based references sort and pick by it, so
    they stay independent of the ``NetworkMetrics.rank`` column."""
    weights, ns = metrics.weights.tolist(), metrics.ns_values.tolist()
    return lambda u: (weights[u], ns[u], -u)


@dataclass
class ClusterRecord:
    """One cluster as the set-based references read it: its leaders (None
    for no proxy) plus its full member set."""

    id: int
    master: int
    proxy: int | None
    members: set[int]

    @property
    def leaders(self) -> set[int]:
        return {self.master} if self.proxy is None else {self.master, self.proxy}


def cluster_state(node_count, clusters, critical=()):
    """A ``ClusterState`` listing ``clusters`` in order, each a
    ``ClusterRecord`` or a (master, proxy, members) triple that takes the
    id of its place (1, 2, ...), with the ``critical`` nodes marked and no
    hidden master or deferred node."""
    records = [c if isinstance(c, ClusterRecord) else ClusterRecord(i + 1, *c)
               for i, c in enumerate(clusters)]
    groups = [sorted(c.members) for c in records]
    marked = np.zeros(node_count, dtype=bool)
    marked[list(critical)] = True
    return d.ClusterState(
        node_count=node_count,
        ids=np.array([c.id for c in records], dtype=np.int64),
        masters=np.array([c.master for c in records], dtype=np.intp),
        proxies=np.array([-1 if c.proxy is None else c.proxy for c in records], dtype=np.intp),
        nodes=np.array([v for group in groups for v in group], dtype=np.intp),
        cluster=np.repeat(np.arange(len(groups)), [len(group) for group in groups]),
        critical=marked, hm1=np.zeros(node_count, dtype=bool),
        hm2=np.zeros(node_count, dtype=bool), deferred=np.zeros(node_count, dtype=bool),
    )


def cluster_records(state):
    """The state's clusters as fresh ``ClusterRecord``s, in list order: the
    form the set-based references read."""
    bounds = state.bounds().tolist()
    listed = state.nodes.tolist()
    return [
        ClusterRecord(cid, m, None if p < 0 else p, set(listed[bounds[i]:bounds[i + 1]]))
        for i, (cid, m, p) in enumerate(zip(state.ids.tolist(), state.masters.tolist(),
                                            state.proxies.tolist()))
    ]


def node_set(column):
    """The nodes a boolean node column marks."""
    return set(np.flatnonzero(column).tolist())
