import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import dscluster as d

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
    return d.load_bundled_fixture()


@pytest.fixture(scope="session")
def paper_metrics(bundle):
    return d.compute_network_metrics(
        bundle.graph, bundle.tables, bundle.config, bundle.overrides
    )


@pytest.fixture(scope="session")
def paper_states(bundle, paper_metrics):
    """(formation state, adjusted state) for the bundled fixture."""
    return d.form_and_adjust(bundle.graph, bundle.tables, paper_metrics)


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
        if not graph.is_connected:
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
