"""Seeded choice of connected deployments, made in the launcher.

Connectivity is decided here, independently of dscluster, with
``scipy.sparse.csgraph.connected_components`` over the unit-disk graph of
the deployment that a scenario seed produces (``numpy.random.default_rng
(seed).uniform(0, terrain, (n, 2))``, the draw dscluster's ``deploy_random``
and ``run_simulation`` make).  Should the program ever draw differently, it
refuses a deployment with exit code 3 and the benchmark counts a failed
operation rather than measuring a different workload silently.

Only ``run.py`` imports this module, so scipy and the n x n x 2 distance
temporaries stay out of the measured worker process.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components

from inputs import RANGE, Workload

# Benchmark seed s searches scenario seeds upward from 1 + (s - 1) * SEED_STRIDE,
# so seed 1 reproduces the figures quoted in README.md and nearby benchmark
# seeds never share a deployment.
SEED_STRIDE = 1000


def distances(positions: np.ndarray) -> np.ndarray:
    """Pairwise planar distances, computed as dscluster computes them."""
    delta = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def is_connected(node_count: int, terrain_size: float, seed: int) -> bool:
    positions = np.random.default_rng(seed).uniform(
        0.0, terrain_size, size=(node_count, 2)
    )
    count, _ = connected_components(distances(positions) <= RANGE, directed=False)
    return count == 1


def connected_seeds(workload: Workload, bench_seed: int) -> list[int]:
    """The first ``workload.networks`` scenario seeds with a connected
    deployment, searching upward from the benchmark seed's base."""
    if bench_seed < 1:
        raise ValueError(f"benchmark seed must be >= 1, got {bench_seed}")
    base = 1 + (bench_seed - 1) * SEED_STRIDE
    seeds = []
    for candidate in range(base, base + SEED_STRIDE):
        if is_connected(workload.node_count, workload.terrain_size, candidate):
            seeds.append(candidate)
            if len(seeds) == workload.networks:
                return seeds
    raise RuntimeError(
        f"{workload.name}: only {len(seeds)} connected deployments among "
        f"scenario seeds {base}..{base + SEED_STRIDE - 1}"
    )
