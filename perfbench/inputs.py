"""Workload shapes and the scenario documents the program receives.

This module imports neither numpy nor scipy: the measured worker process
imports it, and its set-up time and peak memory should be dscluster's.
Which scenario seeds give connected deployments is decided in the launcher
by ``seeds.py``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

RANGE = 30.0
V_MAX = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    node_count: int
    terrain_size: float
    networks: int
    steps: int = 0  # maintenance refreshes; 0 means no `simulate` call
    rounds: int = 1  # `cluster` + `verify` calls per deployment and pass

    def scenario_doc(self, seed: int) -> dict:
        return {
            "node_count": self.node_count,
            "terrain_size": self.terrain_size,
            "range": RANGE,
            "v_max": V_MAX,
            "broadcast_interval": 1.0,
            "dt": 1.0,
            "steps": self.steps,
            "seed": seed,
        }


# The reasons for each choice are in README.md.
WORKLOADS = {
    "paper_sweep": Workload("paper_sweep", 40, 100.0, networks=200),
    "dense_cluster": Workload("dense_cluster", 1000, 500.0, networks=1),
    "mobile_maintenance": Workload("mobile_maintenance", 300, 274.0, networks=1, steps=20,
                                   rounds=3),
}


def write_scenarios(workload: Workload, seeds: list[int], directory: Path) -> list[Path]:
    paths = []
    for index, seed in enumerate(seeds):
        path = directory / f"net{index:04d}.scenario.json"
        path.write_text(json.dumps(workload.scenario_doc(seed), indent=2) + "\n")
        paths.append(path)
    return paths
