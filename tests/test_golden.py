"""Byte-identical golden outputs of the CLI commands.

Every case runs ``dscluster.cli.main`` and compares the files it writes
with ``tests/data/golden/`` byte for byte, together with the exit code.
A refactor that is meant to change no behaviour must leave every golden
untouched; a change that is meant to alter an output replaces the golden
file in the same commit and says why.

Covered:

- ``paper23``: ``cluster`` JSON and DOT, ``metrics`` JSON.
- scenarios n = 40, terrain 100, range 30, seeds 1-3: ``cluster`` JSON
  and DOT, and ``verify`` of that very report.  Between them they reach
  type-I hidden-master adjustment, pruned clusters and singleton masters.
- ``simulate`` with v_max 5 over 20 steps, seeds 1 and 2: the report and
  the event NDJSON, both of which include ``become-master`` events.

Every scenario report passes its own ``verify`` (exit 0): adjustment
never promotes a critical node adjacent to a master, so no two masters
are adjacent.
"""
import json
from importlib import resources
from pathlib import Path

import pytest

from dscluster.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FIXTURE = str(resources.files("dscluster.data").joinpath("paper23.json"))


def _scenario_doc(seed: int) -> dict:
    return {
        "node_count": 40, "terrain_size": 100.0, "range": 30.0, "v_max": 5.0,
        "broadcast_interval": 1.0, "dt": 1.0, "steps": 20, "seed": seed,
    }


def _cases():
    """(id, argv without inputs/outputs, scenario seed or None, exit code,
    golden files in the order --out, --events)."""
    yield "paper23-cluster", ["cluster", "--fixture", FIXTURE], None, 0, ["paper23.cluster.json"]
    yield ("paper23-dot", ["cluster", "--fixture", FIXTURE, "--format", "dot"], None, 0,
           ["paper23.cluster.dot"])
    yield "paper23-metrics", ["metrics", "--fixture", FIXTURE], None, 0, ["paper23.metrics.json"]
    for seed in (1, 2, 3):
        report = f"seed{seed}.cluster.json"
        yield f"seed{seed}-cluster", ["cluster"], seed, 0, [report]
        yield f"seed{seed}-dot", ["cluster", "--format", "dot"], seed, 0, [f"seed{seed}.cluster.dot"]
        yield (f"seed{seed}-verify", ["verify", "--report", str(GOLDEN / report)], seed, 0,
               [f"seed{seed}.verify.txt"])
    for seed in (1, 2):
        yield (f"seed{seed}-simulate", ["simulate"], seed, 0,
               [f"seed{seed}.simulate.json", f"seed{seed}.events.ndjson"])


CASES = list(_cases())


def run_case(argv, seed, directory: Path, count: int) -> tuple[int, list[Path]]:
    """Run one case, writing its outputs into ``directory``."""
    argv = list(argv)
    if seed is not None:
        scenario = directory / f"seed{seed}.scenario.json"
        scenario.write_text(json.dumps(_scenario_doc(seed)))
        argv += ["--scenario", str(scenario)]
    outputs = [directory / f"output{i}" for i in range(count)]
    for flag, path in zip(("--out", "--events"), outputs):
        argv += [flag, str(path)]
    return main(argv), outputs


@pytest.mark.parametrize(
    "argv, seed, code, goldens", [pytest.param(*c[1:], id=c[0]) for c in CASES]
)
def test_output_matches_golden(argv, seed, code, goldens, tmp_path):
    exit_code, outputs = run_case(argv, seed, tmp_path, len(goldens))
    assert exit_code == code
    for path, name in zip(outputs, goldens):
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name
