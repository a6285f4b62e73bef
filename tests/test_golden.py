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
  Seed 2 is also run with ``--recompute-weights --force-recluster``:
  every refresh re-forms the clusters (formation and adjustment during
  maintenance) except one whose graph is disconnected, which falls back
  to re-affiliation and logs its events.
- ``perfect`` reports, whose ``verify`` adds the two perfect-only checks:
  the scenario n = 9, terrain 100, range 37, seed 71 (both lines FAIL,
  exit 2: the edge (1, 8) touches no master or proxy) and the
  hub-with-four-spokes fixture ``tests/data/star.json`` (exit 0).
  ``cluster`` JSON and ``verify`` of that very report for each.
- scenarios n = 300 (terrain 274, seed 1) and n = 1000 (terrain 500,
  seed 3), range 30: ``metrics`` JSON, ``cluster`` JSON and ``verify`` of
  that report, pinned as sha256 digests rather than files.  At these
  sizes the column-blocked kernels run in several blocks.  The n = 300
  scenario is also pinned through ``simulate`` (report and event NDJSON),
  whose every refresh summary reads a fresh hop table.

Every scenario report passes the four structural checks of its own
``verify``: adjustment never promotes a critical node adjacent to a
master, so no two masters are adjacent.  Only the perfect-only checks
fail, on the n = 9 report.
"""
import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from dscluster.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FIXTURE = str(resources.files("dscluster.data").joinpath("paper23.json"))
STAR = str(Path(__file__).parent / "data" / "star.json")


def _scenario_doc(seed: int, node_count: int = 40, terrain_size: float = 100.0,
                  range_: float = 30.0) -> dict:
    return {
        "node_count": node_count, "terrain_size": terrain_size, "range": range_, "v_max": 5.0,
        "broadcast_interval": 1.0, "dt": 1.0, "steps": 20, "seed": seed,
    }


def _cases():
    """(id, argv without inputs/outputs, scenario document or None, exit
    code, golden files in the order --out, --events)."""
    yield "paper23-cluster", ["cluster", "--fixture", FIXTURE], None, 0, ["paper23.cluster.json"]
    yield ("paper23-dot", ["cluster", "--fixture", FIXTURE, "--format", "dot"], None, 0,
           ["paper23.cluster.dot"])
    yield "paper23-metrics", ["metrics", "--fixture", FIXTURE], None, 0, ["paper23.metrics.json"]
    for seed in (1, 2, 3):
        report = f"seed{seed}.cluster.json"
        doc = _scenario_doc(seed)
        yield f"seed{seed}-cluster", ["cluster"], doc, 0, [report]
        yield f"seed{seed}-dot", ["cluster", "--format", "dot"], doc, 0, [f"seed{seed}.cluster.dot"]
        yield (f"seed{seed}-verify", ["verify", "--report", str(GOLDEN / report)], doc, 0,
               [f"seed{seed}.verify.txt"])
    for seed in (1, 2):
        yield (f"seed{seed}-simulate", ["simulate"], _scenario_doc(seed), 0,
               [f"seed{seed}.simulate.json", f"seed{seed}.events.ndjson"])
    yield ("seed2-recluster", ["simulate", "--recompute-weights", "--force-recluster"],
           _scenario_doc(2), 0, ["seed2.recluster.simulate.json", "seed2.recluster.events.ndjson"])
    perfect9 = _scenario_doc(71, node_count=9, range_=37.0)
    yield "perfect9-cluster", ["cluster"], perfect9, 0, ["perfect9.cluster.json"]
    yield ("perfect9-verify", ["verify", "--report", str(GOLDEN / "perfect9.cluster.json")],
           perfect9, 2, ["perfect9.verify.txt"])
    yield "star-cluster", ["cluster", "--fixture", STAR], None, 0, ["star.cluster.json"]
    yield ("star-verify",
           ["verify", "--fixture", STAR, "--report", str(GOLDEN / "star.cluster.json")],
           None, 0, ["star.verify.txt"])


CASES = list(_cases())


def run_case(argv, scenario_doc, directory: Path, count: int) -> tuple[int, list[Path]]:
    """Run one case, writing its outputs into ``directory``."""
    argv = list(argv)
    if scenario_doc is not None:
        scenario = directory / "scenario.json"
        scenario.write_text(json.dumps(scenario_doc))
        argv += ["--scenario", str(scenario)]
    outputs = [directory / f"output{i}" for i in range(count)]
    for flag, path in zip(("--out", "--events"), outputs):
        argv += [flag, str(path)]
    return main(argv), outputs


@pytest.mark.parametrize(
    "argv, scenario_doc, code, goldens", [pytest.param(*c[1:], id=c[0]) for c in CASES]
)
def test_output_matches_golden(argv, scenario_doc, code, goldens, tmp_path):
    exit_code, outputs = run_case(argv, scenario_doc, tmp_path, len(goldens))
    assert exit_code == code
    for path, name in zip(outputs, goldens):
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


#: sha256 digests of the outputs of scenarios too large to keep as files:
#: (node count, terrain size, seed) -> digest of each command's output.
LARGE_DIGESTS = {
    (300, 274.0, 1): {
        "metrics": "fd2d6857810da59a302e1c21a4d521381a097bfb620d23a7cf3caba79af9c279",
        "cluster": "ff5a7493842fbbfd29739e2ece82b6c814fc0e63060554cab0abca101f6853cd",
        "verify": "96a3855efcc0e995983c7373d700f7f86a14d8f56d94bb63babc294c5fc93896",
        "simulate": "71222048f24503a69bf3cbdd943c8b16985713e1689c2d57f7bb897334f6c359",
        "events": "3f35e3784091890afd179401e3c927f547160333bcca1980cac6126625ad81eb",
    },
    (1000, 500.0, 3): {
        "metrics": "62882b6827e144ee8b650a88ae45734e0b66a392ad13e34e33f7ba812cb06877",
        "cluster": "9c7aab14490f4df0a3852a9e506364979b26a401e49462dc066304c937580f85",
        "verify": "a68bddeb56daa3309020820ff3c6ba25ede9569e8402027df3c9f323bca54dce",
    },
}


@pytest.mark.parametrize("node_count, terrain_size, seed", list(LARGE_DIGESTS))
def test_large_output_matches_digest(node_count, terrain_size, seed, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_scenario_doc(seed, node_count, terrain_size)))
    expected = LARGE_DIGESTS[node_count, terrain_size, seed]
    report, events = tmp_path / "cluster", tmp_path / "events"
    runs = [("metrics", []), ("cluster", []), ("verify", ["--report", str(report)])]
    if "simulate" in expected:
        runs.append(("simulate", ["--events", str(events)]))
    digests = {}
    for command, extra in runs:
        out = tmp_path / command
        assert main([command, "--scenario", str(scenario), *extra, "--out", str(out)]) == 0
        digests[command] = hashlib.sha256(out.read_bytes()).hexdigest()
    if events.exists():
        digests["events"] = hashlib.sha256(events.read_bytes()).hexdigest()
    assert digests == expected
