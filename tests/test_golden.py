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
- ``perfect`` reports, whose ``verify`` adds the perfect-only check
  ``efficient-edge-domination``: the scenario n = 9, terrain 100, range 37,
  seed 71, whose adjacent slaves 1 and 8 no double star joins, and the
  hub-with-four-spokes fixture ``tests/data/star.json``.  ``cluster`` JSON
  and ``verify`` of that very report for each.
- scenarios n = 300 (terrain 274, seeds 1-3) and n = 1000 (terrain 500,
  seed 3), range 30: ``metrics`` JSON, ``cluster`` JSON and ``verify`` of
  that report, pinned as sha256 digests rather than files.  At these
  sizes the column-blocked kernels run in several blocks.  The n = 300
  scenarios are also pinned through ``simulate`` (report and event
  NDJSON): three maintenance trajectories of hundreds of events each,
  whose every refresh summary reads a fresh hop table.  Seed 1 is also
  run with ``--recompute-weights``: every refresh recomputes the metrics
  of a 300-node graph, whose Euclidean rows span several blocks.

Every golden ``verify`` exits 0: adjustment never promotes a critical
node adjacent to a master, so no two masters are adjacent, and the engine
labels perfect only a formation whose clusters are all double stars.
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
           perfect9, 0, ["perfect9.verify.txt"])
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
        "verify": "cf5d5346091f64e00633f5a38811e381461d475763ba6792c74c85273d0fda14",
        "simulate": "31a67646cc04bf19809744ce215e90f18abb64edd5fc4b88db13aef217344a2d",
        "events": "a5f39e5f300d582c28e0486b53ad8f298d8eb4d5865bb5384e8199653d048bab",
        "recompute": "f12aa4fc048dc9cfc97f06278dc3ca4f4e7fad5ba3131665fdcb387249405b68",
    },
    (300, 274.0, 2): {
        "metrics": "99c398811842c4927cbae81388828ac331c6a3fa822df407fe1773a48b2614c7",
        "cluster": "2878aac21fa9bf3a17f1decd32b8b0e2cdb5f1aa8da4ae3bea21f83fbd08771a",
        "verify": "6d882d4e79a2339c57f190c570b4756802ddc52bd30257f96683f0af30c096c1",
        "simulate": "4f722908dcfbc4312c20a0f1ef5db744f9118e9c25ec65df1becfbd9d0607426",
        "events": "d4fff47e437940a26ff798b2bc83a3d7c539d1d9be3b4976b0a29e5ed1c53729",
    },
    (300, 274.0, 3): {
        "metrics": "1a02fc53caa1651ae172ab844e0c330b0cc92f9eaebeb1f0d153c2af2b5f9062",
        "cluster": "b6d26bfe47b20fbdc5a25f7084e90fb92e11e6f35dc5a47d3a97c45cb4e4feb8",
        "verify": "13e12c741506179a1d65a30f3a6f0312614887d4f07521a20afa3a5590798418",
        "simulate": "393cacc7633f6815ea5c73b6a3836dbe928ba305298b8639ee90b76478c9df94",
        "events": "91bbb7bfb0c0a1217305070ee4dbfea81de6c3af1518af100db8a5faef47dde1",
    },
    (1000, 500.0, 3): {
        "metrics": "62882b6827e144ee8b650a88ae45734e0b66a392ad13e34e33f7ba812cb06877",
        "cluster": "9c7aab14490f4df0a3852a9e506364979b26a401e49462dc066304c937580f85",
        "verify": "e6e357eef3628a5c1e718628f1f9c842200645137ce7a9cb050b2218c2112a10",
    },
}


@pytest.mark.parametrize("node_count, terrain_size, seed", list(LARGE_DIGESTS))
def test_large_output_matches_digest(node_count, terrain_size, seed, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_scenario_doc(seed, node_count, terrain_size)))
    expected = LARGE_DIGESTS[node_count, terrain_size, seed]
    report, events = tmp_path / "cluster", tmp_path / "events"
    runs = [("metrics", ["metrics"]), ("cluster", ["cluster"]),
            ("verify", ["verify", "--report", str(report)])]
    if "simulate" in expected:
        runs.append(("simulate", ["simulate", "--events", str(events)]))
    if "recompute" in expected:
        runs.append(("recompute", ["simulate", "--recompute-weights"]))
    digests = {}
    for name, argv in runs:
        out = tmp_path / name
        assert main([*argv, "--scenario", str(scenario), "--out", str(out)]) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    if events.exists():
        digests["events"] = hashlib.sha256(events.read_bytes()).hexdigest()
    assert digests == expected


def test_block_budget_changes_no_output(monkeypatch, tmp_path):
    """Every blocked kernel (the sweep, the BFS chunks, the hop decode, the
    Euclidean rows, the closeness count) sizes its blocks from the one
    ``graph._BLOCK_BYTES``.  At 2 KB each runs several blocks on n = 120:
    10 sweep chunks of 256 pairs, 11 BFS chunks of 128 gathered rows, 8
    decode blocks of 17 rows, 60 Euclidean and 60 closeness blocks of 2
    rows.  Every output must stay byte for byte what the default budget
    writes."""
    from dscluster import graph as graph_module

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**_scenario_doc(1, 120, 173.0), "steps": 4}))

    def outputs(name):
        directory = tmp_path / name
        directory.mkdir()
        report, events = directory / "report", directory / "events"
        runs = [("cluster", ["cluster"]), ("metrics", ["metrics"]),
                ("verify", ["verify", "--report", str(report)]),
                ("simulate", ["simulate", "--recompute-weights", "--events", str(events)])]
        written = {}
        for run, argv in runs:
            out = report if run == "cluster" else directory / run
            assert main([*argv, "--scenario", str(scenario), "--out", str(out)]) == 0
            written[run] = out.read_bytes()
        written["events"] = events.read_bytes()
        return written

    default = outputs("default")
    monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 2048)
    assert outputs("small") == default
