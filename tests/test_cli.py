import json
import math
import re
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import dscluster as d
from dscluster.cli import main
from dscluster.graph import MAX_NODES

FIXTURE_PATH = str(resources.files("dscluster.data").joinpath("paper23.json"))
#: A hub with four unit-range spokes: a perfect single cluster.
STAR_PATH = str(Path(__file__).parent / "data" / "star.json")


def _scenario_doc(**extra):
    doc = {
        "node_count": 25,
        "terrain_size": 100.0,
        "range": 35.0,
        "v_max": 4.0,
        "broadcast_interval": 1.0,
        "dt": 1.0,
        "steps": 10,
        "seed": 11,
    }
    doc.update(extra)
    return doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def validate_dot(text):
    """Minimal structural grammar check for an undirected DOT document."""
    assert text.startswith("graph ")
    assert text.rstrip().endswith("}")
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            assert depth >= 0
    assert depth == 0
    body = text[text.index("{") + 1:text.rindex("}")]
    statement = re.compile(
        r"^\s*(subgraph\s+\w+\s*\{|\}|label=.*;|node\s*\[.*\];|"
        r"\d+\s*(\[[^\]]*\])?;|\d+\s*--\s*\d+;)\s*$"
    )
    for line in body.splitlines():
        if not line.strip():
            continue
        assert statement.match(line), f"unexpected DOT statement: {line!r}"
    return True


class TestClusterCommand:
    def test_fixture_report_matches_reference(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        clusters = {
            (c["master"], c["proxy"], tuple(c["members"])) for c in report["clusters"]
        }
        assert clusters == {
            (3, 1, (0, 1, 2, 3, 4, 5, 22)),
            (18, 16, (16, 17, 18, 19, 21)),
            (9, 10, (8, 9, 10)),
            (13, 11, (11, 12, 13, 14, 15)),
            (6, 7, (6, 7)),
            (20, None, (20,)),
        }
        assert report["critical"] == [6, 7, 11, 13, 14, 20]
        assert report["hm1"] == [11, 13, 14]
        assert report["classification"] == "fairly-perfect"
        assert report["statuses"]["3"] == "master"
        assert report["statuses"]["20"] == "master"

    def test_stdout_when_no_out(self, capsys):
        assert main(["cluster", "--fixture", FIXTURE_PATH]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "fairly-perfect"

    def test_dot_output_parses(self, tmp_path):
        out = tmp_path / "clusters.dot"
        assert main(["cluster", "--fixture", FIXTURE_PATH, "--format", "dot",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert validate_dot(text)
        assert "subgraph cluster_1" in text
        assert re.search(r"\b3 \[shape=doublecircle", text)   # master marker
        assert re.search(r"\b1 \[shape=box", text)            # proxy marker

    def test_scenario_position_mode(self, tmp_path):
        scenario = _write(tmp_path, "scenario.json", _scenario_doc())
        out = tmp_path / "report.json"
        assert main(["cluster", "--scenario", scenario, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        covered = sorted(n for c in report["clusters"] for n in c["members"])
        assert covered == list(range(25))


class TestMetricsCommand:
    def test_fixture_metrics_dump(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--fixture", FIXTURE_PATH, "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 23
        node3 = records[3]
        assert node3["deg"] == 5
        assert node3["ns"] == 400.0
        assert node3["w"] == pytest.approx(68.96)
        assert node3["m1"] is None  # bypassed: fixture supplies NS directly


class TestUsageErrors:
    def test_missing_required_field_names_it(self, tmp_path, capsys):
        doc = _scenario_doc()
        del doc["range"]
        scenario = _write(tmp_path, "scenario.json", doc)
        assert main(["cluster", "--scenario", scenario]) == 1
        assert "range" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["cluster", "--fixture", FIXTURE_PATH, "--bogus"]) == 1

    def test_fixture_and_scenario_exclusive(self, tmp_path, capsys):
        scenario = _write(tmp_path, "scenario.json", _scenario_doc())
        assert main(["cluster", "--fixture", FIXTURE_PATH,
                     "--scenario", scenario]) == 1

    def test_missing_input(self, capsys):
        assert main(["cluster"]) == 1

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["cluster", "--fixture", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["cluster", "--fixture", str(path)]) == 1


def _path_fixture(**extra):
    """A 6-node path fixture with unit spacing and an NS override column."""
    n = 6
    doc = {
        "nodes": n,
        "edges": [[i, i + 1] for i in range(n - 1)],
        "euclid": [[float(abs(i - j)) for j in range(n)] for i in range(n)],
        "ns_override": [1.0] * n,
    }
    doc.update(extra)
    return doc


def _with_euclid(row, col, value, row_len=None):
    doc = _path_fixture()
    doc["euclid"][row][col] = doc["euclid"][col][row] = value
    if row_len is not None:
        doc["euclid"][row] = doc["euclid"][row][:row_len]
    return doc


def _set_cluster(key, value):
    def mutate(report):
        report["clusters"][0][key] = value
    return mutate


NAN_COLUMN = [1.0, math.nan, 3.0, 0.5, 4.0, 2.0]
OVERRIDE_KEYS = ("ns_override", "gh_override", "ged_override", "weight_override")

# (input kind, malformed document -- or for "report" a mutation of a valid
# report --, a fragment the error message must contain)
MALFORMED = [
    pytest.param("fixture", _with_euclid(2, 2, 0.0, row_len=4), "6 finite", id="ragged-euclid"),
    pytest.param("fixture", _with_euclid(0, 5, math.inf), "euclid row", id="inf-euclid"),
    pytest.param("fixture", _with_euclid(0, 5, math.nan), "euclid row", id="nan-euclid"),
    pytest.param("fixture", _path_fixture(ns_override=["a"] * 6), "ns_override",
                 id="string-ns-override"),
    *[pytest.param("fixture", _path_fixture(**{key: NAN_COLUMN}), key, id=f"nan-{key}")
      for key in OVERRIDE_KEYS],
    pytest.param("fixture", _path_fixture(alphas=["a"] * 6), "alphas", id="string-alphas"),
    pytest.param("fixture", {k: v for k, v in _path_fixture().items() if k != "ns_override"},
                 "no transmission range", id="no-ns-and-no-range"),
    pytest.param("scenario", _scenario_doc(terrain_size=math.nan), "terrain_size",
                 id="nan-terrain"),
    pytest.param("scenario", _scenario_doc(range=math.inf), "range", id="inf-range"),
    pytest.param("scenario", _scenario_doc(terrain_size=10**400), "terrain_size",
                 id="int-beyond-float-terrain"),
    pytest.param("scenario", _scenario_doc(seed=-1), "seed", id="negative-seed"),
    pytest.param("scenario", _scenario_doc(terrain_size=1e160, range=1e160), "terrain_size",
                 id="terrain-diagonal-overflows"),
    pytest.param("scenario", _scenario_doc(v_max=1e300, dt=1e10), "v_max * dt",
                 id="v-max-times-dt-overflows"),
    pytest.param("scenario", _scenario_doc(v_max=0.0, dt=1e300, broadcast_interval=1e-10),
                 "steps * dt", id="refresh-count-overflows"),
    pytest.param("scenario", _scenario_doc(steps=10**400), "steps * dt",
                 id="int-beyond-float-steps"),
    pytest.param("scenario", _scenario_doc(node_count=10**12), str(MAX_NODES),
                 id="huge-node-count"),
    pytest.param("fixture", _path_fixture(edges=[[0, 1], [1, None]]), "edge",
                 id="edge-not-a-pair-of-nodes"),
    pytest.param("report", lambda r: r["clusters"][0]["members"].append(99), "members",
                 id="member-out-of-range"),
    pytest.param("report", _set_cluster("proxy", "x"), "leaders", id="string-proxy"),
    pytest.param("report", _set_cluster("master", -1), "leaders", id="negative-master"),
    pytest.param("report", lambda r: r["clusters"].append(3), "object",
                 id="cluster-not-object"),
    pytest.param("report", lambda r: r.update(hm1=[[1]]), "'hm1'", id="hm1-not-nodes"),
    pytest.param("scenario", _scenario_doc(node_count=True), "'node_count' must be int",
                 id="bool-node-count"),
    pytest.param("scenario", _scenario_doc(steps=True), "'steps' must be int", id="bool-steps"),
    pytest.param("scenario", _scenario_doc(seed=False), "'seed' must be int", id="bool-seed"),
    pytest.param("fixture", _path_fixture(nodes=True), "'nodes' must be int", id="bool-nodes"),
    pytest.param("report", _set_cluster("id", True), "'id' must be int", id="bool-cluster-id"),
]


@pytest.mark.parametrize("kind, payload, fragment", MALFORMED)
def test_malformed_input_is_a_typed_error(kind, payload, fragment, tmp_path, capsys):
    """Malformed documents end in exit 1 with an ``error:`` line, never a
    traceback; non-finite numbers never reach the engine's orderings."""
    if kind == "report":
        fixture = _write(tmp_path, "fixture.json", _path_fixture())
        good = tmp_path / "report.json"
        assert main(["cluster", "--fixture", fixture, "--out", str(good)]) == 0
        report = json.loads(good.read_text())
        payload(report)
        argv = ["verify", "--fixture", fixture, "--report", _write(tmp_path, "bad.json", report)]
    else:
        argv = ["cluster", f"--{kind}", _write(tmp_path, "doc.json", payload)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


class TestDisconnectedInput:
    def test_exit_code_and_component_report(self, tmp_path, capsys):
        scenario = _write(
            tmp_path, "scenario.json",
            _scenario_doc(node_count=10, terrain_size=500.0) | {"range": 10.0},
        )
        assert main(["cluster", "--scenario", scenario]) == 3
        err = capsys.readouterr().err
        assert "disconnected" in err
        assert "component" in err

    @pytest.mark.parametrize("command", ["cluster", "metrics"])
    def test_disconnected_fixture_is_refused(self, command, tmp_path, capsys):
        fixture = _write(tmp_path, "fixture.json", _path_fixture(edges=[[0, 1], [1, 2]]))
        assert main([command, "--fixture", fixture]) == 3
        err = capsys.readouterr().err
        assert "disconnected: 4 components" in err
        assert "component 1: [0, 1, 2]" in err


@pytest.mark.parametrize("command", ["cluster", "simulate"])
def test_oversized_scenario_is_refused_before_any_table(command, tmp_path, capsys):
    scenario = _write(tmp_path, "big.json", _scenario_doc(node_count=MAX_NODES + 1))
    tracemalloc.start()
    try:
        assert main([command, "--scenario", scenario]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("error: ")
    assert peak < (MAX_NODES + 1) ** 2  # one n x n table of bools would be this big


def test_oversized_overlapping_report_is_refused(tmp_path, capsys):
    """A report whose clusters list more than MAX_NODES members in total
    ends in exit 1 before the diameter check allocates its table."""
    scenario = _write(tmp_path, "scenario.json", _scenario_doc())
    good = tmp_path / "report.json"
    assert main(["cluster", "--scenario", scenario, "--out", str(good)]) == 0
    report = json.loads(good.read_text())
    everyone = {"id": 1, "master": 0, "proxy": None, "members": list(range(25))}
    report["clusters"] = [everyone | {"id": i} for i in range(1, MAX_NODES // 25 + 2)]
    bad = _write(tmp_path, "bad.json", report)
    tracemalloc.start()
    try:
        assert main(["verify", "--scenario", scenario, "--report", bad]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("error: clusters list")
    assert peak < (MAX_NODES + 1) ** 2  # one n x n table of bools would be this big


def test_one_parser_serves_every_call(tmp_path, capsys):
    """The parser is built once per process, and one call's options do not
    leak into the next."""
    scenario = _write(tmp_path, "scenario.json", _scenario_doc())
    assert main(["cluster", "--scenario", scenario, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph clusters {")
    assert main(["cluster", "--scenario", scenario]) == 0
    assert "clusters" in json.loads(capsys.readouterr().out)
    assert d.cli._build_parser() is d.cli._build_parser()


class TestVerifyCommand:
    def test_reference_report_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(report_path)])
        assert main(["verify", "--report", str(report_path),
                     "--fixture", FIXTURE_PATH]) == 0
        out = capsys.readouterr().out
        assert "pass  partition" in out
        assert "FAIL" not in out

    def test_corrupted_report_fails_with_exit_2(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(report_path)])
        doc = json.loads(report_path.read_text())
        doc["clusters"][0]["members"].append(20)  # 20 now sits in two clusters
        report_path.write_text(json.dumps(doc))
        assert main(["verify", "--report", str(report_path),
                     "--fixture", FIXTURE_PATH]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_perfect_classification_adds_domination_checks(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["cluster", "--fixture", STAR_PATH, "--out", str(report_path)])
        assert json.loads(report_path.read_text())["classification"] == "perfect"
        assert main(["verify", "--report", str(report_path),
                     "--fixture", STAR_PATH]) == 0
        out = capsys.readouterr().out
        assert "efficient-edge-domination" in out
        assert "cluster-count-equals-line-graph-domination" in out

    def test_perfect_report_with_non_edge_pair_fails_every_line(self, tmp_path, capsys):
        """Two leaves as master and proxy are no edge: the perfect-only
        check fails alongside the double star, and every line prints."""
        report_path = tmp_path / "report.json"
        main(["cluster", "--fixture", STAR_PATH, "--out", str(report_path)])
        doc = json.loads(report_path.read_text())
        doc["clusters"][0].update(master=1, proxy=2)
        report_path.write_text(json.dumps(doc))
        assert main(["verify", "--report", str(report_path),
                     "--fixture", STAR_PATH]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "FAIL  double-star" in captured.out
        assert "witness: {'cluster': 1, 'missing_edge': [1, 2]}" in captured.out
        assert "FAIL  efficient-edge-domination" in captured.out
        assert "witness: {'pairs': [[1, 2]]}" in captured.out
        assert "cluster-count-equals-line-graph-domination" in captured.out


class TestSimulateCommand:
    def test_deterministic_end_to_end(self, tmp_path):
        scenario = _write(tmp_path, "scenario.json", _scenario_doc(steps=15))
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["simulate", "--scenario", scenario, "--seed", "11",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_event_log_written_alongside(self, tmp_path):
        scenario = _write(tmp_path, "scenario.json",
                          _scenario_doc(steps=30, v_max=8.0))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        events_path = tmp_path / "sim.json.events.ndjson"
        assert events_path.exists()
        lines = events_path.read_text().splitlines()
        report = json.loads(out.read_text())
        assert len(lines) == len(report["maintenance_events"])
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"time", "kind", "node", "target"}

    def test_static_simulation_empty_events(self, tmp_path, capsys):
        scenario = _write(tmp_path, "scenario.json", _scenario_doc(v_max=0.0))
        assert main(["simulate", "--scenario", scenario]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["maintenance_events"] == []

    def test_flags_accepted(self, tmp_path):
        scenario = _write(tmp_path, "scenario.json", _scenario_doc(steps=5))
        out = tmp_path / "sim.json"
        assert main(["simulate", "--scenario", scenario, "--recompute-weights",
                     "--force-recluster", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert any(s["reclustered"] for s in report["summaries"])


class TestRoundTrips:
    def test_report_reingest_reproduces_state(self, bundle, paper_states):
        formation, final = paper_states
        doc = d.cluster_report(formation, final)
        rebuilt = d.fileio.state_from_report(json.loads(json.dumps(doc)))
        assert {
            (c.master, c.proxy, tuple(sorted(c.members))) for c in rebuilt.clusters
        } == {
            (c.master, c.proxy, tuple(sorted(c.members))) for c in final.clusters
        }
