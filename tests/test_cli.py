import json
import math
import os
import re
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import dscluster as d
from dscluster.cli import main
from dscluster.graph import MAX_NODES

from conftest import connected_deployments, euclidean_distance_table

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

    @pytest.mark.parametrize("kind, doc", [
        pytest.param("fixture", {"nodes": 1, "edges": [], "euclid": [[0.0]]}, id="fixture"),
        pytest.param("scenario", _scenario_doc(node_count=1), id="scenario"),
    ])
    def test_lone_node_is_one_proxyless_cluster(self, kind, doc, tmp_path, capsys):
        # a lone node has no weight and no NS override: it clusters with no metrics
        source = _write(tmp_path, f"{kind}.json", doc)
        assert main(["cluster", f"--{kind}", source]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clusters"] == [{"id": 1, "master": 0, "proxy": None, "members": [0]}]
        assert report["statuses"] == {"0": "master"}


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

    @pytest.mark.parametrize("command", ["cluster", "metrics", "verify"])
    def test_seed_with_fixture_is_refused(self, command, tmp_path, capsys):
        """A fixture has no seed, so ``--seed`` would change nothing."""
        report = tmp_path / "report.json"
        assert main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(report)]) == 0
        extra = ["--report", str(report)] if command == "verify" else []
        assert main([command, "--fixture", FIXTURE_PATH, "--seed", "3", *extra]) == 1
        assert capsys.readouterr().err == "error: --seed applies only to --scenario\n"

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


def _set_euclid(row, col, value):
    doc = _path_fixture()
    doc["euclid"][row][col] = value
    return doc


def _set_cluster(key, value):
    def mutate(report):
        report["clusters"][0][key] = value
    return mutate


def _one_cluster_id(report):
    for cluster in report["clusters"]:
        cluster["id"] = 1


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
    pytest.param("report", _one_cluster_id, "cluster id 1 is repeated", id="repeated-cluster-id"),
    pytest.param("report", lambda r: r["clusters"][0]["members"].append(r["clusters"][0]["master"]),
                 "is repeated in cluster", id="repeated-member"),
    pytest.param("report", lambda r: r.update(deferred=[2, 2]),
                 "node 2 is repeated in 'deferred'", id="repeated-deferred"),
    pytest.param("report", lambda r: r.update(statuses={f"x{k}": "bogus" for k in r["statuses"]}),
                 "'statuses'", id="renamed-statuses"),
    pytest.param("report", lambda r: r.update(statuses={k: 7 for k in r["statuses"]}),
                 "'statuses'", id="numeric-statuses"),
    pytest.param("report", lambda r: r.update(critical=["zz"]), "'critical'",
                 id="critical-not-nodes"),
    pytest.param("report", _set_cluster("id", 1 << 64), "64-bit", id="huge-cluster-id"),
    pytest.param("fixture", _set_euclid(0, 1, 5.0), "euclid matrix is asymmetric at (0, 1)",
                 id="asymmetric-euclid"),
    pytest.param("fixture", _set_euclid(2, 2, 1.0), "euclid matrix must have a zero diagonal",
                 id="nonzero-diagonal"),
    pytest.param("fixture", _with_euclid(0, 5, -1.0), "euclid matrix has negative entries",
                 id="negative-euclid"),
    pytest.param("fixture", _path_fixture(edges=[[0, 1], [2, 2]]), "self-loop on node 2",
                 id="self-loop"),
    pytest.param("fixture", _path_fixture(edges=[[0, 1], [0, 6]]),
                 "edge (0, 6) out of range for 6 nodes", id="edge-out-of-range"),
    # loose fragment: a fixture of no nodes must be refused, whichever check says so
    pytest.param("fixture", _path_fixture(nodes=0, edges=[], euclid=[], ns_override=[]),
                 "must be", id="no-nodes"),
    pytest.param("fixture", _path_fixture(ns_override=[1.0] * 5),
                 "override 'ns' has 5 entries, expected 6", id="short-override-column"),
    pytest.param("scenario", _scenario_doc(node_count=40, range=30.0, seed=1, alphas=[1e308] * 6),
                 "weight is not finite", id="overflowing-alphas"),
    pytest.param("scenario", _scenario_doc(node_count=40, range=30.0, seed=1, ns_threshold=1e308),
                 "weight is not finite", id="overflowing-ns-threshold"),
    pytest.param("fixture", _path_fixture(nodes=4, edges=[[0, 1], [1, 2], [2, 3]],
                                          euclid=[[0.0 if i == j else 1e308 for j in range(4)]
                                                  for i in range(4)],
                                          ns_override=[1.0] * 4),
                 "weight is not finite", id="overflowing-med"),
    pytest.param("fixture", {"nodes": MAX_NODES + 1, "edges": [], "euclid": []},
                 "exceed the limit", id="oversized-fixture"),
]

#: Cases that only a command computing metrics refuses: ``verify`` reads no
#: weight, so it accepts these documents.
METRIC_ONLY = {"no-ns-and-no-range", "overflowing-alphas", "overflowing-ns-threshold",
               "overflowing-med"}


@pytest.mark.parametrize("kind, payload, fragment", MALFORMED)
def test_malformed_input_is_a_typed_error(kind, payload, fragment, request, tmp_path, capsys):
    """Malformed documents end in exit 1 with an ``error:`` line, never a
    traceback; non-finite numbers never reach the engine's orderings.  A
    fixture or scenario is refused by every command that reads it."""
    if kind == "report":
        fixture = _write(tmp_path, "fixture.json", _path_fixture())
        good = tmp_path / "report.json"
        assert main(["cluster", "--fixture", fixture, "--out", str(good)]) == 0
        report = json.loads(good.read_text())
        payload(report)
        calls = [["verify", "--fixture", fixture,
                  "--report", _write(tmp_path, "bad.json", report)]]
    else:
        doc = [f"--{kind}", _write(tmp_path, "doc.json", payload)]
        calls = [["cluster", *doc], ["metrics", *doc]]
        if request.node.callspec.id not in METRIC_ONLY:
            # the report is never read: the input is refused first
            calls.append(["verify", *doc, "--report", _write(tmp_path, "report.json", {})])
    for argv in calls:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err, (argv, err)


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

    @pytest.mark.parametrize("command", ["cluster", "metrics", "verify"])
    def test_disconnected_fixture_is_refused(self, command, tmp_path, capsys):
        fixture = _write(tmp_path, "fixture.json", _path_fixture(edges=[[0, 1], [1, 2]]))
        report = ["--report", _write(tmp_path, "report.json", {})] if command == "verify" else []
        assert main([command, "--fixture", fixture, *report]) == 3
        err = capsys.readouterr().err
        assert "disconnected: 4 components" in err
        assert "component 1: [0, 1, 2]" in err

    def test_verify_lists_the_same_components(self, tmp_path, capsys):
        """``verify`` refuses a disconnected scenario with exit 3 and one line
        per component of the deployed graph, as ``cluster`` does."""
        doc = _scenario_doc(node_count=10, terrain_size=500.0) | {"range": 10.0}
        scenario = _write(tmp_path, "scenario.json", doc)
        graph = d.build_graph(d.deploy_random(10, 500.0, doc["seed"]), 10.0)
        expected = [f"  component {i}: {c}" for i, c in enumerate(graph.components(), 1)]
        assert len(expected) > 1
        errors = []
        for argv in (["cluster"], ["verify", "--report", _write(tmp_path, "r.json", {})]):
            assert main([*argv, "--scenario", scenario]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].splitlines()[1:] == expected


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


@pytest.mark.parametrize("command", ["cluster", "simulate"])
def test_scenario_too_big_for_any_array_is_one_error_line(command, tmp_path, capsys):
    """The scenario refuses a node count beyond the table bound itself, so
    ``simulate`` never draws positions numpy cannot allocate."""
    n = 2**62
    scenario = _write(tmp_path, "big.json", _scenario_doc(node_count=n, steps=1))
    assert main([command, "--scenario", scenario]) == 1
    assert capsys.readouterr().err == (
        f"error: {n} nodes exceed the limit of {MAX_NODES} for dense n x n tables\n")


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


def test_verify_builds_no_all_pairs_table(tmp_path):
    """One ``verify`` call at n = 1000 peaks below 8 n^2 bytes, the size of
    the int64 all-pairs hop table alone: the radius and diameter come from
    batches of 64 BFS sources, and dominance from the adjacency."""
    n = 1000
    doc = _scenario_doc(node_count=n, terrain_size=500.0, range=30.0, seed=3)
    scenario, report, out = _write(tmp_path, "s.json", doc), tmp_path / "r.json", tmp_path / "v"
    assert main(["cluster", "--scenario", scenario, "--out", str(report)]) == 0
    tracemalloc.start()
    try:
        code = main(["verify", "--scenario", scenario, "--report", str(report), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.read_text().startswith("radius=16 diameter=29\n")
    assert peak < 8 * n * n


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
        assert "pass  efficient-edge-domination" in out
        assert "line-graph" not in out  # the count claim has no line of its own

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
        assert captured.out.count("witness: {'cluster': 1, 'missing_edge': [1, 2]}") == 2


    @staticmethod
    def _cluster_then_verify(tmp_path, doc, edit):
        """Cluster a scenario, apply ``edit`` to the report, verify it:
        (the unedited report, verify's exit code, its output)."""
        scenario = _write(tmp_path, "scenario.json", doc)
        report_path = tmp_path / "report.json"
        assert main(["cluster", "--scenario", scenario, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        edited = json.loads(report_path.read_text())
        edit(edited)
        out = tmp_path / "verify.txt"
        code = main(["verify", "--scenario", scenario,
                     "--report", _write(tmp_path, "edited.json", edited), "--out", str(out)])
        return report, code, out.read_text()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda r: None, id="as-written"),
        pytest.param(lambda r: r.update(classification="fairly-perfect", critical=[1]),
                     id="relabelled-fairly-perfect"),
    ])
    def test_perfect9_verdict_does_not_hang_on_its_label(self, edit, tmp_path):
        """n 9, range 37, seed 71: a perfect clustering with two adjacent
        slaves, (1, 8), passes as written and relabelled alike."""
        doc = _scenario_doc(node_count=9, terrain_size=100.0, range=37.0, seed=71)
        report, code, out = self._cluster_then_verify(tmp_path, doc, edit)
        assert report["classification"] == "perfect"
        assert code == 0 and "FAIL" not in out

    def test_proxyless_formation_is_fairly_perfect(self, tmp_path):
        """n 5, range 45, seed 199: formation leaves no critical node, but
        cluster 2 (master 2, members {0, 2}) has no proxy.  The engine labels
        it fairly-perfect and it verifies; labelled perfect, it fails."""
        doc = _scenario_doc(node_count=5, terrain_size=100.0, range=45.0, seed=199)
        report, code, out = self._cluster_then_verify(
            tmp_path, doc, lambda r: r.update(classification="perfect"))
        assert report["classification"] == "fairly-perfect" and report["critical"] == []
        assert code == 2
        assert "FAIL  efficient-edge-domination" in out
        assert "witness: {'cluster': 2, 'no_proxy': [0, 2]}" in out
        assert main(["verify", "--scenario", _write(tmp_path, "scenario.json", doc),
                     "--report", str(tmp_path / "report.json")]) == 0

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


def _writing_calls(tmp_path, target):
    """(argv, expected written target) for every command that writes a file."""
    scenario = _write(tmp_path, "scenario.json", _scenario_doc(steps=2))
    report = tmp_path / "report.json"
    assert main(["cluster", "--scenario", scenario, "--out", str(report)]) == 0
    return [
        ["cluster", "--scenario", scenario, "--out", target],
        ["verify", "--scenario", scenario, "--report", str(report), "--out", target],
        ["simulate", "--scenario", scenario, "--out", str(tmp_path / "sim.json"),
         "--events", target],
    ]


class TestOutputPaths:
    @pytest.mark.parametrize("where", ["missing/dir/x.json", "."])
    def test_unwritable_output_is_a_typed_error(self, where, tmp_path, capsys):
        target = str(tmp_path / where)
        for argv in _writing_calls(tmp_path, target):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    def test_devnull_output(self, tmp_path, capsys):
        for argv in _writing_calls(tmp_path, os.devnull):
            assert main(argv) == 0, argv

    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        """An output path that holds a longer file ends with the command's
        bytes alone; a missing one is created."""
        fresh = tmp_path / "fresh.json"
        assert main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(fresh)]) == 0
        stale = tmp_path / "stale.json"
        stale.write_text("x" * (len(fresh.read_bytes()) * 3))
        assert main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(stale)]) == 0
        assert stale.read_bytes() == fresh.read_bytes()

    def test_simulate_events_beside_out_rewritten(self, tmp_path):
        scenario = _write(tmp_path, "scenario.json", _scenario_doc(steps=30, v_max=8.0))
        out = tmp_path / "sim.json"
        events = tmp_path / "sim.json.events.ndjson"
        events.write_text("stale\n" * 10000)
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        lines = events.read_text().splitlines()
        assert lines and [json.loads(line) for line in lines] == report["maintenance_events"]


class TestRoundTrips:
    @given(connected_deployments(2, 60))
    def test_report_reingest_reproduces_state(self, deployment):
        """Reading back the JSON of a cluster report gives the final state's
        clusters, in their order, and the formation's bookkeeping."""
        n, range_, seed = deployment
        graph = d.build_graph(d.deploy_random(n, 100.0, seed), range_)
        hop = d.compute_tables(graph)
        formation, final = d.form_and_adjust(graph, hop, d.compute_network_metrics(graph, hop))
        doc = json.loads(json.dumps(d.cluster_report(formation, final)))
        rebuilt = d.fileio.state_from_report(doc)
        assert rebuilt.node_count == n
        for name in ("ids", "masters", "proxies", "nodes", "cluster"):
            assert np.array_equal(getattr(rebuilt, name), getattr(final, name)), name
        for name in ("hm1", "hm2", "deferred"):
            assert np.array_equal(getattr(rebuilt, name), getattr(formation, name)), name


class TestFixtureMatchesScenario:
    """The two input modes agree: a fixture made of a scenario's graph, its
    Euclidean table and its NS column as ``ns_override`` gives the
    scenario's ``cluster`` report and ``verify`` output byte for byte."""

    @staticmethod
    def _outputs(workdir, flag, doc):
        """(report bytes, verify exit code, verify output bytes) of one input."""
        source = _write(workdir, "input.json", doc)
        report, checked = workdir / "report.json", workdir / "verify.txt"
        assert main(["cluster", flag, source, "--out", str(report)]) == 0
        code = main(["verify", flag, source, "--report", str(report), "--out", str(checked)])
        return report.read_bytes(), code, checked.read_bytes()

    def _agree(self, workdir, n, terrain, range_, seed) -> bool:
        """Whether the draw is connected; a connected one must agree."""
        positions = d.deploy_random(n, terrain, seed)
        graph = d.build_graph(positions, range_)
        if len(graph.components()) != 1:
            return False
        ns = d.compute_network_metrics(graph, d.compute_tables(graph)).ns_values
        fixture = {"nodes": n, "edges": [list(e) for e in graph.edges()],
                   "euclid": euclidean_distance_table(positions).tolist(),
                   "ns_override": ns.tolist()}
        scenario = _scenario_doc(node_count=n, terrain_size=terrain, range=range_, seed=seed)
        expected = self._outputs(workdir, "--scenario", scenario)
        assert expected[1] == 0
        assert self._outputs(workdir, "--fixture", fixture) == expected
        return True

    @pytest.mark.parametrize("n, terrain, range_, seeds, connected", [
        (40, 100.0, 30.0, range(1, 40), 33),
        (300, 274.0, 30.0, [1], 1),
        (9, 100.0, 37.0, [71], 1),
        (5, 100.0, 45.0, [199], 1),
    ], ids=["n40-seeds-1-39", "n300", "n9-seed71", "n5-seed199"])
    def test_listed_draws(self, n, terrain, range_, seeds, connected, tmp_path):
        assert sum(self._agree(tmp_path, n, terrain, range_, seed) for seed in seeds) == connected

    @settings(max_examples=30)
    @given(connected_deployments(2, 60))
    def test_connected_draws(self, tmp_path_factory, draw):
        n, range_, seed = draw
        assert self._agree(tmp_path_factory.mktemp("oracle"), n, 100.0, range_, seed)
