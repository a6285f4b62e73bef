"""Hypothesis fuzzing of the document loaders through the CLI.

Arbitrary JSON-shaped scenario, fixture and report documents (valid ones
with fields replaced or removed, and whole arbitrary values), and raw
bytes, go to ``dscluster cluster``, ``metrics`` and ``verify``.  Every run must
end in a documented exit code; an exception escaping ``main`` is the
traceback a user would see, and fails the test.
"""
import contextlib
import copy
import io
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscluster.cli import main

FIXTURE_PATH = str(resources.files("dscluster.data").joinpath("paper23.json"))
FIXTURES = [
    json.loads(resources.files("dscluster.data").joinpath("paper23.json").read_text()),
    {   # a 4-node path carrying every optional field
        "nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]],
        "euclid": [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0],
                   [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]],
        "ns_override": [1.0, 2.0, 2.0, 1.0], "gh_override": [0, 2, 2, 0],
        "ged_override": [0.0, 2.0, 2.0, 0.0], "weight_override": [1.0, 3.0, 2.0, 0.5],
        "ns_threshold": 100.0, "alphas": [1, 1, 1, 1, 1, 1],
    },
]
SCENARIO = {"node_count": 6, "terrain_size": 40.0, "range": 30.0, "v_max": 5.0, "seed": 1,
            "steps": 2, "dt": 1.0, "broadcast_interval": 1.0, "ns_threshold": 100.0,
            "alphas": [1, 1, 1, 1, 1, 1]}
DOCUMENTED_EXITS = {0, 1, 2, 3}

# Integers stay small or lie far beyond every size bound, so a document that
# passes validation never asks for a large network.
integers = st.integers(-3, 12) | st.sampled_from([2**31, 2**63, 10**400])
leaves = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _slots(doc):
    """Every (container, key) pair inside a JSON document."""
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, value in items:
            yield node, key
            stack.append(value)


@st.composite
def mutants(draw, base):
    """``base`` with up to three values replaced by arbitrary JSON or removed."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = draw(json_values)
        else:
            del container[key]
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def report(workdir):
    """The cluster report of the bundled fixture, the base for report mutants."""
    path = workdir / "base-report.json"
    assert main(["cluster", "--fixture", FIXTURE_PATH, "--out", str(path)]) == 0
    return json.loads(path.read_text())


def run(workdir, *argv):
    """Exit code of one CLI call, its output and messages kept off the console."""
    out = workdir / "out.txt"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert code in DOCUMENTED_EXITS
    return code


def write(workdir, name, content):
    path = workdir / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


@settings(max_examples=200)
@given(mutants(SCENARIO), st.none() | integers)
@example(SCENARIO | {"alphas": [1e308] * 6}, None)
@example(SCENARIO | {"alphas": [1e306] * 6}, None)
@example(SCENARIO | {"ns_threshold": 1e308}, None)
def test_scenario_documents(workdir, doc, seed):
    scenario = write(workdir, "scenario.json", doc)
    argv = ["--scenario", scenario] + ([] if seed is None else ["--seed", str(seed)])
    if run(workdir, "cluster", *argv) == 0:
        produced = write(workdir, "report.json", json.loads((workdir / "out.txt").read_text()))
        run(workdir, "verify", *argv, "--report", produced)


@settings(max_examples=200)
@given(st.sampled_from(FIXTURES).flatmap(mutants))
def test_fixture_documents(workdir, doc):
    fixture = write(workdir, "fixture.json", doc)
    run(workdir, "metrics", "--fixture", fixture)
    if run(workdir, "cluster", "--fixture", fixture) == 0:
        produced = write(workdir, "report.json", json.loads((workdir / "out.txt").read_text()))
        run(workdir, "verify", "--fixture", fixture, "--report", produced)


@settings(max_examples=200)
@given(st.data())
def test_report_documents(workdir, report, data):
    doc = data.draw(mutants(report))
    run(workdir, "verify", "--fixture", FIXTURE_PATH,
        "--report", write(workdir, "report.json", doc))


@given(json_values | st.binary(max_size=24), st.sampled_from(["scenario", "fixture", "report"]))
def test_arbitrary_documents(workdir, content, kind):
    path = write(workdir, "doc.json", content)
    if kind == "report":
        run(workdir, "verify", "--fixture", FIXTURE_PATH, "--report", path)
    else:
        run(workdir, "cluster", f"--{kind}", path)


@pytest.mark.parametrize("content", [b"\x80", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
def test_unreadable_document_is_a_usage_error(workdir, content):
    assert run(workdir, "cluster", "--scenario", write(workdir, "doc.json", content)) == 1
