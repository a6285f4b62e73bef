"""Tests for the benchmark's own code (not for dscluster).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import seeds  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
        spans = [
            [0, "root", "bench", None, "r", 0.0, 10.0],
            [1, "a", "x", 0, "r", 1.0, 4.0],
            [2, "c", "y", 1, "r", 2.0, 3.0],
            [3, "b", "x", 0, "r", 5.0, 9.0],
        ]
        assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_summary_groups_by_name_and_site(self):
        spans = [
            [0, "root", "bench", None, "r", 0.0, 10.0],
            [1, "hop", "graph", 0, "r", 1.0, 3.0],
            [2, "hop", "mobility", 0, "r", 4.0, 8.0],
        ]
        summary = tracing.summarise(spans)
        assert summary["s"]["hop"] == 6.0
        assert summary["s"]["hop@mobility"] == 4.0
        assert summary["calls"]["hop"] == 2
        assert summary["s"]["root"] == 4.0

    def test_tracer_records_parents_and_counters(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda text: text.upper(), "inner", "site",
                            ("inner.bytes", "B", lambda text: len(text)))
        with tracer.span("outer"):
            assert inner("abc") == "ABC"
            inner("de")
        names = [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans]
        assert names == [("outer", None), ("inner", 0), ("inner", 0)]
        assert tracer.counters["inner.bytes"] == 5
        assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]

    def test_installed_restores_every_boundary(self):
        import importlib
        before = []
        for module_name, attr, _, _ in tracing.BOUNDARIES:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
            before.append(owner)
        with tracing.installed(tracing.Tracer()):
            pass
        after = []
        for module_name, attr, _, _ in tracing.BOUNDARIES:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
            after.append(owner)
        assert before == after

    def test_span_names_come_from_the_boundaries(self):
        names = tracing.span_names()
        assert len(names) == len(set(names))
        assert {name for _, _, name, _ in tracing.BOUNDARIES} | set(tracing.CLI_SPANS) == set(names)
        assert tracing.counter_units()["graph.hop_distance_table.bytes"] == "B"

    def test_span_cost_is_small_and_positive(self):
        assert 0 < tracing.span_cost(calls=200, batches=3) < 1e-3


class TestPercentileRule:
    @pytest.mark.parametrize("samples, expected", [
        (10, None), (19, None), (20, "50"), (40, "75"), (100, "90"),
        (199, "90"), (200, "95"), (999, "95"), (1000, "99"), (10000, "99.9"),
    ])
    def test_highest_percentile_with_ten_beyond(self, samples, expected):
        assert worker.tail_percentile(samples) == expected


class TestSeedSelection:
    def test_paper_sweep_seed_one(self):
        chosen = seeds.connected_seeds(inputs.WORKLOADS["paper_sweep"], 1)
        assert len(chosen) == 200
        assert chosen[0] == 1 and chosen[-1] == 224
        assert chosen == seeds.connected_seeds(inputs.WORKLOADS["paper_sweep"], 1)

    def test_dense_seed_one(self):
        assert seeds.connected_seeds(inputs.WORKLOADS["dense_cluster"], 1) == [3]

    def test_seeds_do_not_overlap(self):
        shape = inputs.Workload("t", 20, 60.0, networks=5)
        first = seeds.connected_seeds(shape, 1)
        second = seeds.connected_seeds(shape, 2)
        assert not set(first) & set(second)
        assert all(seeds.is_connected(20, 60.0, s) for s in first + second)

    def test_rejects_seed_zero(self):
        with pytest.raises(ValueError):
            seeds.connected_seeds(inputs.WORKLOADS["paper_sweep"], 0)


# The three workloads' shapes at n = 20 with 2 refreshes.
SMOKE = {
    "paper_sweep": inputs.Workload("paper_sweep", 20, 60.0, networks=3),
    "dense_cluster": inputs.Workload("dense_cluster", 20, 60.0, networks=1),
    "mobile_maintenance": inputs.Workload("mobile_maintenance", 20, 60.0, networks=1, steps=2,
                                          rounds=2),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run(name, tmp_path):
    shape = SMOKE[name]
    scenarios = inputs.write_scenarios(shape, seeds.connected_seeds(shape, 1), tmp_path)
    runner = worker.Runner(shape, scenarios, tmp_path)
    untraced = [runner.run_pass("u0"), runner.run_pass("u1")]
    runner.tracer = tracing.Tracer()
    with tracing.installed(runner.tracer):
        traced = [runner.run_pass("t0")]
    passes = untraced + traced
    for p in passes:
        assert p.failed == 0 and not p.problems
        assert p.attempted == shape.networks * (2 * shape.rounds + bool(shape.steps))
    assert len({p.digest for p in passes}) == 1
    assert passes[0].counts == traced[0].counts

    spec = _spec()
    e2e = worker.end_to_end(untraced)
    assert set(e2e) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values())
    layers = worker.layer_metrics(runner.tracer, traced, untraced, span_cost=1e-6)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[k] == unit for k, (_, unit) in {**e2e, **layers}.items())
    assert layers["graph.hop_distance_table.bytes"][0] == pytest.approx(
        8 * 20 ** 2 * layers["graph.hop_distance_table.calls"][0])
    assert layers["trace_overhead_s"][0] == pytest.approx(1e-6 * len(runner.tracer.spans))
    if shape.steps:
        assert layers["mobility.summary_hop.calls"][0] == shape.steps
        assert layers["mobility.build_graph.per_refresh"][0] == 2.0
        assert layers["simulate_s"][0] > 0
    else:
        assert layers["mobility.find_ch.calls"][0] == 0


def test_network_latency_is_median_over_passes():
    def call(network, seconds):
        return worker.Call("cluster", network, 0.0, 0.0, seconds, 0.0)

    passes = [
        worker.PassResult(calls=[call(0, 1.0), call(0, 2.0), call(1, 5.0), call(None, 9.0)]),
        worker.PassResult(calls=[call(0, 4.0), call(1, 6.0)]),
        worker.PassResult(calls=[call(0, 3.5), call(1, 7.0)]),
    ]
    assert worker.network_seconds(passes) == [3.5, 6.0]


def test_calibration_scales_by_nearby_samples():
    calibration = worker.Calibration()
    calibration.samples = [(0.0, 0.1), (10.0, 0.2), (10.4, 0.4)]
    ref = worker.REFERENCE_S
    assert calibration.factor(0.2, 0.3) == pytest.approx(ref / 0.1)
    assert calibration.factor(10.2, 10.3) == pytest.approx(ref / 0.3)
    # nothing within the interval: every sample counts
    assert calibration.factor(50.0, 51.0) == pytest.approx(ref / (0.7 / 3))


def test_calibrated_run_takes_kernel_time_out(tmp_path):
    shape = SMOKE["paper_sweep"]
    scenarios = inputs.write_scenarios(shape, seeds.connected_seeds(shape, 1), tmp_path)
    calibration = worker.Calibration()
    runner = worker.Runner(shape, scenarios, tmp_path, calibration)
    with calibration.sampling():
        passes = [runner.run_pass("p0")]
        calibration.sample()  # as if the timer fired inside a call
    assert len(calibration.samples) >= 2
    assert calibration.busy == pytest.approx(sum(s for _, s in calibration.samples))
    raw = worker.end_to_end(passes)
    scaled = worker.end_to_end(passes, calibration)
    assert set(raw) == set(scaled)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]
    assert all(value > 0 for value, _ in scaled.values())


def test_worker_process_does_not_import_scipy():
    # scipy is the launcher's (seed choice); the measured process must not pay for it
    code = "import sys, worker; assert 'scipy' not in sys.modules, 'scipy imported'"
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_partition_check():
    assert worker.partition_ok([{"members": [0, 2]}, {"members": [1]}], 3)
    assert not worker.partition_ok([{"members": [0, 1]}, {"members": [1, 2]}], 3)
    assert not worker.partition_ok([{"members": [0]}], 2)


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
