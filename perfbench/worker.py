"""One workload in one fresh process: set up, run timed passes, check outputs.

``run.py`` starts this file with the scenario seeds it chose; it is not
meant to be run by hand.  The process imports numpy and dscluster but not
scipy, so that ``setup_s`` and ``peak_rss_mb`` are mostly the program's.
A pass sends every scenario of the workload through the real CLI entry
point (``dscluster.cli.main``) in this process: ``cluster``, then ``verify`` on
its report (``rounds`` times), then ``simulate`` when the workload has
refreshes.  Passes repeat while another one fits in ``--seconds``; at least
one always runs.

The last line on stdout is one JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from inputs import WORKLOADS, write_scenarios

ROOT = Path(__file__).resolve().parents[1]

#: sha256 of ``dscluster cluster --fixture paper23.json``: the known answer
#: every set-up checks.  A change to the report's bytes must update it on
#: purpose.
PAPER23_REPORT_SHA256 = "63e52167436b728359df591d08c857ebf205ea51e053ef2d24c439b3d4e0e614"

#: Documented exit codes; anything else (or an exception) is a failed operation.
EXPECTED_EXIT = {"cluster": {0}, "verify": {0, 2}, "simulate": {0}}
VERIFY_FAILED = 2

TAIL_CANDIDATES = ("99.9", "99", "95", "90", "75", "50")

#: Mean time of the calibration kernel that timings are scaled to.
REFERENCE_S = 0.012
CALIBRATION_INTERVAL_S = 0.25


class Calibration:
    """Speed probe that timings are normalised by.

    On a shared machine the speed of one core drifts by a third or more
    over seconds to minutes, far more than run-to-run differences of the
    code.  A fixed kernel of the benchmark's own code -- a Python BFS with
    numpy scalar indexing, interpreter-bound like most of dscluster today --
    runs from a SIGALRM timer every ``CALIBRATION_INTERVAL_S`` of the timed
    section, so it samples the speed during long CLI calls too.  It has no
    memory-bound numpy part: in the machine's fast phases interpreter code
    speeds up and such a part does not, so it under-corrected even the
    numpy-heavy n = 1000 ``cluster`` call.  The kernel's time is taken
    out of every interval it falls in.  A call's reported time is
    ``raw * REFERENCE_S / mean(kernel times within CALIBRATION_INTERVAL_S of
    the call)``: seconds at a reference speed.  The raw figures stay in the
    run record.
    """

    def __init__(self):
        rng = np.random.default_rng(20110430)
        points = rng.uniform(0.0, 100.0, size=(45, 2))
        small = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        self.neighbors = [np.flatnonzero((row <= 30.0) & (row > 0)) for row in small]
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.busy = 0.0
        self.busy_cpu = 0.0
        self._running = False

    def _kernel(self) -> int:
        n = len(self.neighbors)
        hop = np.full((n, n), -1, dtype=np.int64)
        for src in range(n):
            hop[src, src] = 0
            queue = deque([src])
            while queue:
                u = queue.popleft()
                du = hop[src, u]
                for v in self.neighbors[u]:
                    if hop[src, v] == -1:
                        hop[src, v] = du + 1
                        queue.append(int(v))
        return int(hop.sum())

    def sample(self, *_signal) -> None:
        if self._running:
            return
        self._running = True
        try:
            cpu0, start = time.process_time(), time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
            self.samples.append((start, elapsed))
            self.busy += elapsed
            self.busy_cpu += time.process_time() - cpu0
        finally:
            self._running = False

    @contextmanager
    def sampling(self):
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """Scale for an interval: from the samples near it, else from all."""
        near = [seconds for t, seconds in self.samples
                if start - CALIBRATION_INTERVAL_S <= t <= end + CALIBRATION_INTERVAL_S]
        return REFERENCE_S / statistics.fmean(near or [seconds for _, seconds in self.samples])


def tail_percentile(samples: int) -> str | None:
    """The highest candidate percentile with at least 10 samples beyond it."""
    for p in TAIL_CANDIDATES:
        beyond = samples - samples * Fraction(p) / 100
        if beyond >= 10:
            return p
    return None


def partition_ok(clusters: list[dict], node_count: int) -> bool:
    """Every node 0..n-1 is a member of exactly one cluster."""
    seen = Counter(v for c in clusters for v in c["members"])
    return sorted(seen) == list(range(node_count)) and all(k == 1 for k in seen.values())


@dataclass(frozen=True)
class Call:
    command: str
    network: int | None  # None for the repeated rounds, outside network latency
    start: float
    end: float
    seconds: float  # wall time without the calibration kernel's
    cpu: float


@dataclass
class PassResult:
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    digest: str = ""


class Runner:
    """Runs CLI calls for one workload and checks what they write."""

    def __init__(self, workload, scenarios: list[Path], workdir: Path, calibration=None):
        from dscluster.cli import main
        self.cli_main = main
        self.workload = workload
        self.scenarios = scenarios
        self.workdir = workdir
        self.calibration = calibration or Calibration()
        self.tracer = None

    def _call(self, result: PassResult, network: int | None, argv: list[str]) -> int | None:
        command = argv[0]
        result.attempted += 1
        cal = self.calibration
        busy, busy_cpu = cal.busy, cal.busy_cpu
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span(f"cli.{command}", "bench"):
                    code = self.cli_main(argv)
            else:
                code = self.cli_main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc(file=sys.stderr)
            code = None
        end = time.perf_counter()
        result.calls.append(Call(command, network, t0, end, end - t0 - (cal.busy - busy),
                                 time.process_time() - cpu0 - (cal.busy_cpu - busy_cpu)))
        if code not in EXPECTED_EXIT[command]:
            result.failed += 1
            result.problems.append(f"{command} {argv[1:]} exited {code}")
            return None
        return code

    def run_pass(self, tag: str) -> PassResult:
        result = PassResult()
        hasher = hashlib.sha256()
        start = time.perf_counter()
        for index, scenario in enumerate(self.scenarios):
            if self.tracer is not None:
                self.tracer.run = f"{tag}/net{index:04d}"
            try:
                outputs = self._network(result, index, scenario)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output
                result.problems.append(f"net{index}: cannot check outputs: {exc!r}")
                outputs = []
            for path in outputs:
                hasher.update(path.name.encode() + b"\0" + path.read_bytes())
        result.wall = time.perf_counter() - start
        result.digest = hasher.hexdigest()
        return result

    def _network(self, result: PassResult, index: int, scenario: Path) -> list[Path]:
        stem = self.workdir / f"net{index:04d}"
        report = Path(f"{stem}.report.json")
        checked = Path(f"{stem}.verify.txt")
        n = self.workload.node_count
        if self._call(result, index, ["cluster", "--scenario", str(scenario), "--out", str(report)]) is None:
            return []
        cluster_doc = json.loads(report.read_text())
        self._check_report(result, cluster_doc, n, f"net{index} cluster report")
        code = self._call(result, index, ["verify", "--scenario", str(scenario),
                                          "--report", str(report), "--out", str(checked)])
        if code is None:
            return [report]
        result.counts["networks"] += 1
        result.counts["verify_failed"] += code == VERIFY_FAILED
        for line in checked.read_text().splitlines():
            if line.startswith("FAIL"):
                result.counts[f"verify.failed.{line.split()[1]}"] += 1
        outputs = [report, checked]
        first = [path.read_bytes() for path in outputs]
        for _ in range(1, self.workload.rounds):
            self._call(result, None, ["cluster", "--scenario", str(scenario), "--out", str(report)])
            self._call(result, None, ["verify", "--scenario", str(scenario),
                                      "--report", str(report), "--out", str(checked)])
            if [path.read_bytes() for path in outputs] != first:
                result.problems.append(f"net{index}: a repeated round wrote different outputs")
        if self.workload.steps:
            sim = Path(f"{stem}.simulate.json")
            events = Path(f"{stem}.events.ndjson")
            if self._call(result, index, ["simulate", "--scenario", str(scenario),
                                          "--out", str(sim), "--events", str(events)]) is None:
                return outputs
            self._check_simulation(result, json.loads(sim.read_text()), events,
                                   cluster_doc, f"net{index} simulation")
            outputs += [sim, events]
        return outputs

    def _check_report(self, result: PassResult, doc: dict, n: int, where: str) -> None:
        if not partition_ok(doc["clusters"], n):
            result.problems.append(f"{where}: clusters do not partition the nodes")
        counts = result.counts
        counts["engine.clusters"] += len(doc["clusters"])
        for key in ("critical", "deferred", "hm1", "hm2"):
            counts[f"engine.{key}"] += len(doc[key])
        for event in doc["events"]:
            counts[f"engine.event.{event['action']}"] += 1

    def _check_simulation(self, result, doc, events_path, cluster_doc, where) -> None:
        n = self.workload.node_count
        if doc["formation"] != cluster_doc:
            result.problems.append(f"{where}: t=0 formation differs from the cluster report")
        if not partition_ok(doc["final_clusters"], n):
            result.problems.append(f"{where}: final_clusters do not partition the nodes")
        summaries = doc["summaries"]
        if len(summaries) != self.workload.steps:
            result.problems.append(f"{where}: {len(summaries)} summaries for "
                                   f"{self.workload.steps} refreshes")
        result.counts["summaries"] += len(summaries)
        for summary in summaries:
            failed = [name for name, ok in summary["checks"].items() if not ok]
            result.counts["summary_failed"] += bool(failed)
            for name in failed:
                result.counts[f"verify.failed.{name}"] += 1
        lines = events_path.read_text().splitlines()
        if len(lines) != len(doc["maintenance_events"]):
            result.problems.append(f"{where}: event log and report disagree")
        for line in lines:
            result.counts[f"mobility.events.{json.loads(line)['kind']}"] += 1


def known_answer(workdir: Path) -> tuple[str, bool]:
    """Warm-up call: cluster the bundled 23-node fixture, compare its digest."""
    from importlib import resources
    from dscluster.cli import main
    fixture = resources.files("dscluster.data").joinpath("paper23.json")
    out = workdir / "paper23.report.json"
    code = main(["cluster", "--fixture", str(fixture), "--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else ""
    return digest, digest == PAPER23_REPORT_SHA256


def _passes(runner: Runner, seconds: float, tag: str) -> list[PassResult]:
    """Whole passes while the next one is expected to fit; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(runner.run_pass(f"{tag}{len(results)}"))
        if time.perf_counter() - start + results[-1].wall > seconds:
            return results


def call_seconds(passes: list[PassResult], command: str) -> list[float]:
    return [c.seconds for p in passes for c in p.calls if c.command == command]


def network_seconds(passes: list[PassResult]) -> list[float]:
    """Per deployment: the sum of its CLI calls in a pass, median over passes.

    One sample per deployment, so the latency distribution is over the
    workload's deployments and a burst of machine noise in one pass does not
    make a tail of its own."""
    per_network = defaultdict(list)
    for p in passes:
        totals = Counter()
        for c in p.calls:
            if c.network is not None:
                totals[c.network] += c.seconds
        for network, seconds in totals.items():
            per_network[network].append(seconds)
    return [statistics.median(seconds) for seconds in per_network.values()]


def end_to_end(passes: list[PassResult], calibration: Calibration | None = None) -> dict:
    """Tracing-off metrics: medians over every call and network of the run,
    each call's times scaled by the calibration samples around it."""
    if calibration is not None:
        passes = [replace(p, calls=[
            replace(c, seconds=c.seconds * f, cpu=c.cpu * f)
            for c in p.calls for f in [calibration.factor(c.start, c.end)]
        ]) for p in passes]
    networks = network_seconds(passes)
    return {
        "cluster_s": (statistics.median(call_seconds(passes, "cluster")), "s"),
        "verify_s": (statistics.median(call_seconds(passes, "verify")), "s"),
        "network_p50_ms": (1000 * statistics.median(networks), "ms"),
        "network_p95_ms": (1000 * float(np.percentile(networks, 95)), "ms"),
        "networks_per_s": (len(networks) / sum(networks), "1/s"),
        "cpu_s": (statistics.median(sum(c.cpu for c in p.calls) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def outcome_metrics(counts: Counter, passes: list[PassResult]) -> dict:
    """Per-layer figures read from the outputs of one pass (all passes of a
    run give the same counts; the run checks that through the digests)."""
    c = counts
    out = {
        "verify_fail_ratio": (_ratio(c["verify_failed"], c["networks"]), "ratio"),
        "summary_fail_ratio": (_ratio(c["summary_failed"], c["summaries"]), "ratio"),
        "engine.elect_accept_ratio": (_ratio(
            c["engine.event.elect_master"],
            c["engine.event.elect_master"] + c["engine.event.defer"]), "ratio"),
        "engine.adjust_clusters": (c["engine.event.adjust_cluster"], "count"),
        "engine.pruned_clusters": (c["engine.event.prune_cluster"], "count"),
        "engine.singleton_masters": (c["engine.event.singleton_master"], "count"),
        "mobility.join_ratio": (_ratio(c["mobility.events.join"],
                                       c["mobility.events.find-ch"]), "ratio"),
    }
    for key in ("clusters", "critical", "deferred", "hm1", "hm2"):
        out[f"engine.{key}"] = (c[f"engine.{key}"], "count")
    for check in ("cluster-diameter", "double-star", "partition", "dominance-and-independence"):
        out[f"verify.failed.{check}"] = (c[f"verify.failed.{check}"], "count")
    for kind in ("boundary-exit", "find-ch", "ack", "join", "become-master"):
        out[f"mobility.events.{kind}"] = (c[f"mobility.events.{kind}"], "count")
    simulate = call_seconds(passes, "simulate")
    out["simulate_s"] = (statistics.median(simulate) if simulate else 0.0, "s")
    return out


def layer_metrics(tracer, traced: list[PassResult], untraced: list[PassResult],
                  span_cost: float) -> dict:
    """Per-pass self times and call counts from the spans of the traced passes.

    ``trace_overhead_s`` is the spans of one pass times ``span_cost``, the
    measured cost of one wrapped call: a difference of two pass times would
    be lost in the machine's speed drift."""
    from tracing import counter_units, span_names, summarise
    summary = summarise(tracer.spans)
    per_pass = len(traced)
    out = {}
    for name in span_names():
        out[f"{name}.s"] = (summary["s"].get(name, 0.0) / per_pass, "s")
        out[f"{name}.calls"] = (summary["calls"].get(name, 0) / per_pass, "count")
    for name, unit in counter_units().items():
        out[name] = (tracer.counters[name] / per_pass, unit)
    summary_hop = "graph.hop_distance_table@mobility"
    out["mobility.summary_hop.s"] = (summary["s"].get(summary_hop, 0.0) / per_pass, "s")
    out["mobility.summary_hop.calls"] = (summary["calls"].get(summary_hop, 0) / per_pass, "count")
    # the first build of each simulation happens before any refresh
    builds = summary["calls"].get("graph.build_graph@mobility", 0) / per_pass
    simulations = summary["calls"].get("mobility.run_simulation", 0) / per_pass
    refreshes = traced[0].counts["summaries"]
    out["mobility.build_graph.per_refresh"] = (_ratio(builds - simulations, refreshes), "ratio")
    out["trace_overhead_s"] = (len(tracer.spans) / per_pass * span_cost, "s")
    out.update(outcome_metrics(traced[0].counts, untraced))
    return out


def setup(workload_name: str, seeds: list[int], workdir: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import dscluster.cli  # noqa: F401  (the import is part of set-up)
    workload = WORKLOADS[workload_name]
    scenarios = write_scenarios(workload, seeds, workdir)
    digest, ok = known_answer(workdir)
    return workload, scenarios, digest, ok


def measure(args, workload, scenarios, workdir: Path, calibration: Calibration) -> dict:
    runner = Runner(workload, scenarios, workdir, calibration)
    if not args.trace:
        with calibration.sampling():
            passes = _passes(runner, args.seconds, "p")
        return {"passes": passes, "metrics": end_to_end(passes, calibration),
                "raw_metrics": end_to_end(passes),
                "calibration_mean_s": statistics.fmean(s for _, s in calibration.samples),
                "calibration_samples": len(calibration.samples)}
    from tracing import Tracer, installed, span_cost
    untraced = _passes(runner, args.seconds / 2, "u")
    runner.tracer = Tracer()
    with installed(runner.tracer):
        traced = _passes(runner, args.seconds / 2, "t")
    cost = span_cost()
    spans = args.out_dir / f"spans-{args.workload}-seed{args.seed}.ndjson"
    runner.tracer.write_ndjson(spans)
    return {"passes": untraced + traced,
            "metrics": layer_metrics(runner.tracer, traced, untraced, cost),
            "span_cost_s": cost,
            "trace_overhead_raw_s": statistics.median(p.wall for p in traced)
            - statistics.median(p.wall for p in untraced),
            "spans": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scenario-seeds", required=True,
                        help="comma-separated scenario seeds of connected deployments")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the launcher just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    seeds = [int(seed) for seed in args.scenario_seeds.split(",")]
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir))
    try:
        workload, scenarios, digest, known_ok = setup(args.workload, seeds, workdir)
        setup_s = time.monotonic() - args.spawned_at
        calibration = Calibration()
        for _ in range(9):
            calibration.sample()
        record = {"setup_s": setup_s * calibration.factor(), "raw_setup_s": setup_s,
                  "known_answer_sha256": digest, "known_answer_ok": known_ok}
        if not args.setup_only:
            run = measure(args, workload, scenarios, workdir, Calibration())
            passes = run.pop("passes")
            digests = sorted({p.digest for p in passes})
            problems = [msg for p in passes for msg in p.problems]
            if len(digests) != 1:
                problems.append("passes over the same inputs wrote different outputs")
            first = passes[0].counts
            record.update(run)
            record.update({
                "scenario_seeds": seeds,
                "passes": len(passes),
                "pass_wall_s": [p.wall for p in passes],
                "network_samples": len(network_seconds(passes)),
                "network_tail_percentile": tail_percentile(len(network_seconds(passes))),
                "outputs_sha256": digests,
                "attempted": sum(p.attempted for p in passes),
                "failed": sum(p.failed for p in passes),
                "problems": problems[:20],
                "verify_failed": f"{first['verify_failed']}/{first['networks']}",
                "summaries_failed": f"{first['summary_failed']}/{first['summaries']}",
            })
            for key in ("metrics", "raw_metrics"):
                if key in record:
                    record[key] = {k: {"value": v, "unit": u} for k, (v, u) in record[key].items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
