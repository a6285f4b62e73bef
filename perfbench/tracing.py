"""Spans around dscluster's module boundaries, recorded from outside the program.

The tracer wraps public functions by replacing the name that the *calling*
module looks up at run time (``dscluster.cli.compute_tables``,
``dscluster.mobility.hop_distance_table``, ...), so ``src/`` needs no
instrumentation.  A name imported into several modules is wrapped at each
site, and the span keeps the site, which is how hop tables called from the
maintenance loop are told apart from the ones behind ``compute_tables``.

Spans live in memory as ``[id, name, site, parent, run, start, end]`` and
are written as NDJSON once the run is over.  A span's self time is its
duration minus the durations of its direct children; the benchmark is single
threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ID, NAME, SITE, PARENT, RUN, START, END = range(7)


def _node_count(graph, *_args, **_kwargs):
    return graph.node_count


def _hop_bytes(graph, *_args, **_kwargs):
    # dense int64 n x n table: computed, not measured
    return 8 * _node_count(graph) ** 2


def _closeness_comparisons(_u, table, *_args, **_kwargs):
    # one "<" and one ">" comparison of every row against row u
    return 2 * table.shape[0] ** 2


def _text_bytes(text, *_args, **_kwargs):
    return len(text)


# (module that performs the lookup, attribute, span name, extra counter)
# Every site that calls into another layer is listed; names that the program
# calls only inside their own module are wrapped in that module.  An extra
# counter is (name, unit, function of the call's arguments).
BOUNDARIES = [
    ("dscluster.cli", "build_graph", "graph.build_graph", None),
    ("dscluster.mobility", "build_graph", "graph.build_graph", None),
    ("dscluster.graph", "NetworkGraph.components", "graph.components", None),
    ("dscluster.cli", "compute_tables", "graph.compute_tables", None),
    ("dscluster.mobility", "compute_tables", "graph.compute_tables", None),
    ("dscluster.graph", "hop_distance_table", "graph.hop_distance_table",
     ("graph.hop_distance_table.bytes", "B", _hop_bytes)),
    ("dscluster.mobility", "hop_distance_table", "graph.hop_distance_table",
     ("graph.hop_distance_table.bytes", "B", _hop_bytes)),
    ("dscluster.cli", "compute_network_metrics", "metrics.compute_network_metrics", None),
    ("dscluster.mobility", "compute_network_metrics", "metrics.compute_network_metrics", None),
    ("dscluster.metrics", "hop_closeness_index", "metrics.closeness",
     ("metrics.closeness.comparisons", "count", _closeness_comparisons)),
    ("dscluster.metrics", "euclidean_closeness_index", "metrics.closeness",
     ("metrics.closeness.comparisons", "count", _closeness_comparisons)),
    ("dscluster.metrics", "path_statistics", "metrics.path_statistics", None),
    ("dscluster.metrics", "neighbor_categories", "metrics.neighbor_categories", None),
    ("dscluster.cli", "form_and_adjust", "engine.form_and_adjust", None),
    ("dscluster.mobility", "form_and_adjust", "engine.form_and_adjust", None),
    ("dscluster.engine", "run_m_dsec", "engine.run_m_dsec", None),
    ("dscluster.engine", "run_adjusted", "engine.run_adjusted", None),
    ("dscluster.engine", "elect_proxy", "engine.elect_proxy", None),
    ("dscluster.engine", "master_eligibility", "engine.master_eligibility", None),
    ("dscluster.cli", "run_property_checks", "verify.run_property_checks", None),
    ("dscluster.mobility", "run_property_checks", "verify.run_property_checks", None),
    ("dscluster.verify", "check_cluster_diameter", "verify.check_cluster_diameter", None),
    ("dscluster.verify", "check_double_star", "verify.check_double_star", None),
    ("dscluster.verify", "check_partition", "verify.check_partition", None),
    ("dscluster.verify", "check_dominance_and_independence",
     "verify.check_dominance_and_independence", None),
    ("dscluster.cli", "run_simulation", "mobility.run_simulation", None),
    ("dscluster.mobility", "step_positions", "mobility.step_positions", None),
    ("dscluster.mobility", "hello_refresh", "mobility.hello_refresh", None),
    ("dscluster.mobility", "find_ch", "mobility.find_ch", None),
    ("dscluster.fileio", "load_scenario", "fileio.load_scenario", None),
    ("dscluster.fileio", "state_from_report", "fileio.state_from_report", None),
    ("dscluster.fileio", "cluster_report", "fileio.cluster_report", None),
    ("dscluster.fileio", "simulation_report", "fileio.simulation_report", None),
    ("dscluster.fileio", "events_ndjson", "fileio.events_ndjson", None),
    ("dscluster.fileio", "to_json", "fileio.to_json", None),
    ("dscluster.fileio", "write_text", "fileio.write_text",
     ("fileio.write_text.bytes", "B", _text_bytes)),
]

#: Spans the benchmark opens around each CLI call.
CLI_SPANS = ("cli.cluster", "cli.verify", "cli.simulate")


def span_names() -> list[str]:
    """Every span name a traced run records, in BOUNDARIES order, then CLI_SPANS."""
    return list(dict.fromkeys(name for _, _, name, _ in BOUNDARIES)) + list(CLI_SPANS)


def counter_units() -> dict[str, str]:
    """The extra counters of BOUNDARIES with their units."""
    return {extra[0]: extra[1] for *_, extra in BOUNDARIES if extra is not None}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, site: str | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, site, parent, self.run, self.clock(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[END] = self.clock()

    def wrap(self, fn, name: str, site: str, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra is not None:
                self.counters[extra[0]] += extra[2](*args, **kwargs)
            with self.span(name, site):
                return fn(*args, **kwargs)
        return traced

    def write_ndjson(self, path) -> None:
        keys = ("id", "name", "site", "parent", "run", "start", "end")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def span_cost(calls: int = 2000, batches: int = 7) -> float:
    """Seconds one wrapped call adds to a bare call: median over batches of
    timing ``calls`` calls of a no-op each way."""
    def bare():
        return None

    wrapped = Tracer().wrap(bare, "probe", "probe")
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            bare()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        costs.append(((end - middle) - (middle - start)) / calls)
    return statistics.median(costs)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block, then restore."""
    restore = []
    try:
        for module_name, attr, name, extra in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            restore.append((owner, leaf, original))
            site = module_name.rsplit(".", 1)[-1]
            setattr(owner, leaf, tracer.wrap(original, name, site, extra))
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [record[END] - record[START] for record in spans]
    for record in spans:
        parent = record[PARENT]
        if parent is not None:
            own[parent] -= record[END] - record[START]
    return own


def summarise(spans: list[list]) -> dict:
    """Self seconds and call counts per span name, plus per (name, site)."""
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for record, own in zip(spans, self_times(spans)):
        for key in (record[NAME], f"{record[NAME]}@{record[SITE]}"):
            seconds[key] += own
            calls[key] += 1
    return {"s": dict(seconds), "calls": dict(calls)}
