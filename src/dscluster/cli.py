"""Command-line interface.

Commands: ``cluster`` (form clusters and emit a report), ``metrics``
(dump per-node weight parameters), ``verify`` (re-check a report's
structural properties), ``simulate`` (run the mobility/maintenance loop).

Exit codes: 0 success, 1 usage or schema error, 2 property-check failure,
3 refused disconnected input.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from . import fileio
from .engine import CLASS_PERFECT, form_and_adjust
from .errors import (
    ConfigurationError,
    DisconnectedGraphError,
    FixtureFormatError,
    InvalidArgumentError,
    SchemaError,
    SizeLimitError,
)
from .graph import build_graph, compute_tables, deploy_random
from .metrics import WeightConfig, compute_network_metrics
from .mobility import run_simulation
from .verify import perfect_claims, run_property_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY_FAILURE = 2
EXIT_DISCONNECTED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="dscluster", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--fixture", metavar="PATH",
                       help="fixture document (graph + distance matrices)")
        p.add_argument("--scenario", metavar="PATH",
                        help="scenario document (position mode)")
        p.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
        p.add_argument("--out", metavar="PATH", default=None,
                        help="output path (default: stdout)")

    p_cluster = sub.add_parser("cluster", help="form clusters and emit a report")
    add_input_flags(p_cluster)
    p_cluster.add_argument("--format", choices=("json", "dot"), default="json")

    p_metrics = sub.add_parser("metrics", help="dump per-node weight parameters")
    add_input_flags(p_metrics)

    p_verify = sub.add_parser("verify", help="re-check a cluster report")
    add_input_flags(p_verify)
    p_verify.add_argument("--report", metavar="PATH", required=True,
                          help="cluster report to verify")

    p_sim = sub.add_parser("simulate", help="run the mobility/maintenance loop")
    p_sim.add_argument("--scenario", metavar="PATH", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", metavar="PATH", default=None)
    p_sim.add_argument("--events", metavar="PATH", default=None,
                       help="write the event log as newline-delimited JSON "
                            "(default: <out>.events.ndjson when --out is set)")
    p_sim.add_argument("--recompute-weights", action="store_true",
                       help="recompute weights at every broadcast interval")
    p_sim.add_argument("--force-recluster", action="store_true",
                       help="re-form clusters at every broadcast interval")
    return parser


def _load_inputs(args):
    """(graph, tables, overrides, config) from --fixture or --scenario;
    a disconnected graph is refused in either mode."""
    fixture = getattr(args, "fixture", None)
    if fixture and args.scenario:
        raise _UsageError("--fixture and --scenario are mutually exclusive")
    if fixture:
        bundle = fileio.load_fixture(fixture)
        graph, tables, overrides = bundle.graph, bundle.tables, bundle.overrides
        config = bundle.config
    elif args.scenario:
        scenario = fileio.load_scenario(args.scenario, seed=args.seed)
        positions = deploy_random(
            scenario.node_count, scenario.terrain_size, scenario.seed
        )
        graph = build_graph(positions, scenario.range_)
        tables, overrides = None, None
        config = WeightConfig(scenario.alphas, scenario.ns_threshold)
    else:
        raise _UsageError("one of --fixture or --scenario is required")
    if not graph.is_connected:
        raise DisconnectedGraphError(graph.components())
    if tables is None:
        tables = compute_tables(graph)
    return graph, tables, overrides, config


def _cmd_cluster(args) -> int:
    graph, tables, overrides, config = _load_inputs(args)
    metrics = None
    if graph.node_count > 1:
        metrics = compute_network_metrics(graph, tables, config, overrides)
    formation, final = form_and_adjust(graph, tables, metrics)
    if args.format == "dot":
        fileio.write_text(fileio.dot_graph(final, graph), args.out)
    else:
        report = fileio.cluster_report(formation, final)
        fileio.write_text(fileio.to_json(report), args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    graph, tables, overrides, config = _load_inputs(args)
    metrics = compute_network_metrics(graph, tables, config, overrides)
    fileio.write_text(fileio.to_json(fileio.metrics_records(metrics)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph, tables, _, _ = _load_inputs(args)
    report_doc = fileio._load_doc(args.report)
    state = fileio.state_from_report(report_doc)
    if state.node_count != graph.node_count:
        raise SchemaError(
            f"report covers {state.node_count} nodes but the graph has "
            f"{graph.node_count}"
        )
    report = run_property_checks(state, graph, tables.hop)
    if report_doc.get("classification") == CLASS_PERFECT:
        report.checks += perfect_claims(state, graph)
    lines = [f"radius={report.radius} diameter={report.diameter}"]
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        line = f"{status:4s}  {check.name}"
        if check.note:
            line += f"  ({check.note})"
        lines.append(line)
        for w in check.witnesses:
            lines.append(f"      witness: {w}")
    fileio.write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE


def _cmd_simulate(args) -> int:
    scenario = fileio.load_scenario(args.scenario, seed=args.seed)
    if args.recompute_weights:
        scenario = replace(scenario, recompute_weights=True)
    if args.force_recluster:
        scenario = replace(scenario, force_recluster=True)
    result = run_simulation(scenario)
    fileio.write_text(fileio.to_json(fileio.simulation_report(result)), args.out)
    events_path = args.events
    if events_path is None and args.out is not None:
        events_path = args.out + ".events.ndjson"
    if events_path is not None:
        fileio.write_text(fileio.events_ndjson(result.events), events_path)
    return EXIT_OK


_COMMANDS = {
    "cluster": _cmd_cluster,
    "metrics": _cmd_metrics,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, FixtureFormatError, InvalidArgumentError, SizeLimitError,
            ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DisconnectedGraphError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        for i, comp in enumerate(exc.components, 1):
            print(f"  component {i}: {comp}", file=sys.stderr)
        return EXIT_DISCONNECTED


if __name__ == "__main__":
    sys.exit(main())
