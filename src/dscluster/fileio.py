"""Fixture/scenario parsing and report emission.

Documents are plain JSON with fixed field names and stable key order so
emitted reports are byte-comparable across runs.  The package bundles
``paper23.json``, a 23-node reference topology with published distance
matrices and per-node score columns, used as the canonical worked example.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import ClusterRecord, ClusterState, classification
from .errors import SchemaError
from .graph import DistanceTables, FixtureOverrides, NetworkGraph, ingest_fixture
from .metrics import DEFAULT_ALPHAS, DEFAULT_NS_THRESHOLD, NetworkMetrics, WeightConfig
from .mobility import MaintenanceEvent, Scenario, SimulationResult

BUNDLED_FIXTURE = "paper23.json"
#: (fixture key, FixtureOverrides field) of the per-node override columns.
_OVERRIDE_COLUMNS = (
    ("ns_override", "ns"), ("gh_override", "g_h"), ("ged_override", "g_ed"),
    ("weight_override", "w"),
)


@dataclass(frozen=True)
class FixtureBundle:
    graph: NetworkGraph
    tables: DistanceTables
    overrides: FixtureOverrides
    config: WeightConfig


def _is_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _numbers(values, label: str, length: int | None = None) -> list:
    """``values`` itself once it is a list of finite numbers (of ``length``
    entries when given); every float the engine orders must be finite."""
    if (not isinstance(values, list) or not all(map(_is_number, values))
            or length not in (None, len(values))):
        size = "" if length is None else f"{length} "
        raise SchemaError(f"{label} must be a list of {size}finite numbers")
    return values


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field '{key}'")
    value = doc[key]
    if kind is float:
        if not _is_number(value):
            raise SchemaError(f"{where}: field '{key}' must be a finite number")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, kind):  # bool subclasses int
        raise SchemaError(f"{where}: field '{key}' must be {kind.__name__}")
    return value


def _load_doc(source) -> dict:
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return doc


def load_fixture(source) -> FixtureBundle:
    """Parse a fixture document (path or dict) into graph, tables,
    overrides and weight configuration."""
    doc = _load_doc(source)
    where = "fixture"
    n = _require(doc, "nodes", int, where)
    edges = _require(doc, "edges", list, where)
    euclid = _require(doc, "euclid", list, where)
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) for v in edge)):
            raise SchemaError(f"{where}: every edge must be a pair of node numbers")
    if len(euclid) != n:
        raise SchemaError(f"{where}: 'nodes' is {n} but euclid has {len(euclid)} rows")
    for row in euclid:
        _numbers(row, f"{where}: every euclid row", n)
    overrides = FixtureOverrides(**{
        attr: _numbers(doc[key], f"{where}: '{key}'")
        for key, attr in _OVERRIDE_COLUMNS if doc.get(key) is not None
    })
    config = WeightConfig(
        alphas=tuple(_numbers(doc.get("alphas", list(DEFAULT_ALPHAS)), f"{where}: 'alphas'")),
        ns_threshold=_require(doc, "ns_threshold", float, where)
        if "ns_threshold" in doc else DEFAULT_NS_THRESHOLD,
    )
    graph, tables, overrides = ingest_fixture(edges, np.array(euclid, dtype=float), overrides)
    return FixtureBundle(graph=graph, tables=tables, overrides=overrides, config=config)


def load_bundled_fixture() -> FixtureBundle:
    """The 23-node reference fixture shipped with the package."""
    text = resources.files("dscluster.data").joinpath(BUNDLED_FIXTURE).read_text()
    return load_fixture(json.loads(text))


def load_scenario(source, seed: int | None = None) -> Scenario:
    """Parse a scenario document; ``seed`` overrides the document's seed."""
    doc = _load_doc(source)
    where = "scenario"
    kwargs = dict(
        node_count=_require(doc, "node_count", int, where),
        terrain_size=_require(doc, "terrain_size", float, where),
        range_=_require(doc, "range", float, where),
        v_max=_require(doc, "v_max", float, where),
    )
    for key, attr, kind in (
        ("broadcast_interval", "broadcast_interval", float),
        ("dt", "dt", float),
        ("steps", "steps", int),
        ("ns_threshold", "ns_threshold", float),
        ("seed", "seed", int),
    ):
        if key in doc:
            kwargs[attr] = _require(doc, key, kind, where)
    if "alphas" in doc:
        kwargs["alphas"] = tuple(_numbers(doc["alphas"], f"{where}: 'alphas'"))
    if seed is not None:
        kwargs["seed"] = seed
    return Scenario(**kwargs)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "node_count": scenario.node_count,
        "terrain_size": scenario.terrain_size,
        "range": scenario.range_,
        "v_max": scenario.v_max,
        "broadcast_interval": scenario.broadcast_interval,
        "dt": scenario.dt,
        "steps": scenario.steps,
        "ns_threshold": scenario.ns_threshold,
        "alphas": list(scenario.alphas),
        "seed": scenario.seed,
    }


def _cluster_dicts(state: ClusterState) -> list[dict]:
    return [
        {
            "id": c.id,
            "master": c.master,
            "proxy": c.proxy,
            "members": sorted(c.members),
        }
        for c in sorted(state.clusters, key=lambda c: c.id)
    ]


def cluster_report(formation: ClusterState, final: ClusterState) -> dict:
    """The cluster report document: final clusters and statuses plus the
    formation-phase bookkeeping, the classification and the full event
    trail."""
    statuses = final.statuses()
    return {
        "clusters": _cluster_dicts(final),
        "statuses": {str(v): statuses[v].value for v in range(final.node_count)},
        "critical": sorted(formation.critical),
        "hm1": sorted(formation.hidden_masters_1),
        "hm2": sorted(formation.hidden_masters_2),
        "deferred": sorted(formation.deferred),
        "classification": classification(formation),
        "events": list(final.events),
    }


def state_from_report(report: dict) -> ClusterState:
    """Rebuild a verifiable state from a cluster report document."""
    where = "report"
    clusters_doc = _require(report, "clusters", list, where)
    statuses = _require(report, "statuses", dict, where)
    node_count = len(statuses)

    def nodes(values, label: str) -> set[int]:
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and 0 <= v < node_count
            for v in values
        ):
            raise SchemaError(f"{where}: {label} must list nodes in 0..{node_count - 1}")
        return set(values)

    clusters = []
    for c in clusters_doc:
        if not isinstance(c, dict):
            raise SchemaError(f"{where}: every cluster must be an object")
        cid = _require(c, "id", int, where)
        proxy = c.get("proxy")
        nodes([c.get("master")] + ([] if proxy is None else [proxy]), f"cluster {cid} leaders")
        clusters.append(ClusterRecord(
            id=cid, master=c["master"], proxy=proxy,
            members=nodes(c.get("members"), f"cluster {cid} members"),
        ))
    return ClusterState(
        node_count=node_count,
        clusters=clusters,
        critical=set(),
        hidden_masters_1=nodes(report.get("hm1", []), "'hm1'"),
        hidden_masters_2=nodes(report.get("hm2", []), "'hm2'"),
        deferred=nodes(report.get("deferred", []), "'deferred'"),
    )


def metrics_records(metrics: NetworkMetrics) -> list[dict]:
    """One record per node with the fixed metric field names, as plain JSON
    values: m1/m2/m3 are null under an NS override, w where the weight is
    undefined."""
    bands = [[None] * 3] * len(metrics) if metrics.bands is None else metrics.bands.tolist()
    columns = zip(
        metrics.deg.tolist(), metrics.g_h.tolist(), metrics.g_ed.tolist(),
        metrics.cci.tolist(), metrics.ecc.tolist(), metrics.mhd.tolist(),
        metrics.med.tolist(), bands, metrics.ns_values.tolist(), metrics.weights.tolist(),
    )
    return [
        {
            "node": u, "deg": deg, "g_h": g_h, "g_ed": g_ed, "cci": cci,
            "ecc": ecc, "mhd": mhd, "med": med, "m1": m1, "m2": m2, "m3": m3,
            "ns": ns, "w": None if math.isnan(w) else w,
        }
        for u, (deg, g_h, g_ed, cci, ecc, mhd, med, (m1, m2, m3), ns, w) in enumerate(columns)
    ]


def simulation_report(result: SimulationResult) -> dict:
    final_statuses = result.final_state.statuses()
    formation = cluster_report(result.formation_state, result.adjusted_state)
    return {
        "scenario": scenario_to_dict(result.scenario),
        "classification": formation["classification"],
        "formation": formation,
        "final_clusters": _cluster_dicts(result.final_state),
        "final_statuses": {
            str(v): final_statuses[v].value for v in range(result.final_state.node_count)
        },
        "maintenance_events": [e.to_dict() for e in result.events],
        "summaries": result.summaries,
    }


def events_ndjson(events: list[MaintenanceEvent]) -> str:
    """Newline-delimited JSON records, one maintenance event per line."""
    return "".join(json.dumps(e.to_dict()) + "\n" for e in events)


_STATUS_ATTRS = {
    "master": '[shape=doublecircle, style=bold]',
    "proxy": '[shape=box, style=bold]',
    "slave": '[style=filled, fillcolor=lightgray]',
    "hm1": '[style="filled,dashed", fillcolor=lightgray]',
    "hm2": '[style=dashed]',
    "unclustered": '[style=dotted]',
}


def dot_graph(state: ClusterState, graph: NetworkGraph) -> str:
    """Graphviz document: one subgraph per cluster, node shapes by role
    (masters as double circles, proxies as boxes, members shaded)."""
    statuses = state.statuses()
    lines = ["graph clusters {", "  node [shape=circle];"]
    placed = set()
    for cluster in sorted(state.clusters, key=lambda c: c.id):
        lines.append(f"  subgraph cluster_{cluster.id} {{")
        lines.append(f'    label="C{cluster.id}";')
        for v in sorted(cluster.members):
            attrs = _STATUS_ATTRS[statuses[v].value]
            lines.append(f"    {v} {attrs};")
            placed.add(v)
        lines.append("  }")
    for v in range(state.node_count):
        if v not in placed:
            attrs = _STATUS_ATTRS[statuses[v].value]
            lines.append(f"  {v} {attrs};")
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(doc) -> str:
    """Stable, human-readable JSON with a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def write_text(text: str, path: str | None) -> None:
    """Write to a file, or stdout when no path is given."""
    if path is None:
        print(text, end="")
    else:
        Path(path).write_text(text)
