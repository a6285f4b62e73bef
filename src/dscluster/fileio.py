"""Fixture/scenario parsing and report emission.

Documents are plain JSON with fixed field names and stable key order so
emitted reports are byte-comparable across runs.  The package bundles
``paper23.json``, a 23-node reference topology with published distance
matrices and per-node score columns, used as the canonical worked example.

``to_json`` writes the bytes of ``json.dumps(doc, indent=2)`` without its
pure-Python indenting encoder.  ``write_text`` rewrites a file in place
instead of truncating it first: on a file system mounted with online
discard, a truncated file's blocks are discarded, then allocated and
flushed again, which made writing a small report take six to ten times as
long.
"""
from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .engine import STATUSES, ClusterState, classification
from .errors import FixtureFormatError, InvalidArgumentError, SchemaError
from .graph import FixtureOverrides, NetworkGraph, graph_from_edges
from .metrics import DEFAULT_ALPHAS, DEFAULT_NS_THRESHOLD, NetworkMetrics, WeightConfig
from .mobility import Scenario, SimulationResult

#: (fixture key, FixtureOverrides field) of the per-node override columns.
_OVERRIDE_COLUMNS = (
    ("ns_override", "ns"), ("gh_override", "g_h"), ("ged_override", "g_ed"),
    ("weight_override", "w"),
)


#: (document key, Scenario field, type) of every scenario field, in the
#: order reports write them; the first four are required, and ``tuple``
#: marks the list of weighing factors.
_SCENARIO_FIELDS = (
    ("node_count", "node_count", int), ("terrain_size", "terrain_size", float),
    ("range", "range_", float), ("v_max", "v_max", float),
    ("broadcast_interval", "broadcast_interval", float), ("dt", "dt", float),
    ("steps", "steps", int), ("ns_threshold", "ns_threshold", float),
    ("alphas", "alphas", tuple), ("seed", "seed", int),
)
_REQUIRED_SCENARIO_FIELDS = 4


@dataclass(frozen=True)
class FixtureBundle:
    graph: NetworkGraph
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
    """Parse and check a fixture document (path or dict): its graph, which
    carries the fixture's Euclidean matrix as given, the override columns
    and the weight configuration."""
    doc = _load_doc(source)
    where = "fixture"
    n = _require(doc, "nodes", int, where)
    if n < 1:
        raise SchemaError(f"{where}: field 'nodes' must be at least 1, got {n}")
    edges = _require(doc, "edges", list, where)
    euclid = _require(doc, "euclid", list, where)
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) for v in edge)):
            raise SchemaError(f"{where}: every edge must be a pair of node numbers")
    adj = graph_from_edges(n, edges).adj  # the size bound, before any n x n work
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
    table = np.array(euclid, dtype=float)
    if not np.array_equal(table, table.T):
        bad = np.argwhere(table != table.T)[0]
        raise FixtureFormatError(f"euclid matrix is asymmetric at ({bad[0]}, {bad[1]})")
    if table.diagonal().any():
        raise FixtureFormatError("euclid matrix must have a zero diagonal")
    if (table < 0.0).any():
        raise FixtureFormatError("euclid matrix has negative entries")
    overrides.validate(n)
    return FixtureBundle(NetworkGraph(adj=adj, euclid=table), overrides, config)


def load_scenario(source, seed: int | None = None) -> Scenario:
    """Parse a scenario document; ``seed`` overrides the document's seed."""
    doc = _load_doc(source)
    where = "scenario"
    kwargs = {}
    for i, (key, attr, kind) in enumerate(_SCENARIO_FIELDS):
        if i >= _REQUIRED_SCENARIO_FIELDS and key not in doc:
            continue  # the field keeps its default
        if kind is tuple:
            kwargs[attr] = tuple(_numbers(doc[key], f"{where}: '{key}'"))
        else:
            kwargs[attr] = _require(doc, key, kind, where)
    if seed is not None:
        kwargs["seed"] = seed
    return Scenario(**kwargs)


def _cluster_dicts(state: ClusterState) -> list[dict]:
    listed, bounds = state.nodes.tolist(), state.bounds().tolist()
    return [
        {"id": cid, "master": m, "proxy": None if p < 0 else p,
         "members": listed[bounds[i]:bounds[i + 1]]}
        for i, (cid, m, p) in enumerate(zip(state.ids.tolist(), state.masters.tolist(),
                                            state.proxies.tolist()))
    ]


def _status_dict(state: ClusterState) -> dict[str, str]:
    return {str(v): STATUSES[code] for v, code in enumerate(state.statuses().tolist())}


def cluster_report(formation: ClusterState, final: ClusterState) -> dict:
    """The cluster report document: final clusters and statuses plus the
    formation-phase bookkeeping, the classification and the full event
    trail."""
    return {
        "clusters": _cluster_dicts(final),
        "statuses": _status_dict(final),
        "critical": np.flatnonzero(formation.critical).tolist(),
        "hm1": np.flatnonzero(formation.hm1).tolist(),
        "hm2": np.flatnonzero(formation.hm2).tolist(),
        "deferred": np.flatnonzero(formation.deferred).tolist(),
        "classification": classification(formation),
        "events": list(final.events),
    }


def state_from_report(report: dict) -> ClusterState:
    """Rebuild a verifiable state from a cluster report document.  Its
    ``statuses`` give the node count and its ``critical`` list is checked
    like ``hm1``; the rebuilt state leaves no node critical."""
    where = "report"
    clusters_doc = _require(report, "clusters", list, where)
    statuses = _require(report, "statuses", dict, where)
    node_count = len(statuses)
    if (statuses.keys() != set(map(str, range(node_count)))
            or not all(map(STATUSES.__contains__, statuses.values()))):
        raise SchemaError(f"{where}: 'statuses' must map each node 0..{node_count - 1} "
                          f"to one of {', '.join(STATUSES)}")

    def nodes(values, label: str, distinct: bool = True) -> list[int]:
        if not isinstance(values, list) or not all(
            type(v) is int and 0 <= v < node_count for v in values
        ):
            raise SchemaError(f"{where}: {label} must list nodes in 0..{node_count - 1}")
        if distinct and len(set(values)) < len(values):
            repeated = next(v for i, v in enumerate(values) if v in values[:i])
            raise SchemaError(f"{where}: node {repeated} is repeated in {label}")
        return values

    def column(key: str) -> np.ndarray:
        marked = np.zeros(node_count, dtype=bool)
        marked[nodes(report.get(key, []), f"'{key}'")] = True
        return marked

    ids, masters, proxies, groups, seen = [], [], [], [], set()
    for c in clusters_doc:
        if not isinstance(c, dict):
            raise SchemaError(f"{where}: every cluster must be an object")
        cid = _require(c, "id", int, where)
        if cid in seen:
            raise SchemaError(f"{where}: cluster id {cid} is repeated")
        if not -(1 << 63) <= cid < 1 << 63:
            raise SchemaError(f"{where}: cluster id {cid} is beyond the 64-bit range")
        seen.add(cid)
        proxy = c.get("proxy")
        # a proxy that is its own master fails double-star; it is no schema error
        nodes([c.get("master")] + ([] if proxy is None else [proxy]), f"cluster {cid} leaders",
              distinct=False)
        ids.append(cid)
        masters.append(c["master"])
        proxies.append(-1 if proxy is None else proxy)
        groups.append(sorted(nodes(c.get("members"), f"cluster {cid} members")))
    column("critical")  # checked only: nothing in a report awaits treatment
    return ClusterState(
        node_count=node_count, ids=np.array(ids, dtype=np.int64),
        masters=np.array(masters, dtype=np.intp), proxies=np.array(proxies, dtype=np.intp),
        nodes=np.array([v for group in groups for v in group], dtype=np.intp),
        cluster=np.repeat(np.arange(len(groups)), [len(group) for group in groups]),
        critical=np.zeros(node_count, dtype=bool),
        hm1=column("hm1"), hm2=column("hm2"), deferred=column("deferred"),
    )


def metrics_records(metrics: NetworkMetrics) -> list[dict]:
    """One record per node with the fixed metric field names, as plain JSON
    values: m1/m2/m3 are null under an NS override, w where the weight is
    undefined."""
    bands = [[None] * 3] * len(metrics.weights) if metrics.bands is None else metrics.bands.tolist()
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
    scenario = result.scenario
    scenario_doc = {key: getattr(scenario, attr) for key, attr, _ in _SCENARIO_FIELDS}
    formation = cluster_report(result.formation_state, result.adjusted_state)
    return {
        "scenario": scenario_doc | {"alphas": list(scenario.alphas)},
        "classification": formation["classification"],
        "formation": formation,
        "final_clusters": _cluster_dicts(result.final_state),
        "final_statuses": _status_dict(result.final_state),
        "maintenance_events": result.events,
        "summaries": result.summaries,
    }


def events_ndjson(events: list[dict]) -> str:
    """Newline-delimited JSON records, one maintenance event per line."""
    return "".join(json.dumps(e) + "\n" for e in events)


#: Graphviz node attributes, one per entry of ``STATUSES``.
_STATUS_ATTRS = (
    '[shape=doublecircle, style=bold]',
    '[shape=box, style=bold]',
    '[style=filled, fillcolor=lightgray]',
    '[style=dotted]',
)


def dot_graph(state: ClusterState, graph: NetworkGraph) -> str:
    """Graphviz document: one subgraph per cluster, node shapes by role
    (masters as double circles, proxies as boxes, members shaded)."""
    codes = state.statuses().tolist()
    listed, bounds = state.nodes.tolist(), state.bounds().tolist()
    lines = ["graph clusters {", "  node [shape=circle];"]
    for i, cid in enumerate(state.ids.tolist()):
        lines.append(f"  subgraph cluster_{cid} {{")
        lines.append(f'    label="C{cid}";')
        lines += [f"    {v} {_STATUS_ATTRS[codes[v]]};" for v in listed[bounds[i]:bounds[i + 1]]]
        lines.append("  }")
    placed = set(listed)
    lines += [f"  {v} {_STATUS_ATTRS[code]};" for v, code in enumerate(codes) if v not in placed]
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


#: The types of a list of plain ints, which ``to_json`` joins in one call.
_PLAIN_INT = {int}


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at ``indent``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == _PLAIN_INT:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_quote(key)}: {_json_text(v, inner)}")
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(doc) -> str:
    """Stable, human-readable JSON: exactly what ``json.dumps(doc, indent=2)``
    writes, plus a trailing newline.  Only str keys are accepted."""
    return _json_text(doc, "") + "\n"


def write_text(text: str, path: str | None) -> None:
    """Write to a file, or stdout when no path is given.

    A file is written over in place, then cut to the written length (see
    the module docstring).  Only a regular file is cut: a device such as
    ``/dev/null`` or a FIFO has no length to set.
    """
    if path is None:
        print(text, end="")
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="locale") as out:  # as Path.write_text encodes
            out.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                out.truncate()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc
