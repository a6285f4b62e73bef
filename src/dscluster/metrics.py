"""Per-node weight parameters and the combined node weight.

A node's weight is a linear combination of six parameters: degree, the
combined closeness index (average of the hop- and Euclidean-closeness
indices), the reciprocals of eccentricity / mean hop distance / mean
Euclidean distance, and the neighbour-strength value.  Fixture-supplied
override columns take precedence over recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError, UnreachableNodeError
from .graph import UNREACHABLE, DistanceTables, FixtureOverrides, NetworkGraph

DEFAULT_ALPHAS = (1 / 6,) * 6
DEFAULT_NS_THRESHOLD = 100.0


@dataclass(frozen=True)
class WeightConfig:
    """Weighing factors for the six parameters plus the NS threshold K."""

    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    ns_threshold: float = DEFAULT_NS_THRESHOLD

    def __post_init__(self):
        if len(self.alphas) != 6:
            raise InvalidArgumentError(f"exactly 6 weighing factors required, got {len(self.alphas)}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))


@dataclass(frozen=True)
class NodeMetrics:
    """All weight parameters for one node.

    ``m1``/``m2``/``m3`` are None when the neighbour categorisation was
    bypassed (fixture mode with an NS override and no range).  ``weight``
    is None only for single-node networks, where the reciprocal terms are
    undefined.
    """

    node: int
    deg: int
    g_h: float
    g_ed: float
    cci: float
    ecc: int
    mhd: float
    med: float
    m1: int | None
    m2: int | None
    m3: int | None
    ns: float
    weight: float | None


class NetworkMetrics:
    """Computed metrics for every node, with fast weight/NS lookups."""

    def __init__(self, records: list[NodeMetrics], config: WeightConfig):
        self.records = records
        self.config = config
        self.weights = np.array(
            [np.nan if r.weight is None else r.weight for r in records], dtype=float
        )
        self.ns_values = np.array([r.ns for r in records], dtype=float)

    def __getitem__(self, node: int) -> NodeMetrics:
        return self.records[node]

    def __len__(self) -> int:
        return len(self.records)

    def weight(self, node: int) -> float:
        return float(self.weights[node])

    def ns(self, node: int) -> float:
        return float(self.ns_values[node])

    def rank(self, node: int) -> tuple[float, float, int]:
        """The paper's election order, used by every election: higher
        weight first, then higher NS, then the lower node id."""
        return self.weight(node), self.ns(node), -node


def _check_distinct(u: int, v: int) -> None:
    if u == v:
        raise InvalidArgumentError(f"nodes must be distinct, got u == v == {u}")


def closer_hop_cardinalities(u: int, v: int, hop: np.ndarray) -> tuple[int, int]:
    """(c_h(u|v), c_h(v|u)): how many nodes are strictly closer in hops to
    u than to v, and vice versa.  Every node counts, including u and v;
    ties belong to neither side."""
    _check_distinct(u, v)
    row_u, row_v = hop[u], hop[v]
    return int(np.sum(row_u < row_v)), int(np.sum(row_v < row_u))


def closer_euclidean_cardinalities(u: int, v: int, euclid: np.ndarray) -> tuple[int, int]:
    """Euclidean analogue of closer_hop_cardinalities."""
    _check_distinct(u, v)
    row_u, row_v = euclid[u], euclid[v]
    return int(np.sum(row_u < row_v)), int(np.sum(row_v < row_u))


def _closeness_index(u: int, table: np.ndarray) -> int:
    # g(u) = sum over v != u of [c(u|v) - c(v|u)], vectorised over v.
    closer = np.sum(table[u][None, :] < table, axis=1)
    farther = np.sum(table[u][None, :] > table, axis=1)
    return int(np.sum(closer - farther))


def hop_closeness_index(u: int, hop: np.ndarray) -> int:
    """Sum of pairwise closer-hop count differences against every other node."""
    if np.any(hop == UNREACHABLE):
        raise UnreachableNodeError("hop-closeness index requires a connected graph")
    return _closeness_index(u, hop)


def euclidean_closeness_index(u: int, euclid: np.ndarray) -> int:
    """Sum of pairwise closer-euclidean count differences against every other node."""
    return _closeness_index(u, euclid)


def combined_closeness_index(g_h: float, g_ed: float) -> float:
    """Average of the hop- and Euclidean-closeness indices."""
    return (g_h + g_ed) / 2.0


def neighbor_categories(u: int, euclid: np.ndarray, range_: float) -> tuple[int, int, int]:
    """Counts of strong / medium / weak neighbours of u by distance band.

    Strong: ed in [0, r/2]; medium: ed in (r/2, 3r/4]; weak: ed in (3r/4, r].
    The bands are half-open so they partition the neighbourhood exactly.
    """
    if range_ is None or range_ <= 0:
        raise ConfigurationError("neighbour categorisation requires a positive range")
    row = np.delete(euclid[u], u)
    m1 = int(np.sum(row <= range_ / 2))
    m2 = int(np.sum((row > range_ / 2) & (row <= 3 * range_ / 4)))
    m3 = int(np.sum((row > 3 * range_ / 4) & (row <= range_)))
    return m1, m2, m3


def neighbor_strength(m1: int, m2: int, m3: int, k: float) -> float:
    """NS value: (m1 + m2/2 + m3/4) * K."""
    if min(m1, m2, m3) < 0:
        raise InvalidArgumentError("neighbour counts must be non-negative")
    return (m1 + m2 / 2 + m3 / 4) * k


def path_statistics(u: int, hop: np.ndarray, euclid: np.ndarray) -> tuple[int, float, float]:
    """(eccentricity, mean hop distance, mean Euclidean distance) of u.

    Means divide by n - 1.  Any unreachable counterpart raises rather than
    silently skewing the statistics; a single-node network yields zeros.
    """
    row = hop[u]
    unreachable = np.flatnonzero(row == UNREACHABLE)
    if unreachable.size:
        raise UnreachableNodeError(
            f"node {u} cannot reach nodes {[int(w) for w in unreachable[:5]]}"
        )
    n = row.shape[0]
    if n == 1:
        return 0, 0.0, 0.0
    ecc = int(row.max())
    mhd = float(row.sum()) / (n - 1)
    med = float(euclid[u].sum()) / (n - 1)
    return ecc, mhd, med


def combine_weight(
    deg: float,
    cci: float,
    inv_ecc: float,
    inv_mhd: float,
    inv_med: float,
    ns: float,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
) -> float:
    """Linear combination of the six weight parameters."""
    a1, a2, a3, a4, a5, a6 = alphas
    return a1 * deg + a2 * cci + a3 * inv_ecc + a4 * inv_mhd + a5 * inv_med + a6 * ns


def node_weight(record: NodeMetrics, config: WeightConfig) -> float:
    """Weight of a node from its metric record.

    Raises ZeroDivisionError when ecc, MHD or MED is zero (possible only
    in a single-node network, where the weight is undefined).
    """
    return _weight(record.node, record.deg, record.cci, record.ecc, record.mhd,
                   record.med, record.ns, config)


def _weight(node, deg, cci, ecc, mhd, med, ns, config: WeightConfig) -> float:
    if ecc == 0 or mhd == 0.0 or med == 0.0:
        raise ZeroDivisionError(
            f"node {node}: reciprocal parameters undefined (ecc/MHD/MED is zero)"
        )
    return combine_weight(deg, cci, 1.0 / ecc, 1.0 / mhd, 1.0 / med, ns, config.alphas)


def compute_network_metrics(
    graph: NetworkGraph,
    tables: DistanceTables,
    config: WeightConfig | None = None,
    overrides: FixtureOverrides | None = None,
) -> NetworkMetrics:
    """Metric records for every node, honouring fixture overrides.

    Override columns (NS, g_h, g_ed, W) replace the recomputed values.
    Without an NS override the graph must carry a transmission range so
    neighbours can be categorised by distance band.
    """
    config = config or WeightConfig()
    overrides = overrides or FixtureOverrides()
    n = graph.node_count
    overrides.validate(n)

    hop, euclid = tables.hop, tables.euclid
    records = []
    for u in range(n):
        deg = graph.degree(u)
        ecc, mhd, med = path_statistics(u, hop, euclid)

        g_h = float(overrides.g_h[u]) if overrides.g_h is not None else float(
            hop_closeness_index(u, hop)
        )
        g_ed = float(overrides.g_ed[u]) if overrides.g_ed is not None else float(
            euclidean_closeness_index(u, euclid)
        )
        cci = combined_closeness_index(g_h, g_ed)

        if overrides.ns is not None:
            m1 = m2 = m3 = None
            ns = float(overrides.ns[u])
        else:
            if graph.range_ is None:
                raise ConfigurationError(
                    "no transmission range and no NS override: cannot categorise neighbours"
                )
            m1, m2, m3 = neighbor_categories(u, euclid, graph.range_)
            ns = neighbor_strength(m1, m2, m3, config.ns_threshold)

        if overrides.w is not None:
            weight = float(overrides.w[u])
        elif n == 1:
            weight = None  # undefined; a lone node is its own master anyway
        else:
            weight = _weight(u, deg, cci, ecc, mhd, med, ns, config)
        records.append(NodeMetrics(
            node=u, deg=deg, g_h=g_h, g_ed=g_ed, cci=cci,
            ecc=ecc, mhd=mhd, med=med, m1=m1, m2=m2, m3=m3, ns=ns, weight=weight,
        ))
    return NetworkMetrics(records, config)
