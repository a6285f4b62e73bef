"""Weight parameters of every node and the combined node weight.

A node's weight is a linear combination of six parameters: degree, the
combined closeness index (average of the hop- and Euclidean-closeness
indices), the reciprocals of eccentricity / mean hop distance / mean
Euclidean distance, and the neighbour-strength value.  Each is computed
once for the whole network as an array column indexed by node
(``closeness_indices``, ``path_columns``, ``neighbor_bands``), and
``NetworkMetrics`` holds the columns.  The closeness kernel counts, per
column of the table, how many entries lie below and level with each entry:
by histogram for an integer table of at most n + 1 levels, by sort
otherwise, a fixed number of table entries at a time, so its temporaries
stay within a fixed size whatever n is.  The per-node functions
(``hop_closeness_index``, ``path_statistics``, ...) are row views of the
same kernels.  Fixture-supplied override columns take precedence over
recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError, UnreachableNodeError
from .graph import UNREACHABLE, DistanceTables, FixtureOverrides, NetworkGraph

DEFAULT_ALPHAS = (1 / 6,) * 6
DEFAULT_NS_THRESHOLD = 100.0
#: Table entries the closeness kernel counts at once.
_CLOSENESS_BLOCK = 1 << 15


@dataclass(frozen=True)
class WeightConfig:
    """Weighing factors for the six parameters plus the NS threshold K."""

    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    ns_threshold: float = DEFAULT_NS_THRESHOLD

    def __post_init__(self):
        if len(self.alphas) != 6:
            raise InvalidArgumentError(f"exactly 6 weighing factors required, got {len(self.alphas)}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))


@dataclass(frozen=True, eq=False)
class NetworkMetrics:
    """Weight parameters of every node, one array column per parameter.

    ``bands`` is the n x 3 array of strong/medium/weak neighbour counts
    (m1, m2, m3), or None when the categorisation was bypassed (fixture
    mode with an NS override).  ``weights`` is NaN where the weight is
    undefined: a single-node network without a weight override.
    """

    deg: np.ndarray
    g_h: np.ndarray
    g_ed: np.ndarray
    cci: np.ndarray
    ecc: np.ndarray
    mhd: np.ndarray
    med: np.ndarray
    bands: np.ndarray | None
    ns_values: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)

    def weight(self, node: int) -> float:
        return float(self.weights[node])

    def ns(self, node: int) -> float:
        return float(self.ns_values[node])

    def rank(self, node: int) -> tuple[float, float, int]:
        """The paper's election order, used by every election: higher
        weight first, then higher NS, then the lower node id."""
        return self.weight(node), self.ns(node), -node


def closer_hop_cardinalities(u: int, v: int, table: np.ndarray) -> tuple[int, int]:
    """(c(u|v), c(v|u)): how many nodes are strictly closer to u than to v
    in a hop (or Euclidean) table, and vice versa.  Every node counts,
    including u and v; ties belong to neither side."""
    if u == v:
        raise InvalidArgumentError(f"nodes must be distinct, got u == v == {u}")
    return int(np.sum(table[u] < table[v])), int(np.sum(table[v] < table[u]))


#: The same count over the Euclidean table.
closer_euclidean_cardinalities = closer_hop_cardinalities


def _reachable(hop: np.ndarray) -> np.ndarray:
    """``hop`` itself once no pair in it is UNREACHABLE."""
    pairs = np.argwhere(hop == UNREACHABLE)
    if pairs.size:
        u = pairs[0, 0]
        raise UnreachableNodeError(
            f"node {u} cannot reach nodes {pairs[pairs[:, 0] == u, 1][:5].tolist()}"
        )
    return hop


def closeness_indices(table: np.ndarray) -> np.ndarray:
    """Closeness index g(u) of every node u, as exact integers.

    g(u) sums c(u|v) - c(v|u) over every node v, where c(u|v) counts the
    nodes w with t[u, w] < t[v, w].  Grouped by w instead, g(u) sums
    #{v: t[v, w] > t[u, w]} - #{v: t[v, w] < t[u, w]}, which is
    n - (2 * less + equal) with less and equal counted in column w.

    Columns are counted in blocks of ``_CLOSENESS_BLOCK // n`` at once, so
    no temporary grows beyond a fixed number of table entries:

    - an integer table whose values, less their minimum, take at most
      n + 1 levels (every hop table, UNREACHABLE included) is counted by
      a histogram per column: the running sum of the counts up to a value
      gives less + equal, and 2 * less + equal is gathered per entry;
    - any other table is sorted column by column; an entry's tie group
      in its sorted column starts at index less and ends before index
      less + equal, both read off the sorted order by running maximum
      and minimum, and the count is scattered back to the entry's node.
    """
    table = np.asarray(table)
    n = table.shape[0]
    width = max(1, _CLOSENESS_BLOCK // n)
    histogram = False
    if np.issubdtype(table.dtype, np.integer):
        low = int(table.min())
        levels = int(table.max()) - low + 1
        histogram = levels <= n + 1
    g = np.zeros(n, dtype=np.int64)
    index = np.arange(n)
    for start in range(0, n, width):
        block = table[:, start:start + width]
        columns = block.shape[1]
        if histogram:
            keys = np.subtract(block, low, dtype=np.int64)
            keys += np.arange(columns) * levels
            counts = np.bincount(keys.ravel(), minlength=columns * levels)
            below = counts.reshape(columns, levels).cumsum(axis=1).ravel()
            g += columns * n - (below + below - counts)[keys].sum(axis=1)
        else:
            order = np.argsort(block.T, axis=1)
            ordered = np.take_along_axis(block.T, order, axis=1)
            # bound[:, k]: a tie group ends before sorted index k and another starts at k
            bound = np.ones((columns, n + 1), dtype=bool)
            np.not_equal(ordered[:, 1:], ordered[:, :-1], out=bound[:, 1:-1])
            first = np.where(bound[:, :-1], index, 0)
            np.maximum.accumulate(first, axis=1, out=first)
            last = np.where(bound[:, :0:-1], index[::-1] + 1, n)
            np.minimum.accumulate(last, axis=1, out=last)
            first += last[:, ::-1]
            counted = np.empty_like(order)
            np.put_along_axis(counted, order, np.subtract(n, first, out=first), axis=1)
            g += counted.sum(axis=0)
    return g


def hop_closeness_index(u: int, hop: np.ndarray) -> int:
    """Sum of pairwise closer-hop count differences against every other node."""
    return int(closeness_indices(_reachable(hop))[u])


def euclidean_closeness_index(u: int, euclid: np.ndarray) -> int:
    """Sum of pairwise closer-euclidean count differences against every other node."""
    return int(closeness_indices(euclid)[u])


def combined_closeness_index(g_h, g_ed):
    """Average of the hop- and Euclidean-closeness indices."""
    return (g_h + g_ed) / 2.0


def neighbor_bands(euclid: np.ndarray, range_: float) -> np.ndarray:
    """Counts (m1, m2, m3) of strong / medium / weak neighbours of every
    node by distance band, as an n x 3 array.

    Strong: ed in [0, r/2]; medium: ed in (r/2, 3r/4]; weak: ed in (3r/4, r].
    The bands are half-open so they partition the neighbourhood exactly.
    A node is not its own neighbour: its zero diagonal entry is left out.
    """
    if range_ is None or range_ <= 0:
        raise ConfigurationError("neighbour categorisation requires a positive range")
    bounds = (range_ / 2, 3 * range_ / 4, range_)
    within = np.stack([(euclid <= bound).sum(axis=1) for bound in bounds], axis=1)
    bands = np.diff(within, axis=1, prepend=0)
    bands[:, 0] -= 1
    return bands


def neighbor_categories(u: int, euclid: np.ndarray, range_: float) -> tuple[int, int, int]:
    """(m1, m2, m3) of node u; see neighbor_bands."""
    return tuple(neighbor_bands(euclid, range_)[u].tolist())


def neighbor_strength(m1, m2, m3, k: float):
    """NS value: (m1 + m2/2 + m3/4) * K, for one node or a column of nodes."""
    if np.min((m1, m2, m3)) < 0:
        raise InvalidArgumentError("neighbour counts must be non-negative")
    return (m1 + m2 / 2 + m3 / 4) * k


def path_columns(hop: np.ndarray, euclid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eccentricity, mean hop distance, mean Euclidean distance) of every node.

    Means divide by n - 1.  Any unreachable pair raises rather than
    silently skewing the statistics; a single-node network yields zeros.
    """
    _reachable(hop)
    others = max(hop.shape[0] - 1, 1)
    return hop.max(axis=1), hop.sum(axis=1) / others, euclid.sum(axis=1) / others


def path_statistics(u: int, hop: np.ndarray, euclid: np.ndarray) -> tuple[int, float, float]:
    """(eccentricity, mean hop distance, mean Euclidean distance) of u; see path_columns."""
    return tuple(column[u].item() for column in path_columns(hop, euclid))


def combine_weight(deg, cci, inv_ecc, inv_mhd, inv_med, ns, alphas=DEFAULT_ALPHAS):
    """Linear combination of the six weight parameters, for one node or a
    column of nodes."""
    a1, a2, a3, a4, a5, a6 = alphas
    return a1 * deg + a2 * cci + a3 * inv_ecc + a4 * inv_mhd + a5 * inv_med + a6 * ns


def compute_network_metrics(
    graph: NetworkGraph,
    tables: DistanceTables,
    config: WeightConfig | None = None,
    overrides: FixtureOverrides | None = None,
) -> NetworkMetrics:
    """Metric columns for the whole network, honouring fixture overrides.

    Override columns (NS, g_h, g_ed, W) replace the recomputed values.
    Without an NS override the graph must carry a transmission range so
    neighbours can be categorised by distance band.
    """
    config = config or WeightConfig()
    overrides = overrides or FixtureOverrides()
    n = graph.node_count
    overrides.validate(n)

    hop, euclid = tables.hop, tables.euclid
    ecc, mhd, med = path_columns(hop, euclid)
    g_h, g_ed = (
        closeness_indices(table).astype(float) if given is None else np.asarray(given, dtype=float)
        for given, table in ((overrides.g_h, hop), (overrides.g_ed, euclid))
    )
    cci = combined_closeness_index(g_h, g_ed)

    bands = None
    if overrides.ns is not None:
        ns = np.asarray(overrides.ns, dtype=float)
    elif graph.range_ is None:
        raise ConfigurationError(
            "no transmission range and no NS override: cannot categorise neighbours"
        )
    else:
        bands = neighbor_bands(euclid, graph.range_)
        ns = neighbor_strength(*bands.T, config.ns_threshold)

    deg = graph.adj.sum(axis=1)
    if overrides.w is not None:
        weights = np.asarray(overrides.w, dtype=float)
    elif n == 1:
        weights = np.full(1, np.nan)  # undefined; a lone node is its own master anyway
    else:
        zero = np.flatnonzero((ecc == 0) | (mhd == 0.0) | (med == 0.0))
        if zero.size:
            raise InvalidArgumentError(
                f"node {zero[0]}: weight undefined, its eccentricity, MHD or MED is zero"
            )
        weights = combine_weight(deg, cci, 1.0 / ecc, 1.0 / mhd, 1.0 / med, ns, config.alphas)
    return NetworkMetrics(deg, g_h, g_ed, cci, ecc, mhd, med, bands, ns, weights)
