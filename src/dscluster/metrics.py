"""Weight parameters of every node and the combined node weight.

A node's weight is a linear combination of six parameters: degree, the
combined closeness index (average of the hop- and Euclidean-closeness
indices), the reciprocals of eccentricity / mean hop distance / mean
Euclidean distance, and the neighbour-strength value.  Each is computed
once for the whole network, from the hop table passed in and the graph's
own Euclidean table, as an array column indexed by node
(``closeness_indices``, ``path_columns``, ``neighbor_bands``);
``NetworkMetrics`` holds the columns, and derives from the weight and NS
columns the election order that every election reads,
``NetworkMetrics.rank``.

The closeness kernel counts, per column of the table, how many entries lie
below and level with each entry: by histogram for an integer table of at
most n + 1 levels, otherwise by sort.  In a sorted column, position k
counts n - 1 - 2k, and every member of a tie group [a, b) counts n - a - b
instead; the counts go back to their nodes through one float64
``bincount`` per block of columns, exact because every partial sum is at
most n * n < 2**53 in size.  It works a fixed number of table entries at a
time, so its temporaries stay within a fixed size whatever n is, and the
sort count builds one block's position counts and tie mask once per call.

The per-node functions (``hop_closeness_index``, ``path_statistics``, ...)
are row views of the same kernels.  Fixture-supplied override columns take
precedence over recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError, UnreachableNodeError
from .graph import UNREACHABLE, FixtureOverrides, NetworkGraph

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

    ``order`` lists every node in the paper's election order, which every
    election reads: higher weight first, then higher NS, then the lower
    node id.  ``rank`` is each node's place in it.  Both are derived once,
    when the metrics are built.
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
    order: np.ndarray = field(init=False, repr=False)
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order = np.lexsort((np.arange(len(self.weights)), -self.ns_values, -self.weights))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rank", rank)

    def best(self, nodes: np.ndarray) -> int:
        """The top-ranked of the candidate ``nodes``, -1 when there are none."""
        return int(nodes[self.rank[nodes].argmin()]) if len(nodes) else -1


def _reachable(hop: np.ndarray) -> np.ndarray:
    """``hop`` itself once no pair in it is UNREACHABLE.  UNREACHABLE is the
    table's only negative entry, so its minimum tells; the pairs are listed
    only for the error message."""
    if hop.size and hop.min() == UNREACHABLE:
        pairs = np.argwhere(hop == UNREACHABLE)
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

    Columns are counted in blocks of ``_CLOSENESS_BLOCK // n`` at once (at
    least one, at most n), so no temporary grows beyond a fixed number of
    table entries:

    - an integer table whose values, less their minimum, take at most
      n + 1 levels (every hop table, UNREACHABLE included) is counted by
      a histogram per column: the running sum of the counts up to a value
      gives less + equal, and 2 * less + equal is gathered per entry;
    - any other table is sorted column by column, each column copied into
      a contiguous row first (the table need not be symmetric).  Without
      ties, the entry at sorted position k has less = k and equal = 1, so
      it counts n - 1 - 2k.  A tie group fills positions [a, b) and each
      member counts n - a - b, the mean of the counts of its two ends; the
      groups are found from the few positions whose sorted value equals
      the next one.  The position counts and the tie mask are built once
      per call, a block wide, and sliced per block; only a block with
      ties edits the counts, on a copy.  One weighted ``bincount`` over
      the sort order per block sends the counts back to their nodes; it
      sums in float64, which is exact here because |g(u)| <= n * n < 2**53.
    """
    table = np.asarray(table)
    n = table.shape[0]
    width = min(n, max(1, _CLOSENESS_BLOCK // n))
    histogram = False
    if np.issubdtype(table.dtype, np.integer):
        low = int(table.min())
        levels = int(table.max()) - low + 1
        histogram = levels <= n + 1
    g = np.zeros(n, dtype=np.int64)
    index = np.arange(n)
    if not histogram:
        # each sorted position's count, and the tie mask, for a full block
        positions = np.tile(n - 1 - 2 * index, width)
        same = np.zeros((width, n), dtype=bool)
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
            rows = np.ascontiguousarray(block.T)
            order = rows.argsort(axis=1)
            ordered = rows.take(order + index[:columns, None] * n)
            counted = positions[:columns * n]
            # tied: flat sorted positions equal to their right-hand neighbour
            np.equal(ordered[:, 1:], ordered[:, :-1], out=same[:columns, :-1])
            tied = np.flatnonzero(same[:columns])
            if tied.size:
                counted = counted.copy()
                starts = np.diff(tied, prepend=-2) != 1
                first = tied[starts]
                last = tied[np.diff(tied, append=-2) != 1] + 1
                # a group [a, b) counts n - a - b, the mean of its end positions' counts
                share = (counted[first] + counted[last]) // 2
                counted[tied] = share[np.cumsum(starts) - 1]
                counted[last] = share
            g += np.bincount(order.ravel(), weights=counted, minlength=n).astype(np.int64)
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
    with np.errstate(over="ignore"):  # compute_network_metrics refuses an infinite MED
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
    hop: np.ndarray,
    config: WeightConfig | None = None,
    overrides: FixtureOverrides | None = None,
) -> NetworkMetrics:
    """Metric columns for the whole network, honouring fixture overrides.

    Override columns (NS, g_h, g_ed, W) replace the recomputed values.
    The Euclidean parameters read the table the graph carries, and a
    graph without one is refused.  Without an NS override the graph must
    carry a transmission range so neighbours can be categorised by
    distance band.  An NS, MED or weight beyond the float range is
    refused, naming the first such node: each would skew the election.
    """
    config = config or WeightConfig()
    overrides = overrides or FixtureOverrides()
    n = graph.node_count
    overrides.validate(n)
    if graph.euclid is None:
        raise InvalidArgumentError(
            "graph has no Euclidean table: build it from positions or load a fixture")
    ecc, mhd, med = path_columns(hop, graph.euclid)
    g_h, g_ed = (
        closeness_indices(table).astype(float) if given is None else np.asarray(given, dtype=float)
        for given, table in ((overrides.g_h, hop), (overrides.g_ed, graph.euclid))
    )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by node
        cci = combined_closeness_index(g_h, g_ed)
        bands = None
        if overrides.ns is not None:
            ns = np.asarray(overrides.ns, dtype=float)
        elif graph.range_ is None:
            raise ConfigurationError(
                "no transmission range and no NS override: cannot categorise neighbours"
            )
        else:
            bands = neighbor_bands(graph.euclid, graph.range_)
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
    unbounded = np.flatnonzero(
        ~np.isfinite(ns) | ~np.isfinite(med) | (~np.isfinite(weights) & (n > 1)))
    if unbounded.size:
        raise InvalidArgumentError(
            f"node {unbounded[0]}: NS, MED or weight is not finite (overflows the float range)")
    return NetworkMetrics(deg, g_h, g_ed, cci, ecc, mhd, med, bands, ns, weights)
