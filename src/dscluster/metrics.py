"""Weight parameters of every node and the combined node weight.

A node's weight is a linear combination of six parameters: degree, the
combined closeness index (average of the hop- and Euclidean-closeness
indices), the reciprocals of eccentricity / mean hop distance / mean
Euclidean distance, and the neighbour-strength value.  Each is computed
once for the whole network as an array column indexed by node;
``NetworkMetrics`` holds the columns, and derives from the weight and NS
columns the election order that every election reads,
``NetworkMetrics.rank``.

``compute_network_metrics`` refuses a disconnected graph before anything
else (``DisconnectedGraphError``, read off node 0's column of the hop
table), so its callers need no check of their own.

The hop parameters read the hop table passed in.  The Euclidean ones make
one pass over the graph's Euclidean rows (``NetworkGraph.euclidean_rows``),
which a position graph computes from its positions a block at a time, so
no whole table exists; each block feeds the Euclidean closeness count, the
MED row sums and the three distance-band counts.

The closeness kernel counts, per column of the table, how many entries lie
below and level with each entry: by histogram for an integer table of at
most n + 1 levels, otherwise by sort.  In a sorted column, position k
counts n - 1 - 2k, and every member of a tie group [a, b) counts n - a - b
instead; the counts go back to their nodes through one float64
``bincount`` per block of columns, exact because every partial sum is at
most n * n < 2**53 in size.  A float64 column (every Euclidean one) is
sorted as packed int64 keys, its entries' bit patterns with the low
max(n - 1, 1).bit_length() bits replaced by the node id, and the node of
each sorted key is read off its id bits; only a column whose sorted keys
share a truncated value (every exact tie among them) or start below zero
(a -0.0 or a negative entry), or a column of another dtype, is sorted by
``argsort`` with the tie rule.  It counts one block of columns at a time,
as high as a block of Euclidean rows (``graph.block_rows`` of 8-byte
entries), and the sort count builds one block's position counts, tie
mask and key buffers once per call.  A Euclidean table is symmetric, so
its rows serve the sort count as columns.

The whole-table functions (``closeness_indices``, ``path_columns``,
``neighbor_bands`` and their per-node views ``hop_closeness_index``,
``path_statistics``, ...) run the same kernels on a table passed in.
Fixture-supplied override columns take precedence over recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError, UnreachableNodeError
from .graph import UNREACHABLE, FixtureOverrides, NetworkGraph, block_rows, degrees, require_connected

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

    Columns are counted in blocks of ``block_rows(8 * n)`` at once, so no
    temporary grows beyond one block of 8-byte entries:

    - an integer table whose values, less their minimum, take at most
      n + 1 levels (every hop table, UNREACHABLE included) is counted by
      a histogram per column: the running sum of the counts up to a value
      gives less + equal, and 2 * less + equal is gathered per entry;
    - any other table is sorted column by column by ``_sort_count``, each
      block of columns copied into contiguous rows first (the table need
      not be symmetric).  A float64 column is sorted as packed
      (truncated value, node) int64 keys, which give its exact order when
      no two sorted neighbours share a truncated value and the smallest
      key is not negative; every other column (ties, -0.0, negative
      entries, integer tables of more than n + 1 levels) is counted by
      ``argsort`` and the tie rule.
    """
    table = np.asarray(table)
    n = table.shape[0]
    width = block_rows(8 * n)
    histogram = False
    if table.dtype.kind in "iu":
        low = int(table.min())
        levels = int(table.max()) - low + 1
        histogram = levels <= n + 1
    g = np.zeros(n, dtype=np.int64)
    if not histogram:
        buffers = _sort_buffers(n)
    for start in range(0, n, width):
        block = table[:, start:start + width]
        if histogram:
            columns = block.shape[1]
            keys = np.subtract(block, low, dtype=np.int64)
            keys += np.arange(columns) * levels
            counts = np.bincount(keys.ravel(), minlength=columns * levels)
            below = counts.reshape(columns, levels).cumsum(axis=1).ravel()
            g += columns * n - (below + below - counts)[keys].sum(axis=1)
        else:
            g += _sort_count(np.ascontiguousarray(block.T), *buffers)
    return g


def _sort_buffers(n: int) -> tuple:
    """The sort count's per-call buffers, ``block_rows(8 * n)`` rows wide
    (at most n): each flat sorted position's count, the tie mask, the packed
    keys and the node ids sorted with them, the ids themselves and the mask
    of the id bits, max(n - 1, 1).bit_length() of them."""
    width = min(n, block_rows(8 * n))
    positions = np.empty((width, n), dtype=np.int64)
    positions[:] = np.arange(n - 1, -n, -2)
    keys, order = np.empty((2, width, n), dtype=np.int64)
    low = (1 << max(n - 1, 1).bit_length()) - 1
    return positions.reshape(-1), np.zeros((width, n), dtype=bool), keys, order, np.arange(n), low


def _sort_count(rows, positions, same, keys, order, ids, low) -> np.ndarray:
    """Each node's share of g from the table columns held, one per row, in
    the contiguous array ``rows``; the buffers come from ``_sort_buffers``.

    A float64 row is sorted as packed int64 keys: each entry's bit pattern
    with its low id bits replaced by its column, the node id.  For floats
    with the sign bit clear the bit pattern sorts as the value does, so
    the keys sort by (truncated value, id), and the node of each sorted key
    is its id bits.  A row whose sorted neighbours never share a truncated
    value is in exact order and has no ties, so the entry at sorted
    position k has less = k and equal = 1 and counts n - 1 - 2k; one
    weighted ``bincount`` sends the counts back to their nodes.  It sums in
    float64, which is exact here because |g(u)| <= n * n < 2**53.  A row
    with a shared truncated value (every exact tie among them) or a
    negative smallest key (a -0.0 or a negative entry), and every row of
    another dtype, goes to ``_argsort_count``.
    """
    if rows.dtype != np.float64:
        return _argsort_count(rows, positions, same)
    columns = rows.shape[0]
    packed, ids_sorted = keys[:columns], order[:columns]
    np.bitwise_and(rows.view(np.int64), ~low, out=packed)
    packed |= ids
    packed.sort(axis=1)
    np.bitwise_and(packed, low, out=ids_sorted)
    packed ^= ids_sorted  # the truncated values, in sorted order
    np.equal(packed[:, 1:], packed[:, :-1], out=same[:columns, :-1])
    slow = same[:columns].any(axis=1)
    slow |= packed[:, 0] < 0
    if not slow.any():
        return np.bincount(ids_sorted.ravel(), weights=positions[:ids_sorted.size],
                           minlength=ids.size).astype(np.int64)
    fast = ids_sorted[~slow]
    g = np.bincount(fast.ravel(), weights=positions[:fast.size], minlength=ids.size)
    return g.astype(np.int64) + _argsort_count(rows[slow], positions, same)


def _argsort_count(rows: np.ndarray, positions: np.ndarray, same: np.ndarray) -> np.ndarray:
    """``_sort_count`` of the rows that its packed keys cannot count, by
    ``argsort``; it counts any row exactly and is the reference.

    Without ties, the entry at sorted position k counts n - 1 - 2k.  A tie
    group fills positions [a, b) and each member counts n - a - b, the mean
    of the counts of its two ends; the groups are found from the few
    positions whose sorted value equals the next one.  Only a block with
    ties edits the counts, on a copy.
    """
    columns, n = rows.shape
    order = rows.argsort(axis=1)
    ordered = rows.take(order + np.arange(0, columns * n, n)[:, None])
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
    return np.bincount(order.ravel(), weights=counted, minlength=n).astype(np.int64)


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
    within = np.empty((len(euclid), 3), dtype=np.intp)
    _count_within(euclid, _band_bounds(range_), within)
    return _bands(within)


def _band_bounds(range_: float) -> tuple[float, float, float]:
    if range_ is None or range_ <= 0:
        raise ConfigurationError("neighbour categorisation requires a positive range")
    return range_ / 2, 3 * range_ / 4, range_


def _count_within(rows: np.ndarray, bounds: tuple[float, float, float], out: np.ndarray) -> None:
    """Write into ``out`` how many entries of each row lie at or below each
    band bound, one column per bound."""
    for column, bound in zip(out.T, bounds):
        np.less_equal(rows, bound).sum(axis=1, out=column)


def _bands(within: np.ndarray) -> np.ndarray:
    """(m1, m2, m3) per row from ``_count_within``'s counts, in place: each
    band is its bound's count less the one below, and the diagonal entry
    leaves the strong band."""
    within[:, 1:] -= within[:, :-1]
    within[:, 0] -= 1
    return within


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
    with np.errstate(over="ignore"):  # compute_network_metrics refuses an infinite MED
        return _path_columns(_reachable(hop), euclid.sum(axis=1))


def _path_columns(hop: np.ndarray, euclid_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """path_columns of a hop table without an UNREACHABLE entry, given
    each Euclidean row's sum."""
    others = max(hop.shape[0] - 1, 1)
    return hop.max(axis=1), hop.sum(axis=1) / others, euclid_sums / others


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

    A disconnected graph is refused first, before any override or distance
    is read: ``require_connected`` reads node 0's column of ``hop`` and
    raises ``DisconnectedGraphError`` with the components.  Override
    columns (NS, g_h, g_ed, W) replace the recomputed values.
    The Euclidean parameters read the graph's Euclidean rows, computed
    from its positions or sliced from a fixture's (symmetric) matrix, and
    a graph with neither is refused.  The rows arrive as one stream of
    blocks as high as the sort count's buffers, and each feeds, in one
    pass, the Euclidean closeness sort count (a row of the symmetric table
    is also its column), the MED row sums and the three band counts.
    Without an NS override the graph must carry a transmission range so
    neighbours can be categorised by distance band.  An NS, MED or weight
    beyond the float range is refused, naming the first such node: each
    would skew the election.
    """
    require_connected(graph, hop)
    config = config or WeightConfig()
    overrides = overrides or FixtureOverrides()
    n = graph.node_count
    overrides.validate(n)
    if graph.euclid is None and graph.positions is None:
        raise InvalidArgumentError(
            "graph has no Euclidean table: build it from positions or load a fixture")
    bounds = None
    if overrides.ns is None:
        if graph.range_ is None:
            raise ConfigurationError(
                "no transmission range and no NS override: cannot categorise neighbours"
            )
        bounds = _band_bounds(graph.range_)
    g_ed = np.zeros(n, dtype=np.int64)
    sums = np.empty(n)
    within = np.empty((n, 3), dtype=np.intp)
    buffers = _sort_buffers(n) if overrides.g_ed is None else None
    with np.errstate(over="ignore"):  # an infinite MED is refused below, by node
        for start, rows in graph.euclidean_rows():
            stop = start + len(rows)
            if buffers is not None:
                g_ed += _sort_count(rows, *buffers)
            rows.sum(axis=1, out=sums[start:stop])
            if bounds is not None:
                _count_within(rows, bounds, within[start:stop])
    ecc, mhd, med = _path_columns(hop, sums)
    g_h = closeness_indices(hop) if overrides.g_h is None else overrides.g_h
    if overrides.g_ed is not None:
        g_ed = overrides.g_ed
    g_h, g_ed = np.asarray(g_h, dtype=float), np.asarray(g_ed, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by node
        cci = combined_closeness_index(g_h, g_ed)
        bands = None
        if bounds is None:
            ns = np.asarray(overrides.ns, dtype=float)
        else:
            bands = _bands(within)
            ns = neighbor_strength(*bands.T, config.ns_threshold)

        deg = degrees(graph.adj)
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
