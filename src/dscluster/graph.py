"""Network graph construction, hop tables and the radius and diameter.

Nodes are integers ``0..n-1``.  A graph is either built from planar node
positions and a transmission range (unit-disk adjacency, boundary
inclusive: two nodes are linked iff their Euclidean distance is <= r) or
loaded from a fixture's edge list and Euclidean matrix, both taken
verbatim (``fileio.load_fixture``).  A position graph holds no distance
table: a sweep over the nodes in x order finds each node's candidate
neighbours, the nodes at most r (and a rounding margin) further along in
x, and decides each candidate pair by its distance, so building the graph
costs time and memory in proportion to the candidates, not to n * n.  The
graph keeps its positions instead, and ``NetworkGraph.euclidean_rows``
computes the rows of the Euclidean table from them, a block at a time,
for the readers that need distances (the metrics); a fixture's graph
yields slices of its matrix.  Hop tables travel as bare arrays.  Hop
distances always come from breadth-first search over the adjacency: one
level-synchronous pull BFS from a set of sources at once
(``hop_columns``).  Each node keeps the uint64-packed set of sources it
has reached, and each level ORs into it the sets of its neighbours; the
distance at which a bit first appears is recorded in a few packed bit
planes, one per binary digit, and decoded into an n x |S| table in row
blocks at the end, by byte lookup: each byte of a plane indexes a 256-row
table of the eight entries it encodes, built once per process.  The
all-pairs table that clustering reads is the case of every node a source
(``hop_distance_table``).  The radius and diameter need no such table:
eccentricity bounds settle them from a few batches of 64 sources, one word
of the packed sets (``radius_diameter``).  This module owns how big a block
is: every blocked kernel, here and in the metrics and checks, works one
256 KB block at a time (``block_rows``), so each block stays in a core's L2
cache and the working memory beyond the n x n results does not grow with n
or density.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, FixtureFormatError, InvalidArgumentError, SizeLimitError

#: Sentinel hop distance for node pairs with no connecting path.
UNREACHABLE = -1
#: Largest network the dense n x n tables are built for: one float64 table
#: is 200 MB at this size.
MAX_NODES = 5000
#: Working set of one block of every blocked kernel; see ``block_rows``.
_BLOCK_BYTES = 256 << 10
#: Sources per BFS batch of ``radius_diameter``: one uint64 word of
#: ``hop_columns``' packed source sets.
_BATCH = 64


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected network topology, immutable once built.

    ``range_`` and ``positions`` (an n x 2 float array) are only present
    in position mode.  ``euclid`` is a fixture's Euclidean matrix.  A graph
    from a bare edge list has neither distances nor positions.

    ``NetworkGraph(adj=...)`` scans the adjacency it is given and refuses
    one that is not square, irreflexive and symmetric.  The package's own
    builders, ``build_graph``, ``graph_from_edges`` and the cluster blocks
    of ``verify.check_cluster_diameter``, make such an adjacency by
    construction and skip the scans (``_symmetric_graph``).
    """

    adj: np.ndarray
    range_: float | None = None
    euclid: np.ndarray | None = None
    positions: np.ndarray | None = None

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InvalidArgumentError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise InvalidArgumentError("adjacency must be irreflexive")
        if (adj != adj.T).any():
            raise InvalidArgumentError("adjacency must be symmetric")
        object.__setattr__(self, "adj", adj)

    @property
    def node_count(self) -> int:
        return self.adj.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        """All edges once, as (u, v) with u < v, in lexicographic order."""
        iu, iv = np.nonzero(np.triu(self.adj, k=1))
        return [(int(u), int(v)) for u, v in zip(iu, iv)]

    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, ordered by least node.

        Each component grows from its least unseen node by whole-frontier
        steps: the next frontier is every node adjacent to the current one
        and not yet in the component."""
        seen = np.zeros(self.node_count, dtype=bool)
        out = []
        while not seen.all():
            comp = np.zeros_like(seen)
            frontier = comp.copy()
            frontier[np.argmin(seen)] = True
            while frontier.any():
                comp |= frontier
                frontier = self.adj[frontier].any(axis=0) & ~comp
            seen |= comp
            out.append(np.flatnonzero(comp).tolist())
        return out

    def euclidean_rows(self):
        """The Euclidean table in consecutive blocks of ``block_rows(8 * n)``
        rows, each yielded as (first row, block).

        A fixture's blocks are slices of its matrix.  A position graph's
        are computed from its positions by ``distance_rows``, into buffers
        that every block reuses: a block holds until the next is taken.
        """
        if self.euclid is None:
            yield from distance_rows(self.positions)
            return
        rows = block_rows(8 * self.node_count)
        for start in range(0, self.node_count, rows):
            yield start, self.euclid[start:start + rows]


@dataclass(frozen=True)
class FixtureOverrides:
    """Per-node metric values supplied by a fixture, taking precedence
    over recomputation.  Each field is either None or a length-n list."""

    ns: list[float] | None = None
    g_h: list[float] | None = None
    g_ed: list[float] | None = None
    w: list[float] | None = None

    def validate(self, n: int) -> None:
        for name in ("ns", "g_h", "g_ed", "w"):
            values = getattr(self, name)
            if values is not None and len(values) != n:
                raise FixtureFormatError(
                    f"override '{name}' has {len(values)} entries, expected {n}"
                )


def deploy_random(n: int, terrain_size: float, seed: int) -> np.ndarray:
    """Drop ``n`` nodes uniformly at random on the [0, terrain_size]^2 square.

    Returns an (n, 2) float array of positions; identical seeds yield
    identical deployments.
    """
    if n < 1:
        raise InvalidArgumentError(f"node count must be >= 1, got {n}")
    if terrain_size <= 0:
        raise InvalidArgumentError(f"terrain size must be positive, got {terrain_size}")
    _check_size(n)
    rng = np.random.default_rng(seed)
    return sample_positions(rng, n, terrain_size)


def sample_positions(rng: np.random.Generator, n: int, terrain_size: float) -> np.ndarray:
    """Uniform positions drawn from an existing generator (keeps all
    randomness flowing from a single scenario seed)."""
    return rng.uniform(0.0, terrain_size, size=(n, 2))


def _check_size(n: int) -> None:
    if n > MAX_NODES:
        raise SizeLimitError(f"{n} nodes exceed the limit of {MAX_NODES} for dense n x n tables")


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes that fill one block, at least one (a
    kernel over n rows allocates at most n): the sweep's pairs, the BFS's
    gathered rows, the hop decode, the Euclidean rows, the closeness count,
    the dominance check's member rows."""
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


def _runs(ends: np.ndarray, item_bytes: int):
    """Runs ``(a, b, first)`` of consecutive items a:b of a ragged list of
    ``item_bytes``-byte entries whose item i ends at place ``ends[i]`` of
    the flat list, each run one block of entries at most, or one item; its
    entries begin at place ``first``."""
    budget = block_rows(item_bytes)
    a = first = 0
    while a < len(ends):
        b = max(a + 1, int(ends.searchsorted(first + budget, side="right")))
        yield a, b, first
        a, first = b, int(ends[b - 1])


def _distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx * dx + dy * dy) in place in ``dx``, overwriting ``dy``: the
    Euclidean formula of both ``distance_rows`` and ``build_graph``."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def distance_rows(positions: np.ndarray):
    """The Euclidean table of ``positions`` in blocks of ``block_rows(8 * n)``
    rows, yielded as (first row, block); symmetric with zero diagonal.

    Entry (u, v) is ``_distances(x_u - x_v, y_u - y_v)``, bit for bit
    ``sqrt(((p[:, None] - p[None]) ** 2).sum(axis=2))``, the formula the
    benchmark's deployment chooser computes too.  Every block is computed
    in the same pair of buffers, one for the x and one for the y
    differences, so a block is valid until the next is taken.
    """
    x, y = positions[:, 0], positions[:, 1]
    n = len(x)
    rows = block_rows(8 * n)
    dx, dy = np.empty((2, min(rows, n), n))
    for start in range(0, n, rows):
        xr, yr = x[start:start + rows], y[start:start + rows]
        block, other = dx[:len(xr)], dy[:len(xr)]
        np.subtract.outer(xr, x, out=block)
        np.subtract.outer(yr, y, out=other)
        yield start, _distances(block, other)


def build_graph(positions: np.ndarray, range_: float) -> NetworkGraph:
    """Unit-disk graph over the given positions: (u, v) adjacent iff
    ed(u, v) <= range_ (ties at exactly the range are adjacent).

    ed(u, v) is the entry of ``distance_rows``, computed by the same
    ``_distances``, so the adjacency is the one that thresholding the whole
    table would give, bit for bit; but no table is built.  The nodes are
    sorted by x, and a node's candidates are the nodes after it in that
    order up to the last with x <= x_u + w, w = max(r * (1 + 2**-40),
    2**-510), found by one ``searchsorted``.  Only candidates can be
    adjacent.  Rounding and the square root are monotone and
    fl(dy * dy) >= 0, so ed(u, v) <= r implies fl(sqrt(fl(dx * dx))) <= r.
    Where dx * dx is a normal float, each of the three roundings (the
    difference, the square, the root) is within a factor 1 +- 2**-53, so
    the real gap |x_u - x_v| is below r * (1 + 2**-50); elsewhere dx * dx is
    below 2**-1022 and the gap below 2**-510.  Either way x_v <= x_u + w
    holds for the computed w, and so x_v <= fl(x_u + w), at any coordinate
    magnitude.  A pair with an infinite or NaN difference is adjacent only
    when r is infinite, and then every window reaches the last node.
    Candidates are decided in ``_runs`` of a block of 8-byte pairs (more
    when one node alone has more), so the memory beyond the n x n bool
    adjacency stays fixed.  The graph keeps the positions.
    """
    if range_ <= 0:
        raise InvalidArgumentError(f"transmission range must be positive, got {range_}")
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] != 2:
        raise InvalidArgumentError("positions must be a non-empty (n, 2) array")
    n = len(pos)
    _check_size(n)
    x, y = pos[:, 0], pos[:, 1]
    order = x.argsort()
    xs = x[order]
    ends = xs.searchsorted(xs + max(range_ * (1 + 2 ** -40), 2.0 ** -510), side="right")
    counts = ends - np.arange(1, n + 1)  # candidates after each node in x order
    listed = counts.cumsum()
    # the candidate at place k of the pair list is, in x order, k + shift of its node
    shift = ends - listed
    adj = np.zeros((n, n), dtype=bool)
    for a, b, done in _runs(listed, 8):
        u = order[a:b].repeat(counts[a:b])
        v = shift[a:b].repeat(counts[a:b])
        v += np.arange(done, done + len(v))
        order.take(v, out=v)
        near = _distances(x[u] - x[v], y[u] - y[v]) <= range_
        u, v = u[near], v[near]
        adj[u, v] = True
        adj[v, u] = True
    return _symmetric_graph(adj=adj, range_=float(range_), positions=pos)


def degrees(adj: np.ndarray) -> np.ndarray:
    """Each node's degree, as intp: the adjacency packed eight entries a
    byte, then a bit count of the packed rows, faster than summing the
    n * n bools."""
    return np.bitwise_count(np.packbits(adj, axis=1)).sum(axis=1, dtype=np.intp)


def _neighbour_chunks(adj: np.ndarray, row_bytes: int):
    """Closed neighbourhoods of consecutive node chunks, for one gather each.

    Yields ``(rows, nodes, starts)``: the slice of the chunk's nodes, the
    node ids of their closed neighbourhoods (each node first, then its
    neighbours), and where each node's run begins.  A chunk is one of
    ``_runs`` over the neighbourhoods, each entry a gathered row of
    ``row_bytes``.  Every run is non-empty, so ``reduceat`` never hands an
    isolated node the first row of the next node's run.
    """
    n = adj.shape[0]
    sizes = degrees(adj) + 1
    ends = sizes.cumsum()
    firsts = ends - sizes
    for a, b, first in _runs(ends, row_bytes):
        starts = firsts[a:b] - first
        nodes = np.empty(ends[b - 1] - first, dtype=np.intp)
        own = np.zeros(nodes.size, dtype=bool)
        own[starts] = True
        nodes[starts] = np.arange(a, b)
        nodes[~own] = np.flatnonzero(adj[a:b]) % n
        yield slice(a, b), nodes, starts


def hop_columns(graph: NetworkGraph, sources, dtype=None, chunks=None) -> np.ndarray:
    """Hop distances from each of the distinct ``sources`` to every node,
    by a level-synchronous pull BFS from all of them at once: entry (v, j)
    is the distance between node v and ``sources[j]``.  A pair with no path
    holds ``UNREACHABLE`` (-1), which consumers must check for explicitly
    rather than treat as a large distance.  The table is of ``dtype``, by
    default the narrowest signed dtype that holds every entry.  A caller
    that runs several source sets of one width on the graph passes the
    ``_neighbour_chunks`` of that width, built once, as ``chunks``.

    ``reach[v]`` is the uint64-packed set of sources within ``d`` hops of
    ``v``, ceil(|S| / 64) words, starting from the bit of ``v`` alone if it
    is a source.  Because the adjacency is symmetric, one level is
    ``reach[v] |= OR of reach[u] over the neighbours u of v``: one gather
    of neighbour rows and one ``bitwise_or.reduceat`` per node chunk (one
    block of gathered rows at most).  The bits new at level ``d`` are ORed
    into the packed bit planes of the binary digits of ``d``,
    ceil(log2(D + 1)) planes for a largest finite distance D.  The BFS
    stops when every set is full or a level adds nothing.  The planes are
    then decoded in row blocks into the narrowest signed dtype that holds D
    (int8, or int16 once D reaches 128), by byte lookup: a ``take`` of a
    plane's bytes from digit p's ``_lanes`` table gives, for each packed
    byte, its eight entries as 2**p or 0 in that dtype's native bytes, held
    in uint64 words, and the planes' lanes are ORed into one uint64
    accumulator per block.  Only when a level added nothing, so that some
    set is not full, is the all-ones lane of each missing bit of the final
    sets ORed in too: such a pair has no plane bits, so it reads -1, which
    is UNREACHABLE.  The accumulator is then viewed as that dtype and cast
    into the table; each block's accumulator fills one block of memory.
    """
    n = graph.node_count
    sources = np.asarray(sources, dtype=np.intp)
    k = len(sources)
    row_bytes = -(-k // 64) * 8
    reach = np.zeros((n, row_bytes), dtype=np.uint8)
    bits = np.arange(k)
    reach[sources, bits >> 3] = np.left_shift(1, bits & 7)
    reach = reach.view(np.uint64)
    full = np.bitwise_or.reduce(reach, axis=0)
    if chunks is None:
        chunks = list(_neighbour_chunks(graph.adj, row_bytes))
    planes = []
    distance = 0
    while not (complete := (reach == full).all()):
        distance += 1
        grown = np.empty_like(reach)
        for rows, nodes, starts in chunks:
            np.bitwise_or.reduceat(reach.take(nodes, axis=0), starts, axis=0, out=grown[rows])
        fresh = grown ^ reach
        if not fresh.any():
            break
        if distance >> len(planes):
            planes.append(np.zeros_like(reach))
        for digit, plane in enumerate(planes):
            if distance >> digit & 1:
                plane |= fresh
        reach = grown
    del chunks  # the neighbour lists, before the decode, unless the caller keeps them
    narrow = np.min_scalar_type(-(1 << len(planes)))
    table = np.empty((n, k), dtype=narrow if dtype is None else dtype)
    step = block_rows(row_bytes * 8 * narrow.itemsize)
    for a in range(0, n, step):
        rows = slice(a, a + step)
        acc = np.zeros((len(reach[rows]), row_bytes, narrow.itemsize), dtype=np.uint64)
        for digit, plane in enumerate(planes):
            acc |= _lanes(1 << digit, narrow).take(plane[rows].view(np.uint8), axis=0)
        if not complete:
            # a pair missing from the final sets has no plane bits, and UNREACHABLE is all ones
            acc |= _lanes(UNREACHABLE, narrow).take(np.invert(reach[rows]).view(np.uint8), axis=0)
        table[rows] = acc.view(narrow).reshape(len(acc), -1)[:, :k]
    return table


@functools.cache
def _lanes(value: int, dtype: np.dtype) -> np.ndarray:
    """The lane table of ``value`` in ``dtype``: row b holds the eight
    entries that a packed byte b encodes, ``value`` where bit i of b is set
    and 0 elsewhere, in the dtype's native bytes, viewed as one uint64 word
    per byte of the dtype's width.  Built once per process and read-only."""
    bits = np.arange(256)[:, None] >> np.arange(8) & 1
    lanes = (bits * value).astype(dtype).view(np.uint64)
    lanes.flags.writeable = False
    return lanes


def hop_distance_table(graph: NetworkGraph) -> np.ndarray:
    """All-pairs hop distances as an int64 table, symmetric with zero
    diagonal: ``hop_columns`` with every node a source."""
    return hop_columns(graph, np.arange(graph.node_count), np.int64)


def compute_tables(graph: NetworkGraph) -> np.ndarray:
    """The hop table of a graph to be clustered; see hop_distance_table."""
    return hop_distance_table(graph)


def require_connected(graph: NetworkGraph, hop: np.ndarray) -> None:
    """Refuse a disconnected graph, read off a hop table whose first column
    is node 0's (``hop_columns`` with node 0 the first source, or the
    all-pairs table): the graph is connected iff node 0 reaches every node.
    The components are listed only for the refusal."""
    if (hop[:, :1] == UNREACHABLE).any():
        raise DisconnectedGraphError(graph.components())


def radius_diameter(graph: NetworkGraph) -> tuple[int, int]:
    """The graph's exact (radius, diameter), from BFS batches of up to
    ``_BATCH`` sources by the eccentricity bounds of Takes and Kosters
    ("Determining the diameter of small world networks", CIKM 2011).
    Refuses a disconnected graph (``require_connected``).

    A source's column of ``hop_columns`` gives its eccentricity e(s)
    exactly, and bounds every other node's: max(d(v, s), e(s) - d(v, s))
    <= e(v) <= e(s) + d(v, s).  The radius is found once the least lower
    bound meets the least upper bound, and the diameter once the largest
    of each meet.  The first batch is nodes 0, 1, ..., so node 0's column
    decides connectivity, and a graph of at most ``_BATCH`` nodes is done
    in it.  Each later batch takes the nodes whose bounds still differ,
    alternately the one with the largest upper bound that exceeds the
    largest lower bound and the one with the smallest lower bound below
    the least upper bound, ties to the lower node id.  Such a node exists
    while the bounds have not met, and a source's bounds meet, so at worst
    every node is a source once: ceil(n / ``_BATCH``) batches.
    """
    n = graph.node_count
    chunks = list(_neighbour_chunks(graph.adj, _BATCH // 8))  # one word per node
    hop = hop_columns(graph, np.arange(min(n, _BATCH)), chunks=chunks)
    require_connected(graph, hop)
    if n <= _BATCH:  # every node is a source, so every eccentricity is exact
        ecc = hop.max(axis=0)
        return int(ecc.min()), int(ecc.max())
    lower = np.zeros(n, dtype=np.int64)
    upper = np.full(n, n, dtype=np.int64)  # above every eccentricity of a connected graph
    while True:
        ecc = hop.max(axis=0).astype(np.int64)
        np.maximum(lower, np.maximum(hop.max(axis=1), (ecc - hop).max(axis=1)), out=lower)
        np.minimum(upper, (ecc + hop).min(axis=1), out=upper)
        longest, shortest = lower.max(), upper.min()
        if upper.max() == longest and lower.min() == shortest:
            return int(shortest), int(longest)
        unsettled = lower < upper
        high = np.flatnonzero(unsettled & (upper > longest))
        low = np.flatnonzero(unsettled & (lower < shortest))
        turns = np.full((max(len(high), len(low)), 2), -1)  # read row by row: alternately
        turns[:len(high), 0] = high[np.argsort(-upper[high], kind="stable")]
        turns[:len(low), 1] = low[np.argsort(lower[low], kind="stable")]
        turns = turns[turns >= 0]
        _, first = np.unique(turns, return_index=True)  # each node at its first turn
        hop = hop_columns(graph, turns[np.sort(first)[:_BATCH]], chunks=chunks)


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> NetworkGraph:
    """Graph over ``n`` nodes from an explicit edge list (no geometry)."""
    _check_size(n)
    adj = np.zeros((n, n), dtype=bool)
    for edge in edges:
        if len(edge) != 2:
            raise FixtureFormatError(f"edge {edge!r} is not a pair")
        u, v = int(edge[0]), int(edge[1])
        if u == v:
            raise FixtureFormatError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FixtureFormatError(f"edge ({u}, {v}) out of range for {n} nodes")
        adj[u, v] = adj[v, u] = True
    return _symmetric_graph(adj=adj)


def _symmetric_graph(**values) -> NetworkGraph:
    """The ``NetworkGraph`` of the given field values, whose bool ``adj``
    its builder made square, irreflexive and symmetric: the fields are set
    directly, without ``__post_init__``'s scans of the n x n entries.  A
    field not given reads its default, which the dataclass keeps as a class
    attribute."""
    graph = object.__new__(NetworkGraph)
    vars(graph).update(values)
    return graph

