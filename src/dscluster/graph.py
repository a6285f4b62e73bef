"""Network graph construction and all-pairs distance tables.

Nodes are integers ``0..n-1``.  A graph is either built from planar node
positions and a transmission range (unit-disk adjacency, boundary
inclusive: two nodes are linked iff their Euclidean distance is <= r) or
ingested verbatim from a fixture's edge list plus Euclidean matrix.  A
graph built from positions keeps the Euclidean table its adjacency was
thresholded from, so ``compute_tables`` computes that table once.  The
Euclidean table is built from two n x n planes of coordinate differences,
squared, added and rooted in place, so it needs one plane beyond the
result.  Hop distances always come from breadth-first search over the
adjacency: one level-synchronous pull BFS from every source at once.  Each
node keeps the uint64-packed set of sources it has reached, and each level
ORs into it the sets of its neighbours; the distance at which a bit first
appears is recorded in a few packed bit planes, one per binary digit, and
decoded into the int64 table once at the end.  Nodes are taken in chunks
whose neighbour rows gather at most 16 MB per level, so the working memory
beyond the table does not grow with density.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FixtureFormatError, InvalidArgumentError, SizeLimitError

#: Sentinel hop distance for node pairs with no connecting path.
UNREACHABLE = -1
#: Largest network the dense n x n tables are built for: one float64 table
#: is 200 MB at this size.
MAX_NODES = 5000
#: Packed source-set rows one BFS level may gather for a chunk of nodes.
_LEVEL_BYTES = 16 << 20


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected network topology, immutable once built.

    ``range_`` and ``euclid``, the Euclidean table the adjacency was
    thresholded from, are only present in position mode; a graph ingested
    from a fixture carries the adjacency alone.
    """

    adj: np.ndarray
    range_: float | None = None
    euclid: np.ndarray | None = None

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InvalidArgumentError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise InvalidArgumentError("adjacency must be irreflexive")
        if not np.array_equal(adj, adj.T):
            raise InvalidArgumentError("adjacency must be symmetric")
        object.__setattr__(self, "adj", adj)

    @property
    def node_count(self) -> int:
        return self.adj.shape[0]

    def neighbors(self, u: int) -> list[int]:
        return [int(v) for v in np.flatnonzero(self.adj[u])]

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges once, as (u, v) with u < v, in lexicographic order."""
        iu, iv = np.nonzero(np.triu(self.adj, k=1))
        return [(int(u), int(v)) for u, v in zip(iu, iv)]

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

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

    @property
    def is_connected(self) -> bool:
        return len(self.components()) == 1


@dataclass(frozen=True)
class DistanceTables:
    """All-pairs hop and Euclidean distance matrices.

    Both matrices are symmetric with zero diagonal.  ``hop`` holds
    ``UNREACHABLE`` (-1) for disconnected pairs; consumers must check for
    it explicitly rather than treat it as a large distance.
    """

    hop: np.ndarray
    euclid: np.ndarray


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


def euclidean_distance_table(positions: np.ndarray) -> np.ndarray:
    """Pairwise planar Euclidean distances; symmetric with zero diagonal.

    Each entry is sqrt(dx * dx + dy * dy), bit for bit the value of
    ``sqrt(((p[:, None] - p[None]) ** 2).sum(axis=2))``, the formula the
    benchmark's deployment chooser computes too.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] != 2:
        raise InvalidArgumentError("positions must be a non-empty (n, 2) array")
    _check_size(pos.shape[0])
    x, y = pos.T
    dx, dy = np.subtract.outer(x, x), np.subtract.outer(y, y)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def build_graph(positions: np.ndarray, range_: float) -> NetworkGraph:
    """Unit-disk graph over the given positions: (u, v) adjacent iff
    ed(u, v) <= range_ (ties at exactly the range are adjacent)."""
    if range_ <= 0:
        raise InvalidArgumentError(f"transmission range must be positive, got {range_}")
    euclid = euclidean_distance_table(positions)
    adj = euclid <= range_
    np.fill_diagonal(adj, False)
    return NetworkGraph(adj=adj, range_=float(range_), euclid=euclid)


def _neighbour_chunks(adj: np.ndarray, row_bytes: int):
    """Closed neighbourhoods of consecutive node chunks, for one gather each.

    Yields ``(rows, nodes, starts)``: the slice of the chunk's nodes, the
    node ids of their closed neighbourhoods (each node first, then its
    neighbours) in the narrowest unsigned dtype that holds every id, and
    where each node's run begins.  A chunk holds as many nodes as fit
    ``_LEVEL_BYTES`` of gathered rows, and at least one.  Every run is
    non-empty, so ``reduceat`` never hands an isolated node the first row
    of the next node's run.
    """
    n = adj.shape[0]
    sizes = np.count_nonzero(adj, axis=1) + 1
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    budget = max(1, _LEVEL_BYTES // max(row_bytes, 1))
    dtype = np.min_scalar_type(max(n - 1, 0))
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, firsts[a] + budget, side="right")))
        starts = firsts[a:b] - firsts[a]
        nodes = np.empty(ends[b - 1] - firsts[a], dtype=dtype)
        own = np.zeros(nodes.size, dtype=bool)
        own[starts] = True
        nodes[starts] = np.arange(a, b)
        nodes[~own] = np.flatnonzero(adj[a:b]) % n
        yield slice(a, b), nodes, starts
        a = b


def hop_distance_table(graph: NetworkGraph) -> np.ndarray:
    """All-pairs hop distances (UNREACHABLE = -1) by a level-synchronous
    pull BFS from every source at once.

    ``reach[v]`` is the uint64-packed set of sources within ``d`` hops of
    ``v``, starting from ``v`` alone.  Because the adjacency is symmetric,
    one level is ``reach[v] |= OR of reach[u] over the neighbours u of v``:
    one gather of neighbour rows and one ``bitwise_or.reduceat`` per node
    chunk (``_LEVEL_BYTES``, 16 MB, of gathered rows at most).  The bits new
    at level ``d`` are ORed into the packed bit planes of the binary digits
    of ``d``, ceil(log2(D + 1)) planes for a largest finite distance D.  The
    BFS stops when every set is full or a level adds nothing.  The planes
    are then unpacked into an accumulator of the narrowest signed dtype
    that holds D, every pair whose bit is missing from the final set is
    made UNREACHABLE there, and the accumulator is cast to int64 once.
    """
    n = graph.node_count
    row_bytes = -(-n // 64) * 8
    reach = np.zeros((n, row_bytes), dtype=np.uint8)
    ids = np.arange(n)
    reach[ids, ids >> 3] = np.left_shift(1, ids & 7)
    reach = reach.view(np.uint64)
    full = np.bitwise_or.reduce(reach, axis=0)
    chunks = list(_neighbour_chunks(graph.adj, row_bytes))
    planes = []
    distance = 0
    while not (reach == full).all():
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
    del chunks  # the neighbour lists, before the n x n decode
    acc = np.zeros((n, n), dtype=np.min_scalar_type(-(1 << len(planes))))
    while planes:
        acc <<= 1
        acc |= _unpack(planes.pop(), n)
    # a pair missing from the final sets reads 0 here, and UNREACHABLE is -1
    acc -= _unpack(~reach, n)
    return acc.astype(np.int64)


def _unpack(rows: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each packed row as 0/1 int8 entries."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little").view(np.int8)


def compute_tables(graph: NetworkGraph) -> DistanceTables:
    """Hop table by BFS plus the Euclidean table the graph was built from."""
    if graph.euclid is None:
        raise InvalidArgumentError("graph has no Euclidean table; ingest a fixture instead")
    return DistanceTables(hop=hop_distance_table(graph), euclid=graph.euclid)


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
    return NetworkGraph(adj=adj)


def ingest_fixture(
    edges: list[tuple[int, int]],
    euclid: np.ndarray,
    overrides: FixtureOverrides | None = None,
) -> tuple[NetworkGraph, DistanceTables, FixtureOverrides]:
    """Build graph and tables from fixture data taken verbatim.

    The adjacency is used as given (no range thresholding), the hop table
    is recomputed by BFS, and the Euclidean matrix is validated and kept.
    Malformed input raises FixtureFormatError.
    """
    euclid = np.asarray(euclid, dtype=float)
    if euclid.ndim != 2 or euclid.shape[0] != euclid.shape[1]:
        raise FixtureFormatError(f"euclid matrix must be square, got shape {euclid.shape}")
    n = euclid.shape[0]
    if n < 1:
        raise FixtureFormatError("euclid matrix is empty")
    if not np.isfinite(euclid).all():
        bad = np.argwhere(~np.isfinite(euclid))[0]
        raise FixtureFormatError(f"euclid matrix has a non-finite entry at ({bad[0]}, {bad[1]})")
    if not np.array_equal(euclid, euclid.T):
        bad = np.argwhere(euclid != euclid.T)[0]
        raise FixtureFormatError(
            f"euclid matrix is asymmetric at ({bad[0]}, {bad[1]})"
        )
    if np.any(euclid.diagonal() != 0.0):
        raise FixtureFormatError("euclid matrix must have a zero diagonal")
    if np.any(euclid < 0.0):
        raise FixtureFormatError("euclid matrix has negative entries")

    graph = graph_from_edges(n, edges)
    tables = DistanceTables(hop=hop_distance_table(graph), euclid=euclid)
    overrides = overrides or FixtureOverrides()
    overrides.validate(n)
    return graph, tables, overrides
