"""Network graph construction and all-pairs distance tables.

Nodes are integers ``0..n-1``.  A graph is either built from planar node
positions and a transmission range (unit-disk adjacency, boundary
inclusive: two nodes are linked iff their Euclidean distance is <= r) or
ingested verbatim from a fixture's edge list plus Euclidean matrix.  A
graph built from positions keeps the Euclidean table its adjacency was
thresholded from, so ``compute_tables`` computes that table once.  Hop
distances always come from breadth-first search over the adjacency: one
level-synchronous, bit-parallel BFS over uint64-packed adjacency rows that
runs from a block of sources at once.  Blocks are sized so that one level
gathers at most 16 MB of rows: beyond the int64 table, the BFS needs no
memory that grows with density.
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
#: Packed adjacency rows one BFS level may gather for a block of sources.
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

    def degree(self, u: int) -> int:
        return int(self.adj[u].sum())

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
    """Pairwise planar Euclidean distances; symmetric with zero diagonal."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] != 2:
        raise InvalidArgumentError("positions must be a non-empty (n, 2) array")
    _check_size(pos.shape[0])
    delta = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def build_graph(positions: np.ndarray, range_: float) -> NetworkGraph:
    """Unit-disk graph over the given positions: (u, v) adjacent iff
    ed(u, v) <= range_ (ties at exactly the range are adjacent)."""
    if range_ <= 0:
        raise InvalidArgumentError(f"transmission range must be positive, got {range_}")
    euclid = euclidean_distance_table(positions)
    adj = euclid <= range_
    np.fill_diagonal(adj, False)
    return NetworkGraph(adj=adj, range_=float(range_), euclid=euclid)


def hop_distance_table(graph: NetworkGraph) -> np.ndarray:
    """All-pairs hop distances (UNREACHABLE = -1) by a level-synchronous,
    bit-parallel BFS from a block of sources at once.

    Adjacency rows are packed into uint64 bitsets.  The frontier is a list
    of (source, node) pairs sorted by source; one level ORs the packed rows
    of each source's frontier nodes (``bitwise_or.reduceat``), masks the
    result with that source's visited set, and the new bits are both the
    next frontier and the entries at the current distance.  Sources run in
    blocks sized so that one level gathers at most ``_LEVEL_BYTES`` (16 MB)
    of rows, even when every node is on every frontier: working memory
    beyond the table does not depend on density.
    """
    n = graph.node_count
    hop = np.full((n, n), UNREACHABLE, dtype=np.int64)
    row_bytes = -(-n // 64) * 8
    packed = np.zeros((n, row_bytes), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(graph.adj, axis=1, bitorder="little")
    rows = packed.view(np.uint64)
    block = max(1, _LEVEL_BYTES // max(row_bytes * n, 1))
    for start in range(0, n, block):
        table = hop[start:start + block]
        local = np.arange(table.shape[0])
        sources = local + start
        visited = np.zeros((sources.size, row_bytes), dtype=np.uint8)
        visited[local, sources >> 3] = np.left_shift(1, sources & 7)
        visited = visited.view(np.uint64)
        table[local, sources] = 0
        owner, node = local, sources
        distance = 0
        while node.size:
            distance += 1
            first = np.ones(owner.size, dtype=bool)
            np.not_equal(owner[1:], owner[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            active = owner[starts]
            reach = np.bitwise_or.reduceat(rows[node], starts, axis=0)
            reach &= ~visited[active]
            visited[active] |= reach
            bits = np.unpackbits(reach.view(np.uint8), axis=1, count=n, bitorder="little")
            hit, node = np.nonzero(bits)
            owner = active[hit]
            table[owner, node] = distance
    return hop


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
