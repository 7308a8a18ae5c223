"""Small simple undirected graphs on bitset adjacency.

Vertices are always 0..n-1.  Adjacency is a tuple of int bitmasks, one per
vertex, which makes neighbourhood intersection and induced-subgraph tests
word-parallel.  Everything here is exact and aimed at the small orders (hosts
to 20 for biclique enumeration, <= 12 for isomorphism-sensitive paths) that
the rest of the library works with.

Provided here:

* the ``Graph`` value type (immutable, hashable),
* graph6 reading/writing (single-byte header regime, n <= 62),
* BFS distances, connectivity and 2-connectivity,
* an exact canonical form (lexicographically least graph6 string over all
  relabelings, computed by a pruned ordering search),
* exhaustive generation of connected graphs up to isomorphism.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
INFINITY = float("inf")

#: Largest order accepted by the exact canonical-form search.
MAX_CANONICAL_ORDER = 12

#: Largest order for exhaustive connected-graph generation.
MAX_GENERATION_ORDER = 8

#: Largest order encodable with a single-byte graph6 header.
MAX_GRAPH6_ORDER = 62


class GraphError(ValueError):
    """Domain error: the input graph violates a precondition."""


class CapabilityError(GraphError):
    """The request is valid but outside the supported size regime."""


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise GraphError(f"graph order must be >= 1, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))

    @classmethod
    def _raw(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # Fast path for internally-constructed, already-valid adjacency.
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {sorted(self.edges())})"

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(_bits(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in _bits(self.adj[v] >> (v + 1)):
                yield (v, v + 1 + u)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")


# ---------------------------------------------------------------------------
# constructions


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._raw(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def permuted(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel: vertex v of ``g`` becomes ``perm[v]`` in the result."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("not a permutation of 0..n-1")
    adj = [0] * g.n
    for v in range(g.n):
        mask = 0
        for u in _bits(g.adj[v]):
            mask |= 1 << perm[u]
        adj[perm[v]] = mask
    return Graph._raw(g.n, tuple(adj))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on ``vertices``, relabelled in increasing order."""
    keep = sorted(set(vertices))
    if not keep:
        raise GraphError("induced subgraph needs at least one vertex")
    for v in keep:
        g._check_vertex(v)
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in _bits(g.adj[v]):
            if u in index:
                adj[index[v]] |= 1 << index[u]
    return Graph._raw(len(keep), tuple(adj))


# ---------------------------------------------------------------------------
# graph6


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (single-byte header, order <= 62).

    Raises :class:`Graph6Error` naming the byte offset for characters outside
    63..126, a bad length, or nonzero padding bits.  Offsets count from the
    start of ``text``, surrounding whitespace and header included.
    """
    line = text.lstrip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    start = len(text) - len(line)
    line = line.rstrip()
    if not line:
        raise Graph6Error("empty graph6 line")
    for i, char in enumerate(line, start):
        if not "?" <= char <= "~":
            raise Graph6Error(f"character {char!r} outside graph6 range 63..126", offset=i)
    n = ord(line[0]) - 63
    if n == 63:
        raise CapabilityError("multi-byte graph6 order headers (n > 62) are not supported")
    if n < 1:
        raise Graph6Error("graph6 order 0 is not supported", offset=start)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(line) - 1 != nbytes:
        raise Graph6Error(
            f"graph6 body for n={n} needs {nbytes} bytes, got {len(line) - 1}",
            offset=start + len(line),
        )
    value = 0  # the body, 6 bits a character; the checks above bound its length
    for char in line[1:]:
        value = value << 6 | ord(char) - 63
    padding = 6 * nbytes - nbits
    if value & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits", offset=start + nbytes)
    value >>= padding
    adj = [0] * n
    for k in range(n - 1, 0, -1):  # the columns, last one lowest
        for bit in _bits(value & ((1 << k) - 1)):
            i = k - 1 - bit  # the most significant bit is adj(0,k)
            adj[i] |= 1 << k
            adj[k] |= 1 << i
        value >>= k
    return Graph._raw(n, tuple(adj))


def _pack_graph6(n: int, columns: Sequence[int]) -> str:
    """The graph6 line of order n whose body is columns 1..n-1: column k holds
    the k bits adj(0,k)..adj(k-1,k), adj(0,k) most significant, and the body
    is their concatenation, zero-padded and packed 6 bits to a character."""
    value = 0
    for k in range(1, n):
        value = value << k | columns[k]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    value <<= 6 * nbytes - nbits
    return chr(63 + n) + "".join([chr(63 + (value >> 6 * i & 63)) for i in reversed(range(nbytes))])


def write_graph6(g: Graph) -> str:
    """Encode as a graph6 line; requires order <= 62."""
    if g.n > MAX_GRAPH6_ORDER:
        raise CapabilityError(f"graph6 writer supports n <= {MAX_GRAPH6_ORDER}, got {g.n}")
    # Column k is the low k bits of adj[k] reversed: bin() of them under a
    # leading 1, read backwards up to that 1.
    columns = [int(bin(g.adj[k] & ((1 << k) - 1) | 1 << k)[:2:-1], 2) for k in range(1, g.n)]
    return _pack_graph6(g.n, [0, *columns])


# ---------------------------------------------------------------------------
# distances and connectivity


def _layers(g: Graph, sources: int, within: int = -1) -> Iterator[int]:
    """The BFS layers from the ``sources`` mask, as masks, moving only
    through the vertices of ``within`` (every vertex by default)."""
    frontier = seen = sources
    while frontier:
        yield frontier
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & within & ~seen
        seen |= frontier


def distances_from(g: Graph, sources: int) -> list[int | float]:
    """BFS distances from the ``sources`` bitmask (INFINITY if unreachable)."""
    dist: list[int | float] = [INFINITY] * g.n
    for d, layer in enumerate(_layers(g, sources)):
        for v in _bits(layer):
            dist[v] = d
    return dist


def distance(g: Graph, u: int, v: int) -> int | float:
    """Shortest-path distance; 0 iff u == v, INFINITY across components."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        return 0
    dist = distances_from(g, 1 << u)
    return dist[v]


def is_connected(g: Graph) -> bool:
    return _connected_within(g, g.vertex_mask())


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("the graph must be connected")


def _connected_within(g: Graph, mask: int) -> bool:
    # Is the induced subgraph on the ``mask`` vertices connected?  The layers
    # are disjoint, so their sum is the component of the least vertex.
    return sum(_layers(g, mask & -mask, mask)) == mask


def cut_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices whose removal disconnects the graph (empty for n <= 2)."""
    if g.n <= 2 or not is_connected(g):
        return ()
    full = g.vertex_mask()
    cuts = []
    for v in range(g.n):
        if not _connected_within(g, full ^ (1 << v)):
            cuts.append(v)
    return tuple(cuts)


def is_biconnected(g: Graph) -> bool:
    """Connected with no cut vertex; K1 and K2 count as 2-connected here."""
    return is_connected(g) and not cut_vertices(g)


# ---------------------------------------------------------------------------
# canonical form
#
# The canonical form of g is the lexicographically least graph6 string of any
# relabeling of g.  graph6 orders the adjacency bits column by column --
# (0,1), (0,2), (1,2), (0,3), ... -- so the least bit string can be found by
# growing a vertex ordering one position at a time: placing vertex p_k fixes
# column k, the k bits adj(p_0,p_k)..adj(p_{k-1},p_k), and nothing earlier.
# A branch-and-bound over orderings with per-position pruning is exact and
# fast at the orders used here; it keeps the least columns, not an ordering.

_BITS_SENTINEL = 1 << 63


def _canonical_columns(n: int, adj: Sequence[int]) -> list[int]:
    """Column k of the lexicographically least relabelled adjacency, as a
    k-bit int with adj(p_0,p_k) most significant, for every k < n."""
    best = [_BITS_SENTINEL] * n

    def place(pos: int, bits_by_vertex: dict[int, int]) -> None:
        groups: dict[int, list[int]] = {}
        for v, b in bits_by_vertex.items():
            groups.setdefault(b, []).append(v)
        for b in sorted(groups):
            if b > best[pos]:
                break
            if b < best[pos]:
                best[pos] = b
                for k in range(pos + 1, n):
                    best[k] = _BITS_SENTINEL
            if pos + 1 == n:
                return
            # Swapping twins v, w (equal neighbourhoods apart from v and w) is an
            # automorphism fixing the placed prefix, so w after v gives the same
            # columns.  Adjacent twins have equal closed neighbourhoods, others
            # equal open ones; no open neighbourhood equals a closed one.
            tried: set[int] = set()
            for v in groups[b]:
                if adj[v] in tried or adj[v] | 1 << v in tried:
                    continue
                tried.update((adj[v], adj[v] | 1 << v))
                nxt = {
                    u: (ub << 1) | ((adj[u] >> v) & 1)
                    for u, ub in bits_by_vertex.items()
                    if u != v
                }
                place(pos + 1, nxt)

    place(0, dict.fromkeys(range(n), 0))
    return best


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of ``g`` (order <= MAX_CANONICAL_ORDER)."""
    return parse_graph6(canonical_form(g))


def canonical_form(g: Graph) -> str:
    """Relabeling-invariant encoding: equal iff the graphs are isomorphic.

    Equals ``min(write_graph6(permuted(g, p)) for every permutation p)``.
    """
    if g.n > MAX_CANONICAL_ORDER:
        raise CapabilityError(
            f"canonical form supports n <= {MAX_CANONICAL_ORDER}, got {g.n}"
        )
    return _pack_graph6(g.n, _canonical_columns(g.n, g.adj))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# exhaustive generation


def _augmentations(parent: Graph) -> Iterator[Graph]:
    """``parent`` plus one new vertex, once per nonempty neighbourhood.

    Every connected graph on n vertices is some connected graph on n-1
    vertices plus one vertex joined to a nonempty neighbourhood (delete any
    non-cut vertex to see this), so augmenting connected parents is complete.
    """
    n = parent.n
    for mask in range(1, 1 << n):
        adj = list(parent.adj) + [mask]
        for u in _bits(mask):
            adj[u] |= 1 << n
        yield Graph._raw(n + 1, tuple(adj))


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    seen: dict[str, Graph] = {}
    for parent in _connected_classes(n - 1):
        for child in _augmentations(parent):
            key = canonical_form(child)
            if key not in seen:
                seen[key] = parse_graph6(key)
    return tuple(seen[key] for key in sorted(seen))


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per connected isomorphism class.

    Deterministic: graphs come out sorted by canonical form.  Supported for
    1 <= n <= MAX_GENERATION_ORDER.
    """
    if not 1 <= n <= MAX_GENERATION_ORDER:
        raise CapabilityError(
            f"generation supports 1 <= n <= {MAX_GENERATION_ORDER}, got {n}"
        )
    yield from _connected_classes(n)


def connected_graph_count(n: int) -> int:
    return len(_connected_classes(n))
