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
  relabelings, computed by a pruned search over ordered vertex partitions),
  whose tied leaves, with the twin swaps it prunes, also generate Aut(g),
* exhaustive generation of connected graphs up to isomorphism: one
  augmentation mask per orbit of the parent's automorphisms, filtered by
  canonical deletion before the canonical search.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
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


def _byte_table(offset: int) -> tuple[tuple[int, ...], ...]:
    # table[b]: the set bit positions of b << offset, for every byte b.
    table = [()]
    for i in range(offset, offset + 8):
        table += [bits + (i,) for bits in table]
    return tuple(table)


#: One table per byte of a 64-bit word; building all eight takes
#: 0.2-0.3 ms, which every import of the library pays.
_BYTE_TABLES = tuple(map(_byte_table, range(0, 64, 8)))
_BYTE0, _BYTE1 = _BYTE_TABLES[:2]


def _bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of a nonnegative ``mask``, in increasing order.

    Read a byte at a time from ``_BYTE_TABLES``, with the 8- and 16-bit
    masks that most calls see answered by one or two lookups.  A mask wider
    than 64 bits takes its low word from the tables and the rest from the
    same tables by recursion, so any width is exact.
    """
    if mask < 256:
        return _BYTE0[mask]
    if mask < 65536:
        return _BYTE0[mask & 255] + _BYTE1[mask >> 8]
    out = ()
    for table in _BYTE_TABLES:
        out += table[mask & 255]
        mask >>= 8
        if not mask:
            return out
    return out + tuple(i + 64 for i in _bits(mask))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """An immutable simple undirected graph on vertices 0..n-1."""

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
        return _bits(self.adj[v])

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


def distance(g: Graph, u: int, v: int) -> int | float:
    """Shortest-path distance; 0 iff u == v, INFINITY across components."""
    g._check_vertex(u)
    g._check_vertex(v)
    for d, layer in enumerate(_layers(g, 1 << u)):
        if layer >> v & 1:
            return d
    return INFINITY


def _components(g: Graph, within: int) -> list[int]:
    """The vertex masks of the components of the subgraph induced on ``within``;
    the layers are disjoint, so their sum is the component of the least vertex."""
    parts = []
    while within:
        part = sum(_layers(g, within & -within, within))
        parts.append(part)
        within ^= part
    return parts


def is_connected(g: Graph) -> bool:
    return len(_components(g, g.vertex_mask())) <= 1


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("the graph must be connected")


def cut_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices whose removal disconnects the graph (empty for n <= 2)."""
    if g.n <= 2 or not is_connected(g):
        return ()
    full = g.vertex_mask()
    return tuple(v for v in range(g.n) if len(_components(g, full ^ 1 << v)) > 1)


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
#
# The search state is an ordered partition of the unplaced vertices: a cell
# is (bits, mask), the vertices whose column so far (their adjacency to the
# placed prefix) is ``bits``, and the cells run in increasing ``bits``.  Only
# the first cell can give the least next column, so only its vertices are
# branched on.  Placing v splits every cell, minus v, into the vertices not
# adjacent to v (bits << 1) and then those adjacent to v (bits << 1 | 1),
# which keeps the order.  A branch whose first cell is already above the
# best column found at that position is cut, so no ordering that reaches
# the least columns is cut.  Ordered partitions are also the state of
# McKay 1981 and McKay & Piperno 2014, which refine them further.
#
# Twins v, w (equal neighbourhoods apart from v and w) are swapped by an
# automorphism fixing the placed prefix, so placing w next gives the columns
# of placing v next, and a node tries one vertex of each twin class.
# Adjacent twins have equal closed neighbourhoods, others equal open ones;
# no open neighbourhood equals a closed one.
#
# The tied leaves give Aut(g).  Two orderings that reach the least columns
# relabel g alike, so first[k] -> leaf[k] is an automorphism, and every
# automorphism a is that map for the ordering k -> a(first[k]).  Where that
# ordering places a skipped twin w, swapping w with the tried v leads into a
# searched branch, so the twin swaps and the maps first -> leaf generate
# Aut(g).

_BITS_SENTINEL = 1 << 63


def _canonical_search(n: int, adj: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The least columns, column k a k-bit int with adj(p_0,p_k) most
    significant, and every placement order (entry k the vertex placed at
    position k) of the search that reaches them."""
    best = [_BITS_SENTINEL] * n
    order = [0] * n
    leaves: list[list[int]] = []

    def place(pos: int, cells: list[tuple[int, int]]) -> None:
        bits, mask = cells[0]
        if bits < best[pos]:
            best[pos] = bits
            for k in range(pos + 1, n):
                best[k] = _BITS_SENTINEL
            leaves.clear()
        if pos + 1 == n:
            order[pos] = mask.bit_length() - 1
            leaves.append(order.copy())
            return
        tried: set[int] = set()
        for v in _bits(mask):
            near = adj[v]
            closed = near | 1 << v
            if near in tried or closed in tried:
                continue
            tried.add(near)
            tried.add(closed)
            far = ~closed
            split = []
            for b, m in cells:
                if m & far:
                    split.append((b << 1, m & far))
                if m & near:
                    split.append((b << 1 | 1, m & near))
            if split[0][0] <= best[pos + 1]:
                order[pos] = v
                place(pos + 1, split)

    place(0, [(0, (1 << n) - 1)])
    return best, leaves


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
    return _pack_graph6(g.n, _canonical_search(g.n, g.adj)[0])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# exhaustive generation


def _automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Permutations p, vertex v going to p[v], that generate Aut(g): the
    twin transpositions, each vertex with its least twin, and first[k] ->
    leaf[k] for each later leaf of the canonical search (see the comment
    above ``_canonical_search`` for why these suffice)."""
    n, adj = g.n, g.adj
    generators = []
    for v in range(n):
        for u in range(v):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                swap = list(range(n))
                swap[u], swap[v] = v, u
                generators.append(tuple(swap))
                break
    first, *rest = _canonical_search(n, adj)[1]
    position = sorted(range(n), key=first.__getitem__)  # first[position[u]] == u
    return generators + [tuple(leaf[k] for k in position) for leaf in rest]


def _augmentations(parent: Graph) -> Iterator[int]:
    """The neighbourhoods of a new vertex joined to ``parent``: one nonempty
    mask per orbit of Aut(parent), the least of its orbit, in increasing order.

    Every connected graph on n vertices is some connected graph on n-1
    vertices plus one vertex joined to a nonempty neighbourhood (delete any
    non-cut vertex to see this), so augmenting connected parents is complete;
    masks in one orbit give isomorphic children, so one mask each loses no
    class, and a sweep reading the children in mask order meets each class
    first at the same child.  The orbits are closed under the generators
    that the parent's own canonical search gives (``_automorphism_generators``),
    with one image table per generator over the 2^n masks.
    """
    size = 1 << parent.n
    tables = []
    for perm in _automorphism_generators(parent):
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(image)
    seen = bytearray(size)
    for mask in range(1, size):
        if seen[mask]:
            continue
        yield mask
        seen[mask] = 1
        orbit = [mask]
        while orbit:
            m = orbit.pop()
            for image in tables:
                if not seen[image[m]]:
                    seen[image[m]] = 1
                    orbit.append(image[m])


def _augmented(parent: Graph, mask: int) -> Graph:
    """``parent`` plus a last vertex joined to the ``mask`` vertices."""
    n = parent.n
    return Graph._raw(n + 1, (*(a | (mask >> u & 1) << n for u, a in enumerate(parent.adj)), mask))


def _last_vertex_is_greatest(parent: Graph) -> Callable[[int], bool]:
    """Canonical deletion as a test of the masks of ``parent``: does the
    last vertex of the child have the greatest invariant (degree, then the
    sorted degrees of its neighbours) among its non-cut vertices?  Ties pass.

    Canonical deletion (McKay 1998): delete a greatest non-cut vertex v of any
    connected graph; the class of what is left has a representative, and
    augmenting it by v's neighbourhood gives a copy whose last vertex passes.
    So augmentations that fail can be dropped without losing a class.

    The child is never built: its degrees are the parent's plus the mask, and
    a parent vertex u is non-cut in the child exactly when the mask minus u
    meets every component of the parent minus u, components found once here.
    """
    adj = parent.adj
    degrees = [m.bit_count() for m in adj]
    full = parent.vertex_mask()
    parts = [_components(parent, full ^ 1 << u) for u in range(parent.n)]

    def passes(mask: int) -> bool:
        last = mask.bit_count()
        child = [d + (mask >> u & 1) for u, d in enumerate(degrees)]

        def neighbour_degrees(u: int) -> list[int]:
            return sorted([child[w] for w in _bits(adj[u])] + [last] * (mask >> u & 1))

        top = (last, sorted(child[u] for u in _bits(mask)))
        # The degree alone settles most vertices, before any sort.
        return not any(
            child[u] >= last
            and (child[u], neighbour_degrees(u)) > top
            and all(mask & part for part in parts[u])
            for u in range(parent.n)
        )

    return passes


def _children(parent: Graph) -> Iterator[Graph]:
    """The one-vertex augmentations of ``parent`` that generation tries: one
    per orbit mask (``_augmentations``), in mask order, kept when the new
    vertex passes canonical deletion (``_last_vertex_is_greatest``)."""
    passes = _last_vertex_is_greatest(parent)
    return (_augmented(parent, mask) for mask in _augmentations(parent) if passes(mask))


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    keys = {canonical_form(child) for parent in _connected_classes(n - 1) for child in _children(parent)}
    return tuple(parse_graph6(key) for key in sorted(keys))


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
    return sum(1 for _ in enumerate_connected_graphs(n))
