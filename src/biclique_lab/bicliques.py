"""Bicliques and the biclique graph.

A biclique of a graph is a *maximal induced complete bipartite* subgraph:
both sides are independent sets, every cross pair is an edge, and no outside
vertex can join either side.  The biclique graph KB(G) is the intersection
graph of the family of all bicliques of G.

A set A + B is a biclique exactly when A x {0} + B x {1} is a maximal
clique, with both parts nonempty, of the doubled graph on V x {0, 1}, where
(u, s) ~ (v, t) iff either s = t, u != v and uv is a non-edge, or s != t and
uv is an edge (Dias, de Figueiredo & Szwarcfiter 2005).  Enumeration lists
those cliques by Bron-Kerbosch with pivoting (Tomita, Tanaka & Takahashi
2006), so its work follows the clique search tree instead of all 2^n vertex
subsets.  Each biclique gives two such cliques, one per side order; the
search is rooted at the lowest vertex on side 0, so it finds each biclique
once.  The recursion collects into one list and can stop after a given
number of bicliques, which is how the capped KB of the preimage sweep
discards a host as soon as its family overshoots the cap.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, GraphError, CapabilityError, _bits, _require_connected

#: Largest host order accepted for enumeration.  The family itself can be
#: exponential (the crown graph on 2k vertices has 2^k - 2 bicliques), so
#: lifting this wall needs a bound on family size instead.
MAX_HOST_ORDER = 20


@dataclass(frozen=True, slots=True)
class Biclique:
    """One maximal induced complete bipartite subgraph, as vertex bitmasks.

    ``side_a`` is the side containing the smallest vertex id; equality and
    hashing are by vertex set (the bipartition of a connected complete
    bipartite graph is unique up to swapping sides).
    """

    mask: int
    side_a: int = field(compare=False)
    side_b: int = field(compare=False)

    def __post_init__(self) -> None:
        side_a, side_b = self.side_a, self.side_b
        if side_a | side_b != self.mask or side_a & side_b:
            raise GraphError("sides must partition the vertex set")
        if not side_a & self.mask & -self.mask:
            object.__setattr__(self, "side_a", side_b)
            object.__setattr__(self, "side_b", side_a)

    @property
    def vertices(self) -> tuple[int, ...]:
        return _bits(self.mask)

    @property
    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _bits(self.side_a), _bits(self.side_b)

    def __contains__(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def __repr__(self) -> str:
        a, b = self.sides
        return f"Biclique({list(a)}|{list(b)})"


@dataclass(frozen=True, slots=True, init=False)
class BicliqueFamily:
    """All bicliques of a host graph, indexed, with vertex incidence.

    ``incidence[v]`` is a bitmask over biclique indices containing vertex v.
    Bicliques are sorted lexicographically by vertex tuple, so indices are
    reproducible across runs.
    """

    bicliques: tuple[Biclique, ...]
    incidence: tuple[int, ...]

    def __init__(self, host: Graph, bicliques: Iterable[Biclique]):
        ordered = tuple(sorted(bicliques, key=lambda b: b.vertices))
        incidence = [0] * host.n
        for index, biclique in enumerate(ordered):
            for v in _bits(biclique.mask):
                incidence[v] |= 1 << index
        object.__setattr__(self, "bicliques", ordered)
        object.__setattr__(self, "incidence", tuple(incidence))

    def __len__(self) -> int:
        return len(self.bicliques)

    def __iter__(self):
        return iter(self.bicliques)

    def __getitem__(self, index: int) -> Biclique:
        return self.bicliques[index]

    def check_index(self, index: int) -> None:
        if not 0 <= index < len(self.bicliques):
            raise GraphError(f"biclique index {index} out of range")


def is_induced_complete_bipartite(
    g: Graph, vertices: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Bipartition of the induced subgraph on ``vertices`` when it is
    connected complete bipartite, normalised so the first side holds the
    smallest vertex; None otherwise."""
    mask = 0
    for v in vertices:
        g._check_vertex(v)
        mask |= 1 << v
    if mask == 0:
        raise GraphError("vertex set must be nonempty")
    low = (mask & -mask).bit_length() - 1
    side_b = g.adj[low] & mask
    side_a = mask ^ side_b
    if mask != 1 << low and not side_b:
        return None  # the lowest vertex is isolated inside the set
    for v in _bits(mask):  # each vertex sees exactly the other side
        if g.adj[v] & mask != (side_a if side_b >> v & 1 else side_b):
            return None
    return _bits(side_a), _bits(side_b)


def _bicliques(g: Graph, limit: int | None = None) -> list[tuple[int, int, int]]:
    """(mask, side_a, side_b) of every biclique, each exactly once, side_a
    holding the lowest vertex: the maximal cliques of the doubled graph, by
    Bron-Kerbosch with pivoting.  Doubled vertex v + s*n stands for (v, s).
    One search is rooted at (v, 0) for each vertex v, with the vertices
    above v as candidates and those below v as excluded (the outer-vertex
    loop of Eppstein, Loeffler & Strash 2010), so a biclique is found only
    in the side order that puts its lowest vertex on side 0.

    The recursion appends to one list and returns True to unwind once it
    holds ``limit + 1`` bicliques, so a capped call returns the first
    ``limit + 1`` in the order of the full list.  Raises unless g is a
    connected host on 2..MAX_HOST_ORDER vertices."""
    if g.n < 2:
        raise GraphError("biclique enumeration needs at least 2 vertices")
    if g.n > MAX_HOST_ORDER:
        raise CapabilityError(f"biclique enumeration supports n <= {MAX_HOST_ORDER}")
    _require_connected(g)
    n = g.n
    full = (1 << n) - 1
    same = [full & ~nbrs & ~(1 << v) for v, nbrs in enumerate(g.adj)]
    double = [s | nbrs << n for s, nbrs in zip(same, g.adj)]
    double += [nbrs | s << n for s, nbrs in zip(same, g.adj)]
    found: list[tuple[int, int, int]] = []
    stop = -1 if limit is None else limit + 1

    def expand(clique: int, candidates: int, excluded: int) -> bool:
        if not candidates:
            if not excluded and clique >> n:
                part0, part1 = clique & full, clique >> n
                found.append((part0 | part1, part0, part1))
                return len(found) == stop
            return False
        # Pivot: the first vertex of P | X with the most neighbours in P.
        best = -1
        for u in _bits(candidates | excluded):
            count = (double[u] & candidates).bit_count()
            if count > best:
                best, pivot = count, u
        for u in _bits(candidates & ~double[pivot]):
            if expand(clique | 1 << u, candidates & double[u], excluded & double[u]):
                return True
            candidates ^= 1 << u
            excluded |= 1 << u
        return False

    for v in range(n):
        above, below = full & ~((2 << v) - 1), (1 << v) - 1
        if expand(1 << v, double[v] & (above | above << n), double[v] & (below | below << n)):
            break
    return found


def enumerate_bicliques(g: Graph) -> BicliqueFamily:
    """All bicliques of a connected host with at least 2 vertices."""
    return BicliqueFamily(g, (Biclique(*sides) for sides in _bicliques(g)))


def _intersection_graph(masks: list[int]) -> Graph:
    # One vertex per mask, adjacent when the masks meet.
    size = len(masks)
    adj = [0] * size
    for i, j in combinations(range(size), 2):
        if masks[i] & masks[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph._raw(size, tuple(adj))


def biclique_graph(g: Graph) -> tuple[Graph, BicliqueFamily]:
    """KB(g): one vertex per biclique, edges between intersecting ones."""
    family = enumerate_bicliques(g)
    return _intersection_graph([b.mask for b in family]), family


def biclique_graph_with_limit(g: Graph, max_order: int) -> tuple[Graph, None] | tuple[None, None]:
    """KB(g) if it has at most ``max_order`` vertices, else (None, None).

    Preimage searches use this to discard hosts whose biclique count
    overshoots the target order without finishing the enumeration.
    """
    found = _bicliques(g, max_order)
    if len(found) > max_order:
        return None, None
    masks = sorted((mask for mask, _, _ in found), key=_bits)
    return _intersection_graph(masks), None
