"""Bicliques and the biclique graph.

A biclique of a graph is a *maximal induced complete bipartite* subgraph:
both sides are independent sets, every cross pair is an edge, and no outside
vertex can join either side.  The biclique graph KB(G) is the intersection
graph of the family of all bicliques of G.

Enumeration walks all vertex subsets as bitmasks.  For a connected complete
bipartite set S, the side of its lowest vertex u is exactly S minus N(u), so
each subset is tested with a handful of mask operations, and maximality is a
per-vertex extension test (v can join side A iff N(v) cut to S equals B).
This is exact for the small hosts used throughout; the subset walk caps out
around n = 20.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .graphs import Graph, GraphError, CapabilityError, _bits, _require_connected

#: Subset enumeration is exact but exponential; refuse beyond this order.
MAX_HOST_ORDER = 20


class Biclique:
    """One maximal induced complete bipartite subgraph, as vertex bitmasks.

    ``side_a`` is the side containing the smallest vertex id; equality and
    ordering are by vertex set (the bipartition of a connected complete
    bipartite graph is unique up to swapping sides).
    """

    __slots__ = ("mask", "side_a", "side_b")

    def __init__(self, mask: int, side_a: int, side_b: int):
        if side_a | side_b != mask or side_a & side_b:
            raise GraphError("sides must partition the vertex set")
        low = mask & -mask
        if not side_a & low:
            side_a, side_b = side_b, side_a
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Biclique is immutable")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    @property
    def sides(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(_bits(self.side_a)), tuple(_bits(self.side_b))

    def __contains__(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Biclique) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        a, b = self.sides
        return f"Biclique({list(a)}|{list(b)})"


class BicliqueFamily:
    """All bicliques of a host graph, indexed, with vertex incidence.

    ``incidence[v]`` is a bitmask over biclique indices containing vertex v.
    Bicliques are sorted lexicographically by vertex tuple, so indices are
    reproducible across runs.
    """

    __slots__ = ("host", "bicliques", "incidence")

    def __init__(self, host: Graph, bicliques: Iterable[Biclique]):
        ordered = tuple(sorted(bicliques, key=lambda b: b.vertices))
        incidence = [0] * host.n
        for index, biclique in enumerate(ordered):
            for v in _bits(biclique.mask):
                incidence[v] |= 1 << index
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "bicliques", ordered)
        object.__setattr__(self, "incidence", tuple(incidence))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BicliqueFamily is immutable")

    def __len__(self) -> int:
        return len(self.bicliques)

    def __iter__(self):
        return iter(self.bicliques)

    def __getitem__(self, index: int) -> Biclique:
        return self.bicliques[index]

    def check_index(self, index: int) -> None:
        if not 0 <= index < len(self.bicliques):
            raise GraphError(f"biclique index {index} out of range")


def complete_bipartite_sides(g: Graph, mask: int) -> tuple[int, int] | None:
    """Sides of the induced subgraph on ``mask`` if it is connected complete
    bipartite (as masks, side containing the lowest vertex first); else None.

    Single vertices count (one empty side); callers that require both sides
    nonempty should insist on two or more vertices.
    """
    if mask == 0:
        return None
    low = (mask & -mask).bit_length() - 1
    side_b = g.adj[low] & mask
    side_a = mask ^ side_b
    if mask.bit_count() > 1 and side_b == 0:
        return None  # low vertex isolated inside the subset
    adj = g.adj
    for v in _bits(side_a):
        if adj[v] & mask != side_b:
            return None
    for v in _bits(side_b):
        if adj[v] & mask != side_a:
            return None
    return side_a, side_b


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
    sides = complete_bipartite_sides(g, mask)
    if sides is None:
        return None
    return tuple(_bits(sides[0])), tuple(_bits(sides[1]))


def _maximal_bicliques(
    g: Graph, stop_above: int | None = None
) -> list[tuple[int, int, int]] | None:
    """(mask, side_a, side_b) of every biclique, side_a holding the lowest
    vertex; None when the count exceeds ``stop_above``."""
    n = g.n
    adj = g.adj
    found: list[tuple[int, int, int]] = []
    for mask in range(3, 1 << n):
        if mask.bit_count() < 2:
            continue
        sides = complete_bipartite_sides(g, mask)
        if sides is None:
            continue
        side_a, side_b = sides
        outside = ((1 << n) - 1) ^ mask
        maximal = True
        for v in _bits(outside):
            hit = adj[v] & mask
            if hit == side_b or hit == side_a:
                maximal = False
                break
        if maximal:
            found.append((mask, side_a, side_b))
            if stop_above is not None and len(found) > stop_above:
                return None
    return found


def enumerate_bicliques(g: Graph) -> BicliqueFamily:
    """All bicliques of a connected host with at least 2 vertices."""
    if g.n < 2:
        raise GraphError("biclique enumeration needs at least 2 vertices")
    if g.n > MAX_HOST_ORDER:
        raise CapabilityError(f"biclique enumeration supports n <= {MAX_HOST_ORDER}")
    _require_connected(g)
    return BicliqueFamily(g, (Biclique(*sides) for sides in _maximal_bicliques(g)))


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
    if g.n < 2:
        raise GraphError("biclique enumeration needs at least 2 vertices")
    found = _maximal_bicliques(g, stop_above=max_order)
    if found is None:
        return None, None
    masks = sorted((mask for mask, _, _ in found), key=lambda m: tuple(_bits(m)))
    return _intersection_graph(masks), None
