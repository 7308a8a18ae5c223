"""Distance between bicliques and its exact relation to KB(G) distances.

The distance between two bicliques is the least graph distance over vertex
pairs drawn one from each.  For distinct bicliques B, B' of a connected
graph the distance of the corresponding KB(G) vertices is always

    floor((d(B, B') + 1) / 2) + 1

and every pair at biclique distance k > 0 has at least k+1 other bicliques
at distance at most k-1 from both.  This module computes the per-pair
reports, the witness sets, and the companion bicliques guaranteed for
touching (distance-1) pairs.

``distance_reports`` makes one ``biclique_distance`` call per pair, a count
the benchmark's tracer test pins: one BFS for a disjoint pair, one mask
test for an overlapping one.  With one BFS per vertex of G and one per
vertex of KB(G), closest pairs, d_KB and witness counts are read off masks.

Convention: the report for a pair (i, i) would have d_kb = 0; the formula is
only claimed for distinct bicliques, so reports cover i < j.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations
from operator import or_

from .bicliques import BicliqueFamily, biclique_graph
from .graphs import Graph, GraphError, _bits, _layers


class BicliqueDistanceReport(
    namedtuple("BicliqueDistanceReport", "i j d_g d_kb formula_value closest_pair witness_count")
):
    """One unordered pair of distinct bicliques, as a named tuple.

    ``formula_value`` is floor((d_g + 1)/2) + 1 and must equal ``d_kb``.
    ``closest_pair`` is the (u, v), u in B_i and v in B_j, realising d_g
    with v the least vertex of B_j at distance d_g from B_i and u the least
    vertex of B_i at distance d_g from v.
    ``witness_count`` is the size of the pair's witness set (see
    ``find_witnesses``), or None for an overlapping pair (d_g == 0).
    The fields are in the order of the CLI's JSON keys.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.d_kb == self.formula_value


def biclique_distance(g: Graph, family: BicliqueFamily, i: int, j: int) -> int:
    """min over b in B_i, b' in B_j of the graph distance; 0 on overlap.

    An overlapping pair is one mask test; otherwise a multi-source BFS
    from B_i, stopped at the first layer meeting B_j.
    """
    bicliques = family.bicliques
    size = len(bicliques)
    if not (0 <= i < size and 0 <= j < size):
        raise GraphError(f"biclique index {j if 0 <= i < size else i} out of range")
    source = bicliques[i].mask
    target = bicliques[j].mask
    if source & target:
        return 0
    for d, layer in enumerate(_layers(g, source)):
        if layer & target:
            return d
    raise GraphError("bicliques lie in different components")


def distance_reports(g: Graph) -> list[BicliqueDistanceReport]:
    """One report per unordered pair of distinct bicliques of ``g``.

    Cost: one ``biclique_distance`` call per pair fills the F x F matrix of
    biclique distances: one BFS for a disjoint pair, one mask test for an
    overlapping one.  One BFS per vertex of ``g`` and one per vertex of
    KB(G) give the balls that closest pairs, d_KB and witness counts are
    read off, with no further search per pair.  The matrix is filled pair by
    pair because the benchmark's tracer test pins that call count (15 for
    C6); one multi-source BFS per biclique would fill it too.
    """
    kb, family = biclique_graph(g)
    size = len(family)
    d = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        d[i][j] = d[j][i] = biclique_distance(g, family, i, j)
    # balls[v][k]: the vertices within distance k of v.  A vertex of B_j is
    # at least d_g from B_i, so its eccentricity is too and balls[v][d_g]
    # exists; the first v whose ball meets B_i is the tie rule's v.
    balls = [list(accumulate(_layers(g, 1 << v), or_)) for v in range(g.n)]
    # kb_balls[i][k]: the bicliques within KB distance k of B_i; d_kb is the
    # first k whose ball holds j, and k = 0 never does.
    kb_balls = [list(accumulate(_layers(kb, 1 << i), or_)) for i in range(size)]
    # nearer[i][k]: the bicliques at distance < k from B_i.  Neither end of
    # a pair at distance d_g is nearer than d_g to the other, so the meet of
    # two rows at d_g is exactly the pair's witness set.
    depth = max(map(max, d), default=0)
    nearer = []
    for row in d:
        at = [0] * (depth + 1)
        for w, d_w in enumerate(row):
            at[d_w] |= 1 << w
        nearer.append([0, *accumulate(at, or_)])
    masks = [b.mask for b in family]
    members = [b.vertices for b in family]
    reports = []
    for i, j in combinations(range(size), 2):
        d_g = d[i][j]
        for v in members[j]:
            if hit := balls[v][d_g] & masks[i]:
                break
        d_kb = 1
        while not kb_balls[i][d_kb] >> j & 1:
            d_kb += 1
        closest = ((hit & -hit).bit_length() - 1, v)
        count = (nearer[i][d_g] & nearer[j][d_g]).bit_count() if d_g else None
        reports.append(BicliqueDistanceReport(i, j, d_g, d_kb, (d_g + 1) // 2 + 1, closest, count))
    return reports


def verify_distance_formula(g: Graph) -> list[BicliqueDistanceReport]:
    """All pair reports; raises on the first formula violation (none exist)."""
    reports = distance_reports(g)
    for report in reports:
        if not report.holds:
            raise AssertionError(
                f"distance formula violated for pair ({report.i},{report.j}): "
                f"d_g={report.d_g} d_kb={report.d_kb} expected {report.formula_value}"
            )
    return reports


@dataclass(frozen=True)
class WitnessSet:
    """Bicliques lying between a pair at biclique distance k > 0.

    ``distances[w] = (d(W, B_i), d(W, B_j))`` for every witness index w; all
    witnesses are distinct from i and j and within distance k-1 of both.
    The search is exhaustive, so this is the complete qualifying set and its
    size is at least k+1.
    """

    i: int
    j: int
    k: int
    witnesses: tuple[int, ...]
    distances: dict[int, tuple[int, int]]


def find_witnesses(g: Graph, family: BicliqueFamily, i: int, j: int) -> WitnessSet:
    """Every biclique at distance <= k-1 from both of a distance-k pair."""
    k = biclique_distance(g, family, i, j)
    if k == 0:
        raise GraphError("witness search needs a pair at biclique distance > 0")
    witnesses = []
    distances = {}
    for w in range(len(family)):
        if w in (i, j):
            continue
        d_i = biclique_distance(g, family, w, i)
        if d_i > k - 1:
            continue
        d_j = biclique_distance(g, family, w, j)
        if d_j > k - 1:
            continue
        witnesses.append(w)
        distances[w] = (d_i, d_j)
    return WitnessSet(i=i, j=j, k=k, witnesses=tuple(witnesses), distances=distances)


def link_companions(
    g: Graph, family: BicliqueFamily, i: int, j: int
) -> list[tuple[tuple[int, int], int, tuple[int, ...]]]:
    """Companions for a disjoint pair joined by at least one edge.

    For every edge (u, v) with u in B_i, v in B_j and every biclique b1
    containing both endpoints, lists the bicliques b2 outside {i, j, b1}
    meeting B_i, B_j and b1.  Returns (edge, b1, companions) triples; at
    least one companion exists for each.  The companions are one AND of
    masks: the bicliques meeting B_x are the union of the incidence rows of
    B_x's vertices.
    """
    family.check_index(i)
    family.check_index(j)
    a_mask = family[i].mask
    b_mask = family[j].mask
    if a_mask & b_mask:
        raise GraphError("link companions need a disjoint pair")
    incidence = family.incidence

    def meets(mask: int) -> int:
        return reduce(or_, map(incidence.__getitem__, _bits(mask)))

    both = meets(a_mask) & meets(b_mask) & ~(1 << i | 1 << j)
    out = []
    for u in _bits(a_mask):
        for v in _bits(g.adj[u] & b_mask):
            for b1 in _bits(incidence[u] & incidence[v]):
                out.append(((u, v), b1, _bits(both & meets(family[b1].mask) & ~(1 << b1))))
    return out
