"""Distance between bicliques and its exact relation to KB(G) distances.

The distance between two bicliques is the least graph distance over vertex
pairs drawn one from each.  For distinct bicliques B, B' of a connected
graph the distance of the corresponding KB(G) vertices is always

    floor((d(B, B') + 1) / 2) + 1

and every pair at biclique distance k > 0 has at least k+1 other bicliques
at distance at most k-1 from both.  This module computes the per-pair
reports, the witness sets, and the companion bicliques guaranteed for
touching (distance-1) pairs.

Convention: the report for a pair (i, i) would have d_kb = 0; the formula is
only claimed for distinct bicliques, so reports cover i < j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bicliques import BicliqueFamily, biclique_graph
from .graphs import Graph, GraphError, _bits, distances_from


@dataclass(frozen=True)
class BicliqueDistanceReport:
    """One unordered pair of distinct bicliques.

    ``formula_value`` is floor((d_g + 1)/2) + 1 and must equal ``d_kb``.
    ``closest_pair`` is one (vertex in B_i, vertex in B_j) realising d_g.
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


class DistanceFormulaViolation(AssertionError):
    """Raised when some pair disagrees with the distance formula."""

    def __init__(self, graph: Graph, report: BicliqueDistanceReport):
        self.graph = graph
        self.report = report
        super().__init__(
            f"distance formula violated for pair ({report.i},{report.j}): "
            f"d_g={report.d_g} d_kb={report.d_kb} expected {report.formula_value}"
        )


def _meet(g: Graph, source: int, target: int) -> tuple[int, int]:
    """Multi-source BFS from the ``source`` mask, stopped at the first layer
    meeting ``target``: that layer's distance and its ``target`` vertices."""
    frontier = seen = source
    d = 0
    while frontier:
        hit = frontier & target
        if hit:
            return d, hit
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    raise GraphError("bicliques lie in different components")


def biclique_distance(g: Graph, family: BicliqueFamily, i: int, j: int) -> int:
    """min over b in B_i, b' in B_j of the graph distance; 0 on overlap."""
    family.check_index(i)
    family.check_index(j)
    return _meet(g, family[i].mask, family[j].mask)[0]


def _closest_pair(g: Graph, source: int, target: int) -> tuple[int, int]:
    """(u, v) realising the distance between two vertex sets: v is the least
    ``target`` vertex nearest to ``source``, u the least ``source`` vertex
    nearest to v."""
    v = next(_bits(_meet(g, source, target)[1]))
    return next(_bits(_meet(g, 1 << v, source)[1])), v


def distance_reports(g: Graph) -> list[BicliqueDistanceReport]:
    """One report per unordered pair of distinct bicliques of ``g``.

    Every pair's biclique distance is computed once into an F x F matrix,
    from which the witness counts are read.
    """
    kb, family = biclique_graph(g)
    size = len(family)
    kb_dist = [distances_from(kb, 1 << i) for i in range(size)]
    d = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        d[i][j] = d[j][i] = biclique_distance(g, family, i, j)
    reports = []
    for i, j in combinations(range(size), 2):
        d_g = d[i][j]
        witness_count = None
        if d_g > 0:
            witness_count = sum(
                1 for w in range(size) if w not in (i, j) and d[w][i] < d_g and d[w][j] < d_g
            )
        reports.append(
            BicliqueDistanceReport(
                i=i,
                j=j,
                d_g=d_g,
                d_kb=int(kb_dist[i][j]),
                formula_value=(d_g + 1) // 2 + 1,
                closest_pair=_closest_pair(g, family[i].mask, family[j].mask),
                witness_count=witness_count,
            )
        )
    return reports


def verify_distance_formula(g: Graph) -> list[BicliqueDistanceReport]:
    """All pair reports; raises on the first formula violation (none exist)."""
    reports = distance_reports(g)
    for report in reports:
        if not report.holds:
            raise DistanceFormulaViolation(g, report)
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
