"""Necessary-condition battery for biclique graphs.

Every check here is a proved property of biclique graphs (graphs isomorphic
to KB(H) for some connected H): a graph failing an applicable check cannot
be a biclique graph, and each failure carries a concrete witness that can be
re-validated against the graph.  Passing everything decides nothing.

The battery:

* ``p3_diamond_gem``       every induced P3 lies in an induced diamond, or
                           in an induced gem with the P3 joining the two P4
                           ends through the hub.
* ``biconnectivity_min_degree``  2-connected, and min degree >= 2 once the
                           graph has >= 3 vertices (K1, K2 pass by
                           convention, noted in the result).
* ``twin_k2``              no two vertices share an open neighbourhood that
                           induces a K2 (not applicable to the diamond).
* ``forbidden_subgraph``   no induced Hajos graph / rising sun / x1 whose
                           degree-2 vertices keep degree 2 in the host.
* ``degree2_bound``        fewer than n/2 vertices of degree two (not
                           applicable to K3 and the diamond).
* ``helly_degree2``        the closed neighbourhoods of degree-2 vertices
                           form a Helly family, tested on triples.
* ``gem_wing``             for an induced P3 v1v2v3 in no diamond but in a
                           gem with wings v4 (over v1) and v5 (over v3), any
                           vertex nonadjacent to v1 sharing no diamond with
                           v1 must avoid v4 as well.

Open vs closed neighbourhoods are load-bearing: twin_k2 compares open
neighbourhoods, helly_degree2 intersects closed ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .graphs import Graph, _bits, _require_connected, cut_vertices, write_graph6
from .patterns import FORBIDDEN_PATTERNS


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckResult:
    verdict: Verdict
    witness: tuple | None = None
    note: str | None = None

    @property
    def failed(self) -> bool:
        return self.verdict is Verdict.FAIL

    def to_json(self) -> dict:
        data: dict = {"verdict": self.verdict.value}
        if self.witness is not None:
            data["witness"] = _jsonable(self.witness)
        if self.note:
            data["note"] = self.note
        return data


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


_PASS = CheckResult(Verdict.PASS)

def induced_p3s(g: Graph):
    """All induced paths (u, v, w), u < w, uv and vw edges, uw a non-edge."""
    adj = g.adj
    for v in range(g.n):
        nb = adj[v]
        for u in _bits(nb):
            rest = nb >> (u + 1) << (u + 1)
            for w in _bits(rest & ~adj[u]):
                yield (u, v, w)


def p3_in_diamond(g: Graph, u: int, v: int, w: int) -> bool:
    """Some x adjacent to u, v, w; then {u,v,w,x} induces a diamond."""
    return bool(g.adj[u] & g.adj[v] & g.adj[w])


def _gem_wings(g: Graph, u: int, v: int, w: int):
    """Wings (z1, z2), z1 over u and z2 over w with z1 ~ z2, completing the
    P3 u-v-w to an induced gem: P4 u-z1-z2-w plus hub v."""
    adj = g.adj
    over_w = adj[w] & adj[v] & ~adj[u]
    for z1 in _bits(adj[u] & adj[v] & ~adj[w]):
        for z2 in _bits(adj[z1] & over_w):
            yield z1, z2


def check_p3_diamond_gem(g: Graph) -> CheckResult:
    """The first induced P3 u-v-w, in ``induced_p3s`` order, with no common
    neighbour of all three (no diamond) and no gem wings fails the check."""
    _require_connected(g)
    adj = g.adj
    for v in range(g.n):
        nb = adj[v]
        for u in _bits(nb):
            common = adj[u] & nb
            for w in _bits(nb >> (u + 1) << (u + 1) & ~adj[u]):
                if adj[w] & common or any(_gem_wings(g, u, v, w)):
                    continue
                return CheckResult(
                    Verdict.FAIL, witness=(u, v, w), note="induced P3 in no diamond or gem"
                )
    return _PASS


def check_biconnectivity_min_degree(g: Graph) -> CheckResult:
    _require_connected(g)
    if g.n <= 2:
        return CheckResult(Verdict.PASS, note="K1/K2 counted as 2-connected by convention")
    for v in range(g.n):
        if g.adj[v].bit_count() < 2:
            return CheckResult(Verdict.FAIL, witness=(v,), note="vertex of degree <= 1")
    cuts = cut_vertices(g)
    if cuts:
        return CheckResult(Verdict.FAIL, witness=(cuts[0],), note="cut vertex")
    return _PASS


def _is_diamond(g: Graph) -> bool:
    return g.n == 4 and g.degree_sequence() == (2, 2, 3, 3) and g.edge_count() == 5


def check_twin_k2(g: Graph) -> CheckResult:
    _require_connected(g)
    if _is_diamond(g):
        return CheckResult(Verdict.NOT_APPLICABLE, note="the diamond is exempt")
    by_neighbourhood: dict[int, int] = {}
    for v in range(g.n):
        nb = g.adj[v]
        if nb in by_neighbourhood:
            if nb.bit_count() == 2:
                a = (nb & -nb).bit_length() - 1
                b = (nb ^ (nb & -nb)).bit_length() - 1
                if (g.adj[a] >> b) & 1:
                    return CheckResult(
                        Verdict.FAIL,
                        witness=(by_neighbourhood[nb], v),
                        note="equal open neighbourhoods inducing K2",
                    )
        else:
            by_neighbourhood[nb] = v
    return _PASS


def find_constrained_induced_embedding(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """An induced embedding of ``pattern`` into ``host`` where every
    degree-2 vertex of ``pattern`` maps onto a host vertex of degree exactly 2.

    Returns the image tuple (index-aligned with pattern vertices) or None.
    """
    p, n = pattern.n, host.n
    if p > n:
        return None
    host_deg = [host.adj[v].bit_count() for v in range(n)]
    pat_deg = [pattern.adj[v].bit_count() for v in range(p)]
    base = []
    for pv in range(p):
        mask = 0
        for hv in range(n):
            if pat_deg[pv] == 2:
                ok = host_deg[hv] == 2
            else:
                ok = host_deg[hv] >= pat_deg[pv]
            if ok:
                mask |= 1 << hv
        if mask == 0:
            return None
        base.append(mask)

    # Placement order: rarest candidate set first, then prefer vertices
    # adjacent to already-placed ones so the masks cut early.
    order: list[int] = []
    placed = 0
    while len(order) < p:
        best, best_key = -1, None
        for pv in range(p):
            if (placed >> pv) & 1:
                continue
            attached = bool(pattern.adj[pv] & placed)
            key = (not attached, base[pv].bit_count())
            if best_key is None or key < best_key:
                best, best_key = pv, key
        order.append(best)
        placed |= 1 << best

    image = [-1] * p

    def extend(step: int, used: int) -> bool:
        if step == p:
            return True
        pv = order[step]
        allowed = base[pv] & ~used
        for prev in order[:step]:
            if (pattern.adj[pv] >> prev) & 1:
                allowed &= host.adj[image[prev]]
            else:
                allowed &= ~host.adj[image[prev]]
            if not allowed:
                return False
        for hv in _bits(allowed):
            image[pv] = hv
            if extend(step + 1, used | (1 << hv)):
                return True
        image[pv] = -1
        return False

    if extend(0, 0):
        return tuple(image)
    return None


def check_forbidden_subgraphs(g: Graph) -> CheckResult:
    _require_connected(g)
    for pattern in FORBIDDEN_PATTERNS:
        image = find_constrained_induced_embedding(pattern.graph, g)
        if image is not None:
            return CheckResult(
                Verdict.FAIL,
                witness=(pattern.name, image),
                note="induced forbidden pattern with degree-2 vertices preserved",
            )
    return _PASS


def check_degree2_bound(g: Graph) -> CheckResult:
    _require_connected(g)
    if (g.n == 3 and g.edge_count() == 3) or _is_diamond(g):
        return CheckResult(Verdict.NOT_APPLICABLE, note="K3 and the diamond are exempt")
    count = sum(1 for v in range(g.n) if g.adj[v].bit_count() == 2)
    note = f"{count} degree-2 vertices of {g.n}"
    if 2 * count >= g.n:
        return CheckResult(Verdict.FAIL, witness=(count, g.n), note=note)
    return CheckResult(Verdict.PASS, note=note)


def check_helly_degree2(g: Graph) -> CheckResult:
    """Triples of degree-2 closed neighbourhoods that pairwise meet must
    share a vertex.  Triples suffice on the graphs this battery is sound
    for, where each such neighbourhood induces a triangle."""
    _require_connected(g)
    deg2 = [v for v in range(g.n) if g.adj[v].bit_count() == 2]
    closed = {v: g.adj[v] | (1 << v) for v in deg2}
    for a, b, c in combinations(deg2, 3):
        na, nb, nc = closed[a], closed[b], closed[c]
        if na & nb and na & nc and nb & nc and not (na & nb & nc):
            return CheckResult(
                Verdict.FAIL,
                witness=(a, b, c),
                note="pairwise-meeting degree-2 closed neighbourhoods with empty core",
            )
    return _PASS


def has_diamond_with_pair(g: Graph, u: int, v: int) -> bool:
    """Is there an induced diamond of g containing both u and v?

    For a nonadjacent pair this happens exactly when two adjacent common
    neighbours exist; an adjacent pair sits in a diamond when some common
    neighbour pair is nonadjacent or some common neighbour sees a private
    neighbour of u or v.
    """
    adj = g.adj
    common = adj[u] & adj[v]
    if not (adj[u] >> v) & 1:
        for x in _bits(common):
            if adj[x] & common:
                return True
        return False
    # adjacent pair: u, v are the degree-3 vertices or one of each
    for x in _bits(common):
        rest = common & ~(1 << x)
        if rest & ~adj[x]:
            return True  # x, y common, nonadjacent: u,v universal pair
        # x common neighbour; fourth vertex adjacent to x and exactly one of u, v
        side = (adj[x] & adj[u] & ~adj[v]) | (adj[x] & adj[v] & ~adj[u])
        side &= ~(1 << u) & ~(1 << v)
        if side:
            return True
    return False


def check_gem_wing(g: Graph) -> CheckResult:
    """A diamond-free induced P3 whose every gem completion is contradicted.

    For the gem completion a biclique graph is guaranteed to have, a vertex
    nonadjacent to v1 and sharing no diamond with v1 cannot meet the wing v4
    over v1.  A single contradicted completion proves nothing when others
    exist (the guaranteed completion may be another one), so this fails only
    when the P3 has at least one completion and all of them are contradicted.
    """
    _require_connected(g)
    adj = g.adj
    full = g.vertex_mask()
    for v2 in range(g.n):
        nb = adj[v2]
        for v1 in _bits(nb):
            common = adj[v1] & nb
            for v3 in _bits(nb & ~adj[v1] & ~(1 << v1)):
                if adj[v3] & common:
                    continue
                witness = None
                for v4, v5 in _gem_wings(g, v1, v2, v3):
                    gem_mask = (1 << v1) | (1 << v2) | (1 << v3) | (1 << v4) | (1 << v5)
                    outside = full & ~gem_mask & ~adj[v1] & adj[v4]
                    violator = next(
                        (v for v in _bits(outside) if not has_diamond_with_pair(g, v, v1)), None
                    )
                    if violator is None:
                        break
                    if witness is None:
                        witness = (v1, v2, v3, v4, v5, violator)
                else:
                    if witness is not None:
                        return CheckResult(
                            Verdict.FAIL,
                            witness=witness,
                            note="vertex meets the gem wing while diamond-free from v1",
                        )
    return _PASS


_CHECK_FUNCTIONS = {
    "p3_diamond_gem": check_p3_diamond_gem,
    "biconnectivity_min_degree": check_biconnectivity_min_degree,
    "twin_k2": check_twin_k2,
    "forbidden_subgraph": check_forbidden_subgraphs,
    "degree2_bound": check_degree2_bound,
    "helly_degree2": check_helly_degree2,
    "gem_wing": check_gem_wing,
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECK_FUNCTIONS)

OVERALL_EXCLUDED = "cannot-be-biclique-graph"
OVERALL_UNDECIDED = "passes-all-checks"


@dataclass(frozen=True)
class ObstructionReport:
    graph6: str
    checks: dict[str, CheckResult]

    @property
    def excluded(self) -> bool:
        return any(result.failed for result in self.checks.values())

    @property
    def overall(self) -> str:
        return OVERALL_EXCLUDED if self.excluded else OVERALL_UNDECIDED

    @property
    def failing_checks(self) -> tuple[str, ...]:
        return tuple(name for name in CHECK_NAMES if self.checks[name].failed)

    def to_json(self) -> dict:
        return {
            "schema": "obstruction-report/1",
            "graph6": self.graph6,
            "overall": self.overall,
            "checks": {name: self.checks[name].to_json() for name in CHECK_NAMES},
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


def classify(g: Graph) -> ObstructionReport:
    """Run the whole battery; excluded iff any applicable check fails."""
    _require_connected(g)
    checks = {name: check(g) for name, check in _CHECK_FUNCTIONS.items()}
    return ObstructionReport(graph6=write_graph6(g), checks=checks)
