"""Counterexample scans for three open questions about biclique graphs.

Scanned claims (a scan only ever reports per graph; global statements are
summaries, never proofs).  On the certified biclique graphs of up to 6
vertices every claim survives under its default reading; the superset
reading of generalized twins does not (see below):

* simplicial-helly:   closed neighbourhoods of simplicial vertices form a
                      Helly family.
* generalized-twins:  no i >= 2 vertices share an open neighbourhood that is
                      contained in a clique of size i (diamond exempt).
* hamiltonian:        every biclique graph has a Hamiltonian cycle.

A counterexample verdict needs both the structural configuration and a
*certified* biclique graph (one carrying a verified preimage), so scans are
driven off catalogue entries.  Witnesses re-validate against the graph.

The phrase "contained in a K_i" is ambiguous; the default reading is a
complete subgraph on exactly i vertices (for i = 2 this coincides with the
twin test of the obstruction battery whenever the shared neighbourhood has
two vertices).  The alternative reading, any complete subgraph on at least
i vertices, is available behind ``containment="superset"``.  It is refuted:
``D^{`` (K5 - e), ``EB~w`` and ``E^~w`` (K6 - e) are certified biclique
graphs with two twins whose shared neighbourhood is a clique on three or
more vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from .graphs import Graph, CapabilityError, _bits, _require_connected
from .obstructions import _is_diamond

#: Full-subfamily Helly checks are exponential in the family size.
MAX_HELLY_FAMILY = 16

CONJECTURES = ("simplicial-helly", "generalized-twins", "hamiltonian")


@dataclass(frozen=True)
class ConjectureFinding:
    conjecture: str
    graph6: str
    verdict: str  # consistent | counterexample | not-applicable
    witness: tuple | None = None
    note: str | None = None

    def to_json(self) -> dict:
        data = {
            "schema": "conjecture-finding/1",
            "conjecture": self.conjecture,
            "graph6": self.graph6,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            data["witness"] = [list(w) if isinstance(w, tuple) else w for w in self.witness]
        if self.note:
            data["note"] = self.note
        return data


def simplicial_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices whose open neighbourhood induces a complete graph."""
    return tuple(v for v in range(g.n) if _is_complete_set(g, g.adj[v]))


def non_helly_subfamily(sets: list[int]) -> tuple[int, ...] | None:
    """Indices of a pairwise-intersecting subfamily with empty intersection,
    or None when the family is Helly.  Checks every subfamily, so the proved
    triple reduction is not assumed."""
    size = len(sets)
    if size > MAX_HELLY_FAMILY:
        raise CapabilityError(f"Helly check supports families of <= {MAX_HELLY_FAMILY} sets")

    def grow(chosen: list[int], meet: int, start: int) -> tuple[int, ...] | None:
        if len(chosen) >= 2 and meet == 0:
            return tuple(chosen)
        for index in range(start, size):
            if all(sets[index] & sets[c] for c in chosen):
                result = grow(chosen + [index], meet & sets[index], index + 1)
                if result is not None:
                    return result
        return None

    return grow([], ~0, 0)


def check_simplicial_helly(g: Graph, graph6: str = "") -> ConjectureFinding:
    _require_connected(g)
    simplicial = simplicial_vertices(g)
    closed = [g.adj[v] | (1 << v) for v in simplicial]
    bad = non_helly_subfamily(closed)
    if bad is None:
        return ConjectureFinding("simplicial-helly", graph6, "consistent")
    return ConjectureFinding(
        "simplicial-helly",
        graph6,
        "counterexample",
        witness=tuple(simplicial[k] for k in bad),
        note="pairwise-meeting simplicial closed neighbourhoods with empty core",
    )


def _is_complete_set(g: Graph, mask: int) -> bool:
    for v in _bits(mask):
        if mask & ~(g.adj[v] | (1 << v)):
            return False
    return True


def _clique_exactly(g: Graph, base: int, size: int) -> int | None:
    """A complete vertex set of exactly ``size`` vertices containing ``base``."""
    have = base.bit_count()
    if have > size or not _is_complete_set(g, base):
        return None
    if have == size:
        return base
    common = g.vertex_mask() & ~base
    for v in _bits(base):
        common &= g.adj[v]

    def extend(mask: int, candidates: int, left: int) -> int | None:
        if left == 0:
            return mask
        for v in _bits(candidates):
            result = extend(mask | (1 << v), candidates & g.adj[v] & ~((2 << v) - 1), left - 1)
            if result is not None:
                return result
        return None

    return extend(base, common, size - have)


def iter_generalized_twins(g: Graph, i_max: int | None = None, containment: str = "exact"):
    """All witnesses of i >= 2 vertices sharing one open neighbourhood that
    lies inside a K_i.

    ``containment="exact"`` wants a complete subgraph on exactly i vertices,
    ``"superset"`` accepts any complete subgraph on >= i vertices.  Witness
    dicts re-validate against the graph.
    """
    if containment not in ("exact", "superset"):
        raise ValueError("containment must be 'exact' or 'superset'")
    limit = g.n if i_max is None else i_max
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    for nb, twins in sorted(groups.items()):
        if len(twins) < 2 or not _is_complete_set(g, nb):
            continue
        have = nb.bit_count()
        for i in range(2, min(len(twins), limit) + 1):
            clique = _clique_exactly(g, nb, i)
            if clique is None and containment == "superset" and have >= i:
                clique = nb
            if clique is not None:
                yield {
                    "vertices": tuple(twins[:i]),
                    "i": i,
                    "common_neighbourhood": tuple(_bits(nb)),
                    "clique": tuple(_bits(clique)),
                }


def find_generalized_twins(
    g: Graph, i_max: int | None = None, containment: str = "exact"
) -> dict | None:
    """First generalized-twin witness, or None."""
    return next(iter_generalized_twins(g, i_max=i_max, containment=containment), None)


def _forbidden_configuration(
    conjecture: str,
    graph6: str,
    certified: bool,
    notes: tuple[str, str],
    witness: tuple | None = None,
) -> ConjectureFinding:
    """A forbidden configuration is a counterexample only on a certified
    biclique graph, otherwise consistent; ``notes`` is (certified, otherwise)."""
    verdict, note = ("counterexample", notes[0]) if certified else ("consistent", notes[1])
    return ConjectureFinding(conjecture, graph6, verdict, witness, note)


def check_generalized_twins(
    g: Graph,
    graph6: str = "",
    i_max: int | None = None,
    containment: str = "exact",
    certified: bool = False,
) -> ConjectureFinding:
    """Counterexample only when the configuration sits in a certified
    biclique graph; the diamond is exempt by hypothesis."""
    _require_connected(g)
    if _is_diamond(g):
        return ConjectureFinding(
            "generalized-twins", graph6, "not-applicable", note="the diamond is exempt"
        )
    witness = find_generalized_twins(g, i_max=i_max, containment=containment)
    if witness is None:
        return ConjectureFinding("generalized-twins", graph6, "consistent")
    flat = (witness["vertices"], witness["i"], witness["common_neighbourhood"], witness["clique"])
    notes = (
        "shared neighbourhood inside a K_i in a certified biclique graph",
        "configuration present but the graph is not a certified biclique graph",
    )
    return _forbidden_configuration("generalized-twins", graph6, certified, notes, flat)


def _rotation_extension_cycle(g: Graph) -> tuple[int, ...] | None:
    """Deterministic rotation-extension pass: grow a path greedily, rotate
    only when the new end makes progress, close with a single rotation.
    Finds cycles fast on dense graphs; giving up proves nothing."""
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    path = [0]
    position = [-1] * n
    position[0] = 0
    visited = 1

    def rotate_to(i: int) -> None:
        tail = path[i + 1 :]
        tail.reverse()
        path[i + 1 :] = tail
        for offset, vertex in enumerate(tail, start=i + 1):
            position[vertex] = offset

    for _ in range(4 * n * n):
        end = path[-1]
        ext = adj[end] & ~visited
        if ext:
            w = (ext & -ext).bit_length() - 1
            path.append(w)
            position[w] = len(path) - 1
            visited |= 1 << w
            continue
        if visited == full:
            if adj[end] & 1:
                return tuple(path)
            for u in _bits(adj[end]):
                i = position[u]
                if i + 1 < len(path) and adj[path[i + 1]] & 1:
                    rotate_to(i)
                    return tuple(path)
            return None
        progressed = False
        for u in _bits(adj[end]):
            i = position[u]
            if i + 1 >= len(path):
                continue
            if adj[path[i + 1]] & ~visited:
                rotate_to(i)
                progressed = True
                break
        if not progressed:
            return None
    return None


def hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """A Hamiltonian cycle as a vertex tuple, or None.

    A rotation-extension pass handles dense instances constructively; exact
    backtracking with an availability prune (every unvisited vertex still
    needs two usable connections, one of which may be the start) decides the
    rest.  Fine to ~20 vertices in the sparse worst case.
    """
    n = g.n
    if n < 3:
        return None
    adj = g.adj
    if any(adj[v].bit_count() < 2 for v in range(n)):
        return None
    found = _rotation_extension_cycle(g)
    if found is not None:
        return found
    full = (1 << n) - 1
    path = [0]

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[v] & 1)
        avail = ~visited & full
        if not adj[0] & (avail | (1 << v)):
            return False  # the start can no longer get a second cycle edge
        for u in _bits(avail):
            links = (adj[u] & (avail | (1 << v))).bit_count()
            if links >= 2:
                continue
            if links == 1 and adj[u] & 1:
                continue
            return False
        moves = sorted(
            _bits(adj[v] & avail), key=lambda w: (adj[w] & avail).bit_count()
        )
        for w in moves:
            path.append(w)
            if extend(w, visited | (1 << w)):
                return True
            path.pop()
        return False

    if extend(0, 1):
        return tuple(path)
    return None


def check_hamiltonian(g: Graph, graph6: str = "", certified: bool = False) -> ConjectureFinding:
    _require_connected(g)
    if g.n < 3:
        return ConjectureFinding(
            "hamiltonian", graph6, "not-applicable", note="needs at least 3 vertices"
        )
    cycle = hamiltonian_cycle(g)
    if cycle is not None:
        return ConjectureFinding("hamiltonian", graph6, "consistent", witness=(cycle,))
    notes = (
        "certified biclique graph with no Hamiltonian cycle",
        "non-Hamiltonian but not a certified biclique graph",
    )
    return _forbidden_configuration("hamiltonian", graph6, certified, notes)


def scan_certified_graphs(
    certified: list[tuple[str, Graph]],
    i_max: int | None = None,
    containment: str = "exact",
) -> list[ConjectureFinding]:
    """All three scans over (graph6, graph) pairs of certified biclique
    graphs; findings stream in a deterministic order."""
    findings = []
    for graph6, g in certified:
        findings.append(check_simplicial_helly(g, graph6))
        findings.append(
            check_generalized_twins(g, graph6, i_max=i_max, containment=containment, certified=True)
        )
        findings.append(check_hamiltonian(g, graph6, certified=True))
    return findings
