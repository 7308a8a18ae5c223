"""Definition-literal oracles, deliberately independent of the library paths.

Each oracle here re-derives a quantity straight from its definition (subset
scans, permutation scans, submask scans) so the optimised implementations
can be checked against something that has no shared logic with them.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from itertools import combinations, permutations
from types import MappingProxyType

from biclique_lab.bicliques import biclique_graph
from biclique_lab.graphs import Graph, canonical_form, enumerate_connected_graphs, is_connected


def bits_oracle(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask``, one shift and test per position."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def is_complete_bipartite_literal(g: Graph, vertices: tuple[int, ...]) -> bool:
    """Try every 2-colouring: both sides nonempty, all cross pairs edges,
    no edges inside a side."""
    k = len(vertices)
    if k < 2:
        return False
    for assignment in range(1, (1 << k) - 1):
        side_a = [v for i, v in enumerate(vertices) if (assignment >> i) & 1]
        side_b = [v for i, v in enumerate(vertices) if not (assignment >> i) & 1]
        if all(g.has_edge(a, b) for a in side_a for b in side_b) and not any(
            g.has_edge(x, y) for x, y in combinations(side_a, 2)
        ) and not any(g.has_edge(x, y) for x, y in combinations(side_b, 2)):
            return True
    return False


def bicliques_oracle(g: Graph) -> list[tuple[int, ...]]:
    """Maximal induced complete bipartite subsets by exhaustive subset scan
    with inclusion-based maximality."""
    qualifying = [
        frozenset(subset)
        for size in range(2, g.n + 1)
        for subset in combinations(range(g.n), size)
        if is_complete_bipartite_literal(g, subset)
    ]
    maximal = [
        s for s in qualifying if not any(s < t for t in qualifying)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)


def biclique_graph_oracle(g: Graph) -> Graph:
    """KB(G) straight from its definition: one vertex per biclique of
    ``bicliques_oracle``, adjacent when the two bicliques share a vertex."""
    family = [set(b) for b in bicliques_oracle(g)]
    return Graph(
        len(family),
        [(a, b) for a, b in combinations(range(len(family)), 2) if family[a] & family[b]],
    )


def graph6_oracle(g: Graph) -> str:
    """graph6 bit by bit: the order byte, then adj(i,j) over the pairs
    (0,1), (0,2), (1,2), (0,3), ... six bits to a character, the last one
    zero-padded."""
    chars = [chr(63 + g.n)]
    value, width = 0, 0
    for j in range(1, g.n):
        for i in range(j):
            value = (value << 1) | g.has_edge(i, j)
            width += 1
            if width == 6:
                chars.append(chr(63 + value))
                value, width = 0, 0
    if width:
        chars.append(chr(63 + (value << (6 - width))))
    return "".join(chars)


def canonical_oracle(g: Graph) -> str:
    """Least graph6 string over every relabeling, by scanning all n!
    orderings for the least bit string and packing it with ``graph6_oracle``."""
    n = g.n
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    best = min(
        (tuple(g.has_edge(order[i], order[j]) for i, j in pairs), order)
        for order in permutations(range(n))
    )[1]
    return graph6_oracle(Graph(n, [(i, j) for i, j in pairs if g.has_edge(best[i], best[j])]))


def hamiltonian_oracle(g: Graph) -> bool:
    """Scan every cyclic order with vertex 0 first."""
    n = g.n
    if n < 3:
        return False
    adj = g.adj
    for perm in permutations(range(1, n)):
        previous = 0
        ok = True
        for v in perm:
            if not (adj[previous] >> v) & 1:
                ok = False
                break
            previous = v
        if ok and (adj[previous] & 1):
            return True
    return False


def connected_classes_oracle(n: int, canonical) -> set[str]:
    """All connected isomorphism classes by brute force over labeled graphs,
    deduplicated with the supplied canonical-form function."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
        g = Graph(n, edges)
        if is_connected(g):
            classes.add(canonical(g))
    return classes


def automorphisms_oracle(g: Graph) -> list[tuple[int, ...]]:
    """Aut(g) by scanning every permutation p (vertex v goes to p[v]) and
    keeping those that map every edge onto an edge."""
    return [
        p for p in permutations(range(g.n))
        if all(g.has_edge(p[u], p[v]) for u, v in g.edges())
    ]


def augmented_classes_oracle(n: int, canonical) -> dict[str, Graph]:
    """Connected classes of order n as {key: a member}: every class of order
    n-1 (from this oracle, down to K1) plus one vertex joined to every
    nonempty subset, with no filter, deduplicated with the supplied
    canonical-form function."""
    if n == 1:
        return {canonical(Graph(1)): Graph(1)}
    classes: dict[str, Graph] = {}
    for parent in augmented_classes_oracle(n - 1, canonical).values():
        for size in range(1, n):
            for neighbours in combinations(range(n - 1), size):
                child = Graph(n, [*parent.edges(), *((v, n - 1) for v in neighbours)])
                classes.setdefault(canonical(child), child)
    return classes


def non_helly_submask_oracle(sets: list[int]) -> tuple[int, ...] | None:
    """Pairwise-intersecting subfamily with empty meet, by scanning every
    submask of the family."""
    size = len(sets)
    for submask in range(1, 1 << size):
        chosen = [k for k in range(size) if (submask >> k) & 1]
        if len(chosen) < 2:
            continue
        if any(not (sets[a] & sets[b]) for a, b in combinations(chosen, 2)):
            continue
        meet = ~0
        for k in chosen:
            meet &= sets[k]
        if meet == 0:
            return tuple(chosen)
    return None


def biclique_distance_oracle(g: Graph, family, i: int, j: int) -> int:
    """Minimum pairwise BFS distance between two bicliques."""
    from biclique_lab.graphs import distance

    return min(
        distance(g, a, b)
        for a in family[i].vertices
        for b in family[j].vertices
    )


def _all_pairs_distances(g: Graph) -> list[list[float]]:
    """Floyd-Warshall over ``has_edge``: every vertex distance, inf across
    components."""
    n = g.n
    dist = [
        [0 if a == b else 1 if g.has_edge(a, b) else float("inf") for b in range(n)]
        for a in range(n)
    ]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                dist[a][b] = min(dist[a][b], dist[a][k] + dist[k][b])
    return dist


def _bfs_distances(neighbours: list[set[int]], source: int) -> list[float]:
    """Plain queue BFS over adjacency sets."""
    dist = [float("inf")] * len(neighbours)
    dist[source] = 0
    queue = [source]
    for a in queue:
        for b in neighbours[a]:
            if dist[b] == float("inf"):
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


def distance_reports_oracle(
    g: Graph, bicliques: list[tuple[int, ...]] | None = None
) -> list[tuple]:
    """(i, j, d_g, d_kb, formula_value, closest_pair, witness_count) per pair
    i < j of bicliques, each field from its definition.

    ``bicliques`` defaults to ``bicliques_oracle(g)``; its subset scan grows
    as 3^n, so hosts past order 9 pass a family checked elsewhere.  d_g is
    the least vertex distance over the pair; v is the least vertex of B_j
    at d_g from B_i and u the least vertex of B_i at d_g from v; d_kb is a
    BFS distance in the intersection graph; the witness count counts the
    other bicliques within d_g - 1 of both (None for an overlapping pair).
    """
    family = sorted(bicliques_oracle(g) if bicliques is None else bicliques)
    dist = _all_pairs_distances(g)

    def set_distance(side_a, side_b):
        return min(dist[a][b] for a in side_a for b in side_b)

    size = len(family)
    neighbours = [
        {b for b in range(size) if b != a and set(family[a]) & set(family[b])}
        for a in range(size)
    ]
    kb_dist = [_bfs_distances(neighbours, a) for a in range(size)]
    reports = []
    for i, j in combinations(range(size), 2):
        side_i, side_j = family[i], family[j]
        d_g = set_distance(side_i, side_j)
        v = min(v for v in side_j if set_distance(side_i, (v,)) == d_g)
        u = min(u for u in side_i if dist[u][v] == d_g)
        witnesses = None
        if d_g > 0:
            witnesses = sum(
                1
                for w in range(size)
                if w not in (i, j)
                and set_distance(family[w], side_i) <= d_g - 1
                and set_distance(family[w], side_j) <= d_g - 1
            )
        reports.append((i, j, d_g, kb_dist[i][j], (d_g + 1) // 2 + 1, (u, v), witnesses))
    return reports


def _induces(g: Graph, vertices: tuple[int, ...], edges: set[tuple[int, int]]) -> bool:
    """Does position pair (a, b), a < b, carry an edge exactly when it is in
    ``edges``?"""
    return all(
        g.has_edge(vertices[a], vertices[b]) == ((a, b) in edges)
        for a, b in combinations(range(len(vertices)), 2)
    )


#: The gem as P4 0-1-2-3 plus hub 4.
_GEM_EDGES = {(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)}


def p3_diamond_gem_oracle(g: Graph) -> tuple[int, int, int] | None:
    """The first induced P3 u-v-w (by v, then u, then w > u) lying in no
    induced diamond and in no induced gem whose P4 ends are u and w with hub
    v, both tested on every 4- and 5-vertex superset; None if there is none."""
    n = g.n
    for v in range(n):
        for u in range(n):
            for w in range(u + 1, n):
                if not (g.has_edge(u, v) and g.has_edge(v, w)) or g.has_edge(u, w):
                    continue
                others = [x for x in range(n) if x not in (u, v, w)]
                # K4 minus an edge, the diamond: five of the six pairs
                in_diamond = any(
                    sum(g.has_edge(a, b) for a, b in combinations((u, v, w, x), 2)) == 5
                    for x in others
                )
                in_gem = any(
                    _induces(g, (u, z1, z2, w, v), _GEM_EDGES)
                    for z1, z2 in permutations(others, 2)
                )
                if not (in_diamond or in_gem):
                    return u, v, w
    return None


def subgraph_embedding_exists(small: Graph, big: Graph) -> bool:
    """Injective vertex map carrying every edge of ``small`` to an edge of
    ``big`` (not necessarily induced)."""
    if small.n > big.n or small.edge_count() > big.edge_count():
        return False
    order = sorted(range(small.n), key=lambda v: -small.adj[v].bit_count())
    image = [-1] * small.n

    def extend(step: int, used: int) -> bool:
        if step == small.n:
            return True
        sv = order[step]
        for hv in range(big.n):
            if (used >> hv) & 1:
                continue
            if big.adj[hv].bit_count() < small.adj[sv].bit_count():
                continue
            if any(
                (small.adj[sv] >> order[k]) & 1 and not (big.adj[hv] >> image[order[k]]) & 1
                for k in range(step)
            ):
                continue
            image[sv] = hv
            if extend(step + 1, used | (1 << hv)):
                return True
        image[sv] = -1
        return False

    return extend(0, 0)


@cache
def host_kbs(n: int) -> tuple[tuple[Graph, Graph], ...]:
    """(host, KB(host)) for every connected class on n vertices, in
    generation order, computed once per process: the acceptance host scan
    and ``first_preimages_oracle`` read the same walk."""
    return tuple((host, biclique_graph(host)[0]) for host in enumerate_connected_graphs(n))


@cache
def first_preimages_oracle(max_g: int, max_h: int) -> Mapping[str, Graph]:
    """The preimage sweep from its definition: every connected class on
    2..max_h vertices in generation order (by order, then canonical form),
    its full KB with no biclique cap and no twin pruning, and the first host
    of each KB class on 1..max_g vertices, keyed by canonical form.  It
    shares generation, KB and canonical form with the library, each checked
    against its own oracle, but none of the sweep's pruning.  Memoised, so
    the mapping is read-only."""
    first: dict[str, Graph] = {}
    for n in range(2, max_h + 1):
        for host, kb in host_kbs(n):
            if 1 <= kb.n <= max_g:
                first.setdefault(canonical_form(kb), host)
    return MappingProxyType(first)
