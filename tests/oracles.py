"""Definition-literal oracles, deliberately independent of the library paths.

Each oracle here re-derives a quantity straight from its definition (subset
scans, permutation scans, submask scans) so the optimised implementations
can be checked against something that has no shared logic with them.
"""

from __future__ import annotations

from itertools import combinations, permutations

from biclique_lab.graphs import Graph, is_connected


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
