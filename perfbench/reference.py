"""Benchmark-owned graph code that shares nothing with the library under test.

The input generator and the output checker use it, so neither the inputs nor
the verdict on the outputs depend on the code being measured. Graphs are
``(n, adj)`` pairs, with ``adj[v]`` the neighbour bitmask of vertex ``v``.
"""

from __future__ import annotations


def decode(text: str) -> tuple[int, list[int]]:
    """Parse one graph6 line with a single-byte order header."""
    data = text.strip().encode("ascii")
    if not data or not 63 <= data[0] <= 125:
        raise ValueError(f"not a short graph6 line: {text!r}")
    n = data[0] - 63
    bits = []
    for byte in data[1:]:
        if not 63 <= byte <= 126:
            raise ValueError(f"byte {byte} outside graph6 range")
        bits.extend((byte - 63) >> k & 1 for k in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(data) - 1 != (len(pairs) + 5) // 6 or any(bits[len(pairs):]):
        raise ValueError(f"bad graph6 body length or padding: {text!r}")
    adj = [0] * n
    for (i, j), bit in zip(pairs, bits):
        if bit:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n, adj


def encode(n: int, adj: list[int]) -> str:
    """The graph6 line of ``(n, adj)``; ``n`` at most 62."""
    if not 1 <= n <= 62:
        raise ValueError(f"order {n} has no single-byte graph6 header")
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Vertex ``v`` becomes ``perm[v]``."""
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in range(len(adj)) if mask >> u & 1)
    return out


def bfs(adj: list[int], sources: int) -> list[int]:
    """Hop distance from the ``sources`` bitmask; -1 where unreachable."""
    dist = [-1] * len(adj)
    frontier, seen, d = sources, sources, 0
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                dist[v] = d
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


def is_connected(adj: list[int]) -> bool:
    return -1 not in bfs(adj, 1)


def bicliques(adj: list[int]) -> list[int]:
    """Vertex masks of all maximal induced complete bipartite subgraphs with
    both sides nonempty, sorted by vertex tuple.

    A set A + B is such a biclique exactly when A x {0} + B x {1} is a
    maximal clique with both parts nonempty in the doubled graph on
    V x {0, 1}, where (u, s) ~ (v, t) iff either s = t, u != v and uv is a
    non-edge, or s != t and uv is an edge. Cliques are listed by
    Bron-Kerbosch with pivoting; each biclique appears once per side order.
    """
    n = len(adj)
    full = (1 << n) - 1
    # Doubled vertex v + s*n; its neighbourhood as a 2n-bit mask.
    double = [0] * (2 * n)
    for v in range(n):
        same = full & ~adj[v] & ~(1 << v)
        double[v] = same | adj[v] << n
        double[v + n] = adj[v] | same << n
    found = set()

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if not candidates and not excluded:
            if clique & full and clique >> n:
                found.add((clique | clique >> n) & full)
            return
        pool = candidates | excluded
        pivot = max(
            (u for u in range(2 * n) if pool >> u & 1),
            key=lambda u: (double[u] & candidates).bit_count(),
        )
        for u in range(2 * n):
            if candidates >> u & 1 and not double[pivot] >> u & 1:
                expand(clique | 1 << u, candidates & double[u], excluded & double[u])
                candidates &= ~(1 << u)
                excluded |= 1 << u

    expand(0, (1 << 2 * n) - 1, 0)
    return sorted(found, key=lambda m: [v for v in range(n) if m >> v & 1])


def sides(adj: list[int], mask: int) -> tuple[int, int] | None:
    """(side of the lowest vertex, other side) if ``mask`` induces a
    connected complete bipartite graph on two or more vertices."""
    low = mask & -mask
    v0 = low.bit_length() - 1
    other = adj[v0] & mask
    own = mask & ~other
    if not other:
        return None
    for v in range(len(adj)):
        if own >> v & 1 and adj[v] & mask != other:
            return None
        if other >> v & 1 and adj[v] & mask != own:
            return None
    return own, other


def intersection_graph(masks: list[int]) -> list[int]:
    adj = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and a & b:
                adj[i] |= 1 << j
    return adj
