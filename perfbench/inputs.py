"""Seeded inputs for the corpus and recognize workloads.

The same seed always gives the same graph6 bytes; the program under test
sees only those bytes. Stream sizes and mixes are fixed, and the seed picks
edges, classes and labellings, so every seed asks for about the same work.

    python3 perfbench/inputs.py --workload corpus --seed 1 --out DIR

writes ``DIR/corpus.g6`` and ``DIR/corpus-warmup.g6`` and prints the
SHA-256 of each, so two runs can be shown to have used identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from pathlib import Path

import reference

DATA = Path(__file__).resolve().parent / "data"

#: Random corpus hosts: this many of each order. Cost grows as 2^n, so equal
#: counts per order keep each seed's total work close to every other's.
CORPUS_ORDERS = range(10, 17)
CORPUS_HOSTS_PER_ORDER = 26
#: Share of vertex pairs that are edges. The upper end keeps |KB(H)| well
#: below the graph6 limit; denser order-16 hosts overflow it.
CORPUS_DENSITY = (0.22, 0.27)
MAX_KB_ORDER = 62
#: Sparse structured hosts: cycles and grids (rows, columns).
CORPUS_CYCLES = range(7, 17)
CORPUS_GRIDS = ((3, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (4, 4))

#: recognize queries: (classifications, order, how many distinct classes to
#: draw; None for all). The median and the tail query lie inside the large
#: last group, all order-6 classes without a preimage, whose searches sweep
#: every host; taking all of them keeps the draw from moving either.
RECOGNIZE_MIX = (
    (("biclique-graph",), 4, None),
    (("biclique-graph",), 5, None),
    (("biclique-graph",), 6, None),
    (("not-biclique-graph",), 4, 2),
    (("not-biclique-graph",), 5, 5),
    (("not-biclique-graph", "unknown-within-bound"), 6, None),
)

def load_classes() -> list[tuple[str, int, str, str | None]]:
    """(graph6, order, classification, preimage) for every connected class of
    order 2..6, as catalogued with hosts of at most 7 vertices."""
    rows = []
    for line in (DATA / "classes.tsv").read_text().splitlines():
        if line and not line.startswith("#"):
            g6, order, category, preimage = line.split("\t")
            rows.append((g6, int(order), category, None if preimage == "-" else preimage))
    return rows


def _random_host(rng: random.Random, n: int) -> list[int]:
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    low, high = (round(share * len(pairs)) for share in CORPUS_DENSITY)
    while True:
        adj = reference.from_edges(n, rng.sample(pairs, rng.randint(low, high)))
        if reference.is_connected(adj) and len(reference.bicliques(adj)) <= MAX_KB_ORDER:
            return adj


def _grid(rows: int, cols: int) -> list[int]:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return reference.from_edges(rows * cols, edges)


def _shuffled(rng: random.Random, adj: list[int]) -> str:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return reference.encode(len(adj), reference.relabel(adj, perm))


def corpus(seed: int) -> tuple[list[str], list[str]]:
    """(warm-up hosts, timed hosts) as graph6 lines."""
    rng = random.Random(f"corpus-{seed}")
    hosts = [_random_host(rng, n) for n in CORPUS_ORDERS for _ in range(CORPUS_HOSTS_PER_ORDER)]
    hosts += [reference.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in CORPUS_CYCLES]
    hosts += [_grid(rows, cols) for rows, cols in CORPUS_GRIDS]
    stream = [_shuffled(rng, adj) for adj in hosts]
    rng.shuffle(stream)
    warmup = [reference.encode(10, reference.from_edges(10, [(i, (i + 1) % 10) for i in range(10)]))]
    return warmup, stream


def recognize(seed: int) -> tuple[list[str], list[str]]:
    """(warm-up query, timed queries): relabelled classes of order 4..6.

    The warm-up is a fixed class with no preimage, so its search sweeps every
    host order and the lazily generated host classes are built before timing.
    """
    rng = random.Random(f"recognize-{seed}")
    classes = load_classes()
    picks = []
    for categories, order, count in RECOGNIZE_MIX:
        cell = [g6 for g6, n, category, _ in classes if n == order and category in categories]
        picks += cell if count is None else rng.sample(cell, count)
    stream = [_shuffled(rng, reference.decode(g6)[1]) for g6 in picks]
    rng.shuffle(stream)
    warmup = [next(g6 for g6, n, category, _ in classes if n == 4 and category == "not-biclique-graph")]
    return warmup, stream


GENERATORS = {"corpus": corpus, "recognize": recognize}


def write(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write ``<workload>.g6`` and ``<workload>-warmup.g6``; return the
    SHA-256 of each file by name."""
    warmup, stream = GENERATORS[workload](seed)
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, lines in ((f"{workload}-warmup.g6", warmup), (f"{workload}.g6", stream)):
        data = "".join(line + "\n" for line in lines).encode("ascii")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, digest in write(args.workload, args.seed, args.out).items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
