"""Output checks that do not trust the code under test.

Each check recomputes what an output claims with code that shares nothing
with the library: ``reference.py`` and the definition-literal oracles of
``tests/oracles.py`` (``bicliques_oracle``, ``canonical_oracle``). At the
default seed, per-item digests of exit code and stdout must also equal the
golden ones recorded at the seed commit; the catalogue's outputs do not
depend on the seed, so its digest is checked on every run.

``check_item`` returns a list of (operation index, problem) pairs; an empty
list means every operation of the item passed.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "data" / "golden.json"
DEFAULT_SEED = 1
MAX_H_ORDER = 7
#: Connected classes on 2..6 vertices (OEIS A001349).
CLASS_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
PASSING = ("pass", "not-applicable")


@lru_cache(maxsize=None)
def oracles():
    """``tests/oracles.py`` of the checkout, loaded by path."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_graph(n: int, adj: list[int]):
    graph_type = oracles().Graph
    return graph_type(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])


def canonical(g6: str) -> str:
    return oracles().canonical_oracle(_oracle_graph(*reference.decode(g6)))


def verify_preimage(host_g6: str, target_g6: str) -> str | None:
    """Problem with the claim KB(host) ~ target, or None if it holds."""
    n, adj = reference.decode(host_g6)
    if n > MAX_H_ORDER or not reference.is_connected(adj):
        return f"preimage {host_g6} is disconnected or has more than {MAX_H_ORDER} vertices"
    family = oracles().bicliques_oracle(_oracle_graph(n, adj))
    masks = [sum(1 << v for v in vertices) for vertices in family]
    kb = reference.encode(len(masks), reference.intersection_graph(masks))
    if canonical(kb) != canonical(target_g6):
        return f"KB({host_g6}) is not isomorphic to {target_g6}"
    return None


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def check_corpus(host: str, ops: list[dict]) -> list[tuple[int, str]]:
    """bicliques, distance, kb and check outputs for one host."""
    problems = []
    n, adj = reference.decode(host)
    masks = reference.bicliques(adj)
    kb_adj = reference.intersection_graph(masks)
    kb = reference.encode(len(masks), kb_adj)

    [listing] = _json_lines(ops[0]["stdout"]) or [{}]
    expected = [
        {"vertices": [v for v in range(n) if m >> v & 1],
         "sides": [[v for v in range(n) if s >> v & 1] for s in reference.sides(adj, m)]}
        for m in masks
    ]
    if listing.get("graph6") != host or listing.get("bicliques") != expected:
        problems.append((0, "biclique list differs from the independent enumeration"))
    if listing.get("kb_graph6") != kb:
        problems.append((0, "kb_graph6 is not the intersection graph of the bicliques"))

    dist = [reference.bfs(adj, m) for m in masks]
    d_g = [[min(dist[i][v] for v in range(n) if m >> v & 1) for m in masks] for i in range(len(masks))]
    # near[i][r]: bicliques within distance r of biclique i
    near = [[sum(1 << j for j in range(len(masks)) if d_g[i][j] <= r) for r in range(n)]
            for i in range(len(masks))]
    vertex_dist = [reference.bfs(adj, 1 << v) for v in range(n)]
    kb_dist = [reference.bfs(kb_adj, 1 << i) for i in range(len(masks))]
    rows = _json_lines(ops[1]["stdout"])
    pairs = [(i, j) for i in range(len(masks)) for j in range(i + 1, len(masks))]
    if [(row["i"], row["j"]) for row in rows] != pairs:
        problems.append((1, "distance rows do not cover each pair of bicliques once"))
    for row in rows[: len(pairs)]:
        i, j, k = row["i"], row["j"], row["d_g"]
        witnesses = (near[i][k - 1] & near[j][k - 1] & ~(1 << i | 1 << j)).bit_count() if k else None
        u, v = row["closest_pair"]
        if (row["graph6"], k, row["d_kb"], row["witness_count"]) != (host, d_g[i][j], kb_dist[i][j], witnesses) \
                or not (masks[i] >> u & 1 and masks[j] >> v & 1 and vertex_dist[u][v] == k):
            problems.append((1, f"distance row ({i},{j}) differs from the independent computation"))
        if row["d_kb"] != row["formula_value"] or row["formula_value"] != (k + 1) // 2 + 1:
            problems.append((1, f"pair ({i},{j}) breaks d_kb == floor((d_g+1)/2)+1"))
        if k > 0 and (row["witness_count"] or 0) < k + 1:
            problems.append((1, f"pair ({i},{j}) has fewer than d_g+1 witnesses"))

    if ops[2]["stdout"] != kb + "\n":
        problems.append((2, "kb output is not KB(H)"))
    [report] = _json_lines(ops[3]["stdout"]) or [{}]
    verdicts = [check.get("verdict") for check in report.get("checks", {}).values()]
    # KB(H) is a biclique graph, so no sound necessary condition may fire on it.
    if report.get("graph6") != kb or report.get("overall") != "passes-all-checks" \
            or not verdicts or not all(v in PASSING for v in verdicts):
        problems.append((3, "obstruction battery rejects a biclique graph"))
    return problems


@lru_cache(maxsize=None)
def class_table() -> dict[str, tuple[str, str | None]]:
    from inputs import load_classes

    return {g6: (category, preimage) for g6, _, category, preimage in load_classes()}


def check_recognize(query: str, ops: list[dict]) -> list[tuple[int, str]]:
    category, _ = class_table()[canonical(query)]
    fields = ops[0]["stdout"].rstrip("\n").split("\t")
    if len(fields) != 3 or fields[0] != query or fields[2] != str(MAX_H_ORDER) \
            or ops[0]["stdout"].count("\n") != 1:
        return [(0, f"malformed recognize line {ops[0]['stdout']!r}")]
    if category != "biclique-graph":
        return [] if fields[1] == "none" else [(0, f"{category} class given preimage {fields[1]}")]
    if fields[1] == "none":
        return [(0, "no preimage found for a class that has one")]
    problem = verify_preimage(fields[1], query)
    return [(0, problem)] if problem else []


def check_catalogue(_item: str, ops: list[dict]) -> list[tuple[int, str]]:
    problems = [(0, text) for text in check_catalogue_entries(ops[2]["stdout"])]
    if "reference\tmatch" not in ops[0]["stdout"].splitlines():
        problems.append((0, "catalogue does not match the benchmark's fixture"))
    return problems


def check_catalogue_entries(jsonl: str) -> list[str]:
    """Problems with the catalogue's JSONL entries."""
    problems = []
    entries = _json_lines(jsonl)
    counts: dict[int, int] = {}
    for entry in entries:
        counts[entry["order"]] = counts.get(entry["order"], 0) + 1
    if counts != CLASS_COUNTS:
        problems.append(f"class counts per order {counts} are not {CLASS_COUNTS}")
    keys = [entry["graph6"] for entry in entries]
    if len(set(keys)) != len(keys) or any(canonical(key) != key for key in keys):
        problems.append("catalogue keys are not distinct canonical forms")
    for entry in entries:
        if entry["classification"] == "biclique-graph":
            problem = verify_preimage(entry["preimage_graph6"], entry["graph6"])
            if problem:
                problems.append(problem)
    return problems


CHECKERS = {"catalogue": check_catalogue, "corpus": check_corpus, "recognize": check_recognize}
EXPECTED_EXIT = 0


def check_item(workload: str, item: str, ops: list[dict]) -> list[tuple[int, str]]:
    problems = [(k, f"{op['argv'][0]} exited {op['exit']}") for k, op in enumerate(ops)
                if op["exit"] != EXPECTED_EXIT]
    if problems:
        return problems
    try:
        return CHECKERS[workload](item, ops)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [(0, f"unreadable output: {type(exc).__name__}: {exc}")]


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def check_run(workload: str, seed: int, input_digests: dict[str, str], outputs: list[dict],
              digests: list[str]) -> tuple[int, list[str]]:
    """(failed operations, problems) over the outputs of a run's first pass;
    later passes are compared with it by the client."""
    failed, problems = 0, []
    reference_digests = None
    if workload == "catalogue":
        reference_digests = golden()["catalogue"]
    elif seed == DEFAULT_SEED:
        if input_digests != golden()["inputs"][workload]:
            problems.append("inputs at the default seed differ from the golden inputs")
        reference_digests = golden()[workload]
    for index, record in enumerate(outputs):
        found = check_item(workload, record["input"], record["ops"])
        if reference_digests is not None and digests[index] != reference_digests[index]:
            found.append((0, "output differs from the golden digest"))
        failed += len({op for op, _ in found})
        problems += [f"item {index} op {op}: {text}" for op, text in found]
    return failed, problems
