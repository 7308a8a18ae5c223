"""Exhaustive preimage search and the small-order catalogue.

A graph G is *recognised* as a biclique graph by exhibiting a connected
preimage H with KB(H) isomorphic to G; it is *excluded* by a firing
obstruction check.  Neither may be possible within the searched bound, in
which case the entry stays unknown and records the bound, so catalogue
claims are never stronger than the search actually performed.

The catalogue build enumerates every connected host H up to ``max_h_order``
once, in generation order, computes KB(H), and keeps the first host hitting
each isomorphism class of order <= ``max_g_order``.  Classes never hit are
classified by the obstruction battery.  Positive and negative evidence is
re-derivable: ``verify_entry`` recomputes it from scratch.
"""

from __future__ import annotations

import json
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from multiprocessing import get_context
from pathlib import Path

from .bicliques import biclique_graph, biclique_graph_with_limit
from .graphs import (
    CapabilityError,
    Graph,
    Graph6Error,
    _augmentations,
    _require_connected,
    canonical_form,
    enumerate_connected_graphs,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .obstructions import CHECK_NAMES, classify

#: Host orders above this are out of the supported exhaustive regime.
#: Order 9 streams augmentations of the 8-vertex corpus: every 9-vertex
#: connected graph appears (possibly repeatedly), which keeps the search
#: exhaustive over isomorphism classes without materialising the classes.
MAX_PREIMAGE_ORDER = 9

#: Hosts per unit of work in ``positive_preimages``.
_CHUNK_SIZE = 256

#: Chunks submitted to the pool and not yet merged, at most.
_CHUNKS_IN_FLIGHT = 16

BICLIQUE_GRAPH = "biclique-graph"
NOT_BICLIQUE_GRAPH = "not-biclique-graph"
UNKNOWN = "unknown-within-bound"


@dataclass(frozen=True)
class CatalogueEntry:
    """One isomorphism class of connected graphs, with checkable evidence."""

    graph6: str
    order: int
    classification: str
    searched_max_h: int
    preimage_graph6: str | None = None
    obstruction: dict | None = None
    check_verdicts: dict[str, str] | None = None

    @property
    def graph(self) -> Graph:
        return parse_graph6(self.graph6)

    def to_json(self) -> dict:
        data: dict = {
            "schema": "catalogue-entry/1",
            "graph6": self.graph6,
            "order": self.order,
            "classification": self.classification,
            "searched_max_h": self.searched_max_h,
        }
        if self.preimage_graph6 is not None:
            data["preimage_graph6"] = self.preimage_graph6
        if self.obstruction is not None:
            data["obstruction"] = self.obstruction
        if self.check_verdicts is not None:
            data["checks"] = self.check_verdicts
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CatalogueEntry":
        return cls(
            graph6=data["graph6"],
            order=data["order"],
            classification=data["classification"],
            searched_max_h=data["searched_max_h"],
            preimage_graph6=data.get("preimage_graph6"),
            obstruction=data.get("obstruction"),
            check_verdicts=data.get("checks"),
        )


def _check_bounds(max_g_order: int, max_h_order: int) -> None:
    if not 2 <= max_h_order <= MAX_PREIMAGE_ORDER:
        raise CapabilityError(
            f"preimage search supports 2 <= max_h_order <= {MAX_PREIMAGE_ORDER}"
        )
    if max_g_order < 2:
        raise CapabilityError("catalogue needs max_g_order >= 2")


def _hosts(max_h_order: int) -> Iterator[Graph]:
    """Connected hosts on 2..max_h_order vertices, in generation order:
    isomorphism-class representatives up to order 8, then at order 9 every
    augmentation of the 8-vertex corpus by one vertex with a nonempty
    neighbourhood (covers all classes, with repetitions, in a fixed order)."""
    for n in range(2, min(max_h_order, 8) + 1):
        yield from enumerate_connected_graphs(n)
    if max_h_order >= 9:
        for parent in enumerate_connected_graphs(8):
            yield from _augmentations(parent)


def search_preimage(g: Graph, max_h_order: int) -> Graph | None:
    """First connected H (in generation order) with KB(H) isomorphic to g.

    Hosts whose biclique count overshoots g's order are discarded early.
    Exhaustive over isomorphism classes up to ``max_h_order``; None means no
    preimage exists within the bound.
    """
    _check_bounds(max(g.n, 2), max_h_order)
    _require_connected(g)
    target = canonical_form(g)
    for host in _hosts(max_h_order):
        kb, _ = biclique_graph_with_limit(host, g.n)
        if kb is not None and kb.n == g.n and canonical_form(kb) == target:
            return host
    return None


def _positives_chunk(args: tuple[int, list[tuple[int, ...]]]) -> list[str | None]:
    """Per host adjacency: canonical KB(H) when 2 <= |KB(H)| <= max_g_order,
    else None."""
    max_g_order, hosts = args
    out: list[str | None] = []
    for adj in hosts:
        kb, _ = biclique_graph_with_limit(Graph._raw(len(adj), adj), max_g_order)
        out.append(None if kb is None or kb.n < 2 else canonical_form(kb))
    return out


def _host_chunks(max_h_order: int) -> Iterator[list[tuple[int, ...]]]:
    """Adjacency tuples of every host on 2..max_h_order vertices, in
    generation order, _CHUNK_SIZE at a time."""
    hosts = (host.adj for host in _hosts(max_h_order))
    while chunk := list(islice(hosts, _CHUNK_SIZE)):
        yield chunk


def positive_preimages(max_g_order: int, max_h_order: int, workers: int = 1) -> dict[str, Graph]:
    """canonical form of KB(H) -> first H realising it, over all connected H.

    Covers every class with 2 <= |KB(H)| <= max_g_order.  Hosts stream in
    fixed-size chunks; with workers > 1 a process pool maps the chunks, at
    most _CHUNKS_IN_FLIGHT at a time.  Results merge in chunk order, so the
    first host in generation order wins whatever the scheduling.
    """
    _check_bounds(max_g_order, max_h_order)
    out: dict[str, Graph] = {}

    def merge(chunk: list[tuple[int, ...]], keys: list[str | None]) -> None:
        for adj, key in zip(chunk, keys):
            if key is not None:
                out.setdefault(key, Graph._raw(len(adj), adj))

    chunks = _host_chunks(max_h_order)
    if workers == 1:
        for chunk in chunks:
            merge(chunk, _positives_chunk((max_g_order, chunk)))
        return out
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        pending: deque = deque()
        for chunk in chunks:
            pending.append((chunk, pool.submit(_positives_chunk, (max_g_order, chunk))))
            if len(pending) >= _CHUNKS_IN_FLIGHT:
                chunk, future = pending.popleft()
                merge(chunk, future.result())
        for chunk, future in pending:
            merge(chunk, future.result())
    return out


def default_worker_count() -> int:
    """``BICLIQUE_LAB_WORKERS`` if set, else the CPU count; ValueError unless
    the variable is an integer of at least 1."""
    env = os.environ.get("BICLIQUE_LAB_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"BICLIQUE_LAB_WORKERS must be an integer of at least 1, got {env!r}")
    return workers


def build_catalogue(
    max_g_order: int, max_h_order: int, workers: int = 1
) -> list[CatalogueEntry]:
    """One entry per connected isomorphism class on 2..max_g_order vertices.

    Positive entries carry the first preimage found; classes excluded by the
    battery carry the first firing check with its witness; the rest are
    unknown within the searched bound.  A class both realised and excluded
    would mean an implementation bug and raises immediately.
    """
    _check_bounds(max_g_order, max_h_order)
    if max_h_order < max_g_order:
        raise CapabilityError("max_h_order must be at least max_g_order")
    positives = positive_preimages(max_g_order, max_h_order, workers=workers)
    entries: list[CatalogueEntry] = []
    for n in range(2, max_g_order + 1):
        for g in enumerate_connected_graphs(n):
            report = classify(g)
            key = report.graph6  # generated graphs are canonically labelled
            verdicts = {name: report.checks[name].verdict.value for name in CHECK_NAMES}
            preimage = obstruction = None
            if key in positives:
                if report.excluded:
                    raise AssertionError(
                        f"class {key} has a preimage but fails {report.failing_checks}"
                    )
                classification = BICLIQUE_GRAPH
                preimage = write_graph6(positives[key])
            elif report.excluded:
                classification = NOT_BICLIQUE_GRAPH
                failing = report.failing_checks[0]
                result = report.checks[failing]
                obstruction = {
                    "check": failing,
                    "witness": list(result.witness) if result.witness else None,
                    "note": result.note,
                }
            else:
                classification = UNKNOWN
            entries.append(
                CatalogueEntry(
                    graph6=key,
                    order=n,
                    classification=classification,
                    searched_max_h=max_h_order,
                    preimage_graph6=preimage,
                    obstruction=obstruction,
                    check_verdicts=verdicts,
                )
            )
    return entries


def verify_entry(entry: CatalogueEntry) -> bool:
    """Re-derive the entry's evidence from scratch."""
    g = entry.graph
    if entry.classification == BICLIQUE_GRAPH:
        if entry.preimage_graph6 is None:
            return False
        host = parse_graph6(entry.preimage_graph6)
        if not is_connected(host) or host.n > entry.searched_max_h:
            return False
        kb, _ = biclique_graph(host)
        return kb.n == g.n and canonical_form(kb) == canonical_form(g)
    if entry.classification == NOT_BICLIQUE_GRAPH:
        if not entry.obstruction:
            return False
        report = classify(g)
        return report.checks[entry.obstruction["check"]].failed
    if entry.classification == UNKNOWN:
        return not classify(g).excluded and entry.searched_max_h >= 2
    return False


# ---------------------------------------------------------------------------
# persistence and reference comparison


def write_catalogue(entries: list[CatalogueEntry], directory: str | Path) -> list[Path]:
    """One JSON-lines file per order: ``catalogue-n<k>.jsonl``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_order: dict[int, list[CatalogueEntry]] = {}
    for entry in entries:
        by_order.setdefault(entry.order, []).append(entry)
    paths = []
    for order in sorted(by_order):
        path = directory / f"catalogue-n{order}.jsonl"
        with open(path, "w") as handle:
            for entry in sorted(by_order[order], key=lambda e: e.graph6):
                handle.write(json.dumps(entry.to_json(), separators=(",", ":")) + "\n")
        paths.append(path)
    return paths


def load_catalogue(directory: str | Path) -> list[CatalogueEntry]:
    """Every entry under ``directory``; a line that is not an entry raises
    ValueError naming ``path:line``."""
    entries = []
    for path in sorted(Path(directory).glob("catalogue-n*.jsonl")):
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entries.append(CatalogueEntry.from_json(json.loads(line)))
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return entries


def load_reference_positives(path: str | Path) -> set[str]:
    """Read a graph6-per-line reference list into canonical forms; a line
    that is not graph6 raises ValueError naming ``path:line``."""
    keys = set()
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                keys.add(canonical_form(parse_graph6(line)))
            except Graph6Error as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return keys


@dataclass(frozen=True)
class ReferenceComparison:
    missing: tuple[str, ...]  # in the reference but not built positive
    extra: tuple[str, ...]  # built positive but absent from the reference

    @property
    def matches(self) -> bool:
        return not self.missing and not self.extra


def compare_with_reference(entries: list[CatalogueEntry], path: str | Path) -> ReferenceComparison:
    built = {e.graph6 for e in entries if e.classification == BICLIQUE_GRAPH}
    reference = load_reference_positives(path)
    return ReferenceComparison(
        missing=tuple(sorted(reference - built)),
        extra=tuple(sorted(built - reference)),
    )


def default_reference_path() -> Path:
    return Path(__file__).resolve().parent / "fixtures" / "biclique_graphs_up_to_6.g6"
