"""Exhaustive preimage search and the small-order catalogue.

A graph G is *recognised* as a biclique graph by exhibiting a connected
preimage H with KB(H) isomorphic to G; it is *excluded* by a firing
obstruction check.  Neither may be possible within the searched bound, in
which case the entry stays unknown and records the bound, so catalogue
claims are never stronger than the search actually performed.

One sweep serves the catalogue and ``search_preimage``: it enumerates every
connected host H up to ``max_h_order`` once, in generation order, computes
KB(H), and keeps the first host hitting each class of order <= ``max_g_order``.
Catalogue classes never hit are classified by the obstruction battery.
``search_preimage`` reads its sweep only as far as the queried class and
suspends it there, so a process walks each (order, bound) sweep at most once.
Positive and negative evidence is re-derivable: ``verify_entry`` recomputes it.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from multiprocessing import get_context
from pathlib import Path

from .bicliques import biclique_graph, biclique_graph_with_limit
from .graphs import (
    MAX_CANONICAL_ORDER,
    MAX_GENERATION_ORDER,
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

#: Host orders above this are out of the supported exhaustive regime.  One
#: augmentation beyond generation: every connected graph of this order appears
#: (possibly repeatedly), exhaustive over classes without materialising them.
MAX_PREIMAGE_ORDER = MAX_GENERATION_ORDER + 1

#: Hosts per unit of work in ``positive_preimages``.
_CHUNK_SIZE = 256

#: Chunks submitted to the pool and not yet merged, at most.
_CHUNKS_IN_FLIGHT = 16

BICLIQUE_GRAPH = "biclique-graph"
NOT_BICLIQUE_GRAPH = "not-biclique-graph"
UNKNOWN = "unknown-within-bound"

#: The files of a catalogue directory, one per order.
_CATALOGUE_FILES = "catalogue-n*.jsonl"

#: (query order, max_h_order) -> (canonical KB -> first host adjacency read so
#: far, the suspended sweep): where ``search_preimage`` resumes on a miss.
_SWEEPS: dict[tuple[int, int], tuple[dict[str, tuple[int, ...]], Iterator[tuple]]] = {}
#: Held while a query reads or advances a suspended sweep: a generator
#: advanced from two threads at once raises instead of yielding.
_SWEEPS_LOCK = threading.RLock()


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


def _check_host_bound(max_h_order: int) -> None:
    if not 2 <= max_h_order <= MAX_PREIMAGE_ORDER:
        raise CapabilityError(f"preimage search supports 2 <= max_h_order <= {MAX_PREIMAGE_ORDER}")


def check_catalogue_bounds(max_g_order: int, max_h_order: int) -> None:
    """CapabilityError unless ``build_catalogue`` supports these bounds,
    before any class is generated or host enumerated."""
    _check_host_bound(max_h_order)
    if not 2 <= max_g_order <= MAX_GENERATION_ORDER:
        raise CapabilityError(f"max_g_order must be in 2..{MAX_GENERATION_ORDER}, got {max_g_order}")
    if max_h_order < max_g_order:
        raise CapabilityError("max_h_order must be at least max_g_order")


def _hosts(max_h_order: int) -> Iterator[Graph]:
    """Connected hosts on 2..max_h_order vertices, in generation order:
    class representatives up to MAX_GENERATION_ORDER, then every augmentation
    of that corpus by one vertex with a nonempty neighbourhood (covers all
    classes of MAX_PREIMAGE_ORDER, with repetitions, in a fixed order)."""
    for n in range(2, min(max_h_order, MAX_GENERATION_ORDER) + 1):
        yield from enumerate_connected_graphs(n)
    if max_h_order >= MAX_PREIMAGE_ORDER:
        for parent in enumerate_connected_graphs(MAX_GENERATION_ORDER):
            yield from _augmentations(parent)


def search_preimage(g: Graph, max_h_order: int) -> Graph | None:
    """First connected H (in generation order) with KB(H) isomorphic to g.

    The sweep behind ``positive_preimages``, keying g's order only, read up
    to the first host hitting g's class: exhaustive over isomorphism classes
    up to ``max_h_order``, so None means no preimage exists within the bound.
    The sweep is suspended there and every class it passed is remembered, so
    a later query of the same order and bound resumes it instead of starting
    again; the first host of each class is the same either way.
    """
    _check_host_bound(max_h_order)
    _require_connected(g)
    target = canonical_form(g)  # before the sweep, so too large a g fails at once
    sweep_id = (g.n, max_h_order)
    with _SWEEPS_LOCK:
        first, sweep = _SWEEPS.setdefault(sweep_id, ({}, _swept(range(g.n, g.n + 1), max_h_order, 1)))
        try:
            while target not in first:
                step = next(sweep, None)
                if step is None:
                    return None
                adj, key = step
                if key is not None:
                    first.setdefault(key, adj)
        except BaseException:
            _SWEEPS.pop(sweep_id, None)  # the sweep is closed now; the next miss starts again
            raise
        adj = first[target]
    return Graph._raw(len(adj), adj)


def _kb_key(host: Graph, orders: range) -> str | None:
    """Canonical KB(host) when its order is in orders, else None."""
    kb, _ = biclique_graph_with_limit(host, orders[-1])
    return canonical_form(kb) if kb is not None and kb.n in orders else None


def _positives_chunk(args: tuple[range, list[tuple[int, ...]]]) -> list[str | None]:
    """``_kb_key`` of each host adjacency in a chunk: one pool task."""
    orders, hosts = args
    return [_kb_key(Graph._raw(len(adj), adj), orders) for adj in hosts]


def _host_chunks(max_h_order: int) -> Iterator[list[tuple[int, ...]]]:
    """Adjacency tuples of every host on 2..max_h_order vertices, in
    generation order, _CHUNK_SIZE at a time."""
    hosts = (host.adj for host in _hosts(max_h_order))
    while chunk := list(islice(hosts, _CHUNK_SIZE)):
        yield chunk


def _swept(orders: range, max_h_order: int, workers: int) -> Iterator[tuple]:
    """(adjacency, ``_kb_key``) of every host, in generation order: the
    preimage sweep.  Serial with one worker, so a reader may stop early;
    otherwise a process pool maps chunks of hosts, at most _CHUNKS_IN_FLIGHT
    at a time, and they are read back in chunk order."""
    if workers == 1:
        for host in _hosts(max_h_order):
            yield host.adj, _kb_key(host, orders)
        return
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        pending: deque = deque()
        for chunk in _host_chunks(max_h_order):
            pending.append((chunk, pool.submit(_positives_chunk, (orders, chunk))))
            if len(pending) >= _CHUNKS_IN_FLIGHT:
                chunk, future = pending.popleft()
                yield from zip(chunk, future.result())
        for chunk, future in pending:
            yield from zip(chunk, future.result())


def positive_preimages(max_g_order: int, max_h_order: int, workers: int = 1) -> dict[str, Graph]:
    """canonical form of KB(H) -> first H realising it, over all connected H.

    Covers every class with 2 <= |KB(H)| <= max_g_order.  The sweep is read
    in generation order, so the first host wins whatever the scheduling.
    It generates no class, so max_g_order may pass max_h_order and
    MAX_GENERATION_ORDER: each KB hit is keyed by its canonical form.
    """
    _check_host_bound(max_h_order)
    if not 2 <= max_g_order <= MAX_CANONICAL_ORDER:
        raise CapabilityError(f"max_g_order must be in 2..{MAX_CANONICAL_ORDER}, got {max_g_order}")
    out: dict[str, Graph] = {}
    for adj, key in _swept(range(2, max_g_order + 1), max_h_order, workers):
        if key is not None:
            out.setdefault(key, Graph._raw(len(adj), adj))
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
    check_catalogue_bounds(max_g_order, max_h_order)
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
                    "witness": result.to_json().get("witness"),
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
    """One JSON-lines file per order: ``catalogue-n<k>.jsonl``.  Every other
    such file in ``directory`` is removed, so it holds this catalogue alone."""
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
    for stale in set(directory.glob(_CATALOGUE_FILES)) - set(paths):
        stale.unlink()
    return paths


def load_catalogue(directory: str | Path) -> list[CatalogueEntry]:
    """Every entry under ``directory``; a line that is not an entry raises
    ValueError naming ``path:line``."""
    entries = []
    for path in sorted(Path(directory).glob(_CATALOGUE_FILES)):
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
