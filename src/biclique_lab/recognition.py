"""Exhaustive preimage search and the small-order catalogue.

A graph G is *recognised* as a biclique graph by exhibiting a connected
preimage H with KB(H) isomorphic to G; it is *excluded* by a firing
obstruction check.  Neither may be possible within the searched bound, in
which case the entry stays unknown and records the bound, so catalogue
claims are never stronger than the search actually performed.

One sweep serves the catalogue and ``search_preimage``: it walks every
connected host class H up to ``max_h_order`` with at most ``max_g_order``
bicliques once, computes KB(H), and keeps the first host hitting each class
of order <= ``max_g_order``: the least order, then the least canonical
graph6.  It never calls ``enumerate_connected_graphs``: each host order is
the children, augmentations that pass canonical deletion, of the capped
classes one order below, from K1, each tested against the cap before its
canonical form is taken.  That loses no hit: deleting a greatest non-cut
vertex from a capped class leaves a connected induced subgraph, capped too
by lemma (a) (no connected induced subgraph has more bicliques than its
host), so the class is a capped child of that subgraph's representative.
No host with false twins is a first hit, by lemma (b) below.
Catalogue classes never hit are classified by the obstruction battery.
``search_preimage`` reads its sweep only as far as the queried class and
suspends it there, so a process walks each (order, bound) sweep at most once.
Positive and negative evidence is re-derivable: ``verify_entry`` recomputes it.

Lemma (b).  Let u and v be false twins of a connected host H, that is
N(u) = N(v), so u and v are not adjacent and H has at least 3 vertices.
Then H - v is connected and KB(H - v) is isomorphic to KB(H).  So H is never
the first hit of its class: deleting twins until none is left gives a
false-twin-free host of lower order with the same KB, and the sweep walks
every class of lower order first.  Proof: H - v is connected, since a path
through v may go through u instead.  A biclique B of H that holds v holds u
too, on v's side (u sees all of the other side and none of v's, so B + u is
complete bipartite), and vice versa.  So B -> B - v maps the bicliques of H
into those of H - v: if B - v were not maximal, v would extend whatever
extends it, beside u.  It is one-to-one, as B holds v exactly when B - v
holds u, and onto, since a biclique B' of H - v is one of H if it misses u
(v would extend it only where u does) and is B' - v for B = B' + v if it
holds u.  Two bicliques that meet at v also meet at u, so the map keeps
which pairs meet.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import chain
from pathlib import Path

from .bicliques import biclique_graph, biclique_graph_with_limit
from .graphs import (
    MAX_CANONICAL_ORDER,
    MAX_GENERATION_ORDER,
    CapabilityError,
    Graph,
    _children,
    _require_connected,
    canonical_form,
    enumerate_connected_graphs,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .obstructions import CHECK_NAMES, classify

#: Host orders above this are out of the supported exhaustive regime: a time
#: policy, as the sweep steps from order to order without generation.  The
#: times at 9 are in the README's size-regime table.
MAX_PREIMAGE_ORDER = 9

BICLIQUE_GRAPH = "biclique-graph"
NOT_BICLIQUE_GRAPH = "not-biclique-graph"
UNKNOWN = "unknown-within-bound"

#: The files of a catalogue directory, one per order.
_CATALOGUE_FILES = "catalogue-n*.jsonl"

#: (query order, max_h_order) -> (canonical KB -> first host read so far, the
#: suspended sweep): where ``search_preimage`` resumes on a miss.
_SWEEPS: dict[tuple[int, int], tuple[dict[str, Graph], Iterator[tuple[Graph, str]]]] = {}
#: Held while a query reads or advances a suspended sweep: a generator
#: advanced from two threads at once raises instead of yielding.
_SWEEPS_LOCK = threading.RLock()


@dataclass(frozen=True)
class CatalogueEntry:
    """One isomorphism class of connected graphs, with checkable evidence.

    The fields are the keys of its JSON record, in the record's order after
    ``schema``; an optional field is written only when it is set.
    """

    graph6: str
    order: int
    classification: str
    searched_max_h: int
    preimage_graph6: str | None = None
    obstruction: dict | None = None
    checks: dict[str, str] | None = None

    @property
    def graph(self) -> Graph:
        return parse_graph6(self.graph6)

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"schema": "catalogue-entry/1", **{k: v for k, v in data.items() if v is not None}}

    @classmethod
    def from_json(cls, data: dict) -> "CatalogueEntry":
        return cls(
            **{f.name: data[f.name] if f.default is MISSING else data.get(f.name) for f in fields(cls)}
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


def search_preimage(g: Graph, max_h_order: int) -> Graph | None:
    """The first connected H with KB(H) isomorphic to g: of least order,
    then of least canonical graph6.

    The sweep behind ``positive_preimages``, keying g's order only, read up
    to the first host hitting g's class: exhaustive over isomorphism classes
    up to ``max_h_order``, so None means no preimage exists within the bound.
    That host's order is read to its end first, since its least host wins.
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
                host, key = step
                first.setdefault(key, host)
        except BaseException:
            _SWEEPS.pop(sweep_id, None)  # the sweep is closed now; the next miss starts again
            raise
        return first[target]


def _capped_children(orders: range, last: bool, parent: Graph) -> list[tuple[Graph, str | None]]:
    """One task of the sweep: each child of ``parent`` with at most
    orders[-1] bicliques, with the canonical KB if it is a hit (false-twin
    free, a KB order in orders), else None.  At the ``last`` order a child
    with false twins gets no KB: it is no first hit (lemma (b)) and no parent."""
    out = []
    for child in _children(parent):
        twin_free = len(set(child.adj)) == child.n
        if last and not twin_free:
            continue
        kb, _ = biclique_graph_with_limit(child, orders[-1])
        if kb is not None:
            out.append((child, canonical_form(kb) if twin_free and kb.n in orders else None))
    return out


def _swept(orders: range, max_h_order: int, workers: int) -> Iterator[tuple[Graph, str]]:
    """The preimage sweep: (first host, canonical KB) of each KB class of an
    order in orders hit by a connected host on 2..max_h_order vertices with
    at most orders[-1] bicliques, in order of the host's order, then of its
    canonical graph6.

    One step at every order: one task (``_capped_children``) per capped
    class one order below, from K1, then one reduction.  The canonical forms
    of the capped children are the next order's classes; a child is capped
    before its form is taken, so no uncapped child is canonicalised, and at
    the last order only the first hits are.  Each KB class first hit at the
    order keeps its least canonical host, and these are yielded in canonical
    order.  The tasks run on a process pool when more than one worker is
    asked for at MAX_PREIMAGE_ORDER, in-process otherwise.
    """
    pool = None
    if workers > 1 and max_h_order == MAX_PREIMAGE_ORDER:
        # Imported here, so a sweep that starts no pool loads no pool modules.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
    capped = [Graph(1)]  # the capped classes of the order below, from K1
    yielded: set[str] = set()
    try:
        for n in range(2, max_h_order + 1):
            task = partial(_capped_children, orders, n == max_h_order)
            forms: set[str] = set()
            least: dict[str, str] = {}  # KB class first hit at order n -> its least host
            for child, key in chain.from_iterable((pool.map if pool else map)(task, capped)):
                new = key is not None and key not in yielded
                if new or n < max_h_order:  # the last order's classes are no parents
                    form = canonical_form(child)
                    forms.add(form)
                    if new:
                        least[key] = min(form, least.get(key, form))
            capped = [parse_graph6(form) for form in sorted(forms)]
            yielded.update(least)
            for form, key in sorted((form, key) for key, form in least.items()):
                yield parse_graph6(form), key
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)  # an interrupted sweep waits for no queued task


def positive_preimages(max_g_order: int, max_h_order: int, workers: int = 1) -> dict[str, Graph]:
    """canonical form of KB(H) -> first H realising it, over all connected
    H: of least order, then of least canonical graph6.

    Covers every class with 2 <= |KB(H)| <= max_g_order.  The sweep yields
    the first host of each class before any other, on any number of
    workers.  It generates no KB class, so max_g_order may pass max_h_order
    and MAX_GENERATION_ORDER: each KB hit is keyed by its canonical form.
    """
    _check_host_bound(max_h_order)
    if not 2 <= max_g_order <= MAX_CANONICAL_ORDER:
        raise CapabilityError(f"max_g_order must be in 2..{MAX_CANONICAL_ORDER}, got {max_g_order}")
    out: dict[str, Graph] = {}
    for host, key in _swept(range(2, max_g_order + 1), max_h_order, workers):
        out.setdefault(key, host)
    return out


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
                    checks=verdicts,
                )
            )
    return entries


def verify_entry(entry: CatalogueEntry) -> bool:
    """Re-derive the entry's evidence from scratch, its order included."""
    g = entry.graph
    if entry.order != g.n:
        return False
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
    """Every entry under ``directory``; a line that is not an entry, or
    whose graph6 is not a graph6 string, raises ValueError naming ``path:line``."""
    entries = []
    for path in sorted(Path(directory).glob(_CATALOGUE_FILES)):
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entry = CatalogueEntry.from_json(json.loads(line))
                    if not isinstance(entry.graph6, str):
                        raise TypeError(f"graph6 is not a string: {entry.graph6!r}")
                    parse_graph6(entry.graph6)
                    entries.append(entry)
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return entries


def load_reference_positives(path: str | Path) -> set[str]:
    """Read a graph6-per-line reference list into canonical forms; a line
    that is not graph6, or is too large to canonicalise, raises ValueError
    naming ``path:line``."""
    keys = set()
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                keys.add(canonical_form(parse_graph6(line)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return keys


@dataclass(frozen=True)
class ReferenceComparison:
    missing: tuple[str, ...]  # in the reference but not built positive
    extra: tuple[str, ...]  # built positive but absent from the reference

    @property
    def matches(self) -> bool:
        return not self.missing and not self.extra


def compare_with_reference(entries: list[CatalogueEntry], reference: set[str]) -> ReferenceComparison:
    """``reference`` holds canonical forms, as ``load_reference_positives`` reads them."""
    built = {e.graph6 for e in entries if e.classification == BICLIQUE_GRAPH}
    return ReferenceComparison(
        missing=tuple(sorted(reference - built)),
        extra=tuple(sorted(built - reference)),
    )


def default_reference_path() -> Path:
    return Path(__file__).resolve().parent / "fixtures" / "biclique_graphs_up_to_6.g6"
