"""Runtime tracing of the library's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``TARGETS`` in every
``biclique_lab`` module namespace that binds it, so calls between modules are
seen too. A wrapper records a span (id, name, start, end, parent span, item
id) or, for functions too small to time, only a count. A target the library
no longer has is listed in ``absent`` and its metrics are left out, so the
tracer survives a rename or removal.

``totals`` turns spans and counts into additive numbers (calls, seconds) that
can be summed over processes; ``layer_metrics`` derives the ratios from the
sums.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# (module, function, kind). "span" functions are timed, "count" ones only
# counted, because they run millions of times for microseconds each.
TARGETS = (
    ("graphs", "canonical_form", "span"),
    ("graphs", "canonical_graph", "span"),
    ("graphs", "enumerate_connected_graphs", "span"),
    ("graphs", "parse_graph6", "span"),
    ("graphs", "write_graph6", "span"),
    ("bicliques", "enumerate_bicliques", "span"),
    ("bicliques", "biclique_graph", "span"),
    ("bicliques", "biclique_graph_with_limit", "span"),
    ("distances", "distance_reports", "span"),
    ("distances", "find_witnesses", "span"),
    ("distances", "biclique_distance", "count"),
    ("obstructions", "classify", "span"),
    ("recognition", "search_preimage", "span"),
    ("recognition", "positive_preimages", "span"),
    ("recognition", "build_catalogue", "span"),
    ("recognition", "write_catalogue", "span"),
    ("recognition", "load_catalogue", "span"),
    ("recognition", "compare_with_reference", "span"),
    ("conjectures", "scan_certified_graphs", "span"),
    ("cli", "main", "span"),
)

#: Metric name of each obstruction check -> its public function.
CHECK_FUNCTIONS = {
    "p3_diamond_gem": "check_p3_diamond_gem",
    "biconnectivity_min_degree": "check_biconnectivity_min_degree",
    "twin_k2": "check_twin_k2",
    "forbidden_subgraph": "check_forbidden_subgraphs",
    "degree2_bound": "check_degree2_bound",
    "helly_degree2": "check_helly_degree2",
    "gem_wing": "check_gem_wing",
}

_BICLIQUE_OPS = ("enumerate_bicliques", "biclique_graph", "biclique_graph_with_limit")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.item = -1  # -1 while setting up, then the timed item's index
        self.absent: list[str] = []
        self.classify_inputs: list = []
        self.check_seconds: Counter = Counter()
        self.generated: dict[int, int] = {}  # order -> classes yielded
        self._stack = [0]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        modules = {}
        for module_name in dict.fromkeys(module for module, _, _ in TARGETS):
            try:
                modules[module_name] = importlib.import_module(f"biclique_lab.{module_name}")
            except ImportError:
                pass
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "biclique_lab" or name.startswith("biclique_lab."))]
        for module_name, func_name, kind in TARGETS:
            original = getattr(modules.get(module_name), func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(func_name, original, kind)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._installed.append((namespace, attr, original))
        return self

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._installed):
            setattr(namespace, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, original, kind: str):
        counts = self.counts
        if kind == "count":
            @functools.wraps(original)
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def generator(*args, **kwargs):
                counts[name] += 1
                inner = original(*args, **kwargs)
                yielded = 0
                while True:
                    sid = self._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(sid, name, start)
                        break
                    self._close(sid, name, start)
                    yielded += 1
                    yield item
                if name == "enumerate_connected_graphs" and args:
                    self.generated[args[0]] = max(self.generated.get(args[0], 0), yielded)
            return generator

        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            counts[name] += 1
            sid = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if hook is not None:
                hook(self, args, result)
            return result
        return timed

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, self._stack[-1], self.item))

    # -- obstruction checks -------------------------------------------------

    def time_checks(self) -> None:
        """Time each public check_* function on the graphs ``classify`` saw.

        ``classify`` calls the checks through a table bound at import time,
        so they are timed by calling them again on the same inputs.
        """
        obstructions = sys.modules["biclique_lab.obstructions"]
        for check, func_name in CHECK_FUNCTIONS.items():
            func = getattr(obstructions, func_name, None)
            if func is None:
                self.absent.append(f"obstructions.{func_name}")
                continue
            start = time.perf_counter()
            for graph in self.classify_inputs:
                func(graph)
            self.check_seconds[check] += time.perf_counter() - start
        self.classify_inputs.clear()

    # -- aggregation --------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent id, item id."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def totals(self) -> dict[str, float]:
        """Additive numbers over everything recorded so far."""
        out: dict[str, float] = Counter()
        for key, value in self.counts.items():
            out[f"n:{key}"] += value
        for key, value in self.check_seconds.items():
            out[f"check:{key}"] += value
        for name, value in self_times(self.spans).items():
            out[f"self:{name}"] += value
        flags: dict[int, int] = {0: 0}
        # Spans are stored as they close, children before parents; ids grow
        # with opening order, so sorting by id visits parents first.
        for sid, name, start, end, parent, _ in sorted(self.spans):
            inherited = flags.get(parent, 0)
            flags[sid] = inherited | _FLAGS.get(name, 0)
            out[f"incl:{name}"] += 0.0 if inherited & _FLAGS.get(name, 0) else end - start
            if name == "canonical_form" and inherited & _IN_GENERATION:
                out["n:canonical_form.in_generation"] += 1
            if name in _BICLIQUE_OPS and inherited & _IN_SEARCH and not inherited & _IN_BICLIQUE_OP:
                out["n:search_preimage.hosts"] += 1
        out["generation.classes"] += sum(self.generated.values())
        return dict(out)


_IN_GENERATION, _IN_SEARCH, _IN_BICLIQUE_OP = 1, 2, 4
_FLAGS = {
    "enumerate_connected_graphs": _IN_GENERATION,
    "search_preimage": _IN_SEARCH,
    **{name: _IN_BICLIQUE_OP for name in _BICLIQUE_OPS},
}


def _on_enumerate(tracer: Tracer, args, family) -> None:
    tracer.counts["bicliques.found"] += len(family)


def _on_capped(tracer: Tracer, args, result) -> None:
    if result[0] is None:
        tracer.counts["biclique_graph_with_limit.cut"] += 1


def _on_search(tracer: Tracer, args, host) -> None:
    if host is not None:
        tracer.counts["search_preimage.hits"] += 1


def _on_scan(tracer: Tracer, args, findings) -> None:
    tracer.counts["conjectures.findings"] += len(findings)


def _on_classify(tracer: Tracer, args, report) -> None:
    tracer.classify_inputs.append(args[0])


_RESULT_HOOKS = {
    "enumerate_bicliques": _on_enumerate,
    "biclique_graph_with_limit": _on_capped,
    "search_preimage": _on_search,
    "scan_certified_graphs": _on_scan,
    "classify": _on_classify,
}


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of its
    interval that its direct children cover."""
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, name, start, end, parent, _ in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = Counter()
    for sid, name, start, end, parent, _ in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


def add_totals(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


def layer_metrics(totals: dict[str, float], items: int, absent: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name -> (value, unit). A metric computed from a
    function that is absent is left out."""
    t = lambda key: totals.get(key, 0)
    calls = lambda name: t(f"n:{name}")
    self_s = lambda *names: sum(t(f"self:{n}") for n in names)
    ratio = lambda a, b: a / b if b else 0.0
    classes = t("generation.classes")
    capped, searches = calls("biclique_graph_with_limit"), calls("search_preimage")
    rows = [
        # (name, unit, value, functions it is computed from)
        ("graphs.canonical_form.calls", "count", calls("canonical_form"), ("canonical_form",)),
        ("graphs.canonical_form.self_s", "s", self_s("canonical_form", "canonical_graph"), ("canonical_form",)),
        ("graphs.generation.s", "s", t("incl:enumerate_connected_graphs"), ("enumerate_connected_graphs",)),
        ("graphs.generation.classes", "count", classes, ("enumerate_connected_graphs",)),
        ("graphs.canonical_form.calls_per_class", "calls/class",
         ratio(calls("canonical_form.in_generation"), classes), ("canonical_form", "enumerate_connected_graphs")),
        ("graphs.graph6.calls", "count", calls("parse_graph6") + calls("write_graph6"), ("parse_graph6", "write_graph6")),
        ("graphs.graph6.self_s", "s", self_s("parse_graph6", "write_graph6"), ("parse_graph6", "write_graph6")),
        ("bicliques.enumerate.calls", "count", calls("enumerate_bicliques"), ("enumerate_bicliques",)),
        ("bicliques.enumerate.self_s", "s", self_s("enumerate_bicliques"), ("enumerate_bicliques",)),
        ("bicliques.enumerate.per_host", "calls/item", ratio(calls("enumerate_bicliques"), items), ("enumerate_bicliques",)),
        ("bicliques.found", "count", calls("bicliques.found"), ("enumerate_bicliques",)),
        ("bicliques.kb_capped.calls", "count", capped, ("biclique_graph_with_limit",)),
        ("bicliques.kb_capped.self_s", "s", self_s("biclique_graph_with_limit"), ("biclique_graph_with_limit",)),
        ("bicliques.kb_capped.cut_ratio", "ratio", ratio(calls("biclique_graph_with_limit.cut"), capped),
         ("biclique_graph_with_limit",)),
        ("distances.reports.calls", "count", calls("distance_reports"), ("distance_reports",)),
        ("distances.reports.self_s", "s", self_s("distance_reports"), ("distance_reports",)),
        ("distances.witnesses.calls", "count", calls("find_witnesses"), ("find_witnesses",)),
        ("distances.witnesses.self_s", "s", self_s("find_witnesses"), ("find_witnesses",)),
        ("distances.biclique_distance.calls", "count", calls("biclique_distance"), ("biclique_distance",)),
        ("obstructions.classify.calls", "count", calls("classify"), ("classify",)),
        ("obstructions.classify.self_s", "s", self_s("classify"), ("classify",)),
        *((f"obstructions.{check}.s", "s", t(f"check:{check}"), ("classify", func))
          for check, func in CHECK_FUNCTIONS.items()),
        ("recognition.search_preimage.calls", "count", searches, ("search_preimage",)),
        ("recognition.search_preimage.self_s", "s", self_s("search_preimage"), ("search_preimage",)),
        ("recognition.hosts_per_query", "hosts/query", ratio(calls("search_preimage.hosts"), searches),
         ("search_preimage",)),
        ("recognition.hit_ratio", "ratio", ratio(calls("search_preimage.hits"), searches), ("search_preimage",)),
        ("recognition.positive_preimages.s", "s", t("incl:positive_preimages"), ("positive_preimages",)),
        ("recognition.build_catalogue.self_s", "s", self_s("build_catalogue"), ("build_catalogue",)),
        ("recognition.write_catalogue.s", "s", t("incl:write_catalogue"), ("write_catalogue",)),
        ("conjectures.scan.s", "s", t("incl:scan_certified_graphs"), ("scan_certified_graphs",)),
        ("conjectures.findings", "count", calls("conjectures.findings"), ("scan_certified_graphs",)),
        ("cli.self_s", "s", self_s("main"), ("main",)),
        ("cli.stdout_bytes", "bytes", calls("cli.stdout_bytes"), ("main",)),
    ]
    missing = {name.rsplit(".", 1)[1] for name in absent}
    return {name: (value, unit) for name, unit, value, needs in rows if not missing.intersection(needs)}
