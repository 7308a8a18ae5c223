"""Command-line front end.

Reads graph6 (one graph per line, '#' comments allowed) from files or stdin
and exposes the library as composable subcommands:

  bicliques    list every biclique with its bipartition, plus KB(G)
               [--format tsv|json]
  kb           emit KB(G) as graph6 [--legend]
  distance     per-pair biclique distance table [--format tsv|json]
  check        obstruction battery, one JSON report per graph [--invert-exit]
  recognize    exhaustive preimage search up to a bound [--max-h-order]
  catalogue    build and persist the small-order catalogue [--max-g-order,
               --max-h-order, --out, --fixture, --workers, --strict]
  conjectures  scan catalogue positives for conjecture counterexamples
               [--catalogue, --out, --i-max, --containment]

Only ``catalogue`` runs worker processes, and only for the hosts on 9
vertices (``--max-h-order 9``): ``--workers N`` (N >= 1, default the CPU
count) sizes that pool, and N = 1 walks them in-process, with the same
output.  At bounds 6/9 the whole command takes 4-5 s on 2 workers and
4.5-6.5 s on one (2 vCPU).  At every bound the hosts on the bound's own
order are augmentations of the classes one order below with at most
--max-g-order bicliques (for ``recognize``, the query's order) that pass
canonical deletion, so that order is never generated: ``catalogue`` at
bounds 6/8 takes about 0.5 s, and a ``recognize`` miss at the default bound
8 about 0.3 s, each in a fresh process.  Every preimage printed or written
is the host of least order, then of least canonical graph6.

Exit codes: 0 clean; 1 parse/input errors; 2 capability errors (size bounds,
for every per-graph command and for ``catalogue``); 3 reference-fixture
mismatch or, under --strict, a skipped comparison; 4 for ``check`` when some
graph is excluded (inverted by --invert-exit) and for ``conjectures`` when a
counterexample is found.  A per-graph command reports a bad line on stderr
as ``source:line: message`` and goes on with the next line; a file or format
error that ends ``catalogue`` or ``conjectures`` is one stderr line, exit 1.
All output is deterministic for a fixed command line and input.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .bicliques import biclique_graph
from .conjectures import scan_certified_graphs
from .distances import distance_reports
from .graphs import (
    CapabilityError,
    Graph,
    Graph6Error,
    GraphError,
    is_connected,
    parse_graph6,
    write_graph6,
)
from .obstructions import classify
from .recognition import (
    BICLIQUE_GRAPH,
    build_catalogue,
    check_catalogue_bounds,
    compare_with_reference,
    default_reference_path,
    load_catalogue,
    load_reference_positives,
    search_preimage,
    write_catalogue,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CAPABILITY = 2
EXIT_FIXTURE = 3
EXIT_FLAGGED = 4


class _Status:
    """What went wrong over a stream; the gravest kind sets the exit code."""

    def __init__(self) -> None:
        self.parse_error = False
        self.capability_error = False
        self.flagged = False

    def code(self, invert: bool = False) -> int:
        if self.capability_error:
            return EXIT_CAPABILITY
        if self.parse_error:
            return EXIT_PARSE
        if self.flagged != invert:
            return EXIT_FLAGGED
        return EXIT_OK


def _input_lines(paths: list[str], status: _Status):
    """Yield (source, line number, line as read) per non-blank, non-comment line.

    An input that cannot be read is reported once as ``source: message`` and
    counts as an input error.  Undecodable bytes are read as U+FFFD, which
    the graph6 parser rejects on that line alone.
    """
    for path in paths or ["-"]:
        name = "<stdin>" if path == "-" else path
        try:
            handle = sys.stdin if path == "-" else open(path, encoding="utf-8")
            if isinstance(handle, io.TextIOWrapper):  # a stream that decodes bytes
                handle.reconfigure(errors="replace")
            try:
                for lineno, line in enumerate(handle, start=1):
                    stripped = line.strip()
                    if stripped and not stripped.startswith("#"):
                        yield name, lineno, line
            finally:
                if handle is not sys.stdin:
                    handle.close()
        except OSError as exc:
            status.parse_error = True
            print(f"{name}: {exc.strerror or exc}", file=sys.stderr)


def _each_graph(paths: list[str], emit) -> _Status:
    """Hand every connected input graph to ``emit``; a true return flags it.

    A line that fails is reported on stderr and skipped: size bounds count
    as capability errors, everything else as parse errors.
    """
    status = _Status()
    for name, lineno, line in _input_lines(paths, status):
        try:
            graph = parse_graph6(line)
            if not is_connected(graph):
                raise GraphError("disconnected graph rejected")
            if emit(graph):
                status.flagged = True
        except CapabilityError as exc:
            status.capability_error = True
            print(f"{name}:{lineno}: {exc}", file=sys.stderr)
        except (Graph6Error, GraphError) as exc:
            status.parse_error = True
            print(f"{name}:{lineno}: {exc}", file=sys.stderr)
    return status


def _cmd_bicliques(args: argparse.Namespace) -> int:
    def emit(graph: Graph) -> None:
        kb, family = biclique_graph(graph)
        kb_g6 = write_graph6(kb)  # before any output: a KB beyond graph6 fails the whole line
        if args.output_format == "json":
            payload = {
                "schema": "bicliques/1",
                "graph6": write_graph6(graph),
                "bicliques": [
                    {"vertices": list(b.vertices), "sides": [list(s) for s in b.sides]}
                    for b in family
                ],
                "kb_graph6": kb_g6,
            }
            print(json.dumps(payload, separators=(",", ":")))
        else:
            print(f"# graph {write_graph6(graph)}")
            for index, b in enumerate(family):
                a, c = b.sides
                vertices = ",".join(map(str, b.vertices))
                print(f"{index}\t{{{vertices}}}\t{list(a)}|{list(c)}")
            print(f"kb\t{kb_g6}")

    return _each_graph(args.inputs, emit).code()


def _cmd_kb(args: argparse.Namespace) -> int:
    def emit(graph: Graph) -> None:
        kb, family = biclique_graph(graph)
        kb_g6 = write_graph6(kb)  # before the legend, as in ``bicliques``
        if args.legend:
            for index, b in enumerate(family):
                print(f"# {index}: {{{','.join(map(str, b.vertices))}}}")
        print(kb_g6)

    return _each_graph(args.inputs, emit).code()


def _cmd_distance(args: argparse.Namespace) -> int:
    def emit(graph: Graph) -> None:
        g6 = write_graph6(graph)
        if args.output_format == "json":
            # Rows are written by hand from the report's ints: the same bytes
            # as json.dumps(row, separators=(",", ":")) at a fraction of the cost.
            head = f'{{"schema":"biclique-distance/1","graph6":{json.dumps(g6)},"i":'
            lines = [
                f'{head}{i},"j":{j},"d_g":{d_g},"d_kb":{d_kb},"formula_value":{value}'
                f',"closest_pair":[{u},{v}],"witness_count":{"null" if count is None else count}}}\n'
                for i, j, d_g, d_kb, value, (u, v), count in distance_reports(graph)
            ]
        else:
            lines = [
                f"{g6}\t{i}\t{j}\t{d_g}\t{d_kb}\t{value}\t{'' if count is None else count}\n"
                for i, j, d_g, d_kb, value, _, count in distance_reports(graph)
            ]
        sys.stdout.write("".join(lines))

    return _each_graph(args.inputs, emit).code()


def _cmd_check(args: argparse.Namespace) -> int:
    def emit(graph: Graph) -> bool:
        report = classify(graph)
        print(report.to_json_line())
        return report.excluded

    return _each_graph(args.inputs, emit).code(invert=args.invert_exit)


def _cmd_recognize(args: argparse.Namespace) -> int:
    def emit(graph: Graph) -> None:
        host = search_preimage(graph, args.max_h_order)
        found = "none" if host is None else write_graph6(host)
        print(f"{write_graph6(graph)}\t{found}\t{args.max_h_order}")

    return _each_graph(args.inputs, emit).code()


def _cmd_catalogue(args: argparse.Namespace) -> int:
    check_catalogue_bounds(args.max_g_order, args.max_h_order)
    fixture = args.fixture
    if fixture is None and args.max_g_order == 6:
        default = default_reference_path()
        fixture = str(default) if default.exists() else None
    reference = skipped = None  # skipped: the warning, printed after a build that succeeds
    if fixture is None:
        skipped = "warning: no reference fixture; comparison skipped"
    elif not Path(fixture).exists():
        skipped = f"warning: fixture {fixture} not found; comparison skipped"
    else:
        reference = load_reference_positives(fixture)  # a bad fixture fails before the sweep
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)  # and so does a bad --out
    entries = build_catalogue(args.max_g_order, args.max_h_order, workers=args.workers)
    paths = write_catalogue(entries, args.out_dir)
    totals = Counter(entry.classification for entry in entries)
    for classification in sorted(totals):
        print(f"{classification}\t{totals[classification]}")
    for path in paths:
        print(f"wrote\t{path}")

    if reference is None:
        print(skipped, file=sys.stderr)
        return EXIT_FIXTURE if args.strict else EXIT_OK
    comparison = compare_with_reference(entries, reference)
    if comparison.matches:
        print("reference\tmatch")
        return EXIT_OK
    for key in comparison.missing:
        print(f"reference\tmissing-positive\t{key}")
    for key in comparison.extra:
        print(f"reference\textra-positive\t{key}")
    return EXIT_FIXTURE


def _cmd_conjectures(args: argparse.Namespace) -> int:
    entries = load_catalogue(args.catalogue_dir)
    if not entries:
        print(f"no catalogue entries under {args.catalogue_dir}", file=sys.stderr)
        return EXIT_PARSE
    certified = [entry.graph for entry in entries if entry.classification == BICLIQUE_GRAPH]
    findings = scan_certified_graphs(
        certified, i_max=args.i_max, containment=args.containment
    )
    lines = [json.dumps(f.to_json(), separators=(",", ":")) for f in findings]
    if args.findings_out:
        with open(args.findings_out, "w") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote\t{args.findings_out}")
    else:
        for line in lines:
            print(line)
    counter = Counter((finding.conjecture, finding.verdict) for finding in findings)
    for (conjecture, verdict), count in sorted(counter.items()):
        print(f"{conjecture}\t{verdict}\t{count}")
    if any(f.verdict == "counterexample" for f in findings):
        return EXIT_FLAGGED
    return EXIT_OK


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biclique-lab",
        description="bicliques, biclique graphs, and biclique-graph recognition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, run, inputs: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if inputs:
            p.add_argument("inputs", nargs="*", help="graph6 files ('-' or empty: stdin)")
        return p

    p = command("bicliques", "list bicliques and KB(G)", _cmd_bicliques)
    p.add_argument("--format", dest="output_format", choices=("tsv", "json"), default="tsv")
    p = command("kb", "emit KB(G) as graph6", _cmd_kb)
    p.add_argument("--legend", action="store_true", help="print '# index: vertices' lines")
    p = command("distance", "per-pair biclique distance table", _cmd_distance)
    p.add_argument("--format", dest="output_format", choices=("tsv", "json"), default="tsv")
    p = command("check", "obstruction battery reports", _cmd_check)
    p.add_argument(
        "--invert-exit",
        action="store_true",
        help="exit 4 when no graph is excluded (for filtering pipelines)",
    )
    p = command("recognize", "search for a preimage H with KB(H) = G", _cmd_recognize)
    p.add_argument("--max-h-order", type=int, default=8)
    p = command("catalogue", "build the small-order catalogue", _cmd_catalogue, inputs=False)
    p.add_argument("--max-g-order", type=int, default=6)
    p.add_argument("--max-h-order", type=int, default=8)
    p.add_argument("--out", dest="out_dir", default="catalogue")
    p.add_argument("--fixture", help="reference graph6 list to compare against")
    p.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=os.cpu_count() or 1,
        help="worker processes for the hosts on 9 vertices (default: the CPU count)",
    )
    p.add_argument(
        "--strict", action="store_true", help="fail when the reference comparison is skipped"
    )
    p = command("conjectures", "scan catalogue positives", _cmd_conjectures, inputs=False)
    p.add_argument("--catalogue", dest="catalogue_dir", required=True)
    p.add_argument("--out", dest="findings_out", help="findings JSONL path")
    p.add_argument("--i-max", dest="i_max", type=_int_at_least(2), default=None)
    p.add_argument("--containment", choices=("exact", "superset"), default="exact")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; an error that ends the whole command is one line
    on stderr and an exit code, never a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapabilityError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CAPABILITY
    except BrokenPipeError:  # downstream closed the pipe; not an error
        return EXIT_OK
    except (OSError, ValueError) as exc:  # unreadable files, malformed input
        print(exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
