"""Run one ``biclique-lab`` command in this fresh interpreter.

    python3 perfbench/cli_child.py [--trace-out FILE] -- ARGV...

The library comes from ``src`` of the checkout. With ``--trace-out`` the
library is traced while the command runs, and the tracer's totals and the
names of absent functions are written to FILE (spans go next to it). The
exit code is the command's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    args = sys.argv[1:]
    trace_out = Path(args[1]) if args[0] == "--trace-out" else None
    argv = args[args.index("--") + 1:]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import biclique_lab.cli

    if trace_out is None:
        return biclique_lab.cli.main(argv)
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        return biclique_lab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.time_checks()
        tracer.write_spans(trace_out.with_suffix(".spans.jsonl"))
        trace_out.write_text(json.dumps({"totals": tracer.totals(), "absent": tracer.absent}))


if __name__ == "__main__":
    sys.exit(main())
