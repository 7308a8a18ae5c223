#!/usr/bin/env python3
"""Rebuild the shipped reference list of biclique graphs on 2..6 vertices.

Runs the library's exhaustive preimage sweep over every connected host on
up to 9 vertices with at most 6 bicliques, ``positive_preimages(6, 9)``,
which steps from each order's capped classes to the next and generates no
order.  Each order is mapped on one worker process per CPU; the serial
sweep, ``biclique-lab catalogue --max-h-order 9 --workers 1``, writes the
same certificates.  Both times are in the README's size-regime table.  It
writes two files into the fixtures directory:

* ``biclique_graphs_up_to_6.g6``: one canonical graph6 per line, after a
  ``#`` header that records how the file was made;
* ``reference_preimages.jsonl``: one ``{"graph6", "preimage_graph6"}`` row
  per listed graph, the host realising it of least order, then of least
  canonical graph6.

The list comes from this library, so it is not an independent source.  Its
only independence is that acceptance criterion 5 re-verifies every
certificate with the definition-literal oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import argparse
import json
import os
from collections import Counter
from pathlib import Path

from biclique_lab import __version__
from biclique_lab.graphs import parse_graph6, write_graph6
from biclique_lab.recognition import default_reference_path, positive_preimages

MAX_G_ORDER = 6
MAX_H_ORDER = 9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(default_reference_path().parent))
    args = parser.parse_args()

    positives = positive_preimages(MAX_G_ORDER, MAX_H_ORDER, workers=os.cpu_count() or 1)
    keys = sorted(positives, key=lambda key: (parse_graph6(key).n, key))
    by_order = Counter(parse_graph6(key).n for key in keys)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = [
        f"# Biclique graphs on 2..{MAX_G_ORDER} vertices, each certified by a preimage",
        "# host in reference_preimages.jsonl; one canonical graph6 per line.",
        f"# Made by scripts/build_reference.py (biclique-lab {__version__}):",
        f"# positive_preimages({MAX_G_ORDER}, {MAX_H_ORDER}) over every connected host on 2..{MAX_H_ORDER} vertices.",
        f"# {len(keys)} graphs; by order: "
        + " ".join(f"{n}:{by_order[n]}" for n in sorted(by_order)),
    ]
    (out / "biclique_graphs_up_to_6.g6").write_text("\n".join(header + keys) + "\n")
    rows = [
        json.dumps(
            {"graph6": key, "preimage_graph6": write_graph6(positives[key])},
            separators=(",", ":"),
        )
        for key in keys
    ]
    (out / "reference_preimages.jsonl").write_text("\n".join(rows) + "\n")
    print(f"wrote {len(keys)} certified graphs under {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
