#!/usr/bin/env python3
"""Rebuild the small-order catalogue and audit it against the shipped
reference list.

Writes catalogue JSONL files, prints per-order classification totals, the
checks that fire on each negative entry, and the comparison with the
certified reference (entries whose least preimage exceeds the searched
bound are expected to be reported as missing).
"""

from __future__ import annotations

import argparse
import json
from collections import Counter

from biclique_lab.graphs import parse_graph6
from biclique_lab.bicliques import biclique_graph
from biclique_lab.graphs import canonical_form
from biclique_lab.recognition import (
    NOT_BICLIQUE_GRAPH,
    build_catalogue,
    compare_with_reference,
    default_reference_path,
    write_catalogue,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-g-order", type=int, default=6)
    parser.add_argument("--max-h-order", type=int, default=8)
    parser.add_argument("--out", default="out/catalogue")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")

    entries = build_catalogue(args.max_g_order, args.max_h_order, workers=args.workers)
    paths = write_catalogue(entries, args.out)
    print(f"wrote {len(paths)} files under {args.out}")

    for order in sorted({e.order for e in entries}):
        counts = Counter(e.classification for e in entries if e.order == order)
        print(f"order {order}: {dict(counts)}")

    print("\nnegative entries and their firing checks:")
    for e in entries:
        if e.classification == NOT_BICLIQUE_GRAPH:
            fired = [k for k, v in e.check_verdicts.items() if v == "fail"]
            print(f"  {e.graph6:8s} (n={e.order}) {', '.join(fired)}")

    reference = default_reference_path()
    if reference.exists():
        comparison = compare_with_reference(entries, reference)
        if comparison.matches:
            print("\nreference: exact match")
        else:
            print("\nreference: differences")
            for key in comparison.missing:
                print(f"  missing positive {key} (needs a larger preimage)")
            for key in comparison.extra:
                print(f"  extra positive {key}")
        preimages = reference.parent / "reference_preimages.jsonl"
        if preimages.exists():
            print("\nre-verifying reference certificates:")
            bad = 0
            for line in preimages.read_text().splitlines():
                if not line.strip():
                    continue
                row = json.loads(line)
                kb, _ = biclique_graph(parse_graph6(row["preimage_graph6"]))
                ok = canonical_form(kb) == row["graph6"]
                bad += not ok
                marker = "ok" if ok else "BAD"
                print(f"  {row['graph6']:8s} <- {row['preimage_graph6']} {marker}")
            if bad:
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
