#!/usr/bin/env python3
"""Corpus-wide verification of the biclique distance formula.

For every connected graph up to the given order (default 6) and every pair
of distinct bicliques, checks d_KB = floor((d_G + 1)/2) + 1 and the witness
lower bound (at least k+1 bicliques within distance k-1 of a distance-k
pair).  Prints one summary row per order.
"""

from __future__ import annotations

import argparse

from biclique_lab.distances import verify_distance_formula
from biclique_lab.graphs import enumerate_connected_graphs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=6)
    args = parser.parse_args()

    print(f"{'order':>5} {'graphs':>7} {'pairs':>8} {'max d_G':>8} {'min witnesses':>14}")
    for n in range(2, args.max_order + 1):
        graphs = pairs = 0
        max_d = 0
        min_witnesses = None
        for g in enumerate_connected_graphs(n):
            graphs += 1
            reports = verify_distance_formula(g)  # raises on any violation
            pairs += len(reports)
            for report in reports:
                max_d = max(max_d, report.d_g)
                if report.d_g > 0:
                    margin = report.witness_count - (report.d_g + 1)
                    if min_witnesses is None or margin < min_witnesses:
                        min_witnesses = margin
        slack = "n/a" if min_witnesses is None else f"bound+{min_witnesses}"
        print(f"{n:>5} {graphs:>7} {pairs:>8} {max_d:>8} {slack:>14}")
    print("formula holds on every pair")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
