#!/usr/bin/env python3
"""Run every verification suite over the small finite type patterns.

Builds complete atlases for finite types of the catalogue (by default
A2, A3, B2 and G2), with trivial coefficients for the degree and witness
suites and principal coefficients for the g-pair suite, and prints each
report.  Exits nonzero if any suite does not pass.
"""

from __future__ import annotations

import argparse
import sys

from clusteralg import (
    ExchangeMatrix,
    explore,
    root_seed,
    verify_degree_properties,
    verify_g_pairs,
    verify_maximal_sets,
    witness_sweep,
)
from clusteralg.catalogue import finite_type, matrix

SUITES = ("degree-properties", "maximal-sets", "witnesses", "g-pairs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--types",
        nargs="+",
        type=finite_type,
        default=[("A", 2), ("A", 3), ("B", 2), ("G", 2)],
        metavar="TYPE",
        help="finite catalogue types, such as A3, C4, D5, E6, F4 or G2",
    )
    parser.add_argument("--suites", nargs="+", choices=SUITES, default=list(SUITES))
    args = parser.parse_args(argv)

    failures = 0
    for family, n in args.types:
        label, rows = f"{family}{n}", matrix(family, n)
        trivial = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        principal = explore(root_seed(ExchangeMatrix(rows), "principal"))
        runs = {
            "degree-properties": lambda: verify_degree_properties(trivial),
            "maximal-sets": lambda: verify_maximal_sets(trivial),
            "witnesses": lambda: witness_sweep(trivial),
            "g-pairs": lambda: verify_g_pairs(principal),
        }
        for suite in args.suites:
            report = runs[suite]()
            print(f"== {label} {suite} ==")
            print(report.text(), end="")
            print()
            if report.status != "pass":
                failures += 1
    if failures:
        print(f"{failures} suite(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
