#!/usr/bin/env python3
"""Re-root a finite type pattern at every stored seed and compare.

For each stored seed of the chosen type's atlas, explores a fresh atlas
whose root carries that seed's exchange matrix, then verifies the two
atlases identify: same cluster sets and matching labeled exchange
graphs under the variable bijection.  Afterwards prints an exact
incompatibility certificate for every pair of variables that never
share a cluster.
"""

from __future__ import annotations

import argparse

from clusteralg import (
    ExchangeMatrix,
    certify_incompatible_pairs,
    explore,
    root_seed,
    verify_unistructural,
)
from clusteralg.catalogue import finite_type, matrix


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--type",
        type=finite_type,
        default=("A", 2),
        metavar="TYPE",
        help="a finite catalogue type, such as A3, C4, D5, E6, F4 or G2",
    )
    parser.add_argument(
        "--certificates", action="store_true", help="print every certificate in full"
    )
    args = parser.parse_args(argv)

    family, n = args.type
    atlas = explore(root_seed(ExchangeMatrix(matrix(family, n)), "trivial"))
    print(
        f"{family}{n}: {len(atlas.variables)} variables, "
        f"{len(atlas.clusters)} clusters, {len(atlas.seeds)} stored seeds"
    )

    failures = 0
    for sid, stored in enumerate(atlas.seeds):
        rerooted = explore(root_seed(stored.b, "trivial"))
        report = verify_unistructural(atlas, rerooted)
        print(f"reroot at seed {sid} (path {list(atlas.path(sid))}): {report.status}")
        if report.status != "pass":
            failures += 1
            print(report.text(), end="")

    certificates = certify_incompatible_pairs(atlas)
    print(f"incompatible pairs certified: {len(certificates)}")
    for cert in certificates:
        if args.certificates:
            print("\n".join(cert.lines()))
            print()
        else:
            print(
                f"  ({cert.reference}, {cert.target}): "
                f"lhs {cert.lhs_value} < rhs bound {cert.rhs_lower_bound}"
            )
        if cert.lhs_value >= cert.rhs_lower_bound:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
