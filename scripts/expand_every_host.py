#!/usr/bin/env python3
"""Expand every variable at every stored cluster of one finite type.

Explores the chosen catalogue type from its root seed, then reads every
stored cluster once, in discovery order, which exchanges it or serves it
through a map onto an exchanged one (the timed part), and expands every
variable in the coordinates of every cluster.
Then explores it again and reads every cluster's d-vector table once, in
discovery order, as the degree-properties sweep does, so an exchanged
cluster's table is built from its expansions and a served one's is
permuted from its image's.  Then explores it a third
time, describes the witness of every ordered pair (reference, target) and
runs the witness sweep.  Prints the number of hosts, the number of cluster
automorphisms the first atlas kept, a sha256 of every expansion's text, a
sha256 of every d-vector's text and a sha256 of every witness's
description followed by the sweep report to stdout, and the seconds the
first reads, the d-vector tables and the witnesses took, without exploring
or printing them, to stderr.  So the re-rooting layer and the witness
search can be timed, and their output compared across versions, without a
profiler.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from clusteralg import (
    ExchangeMatrix,
    explore,
    laurent_witness,
    root_seed,
    witness_sweep,
)
from clusteralg.catalogue import finite_type, matrix


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--type",
        type=finite_type,
        default=("A", 3),
        metavar="TYPE",
        help="a finite catalogue type, such as A3, C4, D5, E6, F4 or G2",
    )
    parser.add_argument(
        "--coefficients", choices=("trivial", "principal"), default="trivial"
    )
    args = parser.parse_args(argv)

    family, n = args.type
    root = root_seed(ExchangeMatrix(matrix(family, n)), args.coefficients)
    atlas = explore(root)
    start = time.perf_counter()
    for cluster in atlas.clusters:
        atlas.expand(0, cluster)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for cluster in atlas.clusters:
        for v in range(len(atlas.variables)):
            digest.update(f"{atlas.expand(v, cluster)}\n".encode())
    print(f"hosts: {len(atlas.clusters)}")
    print(f"kept maps: {len(atlas._automorphisms)}")
    print(f"sha256: {digest.hexdigest()}")

    atlas = explore(root)
    count = len(atlas.variables)
    start = time.perf_counter()
    tables = [atlas.d_vectors(c) for c in atlas.clusters]
    table_seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for table in tables:
        for d in table:
            digest.update(f"{d}\n".encode())
    print(f"d-vectors sha256: {digest.hexdigest()}")

    atlas = explore(root)
    start = time.perf_counter()
    witnesses = [
        laurent_witness(xk, xi, atlas).describe()
        for xk in range(count)
        for xi in range(count)
    ]
    report = witness_sweep(atlas)
    witness_seconds = time.perf_counter() - start
    digest = hashlib.sha256()
    for lines in witnesses:
        digest.update("".join(f"{line}\n" for line in lines).encode())
    digest.update(report.text().encode())
    print(f"witnesses sha256: {digest.hexdigest()}")
    print(f"seconds: {seconds:.3f}", file=sys.stderr)
    print(f"d-vector seconds: {table_seconds:.3f}", file=sys.stderr)
    print(f"witness seconds: {witness_seconds:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
