#!/usr/bin/env python3
"""Sample random skew-symmetrizable matrices and walk the mutation graph.

Each walk starts at a principal coefficient root and mutates in random
directions, checking after every step that each cluster variable is a
Laurent polynomial in the root cluster with positive coefficients.
Walks that blow past the term cap stop early and are counted as
truncated; every variable produced, including the oversized ones, is
still checked.  A nonpositive coefficient is reported on stderr and
makes the script exit with status 1.
"""

from __future__ import annotations

import argparse
import random
import sys

from clusteralg import mutate, random_exchange_matrix, root_seed


def run(args: argparse.Namespace) -> dict[str, int]:
    """Walk as the parsed command line asks; counts of what was checked."""
    rng = random.Random(args.rng_seed)
    stats = {
        "walks": 0,
        "truncated": 0,
        "steps": 0,
        "variables": 0,
        "max_terms": 0,
        "nonpositive": 0,
    }
    for index in range(args.walks):
        n = rng.randint(2, args.max_rank)
        matrix = random_exchange_matrix(rng, n, max_sym=args.max_sym)
        seed = root_seed(matrix, "principal")
        path: tuple[int, ...] = ()
        for _ in range(args.length):
            k = rng.randint(1, n)
            seed = mutate(seed, k)
            path += (k,)
            biggest = max(len(p.terms) for p in seed.x)
            stats["max_terms"] = max(stats["max_terms"], biggest)
            for poly in seed.x:
                if any(c <= 0 for c in poly.terms.values()):
                    stats["nonpositive"] += 1
                    print(
                        f"nonpositive coefficient, matrix {matrix.rows}, "
                        f"path {path}",
                        file=sys.stderr,
                    )
                stats["variables"] += 1
            if biggest > args.term_cap:
                stats["truncated"] += 1
                break
        stats["walks"] += 1
        stats["steps"] += len(path)
        if args.verbose:
            print(f"walk {index}: rank {n}, steps {len(path)}, matrix {matrix.rows}")
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--walks", type=int, default=50)
    parser.add_argument("--length", type=int, default=12)
    parser.add_argument("--max-rank", type=int, default=3)
    parser.add_argument("--max-sym", type=int, default=2)
    parser.add_argument("--term-cap", type=int, default=400)
    parser.add_argument("--rng-seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")
    stats = run(parser.parse_args(argv))
    print(
        f"walks: {stats['walks']}, truncated: {stats['truncated']}, "
        f"steps: {stats['steps']}, variables checked: {stats['variables']}, "
        f"largest expansion: {stats['max_terms']} terms"
    )
    return 1 if stats["nonpositive"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
