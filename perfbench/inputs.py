"""Seeded input generation: re-rooted catalogue matrices as seed files.

Each root gets a random simultaneous permutation of its positions and a
short random walk of matrix mutations.  Both operations keep the
pattern, so the oracle counts stay valid, while the root cluster the
engine expands in changes with the seed.
"""

from __future__ import annotations

import json
import random

Matrix = list[list[int]]


def mutate_matrix(b: Matrix, k: int) -> Matrix:
    """Fomin-Zelevinsky matrix mutation in direction k (0-based)."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -b[i][j]
            else:
                out[i][j] = b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
    return out


def permute_matrix(b: Matrix, perm: list[int]) -> Matrix:
    return [[b[perm[i]][perm[j]] for j in range(len(b))] for i in range(len(b))]


def reroot(b: Matrix, rng: random.Random, walk: int) -> Matrix:
    """Random permutation, then a walk of ``walk`` mutations that never
    undoes its previous step."""
    perm = list(range(len(b)))
    rng.shuffle(perm)
    out = permute_matrix(b, perm)
    last = None
    for _ in range(walk):
        k = rng.choice([d for d in range(len(b)) if d != last])
        out = mutate_matrix(out, k)
        last = k
    return out


def write_seed_file(path: str, b: Matrix, coefficients: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(b), "B": b, "coefficients": coefficients}, fh)
        fh.write("\n")
