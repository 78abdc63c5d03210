"""Type catalogue and closed-form oracle for the benchmark.

Exchange matrices use the default (linear or star) orientation of each
Dynkin diagram.  The counts come from the formulas of Fomin and
Zelevinsky, "Y-systems and generalized associahedra" (2003), and from
the shape of the exchange graphs of the rank-2 Kronecker and rank-3
Markov patterns; none of them is computed by the engine.
"""

from __future__ import annotations

from math import comb

Matrix = list[list[int]]


def _chain(n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
        rows[i + 1][i] = -1
    return rows


def _edges(n: int, edges: list[tuple[int, int]]) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = 1
        rows[j][i] = -1
    return rows


def matrix(family: str, n: int = 0) -> Matrix:
    """Exchange matrix of a catalogue type.

    ``family`` is one of A, B, C, D, E (n = 6), Kronecker (n is the
    multiplicity b of the double edge) and Markov.
    """
    if family == "A":
        return _chain(n)
    if family in ("B", "C"):
        rows = _chain(n)
        # B_n: the short root is last; C_n is the transpose (Langlands dual).
        if family == "B":
            rows[n - 1][n - 2] = -2
        else:
            rows[n - 2][n - 1] = 2
        return rows
    if family == "D":
        return _edges(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])
    if family == "E" and n == 6:
        return _edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    if family == "Kronecker":
        return [[0, n], [-n, 0]]
    if family == "Markov":
        return [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
    raise ValueError(f"no catalogue entry for {family}{n or ''}")


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def finite_counts(family: str, n: int) -> tuple[int, int]:
    """(cluster variables, clusters) of a finite type."""
    if family == "A":
        return n * (n + 3) // 2, catalan(n + 1)
    if family in ("B", "C"):
        return n * (n + 1), comb(2 * n, n)
    if family == "D":
        return n * n, (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    if family == "E" and n == 6:
        return 42, 833
    raise ValueError(f"no finite counts for {family}{n}")


def wild_counts(family: str, depth: int) -> tuple[int, int]:
    """(stored variables, stored seeds) of a depth-capped exploration.

    The Kronecker exchange graph is a line, so depth d reaches 2d + 1
    seeds and 2d + 2 variables.  The Markov exchange graph is a
    3-regular tree on which every seed class is met once, giving
    3 * 2^d - 2 seeds and 3 * 2^d variables.
    """
    if family == "Kronecker":
        return 2 * depth + 2, 2 * depth + 1
    if family == "Markov":
        return 3 * 2**depth, 3 * 2**depth - 2
    raise ValueError(f"no depth-capped counts for {family}")
