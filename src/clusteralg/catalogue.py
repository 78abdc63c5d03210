"""Named exchange matrices and the closed-form counts of the finite types.

Each family has one orientation.  A Dynkin chain has b_{i,i+1} = 1 and
b_{i+1,i} = -1; a multiple bond between i and j = i + 1 puts its
multiplicity where the Cartan matrix a_ij = 2(alpha_i, alpha_j) /
(alpha_i, alpha_i) has it, with Bourbaki's numbering of the simple roots.
So B_n (short root last) has b_{n,n-1} = -2, C_n (short roots first)
has b_{n-1,n} = 2, F4 has b_32 = -2 and G2 (short root first) has
b_12 = 3.  D_n is the chain 1..n-1 with n joined to n-2, E6 and E7 the
chain 1..n-1 with n joined to 3.  The counts are those of Fomin and
Zelevinsky, "Y-systems and generalized associahedra" (2003): positive roots
plus the rank for the variables, the Catalan number of the type for the
clusters.

The engine does not read this module; tests and scripts do.
"""

from __future__ import annotations

from math import comb

Matrix = list[list[int]]

# The least rank of each finite family.
_FIRST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_EXCEPTIONAL = {
    ("E", 6): (42, 833),
    ("E", 7): (70, 4160),
    ("F", 4): (28, 105),
    ("G", 2): (8, 8),
}


def _edges(n: int, edges: list[tuple[int, int]]) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = 1
        rows[j][i] = -1
    return rows


def _chain(n: int) -> Matrix:
    return _edges(n, [(i, i + 1) for i in range(n - 1)])


def _is_finite(family: str, n: int) -> bool:
    if family in _FIRST_RANK:
        return n >= _FIRST_RANK[family]
    return (family, n) in _EXCEPTIONAL


def matrix(family: str, n: int = 0) -> Matrix:
    """Exchange matrix of a catalogue type.

    ``family`` is one of A, B, C, D, E (n = 6, 7), F (n = 4), G (n = 2),
    Kronecker (n is the multiplicity b of the double edge) and Markov.
    """
    if family == "Kronecker" and n >= 1:
        return [[0, n], [-n, 0]]
    if family == "Markov":
        return [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
    if not _is_finite(family, n):
        raise ValueError(f"no catalogue entry for {family}{n or ''}")
    if family in ("D", "E"):
        branch = n - 3 if family == "D" else 2
        return _edges(n, [(i, i + 1) for i in range(n - 2)] + [(branch, n - 1)])
    rows = _chain(n)
    if family == "B":
        rows[n - 1][n - 2] = -2
    elif family == "C":
        rows[n - 2][n - 1] = 2
    elif family == "F":
        rows[2][1] = -2
    elif family == "G":
        rows[0][1] = 3
    return rows


def _catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def finite_counts(family: str, n: int) -> tuple[int, int]:
    """(cluster variables, clusters) of a finite type."""
    if not _is_finite(family, n):
        raise ValueError(f"no finite counts for {family}{n}")
    if family == "A":
        return n * (n + 3) // 2, _catalan(n + 1)
    if family in ("B", "C"):
        return n * (n + 1), comb(2 * n, n)
    if family == "D":
        return n * n, (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return _EXCEPTIONAL[family, n]


def finite_type(name: str) -> tuple[str, int]:
    """(family, rank) of a finite type named like ``A3`` or ``E6``."""
    family, rank = name[:1], name[1:]
    if not (rank.isdigit() and _is_finite(family, int(rank))):
        raise ValueError(f"{name!r} is not a finite catalogue type")
    return family, int(rank)
