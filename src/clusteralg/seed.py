"""Seeds and mutation for skew-symmetrizable exchange matrices.

A seed bundles an exchange matrix B, a tuple of tropical coefficients
(one per direction), and a tuple of cluster variables stored as exact
Laurent polynomials in the variables of the pattern's root seed.  The
root seed of a pattern has unit-monomial variables; every other seed is
produced by a sequence of mutations.  A seed does not record that
sequence: the atlas keeps the tree its seeds were discovered along.

A coefficient y_i is a Laurent monomial in the tropical generators,
stored as its exponent tuple.  Tropical addition takes componentwise
minima, so mutation needs only the positive part [y_k]+ (componentwise
max with 0) and [-y_k]+ of one tuple: y_k becomes -y_k, and y_i with
b_ki != 0 gains b_ki * [y_k]+ if b_ki > 0 and b_ki * [-y_k]+ if b_ki < 0
(Fomin and Zelevinsky, "Cluster algebras IV", 2007).

Mutation in direction k replaces x_k by the exchange binomial divided by
x_k; the division is exact Laurent division and its success in every
case is a structural guarantee of the arithmetic, so failure raises.
Every new variable is checked to have strictly positive integer
coefficients, which is another structural guarantee; a violation means
the engine is broken, never that the input is unlucky.
"""

from __future__ import annotations

import json
import random
from math import gcd
from operator import index
from typing import Iterable, Iterator, Sequence

from .laurent import Exponents, LaurentPoly, binomial, exact_div

Rows = tuple[tuple[int, ...], ...]


class NotSkewSymmetrizableError(ValueError):
    """No positive integer diagonal matrix symmetrizes the given matrix."""


class PositivityError(ArithmeticError):
    """A mutated variable had a nonpositive coefficient; engine invariant broken."""


def _as_rows(rows: Sequence[Sequence[int]]) -> Rows:
    out = tuple(tuple(map(index, row)) for row in rows)
    n = len(out)
    if not n:
        raise ValueError("matrix has rank 0; the rank must be at least 1")
    if any(len(row) != n for row in out):
        raise ValueError("matrix is not square")
    return out


def find_skew_symmetrizer(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Componentwise minimal positive integers s with diag(s) * B skew-symmetric.

    Works one connected component of the off-diagonal support at a time:
    an edge (i, j) with b_ij != 0 forces s_j * |b_ji| = s_i * |b_ij|, so
    integers propagate by breadth-first search and every back edge is a
    consistency check.  Where s_j would not be whole, the component found
    so far is first multiplied by the least factor that makes it whole; the
    new s_j is prime to that factor, so the component's gcd stays 1 and s
    is minimal.  Raises NotSkewSymmetrizableError when the sign pattern or
    a ratio fails.
    """
    b = _as_rows(rows)
    n = len(b)
    for i in range(n):
        if b[i][i] != 0:
            raise NotSkewSymmetrizableError(f"nonzero diagonal entry at {i + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            if (b[i][j] == 0) != (b[j][i] == 0) or b[i][j] * b[j][i] > 0:
                raise NotSkewSymmetrizableError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                    f"are {b[i][j]}, {b[j][i]}: need opposite signs or both zero"
                )
    s = [0] * n
    for start in range(n):
        if s[start]:
            continue
        s[start] = 1
        component = [start]  # also the queue: iteration reaches appended j
        for i in component:
            for j in range(n):
                if b[i][j] == 0:
                    continue
                num, den = s[i] * abs(b[i][j]), abs(b[j][i])
                if not s[j]:
                    if num % den:
                        scale = den // gcd(num, den)
                        for c in component:
                            s[c] *= scale
                        num *= scale
                    s[j] = num // den
                    component.append(j)
                elif s[j] * den != num:
                    raise NotSkewSymmetrizableError(
                        f"inconsistent symmetrizer ratio at ({i + 1},{j + 1})"
                    )
    return tuple(s)


class ExchangeMatrix:
    """A skew-symmetrizable integer matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = _as_rows(rows)
        find_skew_symmetrizer(self.rows)  # raises unless skew-symmetrizable

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def _trusted(rows: Rows) -> "ExchangeMatrix":
        """Rows from mutation, unchecked: it keeps the minimal symmetrizer
        (Fomin-Zelevinsky, 2002)."""
        out = object.__new__(ExchangeMatrix)
        out.rows = rows
        return out

    def __repr__(self) -> str:
        return f"ExchangeMatrix({list(map(list, self.rows))})"


def matching_permutations(rows: Rows, want: Rows) -> Iterator[tuple[int, ...]]:
    """Simultaneous position permutations carrying rows onto want, in
    lexicographic order: position i of want is position perm[i] of rows, so
    rows[perm[i]][perm[j]] == want[i][j].

    perm is assigned one position at a time, smallest value first, and a
    value is kept only if every entry it fixes against the positions already
    assigned matches; diagonals are zero in both matrices.  A value whose
    row, sorted, differs from the position's in want is never tried, as no
    permutation changes it.
    """
    n = len(want)
    perm: list[int] = []
    have = list(map(sorted, rows))
    fits = [[p for p in range(n) if have[p] == shape] for shape in map(sorted, want)]

    def extend() -> Iterator[tuple[int, ...]]:
        i = len(perm)
        if i == n:
            yield tuple(perm)
            return
        for p in fits[i]:
            if p in perm:
                continue
            row = rows[p]
            if all(
                row[q] == want[i][j] and rows[q][p] == want[j][i]
                for j, q in enumerate(perm)
            ):
                perm.append(p)
                yield from extend()
                perm.pop()

    return extend()


class Seed:
    """A seed of a cluster pattern: matrix, coefficients, variables.

    Two seeds are equal when matrix, coefficients, and variables agree,
    regardless of how they were reached.
    """

    __slots__ = ("b", "y", "x", "_key")

    def __init__(
        self,
        b: ExchangeMatrix,
        y: Sequence[Sequence[int]],
        x: Sequence[LaurentPoly],
    ):
        self.b = b
        self.y = tuple(map(tuple, y))
        self.x = tuple(x)
        n = b.n
        if len(self.y) != n or len(self.x) != n:
            raise ValueError("coefficient and variable counts must equal the rank")
        m = len(self.y[0])
        if any(len(t) != m for t in self.y):
            raise ValueError("coefficients have mixed ranks")
        if any(p.m != m for p in self.x):
            raise ValueError("variables and coefficients disagree on the y rank")
        self._key: tuple | None = None

    @staticmethod
    def _trusted(b: ExchangeMatrix, y: tuple, x: tuple) -> "Seed":
        """Wrap a seed whose shapes hold by construction, such as a
        mutation result or a stored seed's B and y with n expansions,
        without re-validating.  ``y`` and ``x`` must be tuples."""
        s = object.__new__(Seed)
        s.b = b
        s.y = y
        s.x = x
        s._key = None
        return s

    @property
    def n(self) -> int:
        return self.b.n

    @property
    def m(self) -> int:
        return len(self.y[0])

    def sort_key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.b.rows,
                self.y,
                tuple(p.sort_key() for p in self.x),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Seed):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def __repr__(self) -> str:
        return f"Seed(n={self.n}, m={self.m})"


def root_seed(b: ExchangeMatrix, coefficients: str = "trivial") -> Seed:
    """Root seed with unit-monomial variables.

    ``coefficients`` selects the tropical semifield: 'trivial' has no
    generators, so every coefficient is ``()``; 'principal' has one
    generator per direction, with the i-th coefficient equal to the i-th
    generator, the i-th unit tuple.
    """
    n = b.n
    if coefficients == "trivial":
        m = 0
        y = [()] * n
    elif coefficients == "principal":
        m = n
        y = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    else:
        raise ValueError(f"unknown coefficient choice {coefficients!r}")
    x = [LaurentPoly.variable(n, m, i) for i in range(1, n + 1)]
    return Seed(b, y, x)


def random_exchange_matrix(
    rng: random.Random, n: int, max_sym: int = 3
) -> ExchangeMatrix:
    """Random skew-symmetrizable matrix for sampling and property tests.

    Picks a positive diagonal s and a small skew-symmetric sign pattern
    z, then sets b_ij = z_ij * s_j / gcd(s_i, s_j), which diag(s)
    symmetrizes by construction.  ``max_sym`` bounds the diagonal;
    entries grow with it, and matrices drawn at 2 stay tame enough for
    long mutation walks.
    """
    s = [rng.randint(1, max_sym) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            z = rng.randint(-1, 1)
            if z:
                g = gcd(s[i], s[j])
                rows[i][j] = z * s[j] // g
                rows[j][i] = -z * s[i] // g
    return ExchangeMatrix(rows)


def _positive_parts(yk: Exponents) -> tuple[Exponents, Exponents]:
    """[y_k]+ and [-y_k]+: the exponents of y_k / (1 (+) y_k) and of
    1 / (1 (+) y_k), since 1 (+) y_k has exponents min(y_k, 0)."""
    if not yk:  # trivial coefficients
        return yk, yk
    return (
        tuple([e if e > 0 else 0 for e in yk]),
        tuple([-e if e < 0 else 0 for e in yk]),
    )


def exchange_binomial(seed: Seed, k: int) -> LaurentPoly:
    """The two-term exchange relation numerator in direction k, 1-based.

    One term carries the positive column entries of B and the y exponents
    [y_k]+, the other the negative entries and [-y_k]+.  ``binomial`` lays
    it out for its division by x_k.
    """
    n, m = seed.n, seed.m
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    up, down = _positive_parts(seed.y[k - 1])
    no_x = (0,) * n
    pos, neg = [], []
    for row, x_i in zip(seed.b.rows, seed.x):
        b_ik = row[k - 1]
        if b_ik > 0:
            pos.append((x_i, b_ik))
        elif b_ik < 0:
            neg.append((x_i, -b_ik))
    sides = [(no_x + up, pos), (no_x + down, neg)]
    return binomial(n, m, sides, seed.x[k - 1])


def exchange(seed: Seed, k: int) -> LaurentPoly:
    """The variable that replaces x_k when the seed mutates in direction k,
    1-based: the exchange binomial divided exactly by x_k.

    Only the seed's B, y and variables are read, so a walk that already
    holds a stored seed's B and y needs no matrix or coefficient mutation.
    Raises NotDivisibleError when the division is not exact and
    PositivityError when the quotient has a nonpositive coefficient;
    either means the engine is broken.
    """
    x_k = exact_div(exchange_binomial(seed, k), seed.x[k - 1])
    if not x_k.has_positive_coefficients():
        raise PositivityError(
            f"mutation in direction {k} produced nonpositive coefficients: {x_k}"
        )
    return x_k


def mutate_rows(rows: Rows, y: Rows, k: int) -> tuple[Rows, Rows]:
    """B's rows and y mutated in direction k, 1-based: row k and y_k change
    sign; B's row i gains |b_ik| times the entries of row k with b_ik's
    sign, then b_ik changes sign; and y_i gains |b_ki| times the entries of
    y_k with b_ki's sign.  A row gaining by 0 is kept."""
    kk = k - 1
    row_k, y_k = rows[kk], y[kk]
    b = list(rows)
    for i, row in enumerate(rows):
        c = row[kk]
        if c > 0:
            r = [e + c * v if v > 0 else e for e, v in zip(row, row_k)]
        elif c:
            r = [e - c * v if v < 0 else e for e, v in zip(row, row_k)]
        else:
            continue
        r[kk] = -c
        b[i] = tuple(r)
    b[kk] = tuple([-v for v in row_k])
    if y_k:  # trivial coefficients: every y_i is () and stays so
        y = list(y)
        for i, c in enumerate(row_k):
            if c > 0:
                y[i] = tuple([e + c * v if v > 0 else e for e, v in zip(y[i], y_k)])
            elif c:
                y[i] = tuple([e - c * v if v < 0 else e for e, v in zip(y[i], y_k)])
        y[kk] = tuple([-e for e in y_k])
        y = tuple(y)
    return tuple(b), y


def mutate(seed: Seed, k: int) -> Seed:
    """Seed mutation in direction k, 1-based.  Involutive."""
    x_k = exchange(seed, k)
    rows, y = mutate_rows(seed.b.rows, seed.y, k)
    x = seed.x[: k - 1] + (x_k,) + seed.x[k:]
    return Seed._trusted(ExchangeMatrix._trusted(rows), y, x)


def mutate_path(seed: Seed, path: Iterable[int]) -> Seed:
    out = seed
    for k in path:
        out = mutate(out, k)
    return out


def format_seed(seed: Seed) -> str:
    """Readable multi-line form: matrix rows, coefficients, variables."""
    lines = [f"n: {seed.n}", f"m: {seed.m}", "B:"]
    lines.extend("  " + " ".join(str(v) for v in row) for row in seed.b.rows)
    ys = (str(LaurentPoly(0, seed.m, {t: 1})) for t in seed.y)
    lines.append("y: " + "; ".join(ys))
    lines.append("x:")
    lines.extend(f"  x{i + 1} = {p}" for i, p in enumerate(seed.x))
    return "\n".join(lines)


def seed_from_dict(data: dict) -> Seed:
    """Build a root seed from a parsed seed file.

    Expected keys: ``n`` (int), ``B`` (row-major list of n lists of n
    ints), ``coefficients`` ('trivial' or 'principal').
    """
    if not isinstance(data, dict):
        raise ValueError("seed file must contain a JSON object")
    try:
        n = data["n"]
        raw_b = data["B"]
        coefficients = data["coefficients"]
    except KeyError as exc:
        raise ValueError(f"seed file is missing key {exc.args[0]!r}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("'n' must be a positive integer")
    if (
        not isinstance(raw_b, list)
        or len(raw_b) != n
        or any(not isinstance(row, list) or len(row) != n for row in raw_b)
    ):
        raise ValueError("'B' must be a row-major n x n list of lists")
    for row in raw_b:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("'B' entries must be integers")
    if coefficients not in ("trivial", "principal"):
        raise ValueError("'coefficients' must be 'trivial' or 'principal'")
    return root_seed(ExchangeMatrix(raw_b), coefficients)


def load_seed_file(path: str) -> Seed:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read seed file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"seed file {path} is not valid JSON: {exc}") from None
    return seed_from_dict(data)
