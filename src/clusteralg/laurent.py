"""Exact arithmetic for Laurent polynomials over a tropical coefficient ring.

A coefficient is an element of the tropical semifield on generators
``y1..ym``: a Laurent monomial in the generators, stored as its
exponent tuple of length ``m`` (the empty tuple when ``m = 0``, the
trivial semifield).  The coefficient *ring*, integer combinations of
such monomials, is :class:`LaurentPoly` with ``n = 0``.

The workhorse type is :class:`LaurentPoly`, a Laurent polynomial in
cluster variables ``x1..xn`` over the coefficient ring.  It is stored
sparsely as a dict mapping a combined exponent tuple (n entries for the
x part followed by m entries for the y part) to a nonzero integer
coefficient; the zero polynomial is the empty dict.  All arithmetic is
exact: coefficients are arbitrary-precision ints and specialization
returns :class:`fractions.Fraction`.

Canonical term order (``sort_key``) is lexicographic on the combined
exponent tuple, largest first.  Serialization and iteration follow that
order, so equal polynomials always print identically.  The x part is the
key's prefix, so the terms that share an x monomial are adjacent, x
monomials in decreasing order: a caller that needs the terms grouped by x
monomial reads them off this order.

This module alone decides how a polynomial is laid out.  An exchange
binomial, given as its two sides (``binomial``), is held over packed keys
when its division is large (``packed_binomial``): each exponent tuple is
packed into one integer, one bit field per coordinate with the first
coordinate most significant, so a monomial product or quotient is one
integer add or subtract and lexicographic order is integer order.  Its
products and their sum are computed in the division layout of the sum,
and ``exact_div`` divides it in that layout, packing only the divisor and
unpacking only the quotient; its tuple-keyed ``terms`` are built on first
read, so every reader sees tuple keys.  Every other polynomial, and every
other product or division, stays on tuple keys, where a division scans its
remainder in place for each leading term: the packed threshold keeps those
numerators under 128 terms, and below about 190 a scan beats a heap.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, gt, lt, mul, sub
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]
GradedDegree = tuple[int, ...]

# An exchange binomial whose division by x_k has at least this many term
# pairs, counted before any collapse, is held over packed integer keys.
PACKED_PRODUCT_PAIRS = 256


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the quotient does not exist."""


class NotHomogeneousError(ValueError):
    """The terms of a polynomial do not share a common graded degree."""


def _format_term(coeff: int, key: Exponents, n: int, m: int) -> str:
    # Factor order within a term: y generators first, then x, indexes ascending.
    factors = []
    for j in range(m):
        e = key[n + j]
        if e:
            factors.append(f"y{j + 1}" + (f"^{e}" if e != 1 else ""))
    for i in range(n):
        e = key[i]
        if e:
            factors.append(f"x{i + 1}" + (f"^{e}" if e != 1 else ""))
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


_FACTOR_RE = re.compile(r"([xy])(\d+)(?:\^(-?\d+))?")


def _parse_term(part: str, n: int, m: int) -> tuple[Exponents, int]:
    text = part.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    if not text:
        raise ValueError(f"empty term in {part!r}")
    factors = text.split("*")
    coeff = 1
    start = 0
    if factors[0].strip().isdigit():
        coeff = int(factors[0])
        start = 1
    key = [0] * (n + m)
    for raw in factors[start:]:
        f = raw.strip()
        match = _FACTOR_RE.fullmatch(f)
        if match is None:
            raise ValueError(f"cannot parse factor {f!r} in term {part!r}")
        kind, idx_s, exp_s = match.groups()
        idx = int(idx_s)
        exp = 1 if exp_s is None else int(exp_s)
        if kind == "x":
            if not 1 <= idx <= n:
                raise ValueError(f"x index {idx} out of range 1..{n} in {part!r}")
            key[idx - 1] += exp
        else:
            if not 1 <= idx <= m:
                raise ValueError(f"y index {idx} out of range 1..{m} in {part!r}")
            key[n + idx - 1] += exp
    return tuple(key), sign * coeff


class LaurentPoly:
    """A Laurent polynomial in x1..xn over the tropical coefficient ring.

    ``terms`` maps combined exponent tuples (x part then y part, total
    length ``n + m``) to nonzero integer coefficients.  Instances are
    immutable by convention; all operations return new objects.
    """

    __slots__ = ("n", "m", "terms", "_key", "_hash")

    def __init__(self, n: int, m: int, terms: Mapping[Exponents, int] | Iterable = ()):
        self.n = n
        self.m = m
        clean: dict[Exponents, int] = {}
        for key, c in dict(terms).items():
            key = tuple(key)
            if len(key) != n + m:
                raise ValueError(f"exponent tuple {key} has length != {n + m}")
            if c:
                clean[key] = clean.get(key, 0) + c
        self.terms = {k: c for k, c in clean.items() if c}
        self._key: tuple | None = None
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(n: int, m: int) -> "LaurentPoly":
        return LaurentPoly(n, m)

    @staticmethod
    def one(n: int, m: int) -> "LaurentPoly":
        return LaurentPoly(n, m, {(0,) * (n + m): 1})

    @staticmethod
    def variable(n: int, m: int, i: int) -> "LaurentPoly":
        """The cluster variable ``xi`` as a polynomial, 1-based."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        key = tuple(int(j == i - 1) for j in range(n + m))
        return LaurentPoly(n, m, {key: 1})

    # ------------------------------------------------------------------
    # canonical order, equality, hashing

    def sort_key(self) -> tuple:
        if self._key is None:
            self._key = (self.n, self.m, tuple(sorted(self.terms.items(), reverse=True)))
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.sort_key())
        return self._hash

    # ------------------------------------------------------------------
    # predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def has_positive_coefficients(self) -> bool:
        return bool(self.terms) and all(c > 0 for c in self.terms.values())

    # ------------------------------------------------------------------
    # ring operations

    def _check_ranks(self, other: "LaurentPoly") -> None:
        if self.n != other.n or self.m != other.m:
            raise ValueError(
                f"rank mismatch: ({self.n},{self.m}) vs ({other.n},{other.m})"
            )

    @staticmethod
    def _trusted(n: int, m: int, terms: dict[Exponents, int]) -> "LaurentPoly":
        """Wrap a kernel result whose keys are tuples of length ``n + m``
        and whose coefficients are all nonzero, without re-validating."""
        p = object.__new__(LaurentPoly)
        p.n = n
        p.m = m
        p.terms = terms
        p._key = None
        p._hash = None
        return p

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_ranks(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly._trusted(
            self.n, self.m, {k: c for k, c in out.items() if c}
        )

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(
            self.n, self.m, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_ranks(other)
        if len(other.terms) == 1 and len(self.terms) > 1:
            return other * self
        if len(self.terms) == 1:
            # Monomial shift: every product key is distinct.
            ((k1, c1),) = self.terms.items()
            return LaurentPoly._trusted(
                self.n,
                self.m,
                {tuple(map(add, k1, k2)): c1 * c2 for k2, c2 in other.terms.items()},
            )
        out = {}
        get = out.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                out[k] = get(k, 0) + c1 * c2
        return LaurentPoly._trusted(
            self.n, self.m, {k: c for k, c in out.items() if c}
        )

    def __pow__(self, k: int) -> "LaurentPoly":
        """Binary powering.  The base is squared only while exponent bits
        remain, so no power of ``self`` above the k-th is computed."""
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        if k == 0:
            return LaurentPoly.one(self.n, self.m)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __truediv__(self, other: "LaurentPoly") -> "LaurentPoly":
        return exact_div(self, other)

    # ------------------------------------------------------------------
    # specialization, grading, supports

    def specialize(
        self,
        x_values: Sequence[Fraction | int],
        y_values: Sequence[Fraction | int] = (),
    ) -> Fraction:
        """Evaluate at rational points, exactly.

        Assigning zero to a variable that appears with a negative
        exponent raises ZeroDivisionError.
        """
        xv = [Fraction(v) for v in x_values]
        yv = [Fraction(v) for v in y_values]
        if len(xv) != self.n or len(yv) != self.m:
            raise ValueError("value counts do not match ranks")
        values = xv + yv
        total = Fraction(0)
        for key, c in self.terms.items():
            term = Fraction(c)
            for v, e in zip(values, key):
                if e == 0:
                    continue
                if v == 0:
                    if e < 0:
                        raise ZeroDivisionError(
                            "zero assigned to a variable with negative exponent"
                        )
                    term = Fraction(0)
                    break
                term *= v ** e
            total += term
        return total

    def homogeneous_degree(self, b0: Sequence[Sequence[int]]) -> GradedDegree:
        """The common graded degree of all terms under the grading in which
        xi has degree e_i and yj has degree minus the j-th column of ``b0``.

        Raises NotHomogeneousError when terms disagree, ValueError on zero.
        """
        if self.is_zero():
            raise ValueError("the zero polynomial has no degree")
        n, m = self.n, self.m
        if len(b0) != n or any(len(row) != n for row in b0):
            raise ValueError("grading matrix must be square of the x rank")
        if m not in (0, n):
            raise ValueError("grading needs coefficient rank 0 or n")
        deg: GradedDegree | None = None
        for key in self.terms:
            d = tuple(
                key[i] - sum(b0[i][j] * key[n + j] for j in range(m))
                for i in range(n)
            )
            if deg is None:
                deg = d
            elif d != deg:
                raise NotHomogeneousError(
                    f"terms have degrees {deg} and {d}"
                )
        assert deg is not None
        return deg

    def x_min_exponents(self) -> Exponents:
        """Componentwise minimum of the x exponents over all terms."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no exponent support")
        mins = [None] * self.n
        for key in self.terms:
            for i in range(self.n):
                if mins[i] is None or key[i] < mins[i]:
                    mins[i] = key[i]
        return tuple(mins)

    # ------------------------------------------------------------------
    # serialization

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # sort_key() holds the terms in canonical order, computed once.
        return " + ".join(
            _format_term(c, k, self.n, self.m) for k, c in self.sort_key()[2]
        )

    def __repr__(self) -> str:
        return f"LaurentPoly(n={self.n}, m={self.m}, {str(self)!r})"

    @staticmethod
    def parse(text: str, n: int, m: int) -> "LaurentPoly":
        """Parse the textual form produced by ``str``.

        Grammar: terms joined by '+'; a term is an optional sign, an
        optional integer coefficient, and '*'-joined factors ``x<i>``,
        ``y<j>`` with optional ``^<exp>``.  '0' denotes zero.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return LaurentPoly.zero(n, m)
        out: dict[Exponents, int] = {}
        for part in s.split("+"):
            key, c = _parse_term(part, n, m)
            out[key] = out.get(key, 0) + c
        return LaurentPoly(n, m, out)


class _PackedKeys:
    """Bit fields that hold an exponent tuple in one integer, the first
    coordinate most significant and field i ``widths[i]`` bits wide.

    A key is packed relative to an exponent tuple ``low``, as the sum of
    ``(k_i - low_i) << shift_i``.  While every coordinate lies in
    ``[low_i, low_i + 2**widths[i])``, each field holds its coordinate,
    integer order is lexicographic order, and the packed sum of two keys is
    the packed key of their sum: no field carries into the next.
    """

    __slots__ = ("weights", "fields")

    def __init__(self, widths: Sequence[int]):
        shifts = []
        total = 0
        for width in reversed(widths):
            shifts.append(total)
            total += width
        shifts.reverse()
        self.weights = [1 << s for s in shifts]
        self.fields = [(s, (1 << w) - 1) for s, w in zip(shifts, widths)]

    def pack(self, terms: dict[Exponents, int], low: Sequence[int]) -> dict[int, int]:
        weights = self.weights
        base = sum(map(mul, low, weights))
        return {sum(map(mul, k, weights)) - base: c for k, c in terms.items()}

    def unpack(
        self, packed: dict[int, int], low: Iterable[int]
    ) -> dict[Exponents, int]:
        """Tuple keys for packed keys whose fields are all in range."""
        fields = [(s, mask, lo) for (s, mask), lo in zip(self.fields, low)]
        return {
            tuple([((p >> s) & mask) + lo for s, mask, lo in fields]): c
            for p, c in packed.items()
        }


def _packed_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two packed term dicts of one layout in which the
    sum of any two keys is carry-free; zero coefficients are kept."""
    items_b = list(b.items())
    out: dict[int, int] = {}
    get = out.get
    for p1, c1 in a.items():
        for p2, c2 in items_b:
            p = p1 + p2
            out[p] = get(p, 0) + c1 * c2
    return out


def _packed_square(a: dict[int, int]) -> dict[int, int]:
    """``_packed_mul(a, a)``, taking each unordered pair of terms once."""
    items = list(a.items())
    out: dict[int, int] = {}
    get = out.get
    for i, (p1, c1) in enumerate(items):
        out[p1 + p1] = get(p1 + p1, 0) + c1 * c1
        c1 += c1
        for p2, c2 in items[i + 1:]:
            p = p1 + p2
            out[p] = get(p, 0) + c1 * c2
    return out


class _PackedPoly(LaurentPoly):
    """A Laurent polynomial held over packed keys (``packed_binomial``),
    whose tuple-keyed ``terms`` are built on first read.

    ``packed`` maps keys packed relative to ``low`` by ``keys`` to nonzero
    coefficients.  Every key's field i lies in ``[0, top[i]]``, and field i
    is ``top[i].bit_length() + 1`` bits wide, its top bit a guard bit for
    ``_packed_quotient``.

    ``__getattr__`` lives on this subclass alone: on LaurentPoly itself it
    would make every attribute read of every polynomial take CPython's
    slow path, which the interpreter cannot specialize.
    """

    __slots__ = ("packed", "low", "top", "keys")

    def __getattr__(self, name: str):
        # Only ``terms`` is ever unset, until its first read.
        if name != "terms":
            raise AttributeError(name)
        self.terms = terms = self.keys.unpack(self.packed, self.low)
        return terms


def packed_binomial(
    n: int, m: int, sides: Sequence[tuple[Exponents, list[tuple[LaurentPoly, int]]]]
) -> LaurentPoly:
    """The sum of the products ``x^mono * f1**a1 * f2**a2 * ...``, one
    per side ``(mono, [(f1, a1), (f2, a2), ...])``, computed and held over
    packed keys: ``exact_div`` divides it in its own layout, and its
    tuple-keyed ``terms`` are built on first read.

    The division layout is sized by an upper bound of the sum's shifted
    degrees: in coordinate j a side's exponents lie between mono_j plus a
    times each factor's lowest exponent and mono_j plus a times each
    factor's highest.  Every partial product of a side stays in its range,
    so no packed sum carries.  A power squares its factor first, taking
    each unordered pair of terms once.
    """
    spans = []
    for mono, factors in sides:
        lo, hi = list(mono), list(mono)
        lows = []
        for f, a in factors:
            cols = list(zip(*f.terms))
            lows.append([min(x) for x in cols])
            for j, (x, f_lo) in enumerate(zip(cols, lows[-1])):
                lo[j] += a * f_lo
                hi[j] += a * max(x)
        spans.append((lo, hi, lows))
    low = [min(x) for x in zip(*(lo for lo, _, _ in spans))]
    top = [max(x) - lo for x, lo in zip(zip(*(hi for _, hi, _ in spans)), low)]
    keys = _PackedKeys([t.bit_length() + 1 for t in top])
    out: dict[int, int] = {}
    for (lo, _, lows), (_, factors) in zip(spans, sides):
        side = keys.pack({tuple(lo): 1}, low)
        for (f, a), f_lo in zip(factors, lows):
            packed = keys.pack(f.terms, f_lo)
            power = _packed_square(packed) if a > 1 else packed
            for _ in range(a - 2):
                power = _packed_mul(power, packed)
            side = _packed_mul(side, power)
        for p, c in side.items():
            out[p] = out.get(p, 0) + c
    poly = object.__new__(_PackedPoly)
    poly.n = n
    poly.m = m
    poly._key = poly._hash = None
    poly.packed = {p: c for p, c in out.items() if c}
    poly.low = low
    poly.top = top
    poly.keys = keys
    return poly


def binomial(
    n: int,
    m: int,
    sides: Sequence[tuple[Exponents, list[tuple[LaurentPoly, int]]]],
    den_terms: int,
) -> LaurentPoly:
    """The sum of the products ``x^mono * f1**a1 * f2**a2 * ...``, one per
    side ``(mono, [(f1, a1), (f2, a2), ...])``, laid out for its exact
    division by a polynomial of ``den_terms`` terms.

    That division has, counted before any collapse, the sum over the sides
    of the product of ``len(f.terms) ** a``, times ``den_terms``, term
    pairs.  At ``PACKED_PRODUCT_PAIRS`` or more the sum is held over packed
    keys (``packed_binomial``); otherwise each side is multiplied out on
    tuple keys, its factors in order, and the sides are added.
    """
    pairs = 0
    for _, factors in sides:
        side_pairs = den_terms
        for f, a in factors:
            side_pairs *= len(f.terms) ** a
        pairs += side_pairs
    if pairs >= PACKED_PRODUCT_PAIRS:
        return packed_binomial(n, m, sides)
    total = None
    for mono, factors in sides:
        side = LaurentPoly._trusted(n, m, {mono: 1})
        for f, a in factors:
            side = side * (f if a == 1 else f ** a)
        total = side if total is None else total + side
    return total


def _packed_quotient(
    num: _PackedPoly, den: dict[Exponents, int]
) -> dict[Exponents, int] | None:
    """The exact quotient of ``num`` by a nonzero term dict, divided over
    packed integer keys in ``num``'s layout; None when it does not exist.

    In coordinate i the numerator's keys lie in [0, M_i] (M = ``num.top``,
    at least its shifted degrees), and the divisor, shifted by its minimum
    exponents, lies in [0, D_i].  The lowest and highest exponents of an
    exact quotient are those of the numerator minus those of the divisor,
    so shifted like the numerator less the divisor it lies in
    [0, M_i - D_i].  Unless ``num`` is zero, none exists when some
    D_i > M_i, and a quotient term outside [0, M_i - D_i] proves that none
    exists.  Every accepted quotient term is inside that box, so every
    remainder key stays in [0, M_i] and packed addition never carries.

    Field i is ``M_i.bit_length() + 1`` bits, and its top bit is a guard
    bit.  Every key that takes part in a subtraction (remainder and
    divisor keys, the bound, a candidate with no guard bit set) has each
    field below half the field's span, so a field that goes negative and
    borrows from the next is left with its guard bit set; the first field
    also makes the whole integer negative.  A candidate q is in the box
    exactly when q >= 0 and neither q nor ``bound - q`` (bound the packed
    M - D) has a guard bit set.  The remainder's leading term comes from a
    heap (Johnson 1974; Monagan and Pearce 2011), not a scan.
    """
    if not num.packed:
        return {}
    cols_den = list(zip(*den))
    low_den = [min(y) for y in cols_den]
    top_den = [max(y) - lo for y, lo in zip(cols_den, low_den)]
    if any(map(gt, top_den, num.top)):
        return None
    keys = num.keys
    bound = sum(map(mul, map(sub, num.top, top_den), keys.weights))
    guard = sum((mask + 1) >> 1 << s for s, mask in keys.fields)
    rem = dict(num.packed)
    divisor = sorted(keys.pack(den, low_den).items(), reverse=True)
    (den_lead, den_lc), tail = divisor[0], divisor[1:]
    # Negated keys, so the largest remaining term is the heap minimum.
    heap = [-p for p in rem]
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        lead = -heappop(heap)
        lc = rem.pop(lead, None)
        if lc is None:
            continue  # cancelled since it was pushed
        c, leftover = divmod(lc, den_lc)
        q = lead - den_lead
        if leftover or q < 0 or q & guard or (bound - q) & guard:
            return None
        quotient[q] = c
        for k2, c2 in tail:
            kk = q + k2
            old = rem.get(kk)
            if old is None:
                rem[kk] = -c * c2
                heappush(heap, -kk)
            elif old == c * c2:
                del rem[kk]
            else:
                rem[kk] = old - c * c2
    return keys.unpack(quotient, map(sub, num.low, low_den))


def _not_divisible(num: LaurentPoly, den: LaurentPoly) -> NotDivisibleError:
    return NotDivisibleError(f"({num}) is not divisible by ({den})")


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises NotDivisibleError
    when no Laurent polynomial quotient with integer coefficients exists.

    A numerator held over packed keys (``packed_binomial``) is divided in
    its own layout by ``_packed_quotient``, whatever its size or the
    divisor's, without building its tuple-keyed ``terms``.  Its fields are
    sized by an upper bound of its degrees, which bounds every remainder
    key of an exact division; a guard bit per field catches a candidate
    quotient term that leaves that bound, which proves non-divisibility,
    so no field ever carries.

    Every other numerator stays on tuple keys.  A monomial divisor is a
    key shift.  Otherwise the remainder, a copy of the numerator's terms in
    their own coordinates, is scanned for its lexicographically leading
    term, which is cancelled until none is left.  An exact quotient's
    lowest exponents are the numerator's less the divisor's, so a candidate
    term below them in any coordinate, as an infinite Laurent series would
    give, or a coefficient that does not divide, proves non-divisibility.
    No heap: ``binomial`` holds over packed keys any exchange binomial of
    128 terms or more over a divisor of two or more, so the engine's
    numerators here stay smaller, and a heap only wins from about 190.
    """
    num._check_ranks(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if type(num) is _PackedPoly:
        quotient = _packed_quotient(num, den.terms)
        if quotient is None:
            raise _not_divisible(num, den)
        return LaurentPoly._trusted(num.n, num.m, quotient)
    if num.is_zero():
        return LaurentPoly.zero(num.n, num.m)
    if len(den.terms) == 1:
        # Monomial divisor: a key shift, exact iff its coefficient divides
        # every numerator coefficient.
        ((k1, c1),) = den.terms.items()
        quotient = {}
        for k2, c2 in num.terms.items():
            c, leftover = divmod(c2, c1)
            if leftover:
                raise _not_divisible(num, den)
            quotient[tuple(map(sub, k2, k1))] = c
        return LaurentPoly._trusted(num.n, num.m, quotient)
    low = tuple(map(sub, map(min, zip(*num.terms)), map(min, zip(*den.terms))))
    (den_lead, den_lc), *tail = sorted(den.terms.items(), reverse=True)
    rem = dict(num.terms)
    quotient: dict[Exponents, int] = {}
    while rem:
        lead = max(rem)
        c, leftover = divmod(rem.pop(lead), den_lc)
        q = tuple(map(sub, lead, den_lead))
        if leftover or any(map(lt, q, low)):
            raise _not_divisible(num, den)
        quotient[q] = c
        for k2, c2 in tail:
            kk = tuple(map(add, q, k2))
            left = rem.pop(kk, 0) - c * c2
            if left:
                rem[kk] = left
    return LaurentPoly._trusted(num.n, num.m, quotient)
