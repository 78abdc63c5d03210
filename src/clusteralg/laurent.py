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
exact: coefficients are arbitrary-precision ints.

Canonical term order (``sort_key``) is lexicographic on the combined
exponent tuple, largest first.  Serialization and iteration follow that
order, so equal polynomials always print identically.  The x part is the
key's prefix, so the terms that share an x monomial are adjacent, x
monomials in decreasing order: a caller that needs the terms grouped by x
monomial reads them off this order.

Text (``str``, read back by ``LaurentPoly.parse``) writes the terms in that
order, joined by `` + ``; zero is ``0``.  A term is its factors joined by
``*``, y factors before x factors, indexes ascending, each ``x3`` or
``x3^-2`` (``^e`` only for e != 1), taken from one table per rank that maps
each coordinate's exponent to its text; the coefficient is written ``c*``
before them, -1 as a leading ``-`` and 1 not at all, and a constant term is
a bare integer.  A held polynomial (below) keeps its terms largest first
and gets its ``sort_key`` when held, so none is sorted again for order,
equality, hashing or text.

This module alone decides how a polynomial is laid out.  A packed layout
holds an exponent tuple in one integer, one bit field per coordinate with
a guard bit, the first coordinate most significant, so a monomial product
or quotient is one integer add or subtract and lexicographic order is
integer order.  An atlas's variables share one layout (``PackedLayout``),
each packed once.  An exchange binomial of them, given as its two sides
(``binomial``), is multiplied, summed and divided (``exact_div``) in that
layout, and its quotient stays packed there, its tuple-keyed ``terms``
built on first read.  Such a binomial reads its factors' packed terms and
bounds as they are held, shifts only a side with a nonzero monomial, and
filters zero coefficients only from a sum that has one.  The divisor
alone lays out every other division: over any other divisor of two or
more terms the numerator is held in a layout of its own
(``packed_binomial``), and over a one-term divisor it stays on tuple keys,
where the division is a key shift.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from operator import add, and_, getitem, itemgetter, mul, rshift, sub
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]
GradedDegree = tuple[int, ...]

# A packed division finds each leading term by a scan below this many
# remainder terms, where a scan beats a heap, and by a heap from there on.
_HEAP_REMAINDER_TERMS = 128


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the quotient does not exist."""


class NotHomogeneousError(ValueError):
    """The terms of a polynomial do not share a common graded degree."""


class _FactorText(dict):
    """One coordinate's factor text by exponent, ``x3`` or ``x3^-2``, made
    on first use; exponent 0 has the empty text."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__({0: ""})
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = self.name if e == 1 else f"{self.name}^{e}"
        return text


# Per rank (n, m): the factor texts of y1..ym, x1..xn, and an itemgetter
# that reads an exponent tuple in that order (None when no reorder is due).
_FACTOR_TABLES: dict[tuple[int, int], tuple[list[_FactorText], itemgetter | None]] = {}


def _factor_table(n: int, m: int) -> tuple[list[_FactorText], itemgetter | None]:
    table = _FACTOR_TABLES.get((n, m))
    if table is None:
        names = [f"y{j}" for j in range(1, m + 1)] + [f"x{i}" for i in range(1, n + 1)]
        order = itemgetter(*range(n, n + m), *range(n)) if n and m else None
        table = _FACTOR_TABLES[n, m] = (list(map(_FactorText, names)), order)
    return table


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
        # Pairs may repeat a key, and their coefficients add up.
        for key, c in terms.items() if isinstance(terms, Mapping) else terms:
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
    # grading, supports

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
        texts, order = _factor_table(self.n, self.m)
        out = []
        # sort_key() holds the terms in canonical order, computed once.
        for k, c in self.sort_key()[2]:
            body = "*".join(filter(None, map(getitem, texts, order(k) if order else k)))
            if not body:
                out.append(str(c))
            elif c == 1:
                out.append(body)
            elif c == -1:
                out.append("-" + body)
            else:
                out.append(f"{c}*{body}")
        return " + ".join(out)

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
    """Bit fields, ``width`` bits each, that hold an exponent tuple of
    ``count`` coordinates in one integer as the sum of ``k_i << shift_i``,
    the first coordinate most significant.

    The map is linear, so the packed sum of two keys is the packed key of
    their sum, whatever the signs.  On tuples with coordinates in
    ``(-2**(width - 1), 2**(width - 1))`` it is one to one and keeps
    lexicographic order.  A field's top bit is its guard bit
    (``_packed_quotient``); ``ones`` packs the tuple of ones.
    """

    __slots__ = ("width", "weights", "ones", "guard")

    def __init__(self, width: int, count: int):
        self.width = width
        self.weights = [1 << width * i for i in reversed(range(count))]
        self.ones = sum(self.weights)
        self.guard = self.ones << width - 1

    def pack(self, terms: dict[Exponents, int]) -> dict[int, int]:
        weights = self.weights
        return {sum(map(mul, k, weights)): c for k, c in terms.items()}

    def unpack(self, packed: dict[int, int], bound: int) -> dict[Exponents, int]:
        """Tuple keys for packed keys with coordinates in ``[-bound, bound]``,
        bound below ``2**(width - 2)``, read one field at a time."""
        offset = list(map(add, packed, repeat(bound * self.ones)))
        mask, low = repeat((1 << self.width) - 1), repeat(-bound)
        cols = [
            map(add, map(and_, map(rshift, offset, repeat(s)), mask), low)
            for s in range(self.width * (len(self.weights) - 1), -1, -self.width)
        ]
        return dict(zip(zip(*cols), packed.values()))


def _packed_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two packed term dicts of one layout; zero
    coefficients are kept."""
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


def _bound(p: LaurentPoly) -> int:
    """The largest absolute exponent of p's terms: held, or read off its
    terms, since a quotient's ``bound`` only bounds it."""
    if type(p) is _HeldPoly:
        return p.bound
    return max(map(abs, chain.from_iterable(p.terms)), default=0)


class _PackedPoly(LaurentPoly):
    """A numerator or quotient over packed keys, whose tuple-keyed ``terms``
    are built on first read: ``packed`` maps keys packed by ``keys`` to
    nonzero coefficients, a quotient's largest first, and no exponent's
    absolute value exceeds ``bound``.

    ``__getattr__`` lives on this subclass alone: on LaurentPoly itself it
    would make every attribute read of every polynomial take CPython's
    slow path, which the interpreter cannot specialize.  A held polynomial,
    read again and again, is a ``_HeldPoly`` instead.
    """

    __slots__ = ("packed", "keys", "bound")

    def __getattr__(self, name: str):
        # Only ``terms`` is ever unset, until its first read.
        if name != "terms":
            raise AttributeError(name)
        self.terms = terms = self.keys.unpack(self.packed, self.bound)
        return terms

    def is_zero(self) -> bool:
        return not self.packed

    def has_positive_coefficients(self) -> bool:
        return bool(self.packed) and min(self.packed.values()) > 0


class _HeldPoly(LaurentPoly):
    """A polynomial that ``layout`` holds: ``terms``, and as in a
    ``_PackedPoly`` ``packed`` (largest first), ``keys`` and ``bound``, its
    largest absolute exponent."""

    __slots__ = ("packed", "keys", "bound", "layout")


def _packed(n: int, m: int, packed: dict[int, int], keys, bound: int) -> _PackedPoly:
    p = object.__new__(_PackedPoly)
    p.n = n
    p.m = m
    p._key = p._hash = None
    p.packed = packed
    p.keys = keys
    p.bound = bound
    return p


class PackedLayout:
    """One packed layout shared by the polynomials it holds, each packed
    once by ``hold``: an atlas's variables.  An exchange of held factors
    over a held divisor is computed in it with no packing (``binomial``),
    and its quotient told apart from them by its packed terms.  No held
    exponent exceeds ``maxabs`` in absolute value, below ``2**(width -
    2)``; ``fit`` widens the fields, with room for twice the bound as
    exponents grow level by level, and packs the held polynomials again.
    """

    __slots__ = ("keys", "held", "maxabs")

    def __init__(self, count: int):
        self.keys = _PackedKeys(2, count)
        self.held: list[_HeldPoly] = []
        self.maxabs = 0

    def fit(self, bound: int) -> None:
        """Widen the fields, if need be, until ``bound < 2**(width - 2)``."""
        if bound >> self.keys.width - 2:
            self.keys = keys = _PackedKeys(bound.bit_length() + 3, len(self.keys.weights))
            for p in self.held:
                p.packed = keys.pack(p.terms)
                p.keys = keys

    @staticmethod
    def terms(p: LaurentPoly) -> tuple:
        """A held polynomial's or quotient's packed terms, largest first:
        equal exactly when the polynomials are, until the layout widens."""
        return tuple(p.packed.items())

    def hold(self, p: LaurentPoly) -> _HeldPoly:
        """p held in this layout, its tuple keys built largest first, an
        order packing keeps, and so its ``sort_key`` made with no sort.  A
        quotient in this layout keeps its packed terms, unpacked in its
        leading-term order, largest first."""
        quotient = type(p) is _PackedPoly and p.keys is self.keys
        h = object.__new__(_HeldPoly)
        h.terms = p.terms if quotient else dict(sorted(p.terms.items(), reverse=True))
        h.n, h.m, h._hash = p.n, p.m, None
        h._key = (p.n, p.m, tuple(h.terms.items()))
        h.bound = max(map(abs, chain.from_iterable(h.terms)), default=0)
        self.maxabs = max(self.maxabs, h.bound)
        self.fit(self.maxabs)
        h.packed = p.packed if quotient and p.keys is self.keys else self.keys.pack(h.terms)
        h.keys = self.keys
        h.layout = self
        self.held.append(h)
        return h

    def relabel(self, p: _HeldPoly, order: Sequence[int]) -> _PackedPoly:
        """Held p with its coordinates relabeled, a term's coordinate i read
        from p's coordinate order[i], as a quotient in this layout: each key
        is packed from p's tuple key with the weights permuted, so none is
        unpacked and packed again, and the packed keys are sorted largest
        first.  ``hold`` keeps it as it keeps a quotient."""
        weights = [0] * len(order)
        for w, j in zip(self.keys.weights, order):
            weights[j] = w
        packed = sorted(
            [(sum(map(mul, key, weights)), c) for key, c in p.terms.items()],
            reverse=True,
        )
        return _packed(p.n, p.m, dict(packed), self.keys, p.bound)


def packed_binomial(
    n: int,
    m: int,
    sides: Sequence[tuple[Exponents, list[tuple[LaurentPoly, int]]]],
    den: LaurentPoly,
) -> _PackedPoly:
    """The sum of the products ``x^mono * f1**a1 * f2**a2 * ...``, one
    per side ``(mono, [(f1, a1), (f2, a2), ...])``, over packed keys for its
    division by ``den``: in the layout that holds ``den`` and every factor,
    else in one of its own, each factor packed into it.  No exponent of a
    side, or of a partial product, exceeds |mono| plus a times each
    factor's bound in absolute value: the sum's ``bound`` B.  The fields fit
    B + 2M, M the divisor's bound, as ``_packed_quotient`` needs.  A power
    squares its factor first, taking each unordered pair of terms once.
    One pass over the factors checks that the layout holds each and sums B.
    """
    layout = den.layout if type(den) is _HeldPoly else None
    bound = 0
    for mono, factors in sides:
        side_bound = max(map(abs, mono)) if any(mono) else 0
        for f, a in factors:
            if type(f) is _HeldPoly and f.layout is layout:
                side_bound += a * f.bound
            else:
                layout = None
                side_bound += a * _bound(f)
        if side_bound > bound:
            bound = side_bound
    if layout is None:
        reach = bound + 2 * _bound(den)
        keys = _PackedKeys(reach.bit_length() + 2, n + m)
    else:
        layout.fit(bound + 2 * layout.maxabs)
        keys = layout.keys
    out = None
    for mono, factors in sides:
        side = None
        for f, a in factors:
            packed = keys.pack(f.terms) if layout is None else f.packed
            power = _packed_square(packed) if a > 1 else packed
            for _ in range(a - 2):
                power = _packed_mul(power, packed)
            side = power if side is None else _packed_mul(side, power)
        if side is None:
            side = {0: 1}
        if any(mono):
            shift = sum(map(mul, mono, keys.weights))
            side = {p + shift: c for p, c in side.items()}
        if out is None:
            out = dict(side)  # side may be a factor's own packed terms
        else:
            get = out.get
            for p, c in side.items():
                out[p] = get(p, 0) + c
    if 0 in out.values():
        out = {p: c for p, c in out.items() if c}
    return _packed(n, m, out, keys, bound)


def binomial(
    n: int,
    m: int,
    sides: Sequence[tuple[Exponents, list[tuple[LaurentPoly, int]]]],
    den: LaurentPoly,
) -> LaurentPoly:
    """The sum of the products ``x^mono * f1**a1 * f2**a2 * ...``, one per
    side ``(mono, [(f1, a1), (f2, a2), ...])``, laid out for its exact
    division by ``den``: over packed keys (``packed_binomial``) when a
    ``PackedLayout`` holds ``den`` or ``den`` has two or more terms.
    Otherwise each side is multiplied out on tuple keys, its factors in
    order, and the sides are added.
    """
    if type(den) is _HeldPoly or len(den.terms) > 1:
        return packed_binomial(n, m, sides, den)
    total = None
    for mono, factors in sides:
        side = LaurentPoly._trusted(n, m, {mono: 1})
        for f, a in factors:
            side = side * (f if a == 1 else f ** a)
        total = side if total is None else total + side
    return total


def _packed_quotient(num: _PackedPoly, den: LaurentPoly) -> _PackedPoly | None:
    """The exact quotient of ``num`` by a nonzero ``den`` over packed keys
    in ``num``'s layout, or None when none exists.

    With B and M the bounds of ``num`` and ``den``, an exact quotient's
    extreme exponents are the numerator's less the divisor's, so none
    exceeds R = B + M in absolute value; a candidate term outside that box
    proves that none exists, and no remainder exponent exceeds B + 2M,
    which the fields must fit (else ``num`` is packed again, wider).  q is
    in the box exactly when neither ``t = q + R`` nor ``2R - t``, packed,
    has a guard bit set: their coordinates lie in ``[-2M, 2B + 4M]``, so a
    negative one borrows from the field above, setting its guard bit, or
    makes the integer negative.  The leading term comes from a scan below
    ``_HEAP_REMAINDER_TERMS`` remainder terms, where a scan beats a heap,
    and from a heap above (Johnson 1974; Monagan and Pearce 2011).
    """
    keys, den_bound = num.keys, _bound(den)
    box = num.bound + den_bound
    if (box + den_bound) >> keys.width - 2:
        keys = _PackedKeys((box + den_bound).bit_length() + 2, len(keys.weights))
        rem = keys.pack(num.terms)
    else:
        rem = dict(num.packed)
    if not rem:
        return _packed(num.n, num.m, {}, keys, 0)
    if type(den) is _HeldPoly and den.keys is keys:
        divisor = list(den.packed.items())  # largest first
    else:
        divisor = sorted(keys.pack(den.terms).items(), reverse=True)
    (den_lead, den_lc), *tail = divisor
    base, span, guard = box * keys.ones, 2 * box * keys.ones, keys.guard
    heap = None
    if len(rem) >= _HEAP_REMAINDER_TERMS:
        # Negated keys, so the largest remaining term is the heap minimum.
        heap = [-p for p in rem]
        heapify(heap)
    quotient: dict[int, int] = {}
    while rem:
        if heap is None:
            lead = max(rem)
        else:
            lead = -heappop(heap)
            if lead not in rem:
                continue  # cancelled since it was pushed
        c, leftover = divmod(rem.pop(lead), den_lc)
        q = lead - den_lead
        t = q + base
        if leftover or t & guard or (span - t) & guard:
            return None
        quotient[q] = c
        for k2, c2 in tail:
            kk = q + k2
            old = rem.pop(kk, None)
            if old is None:
                rem[kk] = -c * c2
                if heap is not None:
                    heappush(heap, -kk)
            elif old != c * c2:
                rem[kk] = old - c * c2
    return _packed(num.n, num.m, quotient, keys, box)


def _not_divisible(num: LaurentPoly, den: LaurentPoly) -> NotDivisibleError:
    return NotDivisibleError(f"({num}) is not divisible by ({den})")


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises NotDivisibleError
    when no Laurent polynomial quotient with integer coefficients exists.

    A numerator held over packed keys (``packed_binomial``) is divided in
    its own layout by ``_packed_quotient``, whatever the divisor, without
    building its tuple-keyed ``terms``; the quotient stays packed in it.
    Any other numerator over a divisor of two or more terms is packed into
    a layout of its own and divided there the same way.  Over a one-term
    divisor a tuple-keyed numerator is a key shift.
    """
    num._check_ranks(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if type(num) is _PackedPoly or len(den.terms) > 1:
        if type(num) is not _PackedPoly:
            bound = _bound(num)
            reach = bound + 2 * _bound(den)
            keys = _PackedKeys(reach.bit_length() + 2, num.n + num.m)
            num = _packed(num.n, num.m, keys.pack(num.terms), keys, bound)
        quotient = _packed_quotient(num, den)
        if quotient is None:
            raise _not_divisible(num, den)
        return quotient
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
