"""Exact Laurent arithmetic, and the coefficient ring as LaurentPoly at n = 0."""

from __future__ import annotations

from operator import add, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clusteralg.laurent
import clusteralg.seed
from clusteralg import (
    ExchangeMatrix,
    LaurentPoly,
    NotDivisibleError,
    ExploreCaps,
    NotHomogeneousError,
    exact_div,
    exchange_binomial,
    explore,
    mutate,
    root_seed,
)
from clusteralg.catalogue import finite_type, matrix
from clusteralg.laurent import PackedLayout
from conftest import A2_ROWS, KRONECKER_2_ROWS, KRONECKER_3_ROWS


def lp(text: str, n: int = 2, m: int = 0) -> LaurentPoly:
    return LaurentPoly.parse(text, n, m)


# ----------------------------------------------------------------------
# coefficient ring: LaurentPoly with no x variables


class TestCoefRing:
    def test_zero_and_one(self):
        assert LaurentPoly.zero(0, 2).is_zero()
        one = LaurentPoly.one(0, 2)
        assert one.terms == {(0, 0): 1}
        assert not one.is_zero()

    def test_positivity_and_sum(self):
        assert sum(LaurentPoly(0, 1, {(0,): 1, (1,): -1}).terms.values()) == 0
        assert sum(LaurentPoly(0, 1, {(0,): 2, (3,): 5}).terms.values()) == 7

    def test_str_orders_terms(self):
        c = LaurentPoly(0, 2, {(0, 1): 1, (1, 0): -1})
        assert str(c) == "-y1 + y2"

    def test_str_of_a_tropical_monomial(self):
        assert str(LaurentPoly(0, 2, {(1, -1): 1})) == "y1*y2^-1"
        assert str(LaurentPoly(0, 2, {(0, 0): 1})) == "1"
        assert str(LaurentPoly(0, 0, {(): 1})) == "1"


# ----------------------------------------------------------------------
# Laurent polynomials: construction, views, formatting


class TestLaurentBasics:
    def test_zero_terms_are_dropped(self):
        p = LaurentPoly(2, 0, {(1, 0): 0, (0, 1): 2})
        assert p.terms == {(0, 1): 2}

    def test_repeated_pairs_add_up(self):
        assert LaurentPoly(1, 0, [((1,), 1), ((1,), 1)]) == lp("2*x1", 1)
        assert LaurentPoly(1, 0, [((1,), 1), ((1,), -1)]).is_zero()
        assert LaurentPoly(1, 0, [([1], 2), ((1,), 1)]).terms == {(1,): 3}

    def test_keys_of_the_wrong_length_are_rejected(self):
        with pytest.raises(ValueError, match="has length != 3"):
            LaurentPoly(2, 1, {(1, 0): 1})

    def test_variable_and_monomial(self):
        assert LaurentPoly.variable(2, 1, 2).terms == {(0, 1, 0): 1}
        p = LaurentPoly(2, 1, {(1, -1) + (2,): -3})
        assert p.terms == {(1, -1, 2): -3}
        with pytest.raises(IndexError):
            LaurentPoly.variable(2, 0, 3)

    def test_equality_ignores_insertion_order(self):
        a = LaurentPoly(2, 0, {(1, 0): 1, (0, 1): 1})
        b = LaurentPoly(2, 0, {(0, 1): 1, (1, 0): 1})
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == str(b) == "x1 + x2"

    def test_str_canonical_examples(self):
        assert str(LaurentPoly.zero(2, 0)) == "0"
        assert str(LaurentPoly.one(2, 0)) == "1"
        assert str(lp("x1^2 + -x2^2")) == "x1^2 + -x2^2"
        assert str(lp("x1^-1 + x1^-1*x2")) == "x1^-1*x2 + x1^-1"
        p = LaurentPoly(2, 2, {(-1, 0, 1, 0): 1, (-1, 1, 0, 0): 1})
        assert str(p) == "x1^-1*x2 + y1*x1^-1"
        p = LaurentPoly(2, 2, {(-2, 0, 1, 3): -(2**70), (0, 0, 0, 0): -1, (0, 1, 0, 0): 1})
        assert str(p) == f"x2 + -1 + -{2**70}*y1*y2^3*x1^-2"

    def test_parse_round_trip_examples(self):
        for text in [
            "0",
            "1",
            "-7",
            "x1 + x2",
            "x1^2 + -x2^2",
            "x1^-1*x2 + x1^-1",
            "2*x1^3 + -2",
        ]:
            p = lp(text)
            assert LaurentPoly.parse(str(p), 2, 0) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("", 2, 0)
        with pytest.raises(ValueError):
            LaurentPoly.parse("x3", 2, 0)
        with pytest.raises(ValueError):
            LaurentPoly.parse("y1", 2, 0)
        with pytest.raises(ValueError):
            LaurentPoly.parse("x1^", 2, 0)
        with pytest.raises(ValueError, match="empty term"):
            LaurentPoly.parse("+x1", 1, 0)

    def test_x_min_exponents(self):
        assert lp("x1^-1*x2 + x1^-1").x_min_exponents() == (-1, 0)
        assert lp("x1^2 + -x2^2").x_min_exponents() == (0, 0)
        with pytest.raises(ValueError):
            LaurentPoly.zero(2, 0).x_min_exponents()


# ----------------------------------------------------------------------
# ring arithmetic


class TestLaurentArithmetic:
    def test_product_of_sum_and_difference(self):
        assert lp("x1 + x2") * lp("x1 + -x2") == lp("x1^2 + -x2^2")

    def test_addition_cancels(self):
        assert (lp("x1 + x2") - lp("x2")) == lp("x1")
        assert (lp("x1") - lp("x1")).is_zero()

    def test_powers(self):
        assert lp("x1 + 1") ** 2 == lp("x1^2 + 2*x1 + 1")
        assert lp("x1 + 1") ** 0 == LaurentPoly.one(2, 0)
        with pytest.raises(ValueError):
            lp("x1") ** -1

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lp("x1") + LaurentPoly.one(3, 0)

    def test_exact_division_oracles(self):
        assert lp("x1^2 + -x2^2") / lp("x1 + x2") == lp("x1 + -x2")
        # coefficient-stage division of an exchange binomial by the old variable
        f1 = LaurentPoly.parse("y1 + x2", 2, 2)
        x1 = LaurentPoly.variable(2, 2, 1)
        assert f1 / x1 == LaurentPoly.parse("x1^-1*x2 + y1*x1^-1", 2, 2)
        assert lp("2*x1") / lp("2") == lp("x1")
        assert LaurentPoly.zero(2, 0) / lp("x1") == LaurentPoly.zero(2, 0)

    def test_division_failures(self):
        with pytest.raises(NotDivisibleError):
            exact_div(lp("x1 + 1"), lp("x2 + 1"))
        with pytest.raises(NotDivisibleError):
            lp("x1") / lp("2")
        with pytest.raises(NotDivisibleError):
            lp("x1 + 1") / lp("x1 + -1")
        with pytest.raises(ZeroDivisionError):
            lp("x1") / LaurentPoly.zero(2, 0)

    @pytest.mark.parametrize("m", [0, 3])
    def test_division_stops_at_the_quotient_bound_in_every_coordinate(self, m):
        # (t + 1) / (t - 1) = 1 + 2/t + 2/t^2 + ... never ends: its second
        # term already falls below the lowest exponent an exact quotient can
        # have, in t's coordinate alone.  (t^2 - 1) / (t - 1) = t + 1 reaches
        # that bound and divides.  The shifts put every bound off zero, with
        # both signs.
        n = 3
        one = LaurentPoly.one(n, m)
        shift = LaurentPoly(n, m, {tuple(range(-2, n + m - 2)): 1})
        den_shift = LaurentPoly(n, m, {tuple((-5, 5)[j % 2] for j in range(n + m)): 1})
        for i in range(n + m):
            t = LaurentPoly(n, m, {tuple(int(j == i) for j in range(n + m)): 1})
            with pytest.raises(NotDivisibleError):
                exact_div((t + one) * shift, (t - one) * den_shift)
            quotient = exact_div((t * t - one) * shift, (t - one) * den_shift)
            assert quotient * den_shift == (t + one) * shift


# ----------------------------------------------------------------------
# grading


class TestGrade:
    def test_homogeneous_degree_trivial_coefficients(self):
        assert lp("x1").homogeneous_degree(A2_ROWS) == (1, 0)
        assert lp("x1^-1*x2 + x1^-1") != lp("x1")  # sanity: distinct polys
        with pytest.raises(NotHomogeneousError):
            lp("x1 + x1^2").homogeneous_degree(A2_ROWS)

    def test_grading_matrix_must_be_square_of_the_x_rank(self):
        for b0 in ([[0, 1, 0], [-1, 0, 0]], [[0]], [[0, 1], [-1]]):
            with pytest.raises(ValueError, match="must be square"):
                lp("x1").homogeneous_degree(b0)

    def test_homogeneous_degree_with_matched_coefficients(self):
        p = LaurentPoly.parse("x1^-1*x2 + y1*x1^-1", 2, 2)
        assert p.homogeneous_degree(A2_ROWS) == (-1, 1)
        with pytest.raises(ValueError):
            LaurentPoly.parse("x1", 2, 1).homogeneous_degree(A2_ROWS)
        with pytest.raises(ValueError):
            LaurentPoly.zero(2, 0).homogeneous_degree(A2_ROWS)


# ----------------------------------------------------------------------
# property tests


def poly_strategy(n: int = 2, m: int = 1):
    key = st.lists(st.integers(-3, 3), min_size=n + m, max_size=n + m).map(tuple)
    term = st.tuples(key, st.integers(-4, 4))
    return st.lists(term, max_size=4).map(lambda ts: LaurentPoly(n, m, dict(ts)))


polys = poly_strategy()


class TestRingLaws:
    @given(polys, polys)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(polys, polys)
    def test_division_inverts_multiplication(self, a, b):
        assume(not b.is_zero())
        assert (a * b) / b == a

    @given(polys)
    def test_parse_round_trip(self, p):
        assert LaurentPoly.parse(str(p), p.n, p.m) == p

    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                           st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                           st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    )
    def test_degree_is_additive_on_homogeneous_factors(self, ta, tb, ga, gb):
        # Build homogeneous polynomials by choosing x exponents as
        # g + b0 * w for each y exponent vector w.
        b0 = A2_ROWS

        def build(ts, g):
            terms = {}
            for w, c in ts:
                xs = tuple(
                    g[i] + sum(b0[i][j] * w[j] for j in range(2)) for i in range(2)
                )
                key = xs + tuple(w)
                terms[key] = terms.get(key, 0) + c
            return LaurentPoly(2, 2, terms)

        pa, pb = build(ta, ga), build(tb, gb)
        assume(not pa.is_zero() and not pb.is_zero())
        assert pa.homogeneous_degree(b0) == tuple(ga)
        prod = pa * pb
        assume(not prod.is_zero())
        expected = tuple(x + y for x, y in zip(ga, gb))
        assert prod.homogeneous_degree(b0) == expected


# ----------------------------------------------------------------------
# the arithmetic kernel against the plain loops it replaced


def reference_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return LaurentPoly(a.n, a.m, out)


def reference_pow(p: LaurentPoly, k: int) -> LaurentPoly:
    result = LaurentPoly.one(p.n, p.m)
    base = p
    while k:
        if k & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        k >>= 1
    return result


def reference_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Leading-term division that scans the remainder for its maximum."""
    if num.is_zero():
        return LaurentPoly.zero(num.n, num.m)
    na = tuple(map(min, zip(*num.terms)))
    db = tuple(map(min, zip(*den.terms)))
    rem = {tuple(x - y for x, y in zip(k, na)): c for k, c in num.terms.items()}
    shifted_den = {
        tuple(x - y for x, y in zip(k, db)): c for k, c in den.terms.items()
    }
    den_lead = max(shifted_den)
    den_lc = shifted_den[den_lead]
    quotient = {}
    while rem:
        lead = max(rem)
        diff = tuple(x - y for x, y in zip(lead, den_lead))
        c, leftover = divmod(rem[lead], den_lc)
        if leftover or any(d < 0 for d in diff):
            raise NotDivisibleError("not divisible")
        quotient[diff] = c
        for k2, c2 in shifted_den.items():
            kk = tuple(x + y for x, y in zip(diff, k2))
            v = rem.get(kk, 0) - c * c2
            if v:
                rem[kk] = v
            else:
                rem.pop(kk, None)
    shift = tuple(x - y for x, y in zip(na, db))
    return LaurentPoly(
        num.n,
        num.m,
        {tuple(x + y for x, y in zip(k, shift)): c for k, c in quotient.items()},
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotDivisibleError:
        return NotDivisibleError


# Term counts of kernel operands, from zero to products of 1,600 term pairs.
SIZES = [0, 1, 2, 7, 20, 40]
packed_binomial = clusteralg.laurent.packed_binomial


def hold(p: LaurentPoly, den: LaurentPoly | None = None) -> LaurentPoly:
    """``p`` held over packed keys, as an exchange binomial is, in a layout
    of its own sized for its division by ``den``, by default 1: a one-term
    divisor of exponent 0 sizes the layout for ``p`` alone."""
    den = LaurentPoly.one(p.n, p.m) if den is None else den
    return packed_binomial(p.n, p.m, [((0,) * (p.n + p.m), [(p, 1)])], den)


def count_packed_quotients(monkeypatch) -> list[int]:
    """Record the term pairs of every packed division from here on."""
    packed = []
    original = clusteralg.laurent._packed_quotient

    def counted(num, den):
        packed.append(len(num.packed) * len(den.terms))
        return original(num, den)

    monkeypatch.setattr(clusteralg.laurent, "_packed_quotient", counted)
    return packed


@st.composite
def kernel_operands(draw, count: int = 2, sizes=SIZES):
    """``count`` polynomials of one rank, n in 1..3 and m in {0, n}, with
    negative exponents."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([0, n]))
    key = st.lists(st.integers(-8, 8), min_size=n + m, max_size=n + m).map(tuple)
    coeff = st.integers(-4, 4).filter(bool)
    out = []
    for _ in range(count):
        size = min(draw(st.sampled_from(sizes)), 17 ** (n + m) // 2)
        terms = draw(st.dictionaries(key, coeff, min_size=size, max_size=size))
        out.append(LaurentPoly(n, m, terms))
    return out


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(kernel_operands())
    def test_products(self, ops):
        a, b = ops
        assert (a * b).terms == reference_mul(a, b).terms

    @settings(max_examples=60, deadline=None)
    @given(kernel_operands(count=1, sizes=[0, 1, 2, 3, 5, 7]), st.integers(0, 6))
    def test_powers(self, ops, k):
        (p,) = ops
        assert p ** k == reference_pow(p, k)

    @settings(max_examples=100, deadline=None)
    @given(kernel_operands())
    def test_exact_quotients(self, ops):
        a, b = ops
        assume(not b.is_zero())
        assert exact_div(a * b, b) == reference_div(a * b, b) == a

    @settings(max_examples=150, deadline=None)
    @given(kernel_operands(sizes=[0, 1, 2, 3, 7, 20]))
    def test_arbitrary_quotients_and_failures(self, ops):
        a, b = ops
        assume(not b.is_zero())
        assert outcome(exact_div, a, b) == outcome(reference_div, a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        kernel_operands(count=1, sizes=[1, 2, 7, 20]),
        st.sampled_from(["unit", "divides", "does not divide"]),
        st.integers(2, 5),
        st.sampled_from([1, -1]),
        st.data(),
    )
    def test_monomial_divisors(self, ops, case, c, sign, data):
        (a,) = ops
        width = a.n + a.m
        shift = data.draw(st.lists(st.integers(-8, 8), min_size=width, max_size=width))
        scale = 1 if case == "unit" else c
        terms = {k: scale * v for k, v in a.terms.items()}
        if case == "does not divide":
            first = next(iter(terms))
            terms[first] += 1
        num = LaurentPoly(a.n, a.m, terms)
        den = LaurentPoly(a.n, a.m, {tuple(shift): sign * scale})
        got = outcome(exact_div, num, den)
        assert got == outcome(reference_div, num, den)
        if case == "does not divide":
            assert got is NotDivisibleError
        else:
            assert got == LaurentPoly(a.n, a.m, {
                tuple(x - y for x, y in zip(k, shift)): sign * v
                for k, v in a.terms.items()
            })

    def test_polynomial_divisors_divide_over_packed_keys(self, monkeypatch):
        packed = count_packed_quotients(monkeypatch)
        row = LaurentPoly(1, 0, {(e,): 1 for e in range(3)})
        shift = LaurentPoly(1, 0, {(2,): 3})
        # A tuple-keyed numerator is packed into a layout of its own over a
        # divisor of two or more terms, at any size: 3 * 3 up to 3 * 402
        # term pairs.  Over a one-term divisor it takes the key shift.
        counts = (1, 83, 400)
        for den in (row, shift):
            for count in counts:
                num = row * LaurentPoly(1, 0, {(e,): 3 for e in range(count)})
                assert exact_div(num, den) == reference_div(num, den)
        assert packed == [(count + 2) * 3 for count in counts]
        # A held numerator is divided in its own layout by either divisor.
        num = row * LaurentPoly(1, 0, {(e,): 3 for e in range(3)})
        for den in (row, shift):
            assert exact_div(hold(num), den) == reference_div(num, den)
        assert packed[len(counts):] == [5 * 3, 5 * 1]

    # Shifted exponents (x1, x2) of a held numerator and a divisor, each a
    # division that is not exact.  Each division runs until a candidate
    # term leaves the quotient's box, above it in the first two cases and
    # below it in the third.
    @pytest.mark.parametrize(
        "num, den",
        [
            # The divisor's x2 degree, 5, exceeds the numerator's, 3.
            (
                {(i, j): 1 for i in range(32) for j in range(4)},
                {(1, 0): 1, (0, 5): 1},
            ),
            # A quotient term (4, 25) is above the numerator's x2 degree less
            # the divisor's, 25 - 3, and 2 divides its coefficient 4.
            (
                {(5, 25): 4} | {(i, j): 2 for i in range(5) for j in range(26)},
                {(1, 0): 2, (0, 3): 2},
            ),
            # The quotient would be an infinite series: candidate (3, 0) -
            # (1, 2) = (2, -2) starts one whose x2 exponents fall without end.
            (
                {(3, 0): 1} | {(i, j): 1 for i in range(3) for j in range(43)},
                {(1, 2): 1, (0, 0): 1},
            ),
        ],
        ids=["divisor-degree", "above-bound", "borrow"],
    )
    def test_packed_division_failures(self, monkeypatch, num, den):
        packed = count_packed_quotients(monkeypatch)
        num, den = (
            LaurentPoly(2, 0, {(i - 3, j + 5): c for (i, j), c in t.items()})
            for t in (num, den)
        )
        assert outcome(reference_div, num, den) is NotDivisibleError
        # Held in a layout sized for the division, in one sized for the
        # numerator alone, and on tuple keys, packed by the division.
        for numerator in (hold(num, den), hold(num), num):
            with pytest.raises(NotDivisibleError) as failure:
                exact_div(numerator, den)
            assert str(failure.value) == f"({num}) is not divisible by ({den})"
        assert packed == [len(num.terms) * len(den.terms)] * 3

    @pytest.mark.parametrize("scale", [3, 1], ids=["divides", "does-not-divide"])
    def test_held_numerators_with_monomial_divisors(self, monkeypatch, scale):
        packed = count_packed_quotients(monkeypatch)
        f = LaurentPoly(2, 1, {
            (i, -j, i - j): 3 * i + j + 1 for i in range(4) for j in range(3)
        })
        num = LaurentPoly(2, 1, {k: scale * c for k, c in f.terms.items()})
        den = LaurentPoly(2, 1, {(-2, 5, 1): -3})
        got = outcome(exact_div, hold(num), den)
        assert got == outcome(reference_div, num, den)
        assert packed == [len(num.terms)]
        if scale == 1:
            assert got is NotDivisibleError
            with pytest.raises(NotDivisibleError) as held_failure:
                exact_div(hold(num), den)
            with pytest.raises(NotDivisibleError) as tuple_failure:
                exact_div(num, den)
            assert str(held_failure.value) == str(tuple_failure.value)
        else:
            assert got == LaurentPoly(2, 1, {
                (i + 2, j - 5, e - 1): -c for (i, j, e), c in f.terms.items()
            })

    def test_held_zero_divides_to_zero(self):
        f = LaurentPoly(1, 0, {(0,): 1, (3,): 2})
        # f^2 - f * f, held in a layout sized for degree 6, below the
        # divisor's degree 9.
        sides = [((0,), [(f, 2)]), ((0,), [(-f, 1), (f, 1)])]
        zero = packed_binomial(1, 0, sides, LaurentPoly.one(1, 0))
        den = LaurentPoly(1, 0, {(0,): 1, (9,): 1})
        assert exact_div(zero, den).is_zero()
        assert zero.is_zero()

    def test_packed_fields_hold_extreme_exponents(self, monkeypatch):
        packed = count_packed_quotients(monkeypatch)
        a = LaurentPoly(2, 2, {
            (10**6 * i, -(10**9) + i, i * i, -i): i - 7 for i in range(20) if i != 7
        })
        b = LaurentPoly(2, 2, {
            (-(10**6) * i, 3 * i, 10**12, 0): (-1) ** i for i in range(20)
        })
        product = reference_mul(a, b)
        assert a * b == product
        # The product held over packed keys, and its division in that layout.
        sides = [((0, 0, 0, 0), [(a, 1), (b, 1)])]
        held = packed_binomial(2, 2, sides, LaurentPoly.one(2, 2))
        assert held == product
        assert exact_div(hold(product), b) == exact_div(held, b) == a
        assert len(packed) == 2

    def test_results_keep_tuple_keys_and_print_canonically(self):
        p = LaurentPoly.parse("x1^2*x2^-1 + 3*y1*x1^-1 + -y2 + x2^4", 2, 2)
        big = p ** 5
        assert all(type(k) is tuple and len(k) == 4 for k in big.terms)
        assert str(big) == str(reference_pow(p, 5))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_powering_computes_nothing_larger_than_the_result(self, k, monkeypatch):
        sizes = []
        original = LaurentPoly.__mul__

        def recorded(a, b):
            result = original(a, b)
            sizes.append(len(result.terms))
            return result

        monkeypatch.setattr(LaurentPoly, "__mul__", recorded)
        # Positive coefficients: no cancellation, so term counts grow with
        # the exponent and any product past the result shows as larger.
        p = LaurentPoly.parse("x1 + x2^-1 + y1*x1^-1*x2 + 2", 2, 2)
        result = p ** k
        assert max(sizes, default=0) <= len(result.terms)


# ----------------------------------------------------------------------
# exchange binomials held over packed keys


def reference_binomial(seed, k: int) -> LaurentPoly:
    """The exchange binomial in direction k from ``reference_mul`` and
    ``reference_pow``: [y_k]+ times the powers of the positive column
    entries plus [-y_k]+ times those of the negative ones."""
    n, m = seed.n, seed.m
    sides = []
    for sign in (1, -1):
        y = tuple(max(sign * e, 0) for e in seed.y[k - 1])
        side = LaurentPoly(n, m, {(0,) * n + y: 1})
        for row, x_i in zip(seed.b.rows, seed.x):
            if sign * row[k - 1] > 0:
                side = reference_mul(side, reference_pow(x_i, abs(row[k - 1])))
        sides.append(side)
    return sides[0] + sides[1]


def walk(rows, coefficients: str, steps: int):
    """The seeds along mutations in directions 1, 2, ..., n, 1, ..."""
    s = root_seed(ExchangeMatrix(rows), coefficients)
    out = [s]
    for step in range(steps):
        s = mutate(s, step % s.n + 1)
        out.append(s)
    return out


def held_kronecker_binomial() -> tuple:
    """A Kronecker b=2 principal seed, a direction whose binomial is held
    over packed keys, and that binomial."""
    seed = walk(KRONECKER_2_ROWS, "principal", 9)[-1]
    num = exchange_binomial(seed, 1)
    assert is_held(num)
    return seed, 1, num


def is_held(p: LaurentPoly) -> bool:
    return type(p) is clusteralg.laurent._PackedPoly


def terms_are_unread(p: LaurentPoly) -> bool:
    try:
        LaurentPoly.terms.__get__(p)  # the slot itself, not __getattr__
    except AttributeError:
        return True
    return False


class TestPackedHeldBinomials:
    def test_exchange_binomials_match_the_reference(self, monkeypatch):
        held_powers = set()

        def recorded(n, m, sides, den):
            held_powers.update(a for _, factors in sides for _, a in factors)
            return packed_binomial(n, m, sides, den)

        monkeypatch.setattr(clusteralg.laurent, "packed_binomial", recorded)
        held = tuple_keyed = 0
        # |b_ik| = 2 and 3, and 1 with 3 on a rank-3 wild type; the first
        # two with principal coefficients.
        for rows, coefficients, steps in [
            (KRONECKER_2_ROWS, "principal", 10),
            (KRONECKER_3_ROWS, "principal", 4),
            ([[0, 1, 3], [-1, 0, 1], [-3, -1, 0]], "principal", 4),
            ([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]], "trivial", 4),
        ]:
            for seed in walk(rows, coefficients, steps):
                for k in range(1, seed.n + 1):
                    num = exchange_binomial(seed, k)
                    if not is_held(num):
                        tuple_keyed += 1
                    else:
                        held += 1
                        assert terms_are_unread(num)
                    assert num == reference_binomial(seed, k)
        assert held and tuple_keyed
        assert held_powers == {1, 2, 3}

    def test_re_rooting_divides_by_polynomials_over_packed_keys(self, monkeypatch):
        # Exploration divides in its atlas's shared layout; re-rooting's
        # exchange binomials over a divisor of two or more terms are held in
        # layouts of their own, so no division by such a divisor is left on
        # tuple keys.
        held = []
        original = clusteralg.seed.exact_div

        def recorded(num, den):
            if len(den.terms) > 1:
                held.append(is_held(num))
            return original(num, den)

        monkeypatch.setattr(clusteralg.seed, "exact_div", recorded)
        for family, n, coefficients in [
            ("A", 6, "trivial"),
            ("A", 6, "principal"),
            ("D", 5, "trivial"),
            ("D", 5, "principal"),
        ]:
            atlas = explore(root_seed(ExchangeMatrix(matrix(family, n)), coefficients))
            held.clear()  # exploration's divisions, in its shared layout
            for cluster in atlas.clusters:
                atlas.expand(0, cluster)
            assert all(held), (family, n, coefficients)
        assert held  # D5 principal divides by some polynomial

    @pytest.mark.parametrize("pairs, den", [(255, "x1"), (256, "x1"), (3, "x1 + 1")])
    def test_binomial_layout_follows_the_divisor(self, pairs, den):
        # x1 * f + 1 has |f| + 1 term pairs.  It is held over packed keys
        # exactly when its divisor has two or more terms, whatever its size.
        f = LaurentPoly(1, 0, {(e,): 1 for e in range(pairs - 1)})
        den = LaurentPoly.parse(den, 1, 0)
        num = clusteralg.laurent.binomial(1, 0, [((1,), [(f, 1)]), ((0,), [])], den)
        assert is_held(num) == (len(den.terms) > 1)
        assert num == LaurentPoly.variable(1, 0, 1) * f + LaurentPoly.one(1, 0)

    def test_division_reads_only_the_packed_keys(self, monkeypatch):
        seed, k, num = held_kronecker_binomial()
        packed = count_packed_quotients(monkeypatch)
        x_k = exact_div(num, seed.x[k - 1])
        assert packed == [len(num.packed) * len(seed.x[k - 1].terms)]
        assert terms_are_unread(num)
        assert all(type(key) is tuple for key in x_k.terms)
        assert x_k == reference_div(reference_binomial(seed, k), seed.x[k - 1])

    @pytest.mark.parametrize("view", ["terms", "len", "eq", "hash", "str", "sort_key"])
    def test_held_polynomial_reads_like_a_tuple_keyed_one(self, view):
        seed, k, num = held_kronecker_binomial()
        twin = LaurentPoly(seed.n, seed.m, reference_binomial(seed, k).terms)
        assert terms_are_unread(num)
        read = {
            "terms": lambda p: p.terms,
            "len": lambda p: len(p.terms),
            "eq": lambda p: (p == twin, twin == p, p != twin),
            "hash": hash,
            "str": str,
            "sort_key": LaurentPoly.sort_key,
        }[view]
        assert read(num) == read(twin)
        assert not terms_are_unread(num)
        assert num.terms == twin.terms

    def test_held_numerator_that_does_not_divide_fails_like_a_tuple_one(
        self, monkeypatch
    ):
        seed, k, num = held_kronecker_binomial()
        packed = count_packed_quotients(monkeypatch)
        den = seed.x[1]  # not x_k
        with pytest.raises(NotDivisibleError) as held_failure:
            exact_div(num, den)
        twin = LaurentPoly(seed.n, seed.m, reference_binomial(seed, k).terms)
        with pytest.raises(NotDivisibleError) as tuple_failure:
            exact_div(twin, den)
        # The tuple-keyed twin is packed and divided the same way.
        assert packed == [len(num.packed) * len(den.terms)] * 2
        assert str(held_failure.value) == str(tuple_failure.value)
        assert str(tuple_failure.value) == f"({twin}) is not divisible by ({den})"

    @pytest.mark.parametrize("extra", [0, 1])
    def test_loose_layouts_divide_exactly(self, monkeypatch, extra):
        # f^2 + (h * d - f^2 + extra * x1^12): cancellation leaves h * d plus
        # an extra term, of degree 11 or 12 per variable in a layout sized
        # for f^2's degree 14.
        packed = count_packed_quotients(monkeypatch)
        f = LaurentPoly(2, 0, {(i, j): 1 for i in range(8) for j in range(8)})
        h = LaurentPoly(2, 0, {(i, j): i - j for i in range(10) for j in range(10)})
        d = LaurentPoly(2, 0, {(0, 0): 2, (1, 0): -1, (0, 1): 1})
        bump = LaurentPoly(2, 0, {(12, 0): extra})
        g = reference_mul(h, d) - reference_mul(f, f) + bump
        sides = [((0, 0), [(f, 2)]), ((0, 0), [(g, 1)])]
        num = packed_binomial(2, 0, sides, LaurentPoly.one(2, 0))
        assert num.bound == 14
        expected = outcome(reference_div, reference_mul(h, d) + bump, d)
        assert outcome(exact_div, num, d) == expected
        assert expected == (NotDivisibleError if extra else h)
        assert len(packed) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        kernel_operands(count=3, sizes=[1, 2, 3, 5, 7]),
        st.sampled_from(["divides", "arbitrary"]),
        st.data(),
    )
    def test_held_sums_match_the_reference(self, ops, case, data):
        f, g, d = ops
        width = f.n + f.m
        mono = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
        power = st.integers(1, 3)
        sides = [
            (tuple(data.draw(mono)), [(p, data.draw(power))]) for p in (f, g)
        ]
        if case == "divides":
            for _, factors in sides:
                factors.append((d, 1))
        num = packed_binomial(f.n, f.m, sides, LaurentPoly.one(f.n, f.m))
        expected = LaurentPoly.zero(f.n, f.m)
        for key, factors in sides:
            side = LaurentPoly(f.n, f.m, {key: 1})
            for p, a in factors:
                side = reference_mul(side, reference_pow(p, a))
            expected = expected + side
        got = outcome(exact_div, num, d)
        assert got == outcome(reference_div, expected, d)
        if case == "divides":
            assert got is not NotDivisibleError
        assert num == expected
        assert num.terms == expected.terms


class TestSharedLayout:
    """Exchanges whose factors and divisor one ``PackedLayout`` holds."""

    def test_a_series_stops_the_division(self):
        # 1 / (1 + x1) is an infinite Laurent series: the division runs
        # until a candidate term leaves the quotient's box.
        layout = PackedLayout(1)
        den = layout.hold(LaurentPoly.parse("1 + x1", 1, 0))
        num = clusteralg.laurent.binomial(1, 0, [((0,), [])], den)
        assert num.keys is layout.keys and num == LaurentPoly.one(1, 0)
        with pytest.raises(NotDivisibleError) as failure:
            exact_div(num, den)
        assert str(failure.value) == "(1) is not divisible by (x1 + 1)"

    def test_cancelling_sides_drop_their_zero_coefficients(self):
        # Exchange binomials of positive factors never cancel, so the held
        # path filters zeros only when a sum made one; a held factor with a
        # negative coefficient makes some.
        layout = PackedLayout(2)
        f, g, den = map(layout.hold, [lp("x1 + x2"), lp("x1 + -x2"), lp("x1")])
        binomial = clusteralg.laurent.binomial
        some = binomial(2, 0, [((0, 0), [(f, 1)]), ((0, 0), [(g, 1)])], den)
        assert some.keys is layout.keys
        assert 0 not in some.packed.values()
        assert some.terms == {(1, 0): 2}
        assert exact_div(some, den) == lp("2")
        # f * g = x1^2 - x2^2 cancels x1 * x2 within its product, and x2 * f
        # then cancels x2^2, in either order of the sides.
        sides = [((0, 0), [(f, 1), (g, 1)]), ((0, 1), [(f, 1)])]
        for some in (binomial(2, 0, sides, den), binomial(2, 0, sides[::-1], den)):
            assert 0 not in some.packed.values()
            assert some == lp("x1^2 + x1*x2")
        minus = layout.hold(lp("-x1 + -x2"))
        zero = binomial(2, 0, [((0, 0), [(f, 1)]), ((0, 0), [(minus, 1)])], den)
        assert zero.is_zero() and not zero.packed and not zero.terms

    @pytest.mark.parametrize(
        "rows, coefficients",
        [
            (matrix("B", 3), "trivial"),
            (matrix("C", 3), "principal"),
            (KRONECKER_2_ROWS, "principal"),
        ],
    )
    def test_held_exchanges_match_the_reference(self, rows, coefficients):
        # A stored seed's variables are all held in its atlas's layout, so
        # each of its exchanges takes the held path.  A side has a y
        # monomial when y_k has an entry of its sign: under principal
        # coefficients one side has and the other has not.
        root = root_seed(ExchangeMatrix(rows), coefficients)
        atlas = explore(root, ExploreCaps(max_depth=4))
        layout, monomials = atlas._layout, set()
        for seed in atlas.seeds:
            for k in range(1, seed.n + 1):
                num = exchange_binomial(seed, k)
                assert num.keys is layout.keys
                assert num == reference_binomial(seed, k)
                y_k = seed.y[k - 1]
                monomials.update([any(e > 0 for e in y_k), any(e < 0 for e in y_k)])
        assert monomials == ({False, True} if coefficients == "principal" else {False})

    @settings(max_examples=80, deadline=None)
    @given(
        kernel_operands(count=3, sizes=[1, 2, 3, 5, 7]),
        st.sampled_from(["divides", "arbitrary"]),
        st.data(),
    )
    def test_exchanges_match_the_reference(self, ops, case, data):
        # The binomial is computed and divided in the layout, which widens
        # as the sides' bound needs, and an exact quotient's packed terms
        # are those of the same polynomial held there.
        layout = PackedLayout(ops[0].n + ops[0].m)
        f, g, d = map(layout.hold, ops)
        width = f.n + f.m
        mono = st.lists(st.integers(0, 3), min_size=width, max_size=width)
        sides = [
            (tuple(data.draw(mono)), [(p, data.draw(st.integers(1, 3)))])
            for p in (f, g)
        ]
        if case == "divides":
            for _, factors in sides:
                factors.append((d, 1))
        num = clusteralg.laurent.binomial(f.n, f.m, sides, d)
        assert num.keys is layout.keys
        expected = LaurentPoly.zero(f.n, f.m)
        for key, factors in sides:
            side = LaurentPoly(f.n, f.m, {key: 1})
            for p, a in factors:
                side = reference_mul(side, reference_pow(LaurentPoly(p.n, p.m, p.terms), a))
            expected = expected + side
        assert num == expected
        got = outcome(exact_div, num, d)
        assert got == outcome(reference_div, expected, d)
        if case == "divides" and not expected.is_zero():
            assert got is not NotDivisibleError
            twin = layout.hold(LaurentPoly(got.n, got.m, got.terms))
            assert tuple(twin.packed.items()) == tuple(got.packed.items())


# ----------------------------------------------------------------------
# expansion text, and held terms kept largest first


def reference_format_term(coeff: int, key: tuple, n: int, m: int) -> str:
    """One term's text by a loop over its coordinates, y generators first,
    then x, indexes ascending: the printer the factor tables replaced."""
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


def reference_str(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    return " + ".join(
        reference_format_term(c, k, p.n, p.m)
        for k, c in sorted(p.terms.items(), reverse=True)
    )


@st.composite
def printed_polys(draw):
    """A polynomial of rank n, m in 0..4, n + m >= 1, with exponents in
    -40..40 (0 and +-1 often), coefficients +-1, small or above 2**64, and
    maybe a constant term; the zero polynomial among them."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1 if n == 0 else 0, 4))
    exponent = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-40, 40))
    key = st.lists(exponent, min_size=n + m, max_size=n + m).map(tuple)
    big = st.integers(2**64 + 1, 2**90)
    coeff = st.one_of(
        st.sampled_from([1, -1]),
        st.integers(-9, 9).filter(bool),
        big,
        big.map(lambda c: -c),
    )
    terms = draw(st.dictionaries(key, coeff, max_size=draw(st.sampled_from([0, 1, 3, 12]))))
    if draw(st.booleans()):
        terms[(0,) * (n + m)] = draw(coeff)
    return LaurentPoly(n, m, terms)


class TestExpansionText:
    @settings(max_examples=300, deadline=None)
    @given(printed_polys())
    def test_text_matches_the_reference_printer(self, p):
        text = str(p)
        assert text == reference_str(p)
        assert LaurentPoly.parse(text, p.n, p.m) == p

    @settings(max_examples=150, deadline=None)
    @given(printed_polys())
    def test_held_polynomials_print_and_compare_as_plain_ones(self, p):
        # Held as it is, and as the quotient of its product with a held
        # two-term divisor: that quotient is held with its packed terms.
        n, m = p.n, p.m
        zero = (0,) * (n + m)
        layout = PackedLayout(n + m)
        den = layout.hold(LaurentPoly(n, m, {zero: 1, (1,) + zero[1:]: 1}))
        plain = layout.hold(p)
        num = clusteralg.laurent.binomial(n, m, [(zero, [(plain, 1), (den, 1)])], den)
        quotient = exact_div(num, den)
        assert quotient.keys is layout.keys
        for held in (plain, layout.hold(quotient)):
            assert str(held) == str(p)
            assert held.sort_key() == p.sort_key()
            assert held == p and hash(held) == hash(p)


# Every finite catalogue type below rank 7, and capped wild atlases whose
# layouts widen level by level.
HELD_ATLASES = [
    pytest.param(matrix(*finite_type(name)), coefficients, None, id=f"{name}-{coefficients}")
    for name in [
        "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4",
        "C2", "C3", "C4", "D4", "D5", "E6", "F4", "G2",
    ]
    for coefficients in ("trivial", "principal")
] + [
    pytest.param(KRONECKER_3_ROWS, "trivial", 5, id="Kronecker3-trivial-depth5"),
    pytest.param(KRONECKER_2_ROWS, "principal", 11, id="Kronecker2-principal-depth11"),
    pytest.param(matrix("Markov"), "trivial", 4, id="Markov-trivial-depth4"),
    pytest.param(
        [[0, 1, 0], [-2, 0, 2], [0, -1, 0]], "principal", 6, id="affine3-principal-depth6"
    ),
]


def assert_held_largest_first(atlas) -> None:
    """Every polynomial the exploration held, stored or past a cap, keeps
    its terms strictly descending, and its key, made when held, is the one
    sorting would make.  So is a plain polynomial's with the same terms
    inserted smallest first."""
    held = atlas._layout.held
    assert len(held) >= len(atlas.variables)
    for p in held:
        keys = list(p.terms)
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert p._key[2] == tuple(sorted(p.terms.items(), reverse=True))
        ascending = LaurentPoly(p.n, p.m, dict(reversed(p._key[2])))
        assert PackedLayout(p.n + p.m).hold(ascending)._key == p._key


class TestHeldKeys:
    @pytest.mark.parametrize("rows, coefficients, depth", HELD_ATLASES)
    def test_held_terms_and_keys_are_largest_first(self, rows, coefficients, depth):
        caps = ExploreCaps() if depth is None else ExploreCaps(max_depth=depth)
        assert_held_largest_first(explore(root_seed(ExchangeMatrix(rows), coefficients), caps))

    @pytest.mark.parametrize("coefficients", ["trivial", "principal"])
    def test_a_mutated_root_is_held_largest_first(self, coefficients):
        # The root's variables are polynomials themselves, held as given.
        root = root_seed(ExchangeMatrix(matrix("D", 4)), coefficients)
        moved = clusteralg.seed.mutate_path(root, [2, 1, 3, 4])
        assert max(len(p.terms) for p in moved.x) > 2
        assert_held_largest_first(explore(moved))


class TestKernelMatchesSympy:
    """Independent oracle: sympy's polynomial arithmetic."""

    @staticmethod
    def to_poly(p: LaurentPoly, low, sympy):
        """p divided by the monomial with exponents ``low``, as a polynomial
        over QQ.  Every shifted exponent must be nonnegative: from_dict
        drops a term with a negative one silently."""
        gens = sympy.symbols(
            [f"x{i + 1}" for i in range(p.n)] + [f"y{j + 1}" for j in range(p.m)]
        )
        low = tuple(low)
        shifted = {tuple(map(sub, k, low)): c for k, c in p.terms.items()}
        assert all(e >= 0 for k in shifted for e in k), (p, low)
        return sympy.Poly.from_dict(shifted, *gens, domain="QQ")

    @settings(max_examples=40, deadline=None)
    @given(kernel_operands(sizes=[0, 1, 3, 20]))
    def test_products(self, ops):
        sympy = pytest.importorskip("sympy")
        a, b = ops
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
            return
        low_a = tuple(map(min, zip(*a.terms)))
        low_b = tuple(map(min, zip(*b.terms)))
        want = self.to_poly(a, low_a, sympy) * self.to_poly(b, low_b, sympy)
        assert self.to_poly(a * b, map(add, low_a, low_b), sympy) == want

    # Sizes 16 and 20 make tuple-keyed divisions of at least 256 term pairs,
    # unless n + m = 1 caps the sizes at 8.  A held numerator comes from
    # ``packed_binomial`` and is divided over packed keys, in a layout of its
    # own or, shared, in the layout that holds its factors and the divisor.
    @pytest.mark.parametrize(
        "sizes, held",
        [
            ([1, 2, 3, 5], False),
            ([16, 20], False),
            ([1, 3, 16, 20], True),
            ([1, 3, 16, 20], "shared"),
        ],
        ids=["small", "large", "held", "shared"],
    )
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.booleans())
    def test_quotients(self, sizes, held, data, make_divisible):
        sympy = pytest.importorskip("sympy")
        a, b = data.draw(kernel_operands(sizes=sizes))
        num = a * b if make_divisible else a
        assume(not num.is_zero())
        if held:
            layout = PackedLayout(a.n + a.m) if held == "shared" else None
            if layout is not None:
                a, b = layout.hold(a), layout.hold(b)
            factors = [(a, 1), (b, 1)] if make_divisible else [(a, 1)]
            sides = [((0,) * (a.n + a.m), factors)]
            if layout is None:
                num = packed_binomial(a.n, a.m, sides, LaurentPoly.one(a.n, a.m))
            else:
                num = clusteralg.laurent.binomial(a.n, a.m, sides, b)
                assert num.keys is layout.keys
        # Clear the negative exponents; the shifted divisor has no monomial
        # factor, so Laurent divisibility is polynomial divisibility.
        low_num = tuple(map(min, zip(*num.terms)))
        low_den = tuple(map(min, zip(*b.terms)))
        q, r = self.to_poly(num, low_num, sympy).div(self.to_poly(b, low_den, sympy))
        got = outcome(exact_div, num, b)
        if r.is_zero and all(c.is_integer for c in q.coeffs()):
            assert got is not NotDivisibleError
            assert self.to_poly(got, map(sub, low_num, low_den), sympy) == q
        else:
            assert got is NotDivisibleError
