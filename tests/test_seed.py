"""Symmetrizers, matrix mutation, seed mutation, and seed files."""

from __future__ import annotations

import json
import random
import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusteralg.seed
from clusteralg import (
    ExchangeMatrix,
    LaurentPoly,
    NotDivisibleError,
    NotSkewSymmetrizableError,
    PositivityError,
    Seed,
    exact_div,
    exchange_binomial,
    find_skew_symmetrizer,
    format_seed,
    load_seed_file,
    mutate,
    mutate_path,
    random_exchange_matrix,
    root_seed,
    seed_from_dict,
)
from clusteralg.seed import _positive_parts, mutate_rows
from conftest import A1_ROWS, A2_ROWS, A3_ROWS, C2_ROWS, C3_ROWS, G2_ROWS


def reference_matrix_mutation(rows, k):
    """Independent reimplementation of matrix mutation for cross-checks:
    b'_ij = -b_ij on row/column k, else b_ij + sgn(b_ik) * max(b_ik*b_kj, 0)."""
    n = len(rows)
    kk = k - 1
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == kk or j == kk:
                out[i][j] = -rows[i][j]
            else:
                s = (rows[i][kk] > 0) - (rows[i][kk] < 0)
                out[i][j] = rows[i][j] + s * max(rows[i][kk] * rows[kk][j], 0)
    return tuple(tuple(r) for r in out)


# The earlier class-based tropical update, kept as a reference: the
# semifield's product, power, inverse and auxiliary addition (componentwise
# minimum) written over exponent tuples.


def _t_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _t_pow(a, k):
    return tuple(x * k for x in a)


def _t_inverse(a):
    return tuple(-x for x in a)


def _t_oplus(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def reference_coefficient_mutation(seed, k):
    """y_k -> y_k^-1 and y_i -> y_i * y_k^max(b_ki, 0) * (1 (+) y_k)^-b_ki."""
    yk = seed.y[k - 1]
    denom = _t_oplus(yk, (0,) * seed.m)
    out = []
    for i in range(1, seed.n + 1):
        if i == k:
            out.append(_t_inverse(yk))
        else:
            b_ki = seed.b.rows[k - 1][i - 1]
            out.append(
                _t_mul(
                    _t_mul(seed.y[i - 1], _t_pow(yk, max(b_ki, 0))),
                    _t_pow(denom, -b_ki),
                )
            )
    return tuple(out)


def reference_exchange_binomial(seed, k):
    """Prefactors y_k / (1 (+) y_k) and 1 / (1 (+) y_k) on the two terms."""
    n, m = seed.n, seed.m
    yk = seed.y[k - 1]
    denom = _t_oplus(yk, (0,) * m)
    x = (0,) * n
    pos = LaurentPoly(n, m, {x + _t_mul(yk, _t_inverse(denom)): 1})
    neg = LaurentPoly(n, m, {x + _t_inverse(denom): 1})
    for i in range(n):
        b_ik = seed.b.rows[i][k - 1]
        if b_ik > 0:
            pos = pos * seed.x[i] ** b_ik
        elif b_ik < 0:
            neg = neg * seed.x[i] ** (-b_ik)
    return pos + neg


# ----------------------------------------------------------------------
# positive parts of a coefficient exponent tuple

exponent_tuples = st.lists(st.integers(-5, 5), min_size=0, max_size=4).map(tuple)


class TestPositiveParts:
    @given(exponent_tuples)
    def test_parts_split_the_exponent(self, yk):
        # y_k = [y_k]+ * [-y_k]+^-1, both parts nonnegative with disjoint support.
        up, down = _positive_parts(yk)
        assert len(up) == len(down) == len(yk)
        assert tuple(a - b for a, b in zip(up, down)) == yk
        assert all(a >= 0 and b >= 0 and min(a, b) == 0 for a, b in zip(up, down))

    @given(exponent_tuples)
    def test_parts_are_the_tropical_quotients(self, yk):
        # [y_k]+ = y_k / (1 (+) y_k) and [-y_k]+ = 1 / (1 (+) y_k).
        denom = _t_oplus(yk, (0,) * len(yk))
        assert _positive_parts(yk) == (_t_mul(yk, _t_inverse(denom)), _t_inverse(denom))

    @given(exponent_tuples)
    def test_inversion_swaps_the_parts(self, yk):
        # Mutation sends y_k to its inverse, so mutating twice in direction k
        # reads the two parts in swapped roles.
        up, down = _positive_parts(yk)
        assert _positive_parts(_t_inverse(yk)) == (down, up)


# ----------------------------------------------------------------------
# symmetrizers


class TestSymmetrizer:
    def test_minimal_symmetrizers(self):
        assert find_skew_symmetrizer(A2_ROWS) == (1, 1)
        assert find_skew_symmetrizer(C2_ROWS) == (1, 2)
        assert find_skew_symmetrizer(G2_ROWS) == (1, 3)
        assert find_skew_symmetrizer(A3_ROWS) == (1, 1, 1)
        assert find_skew_symmetrizer(C3_ROWS) == (1, 1, 2)
        assert find_skew_symmetrizer(A1_ROWS) == (1,)
        # disconnected support: each component is scaled independently
        assert find_skew_symmetrizer(
            [[0, 2, 0], [-1, 0, 0], [0, 0, 0]]
        ) == (1, 2, 1)
        assert find_skew_symmetrizer(
            [[0, 1, 0, 0, 0], [-2, 0, 0, 0, 0], [0, 0, 0, 3, 0],
             [0, 0, -2, 0, 0], [0, 0, 0, 0, 0]]
        ) == (2, 1, 2, 3, 1)
        # a path whose component is rescaled twice, at its first and last edge
        assert find_skew_symmetrizer(
            [[0, 2, 0, 0], [-3, 0, 5, 0], [0, -2, 0, 7], [0, 0, -3, 0]]
        ) == (9, 6, 15, 35)

    def test_rejects_bad_sign_patterns(self):
        need = ": need opposite signs or both zero"
        for rows, message in [
            ([[0, 1], [1, 0]], "entries (1,2) and (2,1) are 1, 1" + need),
            ([[0, 1], [0, 0]], "entries (1,2) and (2,1) are 1, 0" + need),
            ([[1, 0], [0, 0]], "nonzero diagonal entry at 1"),
        ]:
            with pytest.raises(NotSkewSymmetrizableError, match=re.escape(message)):
                find_skew_symmetrizer(rows)

    def test_rejects_inconsistent_cycle_ratios(self):
        with pytest.raises(
            NotSkewSymmetrizableError,
            match=re.escape("inconsistent symmetrizer ratio at (2,3)"),
        ):
            find_skew_symmetrizer([[0, 1, -1], [-1, 0, 1], [2, -1, 0]])

    @pytest.mark.parametrize("rows", [[[0, 1.5], [-1.5, 0]], [[0, "2"], [-2, 0]]])
    def test_rejects_non_integral_entries(self, rows):
        # Entries are read as integers, never truncated or parsed.
        with pytest.raises(TypeError):
            ExchangeMatrix(rows)
        with pytest.raises(TypeError):
            find_skew_symmetrizer(rows)

    def test_symmetrizer_symmetrizes(self):
        rng = random.Random(7)
        for max_sym in (3, 6):
            for _ in range(50):
                b = random_exchange_matrix(rng, rng.randint(1, 4), max_sym=max_sym)
                s = find_skew_symmetrizer(b.rows)
                n = b.n
                for i in range(n):
                    for j in range(n):
                        assert s[i] * b.rows[i][j] == -s[j] * b.rows[j][i]
                # s is minimal: each connected component of the support has gcd 1.
                seen = set()
                for start in range(n):
                    if start in seen:
                        continue
                    component, frontier = {start}, [start]
                    while frontier:
                        i = frontier.pop()
                        for j in range(n):
                            if b.rows[i][j] and j not in component:
                                component.add(j)
                                frontier.append(j)
                    seen |= component
                    assert gcd(*(s[i] for i in component)) == 1


# ----------------------------------------------------------------------
# matrix mutation


def mutated_rows(b: ExchangeMatrix, k: int):
    """B's rows mutated in direction k by ``mutate_rows``, with trivial
    coefficients."""
    return mutate_rows(b.rows, ((),) * b.n, k)[0]


class TestMatrixMutation:
    def test_rank_two_oracle(self):
        assert mutated_rows(ExchangeMatrix(A2_ROWS), 1) == ((0, -1), (1, 0))
        assert mutated_rows(ExchangeMatrix(C2_ROWS), 2) == ((0, -2), (1, 0))

    def test_rank_three_oracle(self):
        b = ExchangeMatrix([[0, 2, 0], [-1, 0, 1], [0, -1, 0]])
        assert mutated_rows(b, 2) == ((0, -2, 2), (1, 0, -1), (-1, 1, 0))

    def test_matches_reference_implementation(self):
        rng = random.Random(11)
        for _ in range(100):
            b = random_exchange_matrix(rng, rng.randint(2, 4))
            k = rng.randint(1, b.n)
            assert mutated_rows(b, k) == reference_matrix_mutation(b.rows, k)

    def test_involution_and_symmetrizer_stability(self):
        # mutate_rows skips the skew-symmetrizability check, so derive the
        # symmetrizer afresh along walks and compare it with the root's.
        rng = random.Random(13)
        for _ in range(100):
            b = random_exchange_matrix(rng, rng.randint(2, 4))
            s = find_skew_symmetrizer(b.rows)
            bk = b
            for _ in range(6):
                k = rng.randint(1, b.n)
                prev, bk = bk, ExchangeMatrix(mutated_rows(bk, k))
                assert find_skew_symmetrizer(bk.rows) == s
                assert mutated_rows(bk, k) == prev.rows

    def test_direction_bounds(self):
        # Seed mutation checks the direction before it mutates B.
        with pytest.raises(IndexError):
            mutate(root_seed(ExchangeMatrix(A2_ROWS)), 0)
        with pytest.raises(IndexError):
            mutate(root_seed(ExchangeMatrix(A2_ROWS)), 3)

    def test_sparse_rows_match_entrywise_formula(self):
        # mutate_rows keeps rows with b_ik = 0 and touches only the entries
        # where b_kj has the sign of b_ik; the entrywise formula is the
        # reference, in every direction of every draw.
        rng = random.Random(29)
        kept_rows = 0
        for n in range(1, 7):
            for max_sym in range(1, 4):
                for _ in range(15):
                    b = random_exchange_matrix(rng, n, max_sym=max_sym)
                    s = find_skew_symmetrizer(b.rows)
                    for k in range(1, n + 1):
                        bk = mutated_rows(b, k)
                        assert bk == reference_matrix_mutation(b.rows, k)
                        assert all(type(row) is tuple for row in bk)
                        assert find_skew_symmetrizer(bk) == s
                        kept_rows += sum(row is old for row, old in zip(bk, b.rows))
                    for k in (0, n + 1):
                        with pytest.raises(IndexError):
                            mutate(root_seed(b), k)
        assert kept_rows > 0  # the b_ik = 0 shortcut was exercised


# ----------------------------------------------------------------------
# exchange binomials and seed mutation


class TestExchangeBinomial:
    def test_trivial_coefficients(self):
        s = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        assert str(exchange_binomial(s, 1)) == "x2 + 1"
        assert str(exchange_binomial(s, 2)) == "x1 + 1"
        g = root_seed(ExchangeMatrix(G2_ROWS), "trivial")
        assert str(exchange_binomial(g, 1)) == "x2 + 1"
        assert str(exchange_binomial(g, 2)) == "x1^3 + 1"

    def test_principal_coefficients(self):
        s = root_seed(ExchangeMatrix(A2_ROWS), "principal")
        # At the root 1 (+) y_k = 1, so the prefactors are y_k and 1.
        assert str(exchange_binomial(s, 1)) == "x2 + y1"
        assert str(exchange_binomial(s, 2)) == "y2*x1 + 1"

    def test_direction_bounds(self):
        s = root_seed(ExchangeMatrix(A2_ROWS))
        with pytest.raises(IndexError):
            exchange_binomial(s, 0)

    def test_matches_reference_on_random_principal_walks(self):
        # Compares the [y_k]+ / [-y_k]+ update with the tropical-semifield
        # one: coefficients after every step, binomials in every direction.
        rng = random.Random(19)
        zero_entries = 0
        for _ in range(40):
            b = random_exchange_matrix(rng, rng.randint(2, 3), max_sym=2)
            s = root_seed(b, "principal")
            for _ in range(6):
                for j in range(1, s.n + 1):
                    expected = reference_exchange_binomial(s, j)
                    assert exchange_binomial(s, j) == expected
                if max(len(p.terms) for p in s.x) > 200:
                    break
                k = rng.randint(1, s.n)
                zero_entries += s.b.rows[k - 1].count(0) - 1  # off the diagonal
                expected = reference_coefficient_mutation(s, k)
                s = mutate(s, k)
                assert s.y == expected
        assert zero_entries > 0  # the b_ki = 0 branch was exercised

    def test_matches_reference_on_mixed_sign_coefficients(self):
        # Principal walks keep each y_k sign-coherent; arbitrary coefficients
        # put entries of both signs into one y_k.
        rng = random.Random(29)
        for _ in range(60):
            b = random_exchange_matrix(rng, rng.randint(2, 4), max_sym=3)
            m = rng.randint(1, 4)
            y = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(b.n)]
            x = [LaurentPoly.variable(b.n, m, i) for i in range(1, b.n + 1)]
            s = Seed(b, y, x)
            k = rng.randint(1, b.n)
            assert mutate(s, k).y == reference_coefficient_mutation(s, k)

    def test_mutation_takes_the_positive_parts_once(self, monkeypatch):
        parts = []
        original = clusteralg.seed._positive_parts

        def counted(yk):
            parts.append(yk)
            return original(yk)

        monkeypatch.setattr(clusteralg.seed, "_positive_parts", counted)
        s = root_seed(ExchangeMatrix(A3_ROWS), "principal")
        mutate(s, 2)
        assert parts == [s.y[1]]
        # Trivial coefficients are all (), so mutation keeps the tuple.
        trivial = root_seed(ExchangeMatrix(A3_ROWS), "trivial")
        assert mutate(trivial, 2).y is trivial.y


class TestSeedMutation:
    def test_first_mutation_trivial(self):
        s = mutate(root_seed(ExchangeMatrix(A2_ROWS), "trivial"), 1)
        assert s.b.rows == ((0, -1), (1, 0))
        assert str(s.x[0]) == "x1^-1*x2 + x1^-1"
        assert str(s.x[1]) == "x2"

    def test_first_mutation_principal(self):
        s = mutate(root_seed(ExchangeMatrix(A2_ROWS), "principal"), 1)
        assert str(s.x[0]) == "x1^-1*x2 + y1*x1^-1"
        assert s.y == ((-1, 0), (1, 1))

    def test_trivial_coefficients_stay_empty(self):
        # The trivial semifield has one element, so every coefficient stays ().
        rng = random.Random(23)
        for _ in range(20):
            b = random_exchange_matrix(rng, rng.randint(2, 3), max_sym=2)
            s = root_seed(b, "trivial")
            for _ in range(5):
                if max(len(p.terms) for p in s.x) > 200:
                    break
                s = mutate(s, rng.randint(1, s.n))
                assert s.y == ((),) * s.n
                assert all(p.m == 0 for p in s.x)

    def test_coefficient_walk_principal(self):
        # By hand: after direction 1 the coefficients are (y1^-1, y1*y2);
        # direction 2 then sends y1^-1 to y1^-1 * (y1*y2) = y2 and inverts y1*y2.
        s = mutate_path(root_seed(ExchangeMatrix(A2_ROWS), "principal"), [1, 2])
        assert s.y == ((0, 1), (-1, -1))

    def test_involution(self):
        root = root_seed(ExchangeMatrix(A3_ROWS), "principal")
        s = mutate_path(root, [2, 3])
        back = mutate(mutate(s, 1), 1)
        assert back == s
        assert hash(back) == hash(s)

    def test_equality_ignores_path(self):
        root = root_seed(ExchangeMatrix(A2_ROWS))
        assert mutate(mutate(root, 1), 1) == root
        assert hash(mutate(mutate(root, 1), 1)) == hash(root)

    def test_pentagon_returns_transposed_then_exact(self):
        for coefficients in ("trivial", "principal"):
            root = root_seed(ExchangeMatrix(A2_ROWS), coefficients)
            five = mutate_path(root, [1, 2, 1, 2, 1])
            # After five alternating steps the seed is the root with the two
            # positions swapped, not the root itself.
            assert five != root
            assert five.x == (root.x[1], root.x[0])
            assert five.y == (root.y[1], root.y[0])
            assert five.b.rows == ((0, -1), (1, 0))
            ten = mutate_path(five, [1, 2, 1, 2, 1])
            assert ten == root

    def test_variables_stay_positive_on_random_walks(self):
        # Size guard: wild-type matrices blow up exponentially, so a walk
        # ends early once any variable passes 200 terms.  Every variable
        # that does get produced is checked.
        rng = random.Random(17)
        for _ in range(25):
            b = random_exchange_matrix(rng, rng.randint(1, 3), max_sym=2)
            s = root_seed(b, rng.choice(["trivial", "principal"]))
            for _ in range(5):
                if max(len(p.terms) for p in s.x) > 200:
                    break
                s = mutate(s, rng.randint(1, b.n))
                assert all(p.has_positive_coefficients() for p in s.x)

    def test_mutation_output_passes_the_validating_constructor(self):
        # mutate() builds its child without Seed.__init__'s shape checks;
        # rebuilding every child through them must give the same seed.
        rng = random.Random(31)
        for _ in range(40):
            b = random_exchange_matrix(rng, rng.randint(1, 4), max_sym=2)
            s = root_seed(b, "principal")
            for _ in range(6):
                if max(len(p.terms) for p in s.x) > 200:
                    break
                k = rng.randint(1, s.n)
                x_k = exact_div(exchange_binomial(s, k), s.x[k - 1])
                child = mutate(s, k)
                checked = Seed(child.b, child.y, child.x)
                assert child == checked
                assert child.y == checked.y and child.x == checked.x
                assert type(child.y) is tuple and type(child.x) is tuple
                assert child.x[k - 1] == x_k
                assert child.x[: k - 1] + child.x[k:] == s.x[: k - 1] + s.x[k:]
                s = child

    def test_mutation_keeps_its_checks(self, monkeypatch):
        s = root_seed(ExchangeMatrix(A3_ROWS), "principal")
        for k in (0, 4):
            with pytest.raises(IndexError):
                mutate(s, k)
            with pytest.raises(IndexError):
                exchange_binomial(s, k)
        # mutate() reaches the binomial and the division through the module,
        # so a broken one of either is caught by the checks that stay.
        s = mutate(s, 1)  # x1 is no longer a monomial
        one = LaurentPoly.one(s.n, s.m)
        monkeypatch.setattr(
            clusteralg.seed, "exchange_binomial", lambda seed, k: one + one
        )
        with pytest.raises(NotDivisibleError):
            mutate(s, 1)
        monkeypatch.undo()
        monkeypatch.setattr(
            clusteralg.seed, "exact_div", lambda num, den: -exact_div(num, den)
        )
        with pytest.raises(PositivityError):
            mutate(s, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(1, 3), st.integers(0, 4))
    def test_involution_property(self, entropy, n, steps):
        rng = random.Random(entropy)
        b = random_exchange_matrix(rng, n, max_sym=2)
        s = root_seed(b, rng.choice(["trivial", "principal"]))
        for _ in range(steps):
            if max(len(p.terms) for p in s.x) > 200:
                break
            s = mutate(s, rng.randint(1, n))
        k = rng.randint(1, n)
        assert mutate(mutate(s, k), k) == s


# ----------------------------------------------------------------------
# construction and files


class TestSeedConstruction:
    def test_root_seed_shapes(self):
        t = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        assert (t.n, t.m) == (2, 0)
        assert [str(p) for p in t.x] == ["x1", "x2"]
        assert t.y == ((), ())
        p = root_seed(ExchangeMatrix(A2_ROWS), "principal")
        assert (p.n, p.m) == (2, 2)
        assert p.y == ((1, 0), (0, 1))
        with pytest.raises(ValueError):
            root_seed(ExchangeMatrix(A2_ROWS), "universal")

    def test_seed_validates_shapes(self):
        b = ExchangeMatrix(A2_ROWS)
        x = [LaurentPoly.variable(2, 0, i) for i in (1, 2)]
        with pytest.raises(ValueError):
            Seed(b, [], x)
        with pytest.raises(ValueError):
            Seed(b, [root_seed(b).y[0]], x)
        with pytest.raises(ValueError):
            Seed(b, [(1, 0), (1,)], x)

    def test_format_seed(self):
        text = format_seed(root_seed(ExchangeMatrix(A2_ROWS), "principal"))
        lines = text.splitlines()
        assert lines[0] == "n: 2"
        assert lines[1] == "m: 2"
        assert "  0 1" in lines
        assert "  x1 = x1" in lines
        assert "y: y1; y2" in lines


class TestSeedFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"n": 2, "B": [[0, 2], [-1, 0]], "coefficients": "principal"}))
        s = load_seed_file(str(path))
        assert s.b.rows == ((0, 2), (-1, 0))
        assert (s.n, s.m) == (2, 2)

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key 'B'"):
            seed_from_dict({"n": 2, "coefficients": "trivial"})

    def test_bad_values(self):
        good = {"n": 2, "B": [[0, 1], [-1, 0]], "coefficients": "trivial"}
        for patch in [
            {"n": 0},
            {"n": True},
            {"n": "2"},
            {"B": [[0, 1]]},
            {"B": [[0, 1.5], [-1, 0]]},
            {"B": [[0, True], [-1, 0]]},
            {"B": [[0, 1], [1, 0]]},
            {"coefficients": "universal"},
        ]:
            with pytest.raises(ValueError):
                seed_from_dict({**good, **patch})
        with pytest.raises(ValueError):
            seed_from_dict([1, 2])

    def test_unreadable_or_invalid_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_seed_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_seed_file(str(bad))
