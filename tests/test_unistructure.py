"""Witness terms, incompatibility certificates, cross-atlas verification."""

from __future__ import annotations

from itertools import groupby, permutations, product

import pytest

from clusteralg import (
    ExchangeMatrix,
    ExploreCaps,
    IncompleteAtlasError,
    LaurentPoly,
    PreconditionViolatedError,
    Seed,
    TrichotomyViolationError,
    WitnessMonomial,
    WitnessNotFoundError,
    certify_incompatible_pairs,
    explore,
    incompatibility_certificate,
    incompatible_pairs,
    laurent_witness,
    mutate,
    mutate_path,
    root_seed,
    verify_unistructural,
    witness_sweep,
)
from clusteralg.atlas import format_cluster, graph_difference, matching_permutations
from clusteralg.reports import VerificationReport
from clusteralg.unistructure import _edge_graph, _find_identification, _witness_terms
from conftest import (
    A2_ROWS,
    A3_ROWS,
    A4_ROWS,
    B3_ROWS,
    C2_ROWS,
    C3_ROWS,
    D4_ROWS,
    D5_ROWS,
    G2_ROWS,
    KRONECKER_2_ROWS,
    corrupt_first_edge,
    count_mutations,
)

A2_INCOMPATIBLE_PAIRS = [
    (0, 2), (0, 4), (1, 3), (1, 4), (2, 0),
    (2, 3), (3, 1), (3, 2), (4, 0), (4, 1),
]


def brute_force_matches(rows, want):
    """Reference for ``matching_permutations``: every permutation, in
    lexicographic order, that carries rows onto want."""
    n = len(want)
    return [
        perm
        for perm in permutations(range(n))
        if all(rows[perm[i]][perm[j]] == want[i][j] for i in range(n) for j in range(n))
    ]


def list_scan_witness_term(xk, xi, atlas):
    """Reference for ``_witness_terms`` at one pair: each cluster through xk
    read for xi alone, each term's x part copied to a list, the reference
    exponent zeroed, and the minimum taken."""
    n = atlas.n
    for c in atlas.clusters_containing(xk):
        kpos = c.index(xk)
        known, sigma, image, pick = atlas._expansions_at(c)
        p, at = known[sigma[xi]], image.index(sigma[xk])
        best, coef = None, {}
        for key, a in p.terms.items():
            off = list(key[:n])
            off[at] = 0
            if min(off) < 0:
                continue
            x = key[:n] if pick is None else pick(key)
            if best is None or x > best:
                best, coef = x, {key[n:]: a}
            elif x == best:
                coef[key[n:]] = a
        if best is not None:
            return c, kpos, best, coef
    return None


def carried_identification(a1, a2, sid, perm):
    """Reference for the identification: step the anchor, stored seed sid
    of a1 with positions permuted by perm, down a2's discovery tree with
    ``a1.mutate_state``, and pair each a2 seed's variables with those of
    the exact a1 seed the same mutations reach, position by position."""
    states = [(sid, tuple(a1.seed_variable_ids[sid][i] for i in perm))]
    for u, k in a2.tree[1:]:
        states.append(a1.mutate_state(states[u], k))
    mapping = {}
    for ids2, (_, ids1) in zip(a2.seed_variable_ids, states):
        for v2, v1 in zip(ids2, ids1):
            assert mapping.setdefault(v2, v1) == v1
    assert sorted(mapping.values()) == list(range(len(a1.variables)))
    return mapping


def grouped_witness(xk, xi, atlas):
    """Reference for ``laurent_witness``: group each expansion's terms by
    their x part, largest x part first, and take the first group whose
    exponents off xk are nonnegative, with the group as its coefficient."""
    n = atlas.n
    for c in atlas.clusters_containing(xk):
        kpos = c.index(xk)
        groups = {}
        for key, a in atlas.expand(xi, c).terms.items():
            groups.setdefault(key[:n], {})[key[n:]] = a
        for x in sorted(groups, reverse=True):
            if all(e >= 0 for i, e in enumerate(x) if i != kpos):
                return c, kpos, x, LaurentPoly(0, atlas.m, groups[x])
    return None


def sorted_witness(xk, xi, atlas):
    """Reference for ``laurent_witness`` that reads every cluster through
    ``expand``, relabeled copies included: sort each expansion's terms in
    canonical order and take the first run of one x part whose exponents off
    xk are nonnegative, the run as its coefficient; then validate the sign
    of the xk exponent."""
    n = atlas.n
    for c in atlas.clusters_containing(xk):
        kpos = c.index(xk)
        terms = atlas.expand(xi, c).sort_key()[2]
        for x_exps, run in groupby(terms, key=lambda term: term[0][:n]):
            if all(e >= 0 for i, e in enumerate(x_exps) if i != kpos):
                coef = LaurentPoly(0, atlas.m, {key[n:]: a for key, a in run})
                witness = WitnessMonomial(c, kpos, x_exps, coef)
                e = witness.k_exponent
                if xi == xk:
                    want, sign = 1, "positive"
                elif xi in c:
                    want, sign = 0, "zero"
                else:
                    want, sign = -1, "negative"
                if (e > 0) - (e < 0) != want:
                    raise TrichotomyViolationError(
                        f"pair ({xk}, {xi}) in cluster {format_cluster(c)}: "
                        f"the reference exponent is {e}, but it must be {sign}"
                    )
                return witness
    raise WitnessNotFoundError(
        f"no admissible witness term for pair ({xk}, {xi}); on a complete "
        f"atlas this is a verification failure"
    )


def sorted_sweep(atlas):
    """Reference for ``witness_sweep``: ``sorted_witness`` over every ordered
    pair, stopping at the first that fails."""
    report = VerificationReport(suite="witnesses")
    count = len(atlas.variables)
    report.add_context("atlas", atlas.summary())
    failure = ""
    checked = 0
    for xk, xi in product(range(count), repeat=2):
        try:
            sorted_witness(xk, xi, atlas)
        except (WitnessNotFoundError, TrichotomyViolationError) as exc:
            failure = f"pair ({xk}, {xi}): {exc}"
            break
        checked += 1
    report.add_context("pairs-checked", str(checked))
    report.add_check("witness-for-all-pairs", not failure, failure)
    return report.text()


# ----------------------------------------------------------------------
# witnesses


class TestWitness:
    def test_distinct_incompatible_pair(self, a2_trivial):
        w = laurent_witness(0, 4, a2_trivial)
        assert w.cluster == (0, 1)
        assert w.k_position == 0
        assert w.exponents == (-1, 0)
        assert w.coefficient == LaurentPoly.one(0, 0)
        assert w.k_exponent == -1

    def test_shared_cluster_pair_has_zero_exponent(self, a2_trivial):
        w = laurent_witness(0, 1, a2_trivial)
        assert w.exponents == (0, 1)
        assert w.k_exponent == 0

    def test_self_pair_has_positive_exponent(self, a2_trivial):
        w = laurent_witness(0, 0, a2_trivial)
        assert w.exponents == (1, 0)
        assert w.k_exponent == 1

    def test_folded_pattern_witness(self, c2_trivial):
        w = laurent_witness(0, 4, c2_trivial)
        assert w.cluster == (0, 1)
        assert w.exponents == (-2, 1)

    def test_trichotomy_over_all_pairs(self, a2_trivial, c2_trivial, g2_trivial):
        for atlas in (a2_trivial, c2_trivial, g2_trivial):
            count = len(atlas.variables)
            shares = {
                (k, i)
                for k in range(count)
                for i in range(count)
                if any(k in c and i in c for c in atlas.clusters)
            }
            for xk in range(count):
                for xi in range(count):
                    e = laurent_witness(xk, xi, atlas).k_exponent
                    if xk == xi:
                        assert e > 0
                    elif (xk, xi) in shares:
                        assert e == 0
                    else:
                        assert e < 0

    # The first admissible term of a forged expansion in cluster {0,1},
    # with variable 0 the reference, has the wrong sign of that exponent:
    # negative for the reference itself or a variable of the cluster,
    # zero for a variable outside it.
    @pytest.mark.parametrize(
        "xi, forged", [(0, "x1^-2"), (1, "x1^-1*x2"), (4, "x2")]
    )
    def test_trichotomy_violation_is_caught(self, monkeypatch, xi, forged):
        atlas = explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))
        known = dict.fromkeys(range(5), LaurentPoly.parse(forged, 2, 0))
        monkeypatch.setattr(
            atlas, "_expansions_at", lambda c: (known, range(5), c, None)
        )
        with pytest.raises(TrichotomyViolationError):
            laurent_witness(0, xi, atlas)

    def test_forged_expansion_at_a_served_cluster_is_caught(self, monkeypatch):
        # Once every cluster has been read, {0,5,7} is served from {1,2,3}
        # by a kept automorphism, with c's coordinates (x1, x2, x3) read at
        # the image's (x3, x2, x1).  Variable 8 is forged there as
        # x3 + x1*x2^-1 at the image, x1 + x2^-1*x3 at {0,5,7}: the witness
        # of (5, 8) is x1, whose reference exponent 0 breaks the
        # trichotomy, while a reading in the image's coordinates would take
        # the valid x2^-1*x3.  The first two clusters through 5 hold no
        # admissible term, and the sweep meets the forgery first there.
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        read = atlas._expansions_at
        for c in atlas.clusters:
            read(c)
        known, sigma, image, pick = read((0, 5, 7))
        assert image == (1, 2, 3) and pick((1, 2, 3)) == (3, 2, 1)
        assert atlas.clusters_containing(5).index((0, 5, 7)) == 2
        forged = {**known, sigma[8]: LaurentPoly.parse("x3 + x1*x2^-1", 3, 0)}
        monkeypatch.setattr(
            atlas,
            "_expansions_at",
            lambda c: (forged, *read(c)[1:]) if c == (0, 5, 7) else read(c),
        )
        text = (
            "pair (5, 8) in cluster {0,5,7}: the reference exponent is 0, "
            "but it must be negative"
        )
        with pytest.raises(TrichotomyViolationError) as caught:
            laurent_witness(5, 8, atlas)
        assert str(caught.value) == text
        report = witness_sweep(atlas)
        assert report.resolve_status() == "fail"
        assert ("pairs-checked", "53") in report.context
        assert report.checks[0].detail == "pair (5, 8): " + text

    def test_missing_witness_fails_the_sweep(self, monkeypatch):
        # Variable 4 is forged as x1^-1*x2^-1 at every cluster through 0, so
        # no cluster through 0 holds an admissible term of it.
        atlas = explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))
        read = atlas._expansions_at
        forged = LaurentPoly.parse("x1^-1*x2^-1", 2, 0)

        def forged_read(c):
            known, sigma, image, pick = read(c)
            if 0 in c:
                known = {**known, sigma[4]: forged}
            return known, sigma, image, pick

        monkeypatch.setattr(atlas, "_expansions_at", forged_read)
        text = (
            "no admissible witness term for pair (0, 4); on a complete atlas "
            "this is a verification failure"
        )
        with pytest.raises(WitnessNotFoundError) as caught:
            laurent_witness(0, 4, atlas)
        assert str(caught.value) == text
        report = witness_sweep(atlas)
        assert report.resolve_status() == "fail"
        assert ("pairs-checked", "4") in report.context
        assert report.checks[0].detail == "pair (0, 4): " + text

    # The expected count is of pairs whose witness coefficient has more than
    # one term, which only principal coefficients can give.  Three re-rooted
    # roots of each trivial type make kept automorphisms serve clusters with
    # their coordinates permuted.  Each search runs on its own atlas, so
    # the order in which the references read clusters decides none of them.
    @pytest.mark.parametrize(
        "rows, coefficients, path, multi_term",
        [
            (B3_ROWS, "principal", (), 2),
            (D4_ROWS, "principal", (), 2),
            (D4_ROWS, "trivial", (), 0),
            (A3_ROWS, "principal", (), 0),
            (C3_ROWS, "principal", (), 0),
            (A4_ROWS, "principal", (), 0),
        ]
        + [
            (rows, "trivial", path, 0)
            for rows in (A3_ROWS, A4_ROWS, B3_ROWS, C3_ROWS, D4_ROWS, D5_ROWS, G2_ROWS)
            for path in ((1,), (len(rows),), (1, 2))
        ],
    )
    def test_witness_matches_the_references(self, rows, coefficients, path, multi_term):
        seed = mutate_path(root_seed(ExchangeMatrix(rows), coefficients), path)
        atlas, reference = explore(seed), explore(seed)
        pairs = list(product(range(len(atlas.variables)), repeat=2))
        found = 0
        for (xk, xi), w in [(pair, laurent_witness(*pair, atlas)) for pair in pairs]:
            assert w == sorted_witness(xk, xi, reference)
            want = grouped_witness(xk, xi, reference)
            assert (w.cluster, w.k_position, w.exponents, w.coefficient) == want
            found += len(w.coefficient.terms) > 1
        assert found == multi_term
        assert witness_sweep(explore(seed)).text() == sorted_sweep(reference)

    @pytest.mark.parametrize("rows", [A4_ROWS, D4_ROWS, B3_ROWS])
    def test_witness_scan_matches_the_list_scan(self, rows):
        # Every cluster is read first, so kept automorphisms serve some of
        # them, read through the map.  A row scans each cluster through xk
        # once, for the variables it has not yet found a witness for.
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        assert any([atlas._expansions_at(c)[2] != c for c in atlas.clusters])
        variables = range(len(atlas.variables))
        for xk in variables:
            row = _witness_terms(xk, variables, atlas)
            assert sorted(row) == list(variables)
            for xi in variables:
                want = list_scan_witness_term(xk, xi, atlas)
                assert row[xi] == want
                assert _witness_terms(xk, (xi,), atlas) == {xi: want}

    def test_describe(self, a2_trivial):
        lines = laurent_witness(0, 4, a2_trivial).describe()
        assert lines == [
            "cluster: {0,1}",
            "reference-position: 0",
            "exponents: -1 0",
            "coefficient: 1",
            "reference-exponent: -1",
        ]

    def test_admissibility_is_validated(self):
        with pytest.raises(ValueError):
            WitnessMonomial((0, 1), 0, (-1, -1), LaurentPoly.one(0, 0))

    def test_sweeps_pass(self, a2_trivial, c2_trivial):
        for atlas, pairs in [(a2_trivial, 25), (c2_trivial, 36)]:
            report = witness_sweep(atlas)
            assert report.resolve_status() == "pass"
            assert report.suite == "witnesses"
            assert ("pairs-checked", str(pairs)) in report.context

    def test_incomplete_atlas_is_refused(self):
        capped = explore(
            root_seed(ExchangeMatrix(KRONECKER_2_ROWS), "trivial"),
            ExploreCaps(max_seeds=8),
        )
        with pytest.raises(IncompleteAtlasError):
            laurent_witness(0, 1, capped)
        with pytest.raises(IncompleteAtlasError):
            witness_sweep(capped)


# ----------------------------------------------------------------------
# certificates


class TestCertificates:
    def test_pentagon_certificate(self, a2_trivial):
        cert = incompatibility_certificate(0, 4, a2_trivial)
        assert cert.phi_coefficient == 1
        assert cert.denominator_exponent == 1
        assert type(cert.lhs_value) is int and cert.lhs_value == -1
        assert cert.lhs_value == 1 - cert.phi_coefficient * 2 ** cert.denominator_exponent
        assert cert.lhs_value < cert.rhs_lower_bound == 0
        assert cert.host == (0, 4)

    def test_certificate_lines(self, a2_trivial):
        lines = incompatibility_certificate(0, 4, a2_trivial).lines()
        assert lines[0] == "reference: 0"
        assert "host: {0,4}" in lines
        assert "lhs-value: -1" in lines
        assert "rhs-lower-bound: 0" in lines

    def test_deeper_denominator(self, c2_trivial, g2_trivial):
        cert = incompatibility_certificate(0, 4, c2_trivial)
        assert cert.denominator_exponent == 2
        assert cert.lhs_value == -3
        # At v = 3 the power 2**v first differs from 2 * v.
        cert = incompatibility_certificate(0, 4, g2_trivial)
        assert cert.denominator_exponent == 3
        assert cert.lhs_value == -7

    def test_enumerate_and_certify_all(self, a2_trivial):
        assert incompatible_pairs(a2_trivial) == A2_INCOMPATIBLE_PAIRS
        certs = certify_incompatible_pairs(a2_trivial)
        assert len(certs) == 10
        for cert in certs:
            assert cert.lhs_value < 0
            assert cert.denominator_exponent >= 1
            assert cert.lhs_value == 1 - cert.phi_coefficient * 2 ** cert.denominator_exponent

    @pytest.mark.parametrize("rows", [B3_ROWS, D4_ROWS])
    def test_incompatible_pairs_match_the_brute_force_scan(self, rows):
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        count = len(atlas.variables)
        assert incompatible_pairs(atlas) == [
            (x, z)
            for x in range(count)
            for z in range(count)
            if x != z and not any(x in c and z in c for c in atlas.clusters)
        ]

    def test_precondition_is_enforced(self, a2_trivial):
        with pytest.raises(PreconditionViolatedError):
            incompatibility_certificate(0, 1, a2_trivial)
        with pytest.raises(PreconditionViolatedError):
            incompatibility_certificate(0, 0, a2_trivial)



# ----------------------------------------------------------------------
# cross-atlas verification


class TestVerifyUnistructural:
    def test_atlas_agrees_with_itself(self, a2_trivial):
        report = verify_unistructural(a2_trivial, a2_trivial)
        assert report.resolve_status() == "pass"
        assert report.suite == "unistructural"
        names = [c.name for c in report.checks]
        assert names == [
            "identification",
            "cluster-sets-equal",
            "exchange-graphs-equal",
            "compat-matrices-equal",
        ]
        assert ("variable-map", "0->0,1->1,2->2,3->3,4->4") in report.context

    def test_rerooted_pattern_is_identified(self, a2_trivial):
        moved = root_seed(ExchangeMatrix([[0, -1], [1, 0]]), "trivial")
        report = verify_unistructural(a2_trivial, explore(moved))
        assert report.resolve_status() == "pass"
        ident = report.checks[0]
        assert ident.detail == "anchor seed 0, permutation [1, 0]"
        assert ("variable-map", "0->1,1->0,2->3,3->2,4->4") in report.context

    def test_every_root_cluster_of_the_pentagon(self, a2_trivial):
        for seed in a2_trivial.seeds:
            other = explore(root_seed(ExchangeMatrix(seed.b.rows), "trivial"))
            assert verify_unistructural(a2_trivial, other).resolve_status() == "pass"

    def test_reversed_rank_three_pattern(self, a3_trivial):
        reversed_rows = [[0, -1, 0], [1, 0, -1], [0, 1, 0]]
        other = explore(root_seed(ExchangeMatrix(reversed_rows), "trivial"))
        report = verify_unistructural(a3_trivial, other)
        assert report.resolve_status() == "pass"

    def test_identification_does_no_mutations(self, a3_trivial, monkeypatch):
        reversed_rows = [[0, -1, 0], [1, 0, -1], [0, 1, 0]]
        other = explore(root_seed(ExchangeMatrix(reversed_rows), "trivial"))
        calls = count_mutations(monkeypatch)
        report = VerificationReport(suite="unistructural")
        mapping = _find_identification(a3_trivial, other, report)
        assert sorted(mapping.values()) == list(range(len(a3_trivial.variables)))
        assert calls == []

    # The anchor search matches B; the twin search also matches -B.
    @pytest.mark.parametrize("rows", [A3_ROWS, A4_ROWS, D4_ROWS, B3_ROWS])
    def test_anchor_search_matches_brute_force(self, rows):
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        n = atlas.n
        for seed in (atlas.root, mutate_path(atlas.root, [2, 1])):
            b = seed.b.rows
            sigmas = (range(n - 1, -1, -1), [*range(1, n), 0])
            for sign, sigma in product((1, -1), sigmas):
                want = tuple(tuple(sign * b[i][j] for j in sigma) for i in sigma)
                found = 0
                for s in atlas.seeds:
                    perms = brute_force_matches(s.b.rows, want)
                    found += len(perms)
                    assert list(matching_permutations(s.b.rows, want)) == perms
                assert found

    def test_rank_mismatch_is_an_error(self, a2_trivial, a3_trivial):
        report = verify_unistructural(a2_trivial, a3_trivial)
        assert report.status == "error"
        assert report.resolve_status() != "pass"
        assert report.checks[0].detail == "ranks differ: 2 vs 3"

    def test_different_patterns_fail_identification(self, a2_trivial, c2_trivial):
        report = verify_unistructural(a2_trivial, c2_trivial)
        assert report.status == "error"
        assert "0 anchors tried" in report.checks[0].detail

    @pytest.mark.parametrize(
        "rows, reason, tried",
        [
            (
                A3_ROWS,
                "anchor seed 12 is not a bijection (8 images for 9 variables of 9)",
                6,
            ),
            (
                D4_ROWS,
                "anchor seed 46 is not a bijection (15 images for 16 variables of 16)",
                24,
            ),
        ],
        ids=["A3", "D4"],
    )
    @pytest.mark.parametrize("corruption", ["extra-term", "copy"])
    def test_corrupted_second_variable_fails_identification(
        self, rows, reason, tried, corruption
    ):
        # The second root's expansions are its interned variables, so one
        # changed there is what identification reads.  The last variable is
        # not a root variable, and the other atlases agree everywhere else.
        first = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        second = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        v = len(second.variables) - 1
        if corruption == "extra-term":
            changed = second.variables[v] + LaurentPoly.one(second.n, 0)
            assert len(changed.terms) == len(second.variables[v].terms) + 1
        else:
            changed = second.variables[v - 1]
        second.variables[v] = changed
        report = verify_unistructural(first, second)
        assert report.status == "error"
        assert [c.name for c in report.checks] == ["identification"]
        assert report.checks[0].detail == (
            f"variable sets are not equal: identification from {reason} "
            f"({tried} anchors tried)"
        )

    # Stored seeds to re-root at whose anchor permutes the positions of its
    # cluster, so that reading the expansions in the wrong order shows.
    @pytest.mark.parametrize(
        "rows, sids",
        [
            (A3_ROWS, (1, 6, 7)),
            (A4_ROWS, (1, 2, 8)),
            (B3_ROWS, (1, 7, 8)),
            (C3_ROWS, (1, 7, 8)),
            (D4_ROWS, (1, 2, 7)),
            (D5_ROWS, (1, 2, 3)),
            (G2_ROWS, (1, 2, 5)),
        ],
        ids=["A3", "A4", "B3", "C3", "D4", "D5", "G2"],
    )
    def test_identification_matches_the_carried_reference(self, rows, sids):
        first = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        for sid in sids:
            second = explore(root_seed(first.seeds[sid].b, "trivial"))
            report = verify_unistructural(first, second)
            assert report.resolve_status() == "pass"
            # Every anchor identifies a pattern with itself: the first is kept.
            anchor, perm = next(
                (s, perm)
                for s, seed in enumerate(first.seeds)
                for perm in matching_permutations(seed.b.rows, second.root.b.rows)
            )
            assert report.checks[0].detail == (
                f"anchor seed {anchor}, permutation {list(perm)}"
            )
            mapping = carried_identification(first, second, anchor, perm)
            reference = ",".join(f"{v2}->{mapping[v2]}" for v2 in sorted(mapping))
            assert ("variable-map", reference) in report.context

    @pytest.mark.parametrize("rows", [A3_ROWS, D4_ROWS], ids=["A3", "D4"])
    @pytest.mark.parametrize("root", ["mutated", "units-swapped"])
    def test_second_root_need_not_be_units_in_position_order(self, rows, root):
        # Identification reads the second atlas's expansions at its root,
        # which are its interned variables only for a root of units x_1..x_n
        # in position order.
        first = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        seed = root_seed(ExchangeMatrix(rows), "trivial")
        if root == "mutated":
            seed = mutate(seed, 1)
        else:
            seed = Seed(seed.b, seed.y, (seed.x[1], seed.x[0]) + seed.x[2:])
        report = verify_unistructural(first, explore(seed))
        assert report.resolve_status() == "pass"

    # Both graphs come from their atlases' mutation edges, so an edge that
    # exchanges two variables shows although the clusters agree.  The
    # degree matrix's walk to a host crosses that edge first, so the suite
    # stops there, as an engine fault.
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_corrupted_atlas_is_an_engine_fault(self, a3_trivial, which):
        broken = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        corrupt_first_edge(broken)
        atlases = (broken, a3_trivial) if which == "first" else (a3_trivial, broken)
        with pytest.raises(
            RuntimeError, match="edge table is broken: seed 0 in direction 1 "
        ):
            verify_unistructural(*atlases)
        first, second = atlases
        assert graph_difference(_edge_graph(first), _edge_graph(second)) == (
            f"edge {{0,1,2}} -- {{2,3,6}} only in {which} graph"
        )

    def test_cluster_set_difference_prints_clusters_as_sets(self, a2_trivial):
        # The pentagon's last discovered cluster, {3,4}, swapped for a set
        # that is not a cluster; every variable's first cluster is kept.
        other = explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))
        assert other.clusters[-1] == (3, 4)
        other.clusters[-1] = (0, 2)
        report = verify_unistructural(a2_trivial, other)
        assert report.resolve_status() == "fail"
        assert report.checks[1].name == "cluster-sets-equal"
        assert report.checks[1].detail == (
            "second-only cluster {0,2}; first-only cluster {3,4}"
        )

    def test_same_matrix_different_pattern_sizes(self, c2_trivial, g2_trivial):
        report = verify_unistructural(c2_trivial, g2_trivial)
        assert report.resolve_status() != "pass"

    def test_preconditions(self, a2_trivial, a2_principal):
        capped = explore(
            root_seed(ExchangeMatrix(C2_ROWS), "trivial"), ExploreCaps(max_seeds=3)
        )
        with pytest.raises(IncompleteAtlasError):
            verify_unistructural(a2_trivial, capped)
        with pytest.raises(ValueError):
            verify_unistructural(a2_principal, a2_principal)
