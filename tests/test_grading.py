"""g-vectors, G-matrices, cluster monomials, and g-pair search."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod

import pytest

import clusteralg.grading
from clusteralg import (
    ExchangeMatrix,
    ExploreCaps,
    GPairNotFoundError,
    IncompleteAtlasError,
    LaurentPoly,
    NotPrincipalError,
    Seed,
    check_g_pair,
    explore,
    find_g_pair,
    g_vector,
    g_vector_table,
    root_seed,
    verify_g_pairs,
)
from clusteralg.catalogue import matrix
from conftest import A2_ROWS, A3_ROWS, B3_ROWS, C3_ROWS, KRONECKER_2_ROWS

A2_G_VECTORS = [(1, 0), (0, 1), (-1, 1), (0, -1), (-1, 0)]


def leibniz_det(rows):
    """Determinant of a square matrix by the Leibniz formula: a signed
    product over every permutation, no recursion."""
    n = len(rows)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        * prod(rows[j][p[j]] for j in range(n))
        for p in permutations(range(n))
    )


def g_matrix_det(cluster, atlas):
    """Determinant of the G-matrix of a cluster, whose columns are the
    g-vectors of its variables: that of its transpose, the g-vectors as
    rows."""
    return leibniz_det([g_vector(v, atlas) for v in cluster])


def symmetrizer(rows):
    """The least positive integers d with d_i b_ij = -d_j b_ji, by spreading
    ratios along the nonzero entries of a connected matrix."""
    d = {0: Fraction(1)}
    while len(d) < len(rows):
        for i, j in product(list(d), range(len(rows))):
            if rows[i][j] and j not in d:
                d[j] = d[i] * rows[i][j] / -rows[j][i]
    scale = lcm(*(r.denominator for r in d.values()))
    return [int(d[i] * scale) for i in range(len(rows))]


def patch_reachable(monkeypatch, atlas, subset, reach):
    """Make ``atlas.i_reachable`` answer ``reach`` for the direction subset
    ``subset`` and walk as before for every other."""
    walk = atlas.i_reachable
    monkeypatch.setattr(
        atlas,
        "i_reachable",
        lambda I: reach if tuple(sorted(I)) == subset else walk(I),
    )


def cluster_monomial(cluster, powers, atlas):
    """The root expansion of a cluster monomial, and its g-vector predicted
    as the G-matrix of the cluster times the powers."""
    expansion = LaurentPoly.one(atlas.n, atlas.m)
    g = (0,) * atlas.n
    for v, p in zip(cluster, powers):
        expansion = expansion * atlas.expansion(v) ** p
        g = tuple(a + p * b for a, b in zip(g, g_vector(v, atlas)))
    return expansion, g


def brute_force_g_pair(t, t_prime, subset, atlas, bound=6):
    """Definition-level search: for every variable of t, enumerate cluster
    monomials on the exact I-connected seed at t_prime whose exponents are
    supported on the I positions, and compare graded degrees on the I
    coordinates only."""
    I = sorted(set(subset))
    ids = atlas.i_reachable(I).get(tuple(sorted(t_prime)))
    if ids is None:
        return False
    cols = [g_vector(v, atlas) for v in ids]
    for v in atlas.normalize_cluster(t):
        g = g_vector(v, atlas)
        found = False
        for powers in product(range(bound + 1), repeat=len(I)):
            total = [0] * atlas.n
            for i, p in zip(I, powers):
                for row in range(atlas.n):
                    total[row] += cols[i - 1][row] * p
            if all(total[i - 1] == g[i - 1] for i in I):
                found = True
                break
        if not found:
            return False
    return True


# ----------------------------------------------------------------------
# g-vectors


class TestGVectors:
    def test_root_variables_have_unit_g_vectors(self, a2_principal, a3_principal):
        for atlas in (a2_principal, a3_principal):
            for i in range(atlas.n):
                assert g_vector(i, atlas) == tuple(
                    int(j == i) for j in range(atlas.n)
                )

    def test_pentagon_g_vectors(self, a2_principal):
        assert [g_vector(v, a2_principal) for v in range(5)] == A2_G_VECTORS

    def test_g_vectors_separate_variables(self, a3_principal, c2_principal):
        for atlas in (a3_principal, c2_principal):
            vecs = {g_vector(v, atlas) for v in range(len(atlas.variables))}
            assert len(vecs) == len(atlas.variables)

    def test_ids_outside_the_table_are_refused_and_not_cached(self, a3_principal):
        for v in (-1, len(a3_principal.variables)):
            with pytest.raises(KeyError, match=rf"variable id {v} is not in the atlas"):
                g_vector(v, a3_principal)
            assert v not in a3_principal.derived.get("g_vectors", {})

    def test_trivial_coefficients_are_rejected(self, a2_trivial):
        with pytest.raises(NotPrincipalError):
            g_vector(0, a2_trivial)
        with pytest.raises(NotPrincipalError):
            g_vector_table(a2_trivial)

    def test_table_format(self, a2_principal):
        assert g_vector_table(a2_principal) == (
            "variable\tg1\tg2\n"
            "0\t1\t0\n"
            "1\t0\t1\n"
            "2\t-1\t1\n"
            "3\t0\t-1\n"
            "4\t-1\t0\n"
        )
        assert g_vector_table(a2_principal, [4]) == "variable\tg1\tg2\n4\t-1\t0\n"


class TestGMatrices:
    def test_pentagon_determinants(self, a2_principal):
        dets = {c: g_matrix_det(c, a2_principal) for c in a2_principal.clusters}
        assert dets == {(0, 1): 1, (1, 2): 1, (0, 3): -1, (2, 4): 1, (3, 4): -1}

    def test_all_determinants_are_unimodular(self, a3_principal, c2_principal):
        for atlas in (a3_principal, c2_principal):
            for c in atlas.clusters:
                assert g_matrix_det(c, atlas) in (-1, 1)

    @pytest.mark.parametrize(
        "rows, depth",
        [
            (matrix("A", 4), 64),
            (matrix("B", 3), 64),
            (matrix("C", 3), 64),
            (matrix("G", 2), 64),
            (matrix("F", 4), 64),
            (matrix("D", 5), 64),
            (matrix("E", 6), 64),
            (matrix("Kronecker", 2), 10),
            (matrix("Kronecker", 3), 4),
            (matrix("Markov"), 3),
        ],
        ids=["A4", "B3", "C3", "G2", "F4", "D5", "E6", "K2", "K3", "Markov"],
    )
    def test_tropical_duality_on_every_seed(self, rows, depth):
        # Nakanishi-Zelevinsky: G_t^T D C_t = D on every seed t, where the
        # columns of G_t are the g-vectors of t's variables by position and
        # those of C_t the c-vectors, t's y rows; each c-vector is
        # sign-coherent.  The g-pair sweep inverts G-blocks by this.
        root = root_seed(ExchangeMatrix(rows), "principal")
        atlas = explore(root, ExploreCaps(max_depth=depth))
        n, d = atlas.n, symmetrizer(rows)
        for i, j in product(range(n), repeat=2):
            assert d[i] * rows[i][j] == -d[j] * rows[j][i]
        for seed, ids in zip(atlas.seeds, atlas.seed_variable_ids):
            gs = [g_vector(v, atlas) for v in ids]
            gtdc = [
                [sum(gs[a][i] * d[i] * c[i] for i in range(n)) for c in seed.y]
                for a in range(n)
            ]
            assert gtdc == [[d[a] * (a == b) for b in range(n)] for a in range(n)]
            for c in seed.y:
                assert all(e >= 0 for e in c) or all(e <= 0 for e in c)
                assert any(c)


# ----------------------------------------------------------------------
# cluster monomials


class TestClusterMonomials:
    def test_expansion_and_degree(self, a2_principal):
        expansion, g = cluster_monomial((1, 2), (1, 2), a2_principal)
        assert g == (-2, 3)
        assert expansion.homogeneous_degree(a2_principal.root.b.rows) == (-2, 3)

    def test_distinct_g_vector_forces_distinct_expansion(
        self, a2_principal, a3_principal
    ):
        # Group all small cluster monomials by graded degree: within a
        # group every expansion must coincide, so degree determines the
        # monomial as a polynomial.
        for atlas, bound in [(a2_principal, 3), (a3_principal, 2)]:
            by_degree = {}
            for cluster in atlas.clusters:
                for powers in product(range(bound + 1), repeat=atlas.n):
                    p, g = cluster_monomial(cluster, powers, atlas)
                    assert p.homogeneous_degree(atlas.root.b.rows) == g
                    by_degree.setdefault(g, set()).add(p)
            assert all(len(polys) == 1 for polys in by_degree.values())
            assert by_degree[(0,) * atlas.n] == {LaurentPoly.one(atlas.n, atlas.m)}


# ----------------------------------------------------------------------
# restricted connectivity


class TestConnectivity:
    def test_examples(self, a2_principal):
        assert (0, 1) in a2_principal.i_reachable((1,))
        assert (1, 2) in a2_principal.i_reachable((1,))
        assert (3, 4) not in a2_principal.i_reachable((1,))
        assert (3, 4) in a2_principal.i_reachable((1, 2))

    def test_positions_off_I_hold_root_variables(self, a3_principal):
        atlas = a3_principal
        for size in range(atlas.n + 1):
            for I in combinations(range(1, atlas.n + 1), size):
                for cluster, ids in atlas.i_reachable(I).items():
                    for pos in range(atlas.n):
                        if (pos + 1) not in I:
                            assert str(atlas.expansion(ids[pos])) == f"x{pos + 1}"


# ----------------------------------------------------------------------
# g-pairs


class TestGPairs:
    def test_full_direction_set_pairs_a_cluster_with_itself(self, a2_principal):
        for c in a2_principal.clusters:
            assert check_g_pair(c, c, (1, 2), a2_principal)
            assert find_g_pair(c, (1, 2), a2_principal) == c

    def test_empty_direction_set_pairs_with_the_root(self, a2_principal, a3_principal):
        for atlas in (a2_principal, a3_principal):
            root_cluster = atlas.clusters[0]
            for c in atlas.clusters:
                assert find_g_pair(c, (), atlas) == root_cluster

    def test_pentagon_partners(self, a2_principal):
        assert find_g_pair((2, 4), (1,), a2_principal) == (1, 2)
        assert find_g_pair((3, 4), (2,), a2_principal) == (0, 3)
        assert not check_g_pair((2, 4), (0, 1), (1,), a2_principal)

    def test_non_connected_candidate_is_not_a_pair(self, a2_principal):
        assert not check_g_pair((0, 1), (3, 4), (1,), a2_principal)

    def test_matches_brute_force_definition(
        self, a2_principal, c2_principal, a3_principal
    ):
        for atlas in (a2_principal, c2_principal, a3_principal):
            for size in range(atlas.n + 1):
                for I in combinations(range(1, atlas.n + 1), size):
                    reachable = sorted(atlas.i_reachable(I))
                    for t in atlas.clusters:
                        for tp in reachable:
                            got = check_g_pair(t, tp, I, atlas)
                            assert got == brute_force_g_pair(t, tp, I, atlas)

    def test_partner_is_the_first_candidate_the_definition_accepts(
        self, a2_principal, c2_principal, a3_principal
    ):
        more = [
            explore(root_seed(ExchangeMatrix(rows), "principal"))
            for rows in (B3_ROWS, C3_ROWS)
        ]
        for atlas in [a2_principal, c2_principal, a3_principal] + more:
            for size in range(atlas.n + 1):
                for I in combinations(range(1, atlas.n + 1), size):
                    reachable = sorted(atlas.i_reachable(I))
                    for t in atlas.clusters:
                        want = next(
                            tp for tp in reachable
                            if brute_force_g_pair(t, tp, I, atlas)
                        )
                        assert find_g_pair(t, I, atlas) == want

    def test_direction_validation(self, a2_principal):
        with pytest.raises(ValueError):
            check_g_pair((0, 1), (0, 1), (3,), a2_principal)

    def test_clusters_outside_the_atlas_are_refused(self, a3_principal):
        stored, missing = a3_principal.clusters[0], r"cluster \{0,1,99\} is not"
        for t, t_prime in [((0, 1, 99), stored), (stored, (0, 1, 99))]:
            with pytest.raises(KeyError, match=missing):
                check_g_pair(t, t_prime, (1, 2), a3_principal)

    def test_sweeps_pass(self, a2_principal, a3_principal):
        for atlas, pairs in [(a2_principal, 20), (a3_principal, 112)]:
            report = verify_g_pairs(atlas)
            assert report.resolve_status() == "pass"
            assert report.suite == "g-pairs"
            assert ("pairs-checked", str(pairs)) in report.context
            assert "result: pass" in report.lines()

    def test_sweep_inverts_each_block_once(self, monkeypatch):
        inversions = []
        original = clusteralg.grading._invert_i_block

        def counted(ids, I, atlas):
            inversions.append((tuple(sorted(ids)), I))
            return original(ids, I, atlas)

        monkeypatch.setattr(clusteralg.grading, "_invert_i_block", counted)
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "principal"))
        assert verify_g_pairs(atlas).resolve_status() == "pass"
        # One inversion per I-connected (t', I), each subset's cone index
        # built once: 35 on A3, against 112 partner searches.
        connected = sum(
            len(atlas.i_reachable(I))
            for size in range(atlas.n + 1)
            for I in combinations(range(1, atlas.n + 1), size)
        )
        assert len(inversions) == len(set(inversions)) == connected == 35

    @pytest.mark.parametrize(
        "rows, variables", [(A3_ROWS, 9), (B3_ROWS, 12), (C3_ROWS, 12)]
    )
    def test_sweep_lists_each_g_vector_once(self, monkeypatch, rows, variables):
        calls = []
        original = clusteralg.grading.g_vector

        def counted(v, atlas):
            calls.append(v)
            return original(v, atlas)

        monkeypatch.setattr(clusteralg.grading, "g_vector", counted)
        atlas = explore(root_seed(ExchangeMatrix(rows), "principal"))
        assert verify_g_pairs(atlas).resolve_status() == "pass"
        assert len(atlas.variables) == variables
        assert sorted(calls) == list(range(variables))

    def test_a_wrong_c_vector_fails_the_duality_check(self):
        # One stored seed's first y row negated: its G-block inverse, read
        # off the c-vectors, no longer passes the product check.
        atlas = explore(root_seed(ExchangeMatrix(B3_ROWS), "principal"))
        seed = atlas.seeds[5]
        y = (tuple(-e for e in seed.y[0]),) + seed.y[1:]
        atlas.seeds[5] = Seed(seed.b, y, seed.x)
        with pytest.raises(RuntimeError, match="^the c-vectors of seed 5 along "):
            verify_g_pairs(atlas)

    def test_sweep_requires_principal_and_complete(self, a2_trivial):
        with pytest.raises(NotPrincipalError):
            verify_g_pairs(a2_trivial)
        capped = explore(
            root_seed(ExchangeMatrix(KRONECKER_2_ROWS), "principal"),
            ExploreCaps(max_seeds=8),
        )
        with pytest.raises(IncompleteAtlasError):
            verify_g_pairs(capped)

    def test_search_failure_raises_loudly(self, a2_principal, monkeypatch):
        # An artificial reachability answer simulates a broken search
        # space: with no I-connected clusters at all the search must raise
        # rather than return a default.
        atlas = explore(root_seed(ExchangeMatrix(A2_ROWS), "principal"))
        patch_reachable(monkeypatch, atlas, (1,), {})
        with pytest.raises(
            GPairNotFoundError, match=r"no g-pair partner for cluster \{0,1\} along \[1\];"
        ):
            find_g_pair((0, 1), (1,), atlas)

    def test_ties_go_to_the_first_candidate_in_ascending_order(self, monkeypatch):
        # On a complete atlas one candidate passes for every (t, I): 5,824
        # of 5,824 on D5.  An artificial reachability answer giving cluster
        # {1,2} the root's exact seed makes both candidates pass for
        # clusters {0,1} and {0,3}; the first in ascending order wins.
        atlas = explore(root_seed(ExchangeMatrix(A2_ROWS), "principal"))
        reach = {(0, 1): (0, 1), (1, 2): (0, 1)}
        patch_reachable(monkeypatch, atlas, (1,), reach)
        for t in [(0, 1), (0, 3)]:
            assert check_g_pair(t, (1, 2), (1,), atlas)
            assert find_g_pair(t, (1,), atlas) == (0, 1)

    def test_sweep_failure_prints_the_cluster_as_a_set(self, monkeypatch):
        # With nothing reachable along the empty direction set, the first
        # cluster in ascending order has no partner there.
        atlas = explore(root_seed(ExchangeMatrix(A2_ROWS), "principal"))
        patch_reachable(monkeypatch, atlas, (), {})
        report = verify_g_pairs(atlas)
        assert report.resolve_status() == "fail"
        assert report.checks[-1].detail == "cluster {0,1} along [] has no partner"
