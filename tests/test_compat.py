"""Denominator vectors, compatibility degree, maximal compatible sets."""

from __future__ import annotations

import pytest

import clusteralg.compat
from clusteralg import (
    ExchangeMatrix,
    ExploreCaps,
    IncompleteAtlasError,
    compatibility_degree,
    compatibility_matrix,
    compatibility_matrix_tsv,
    d_vector,
    explore,
    maximal_d_compatible_sets,
    root_seed,
    verify_degree_properties,
    verify_maximal_sets,
)
from conftest import A3_ROWS, A4_ROWS, B3_ROWS, D4_ROWS

A2_DEGREE_MATRIX = [
    [-1, 0, 1, 0, 1],
    [0, -1, 0, 1, 1],
    [1, 0, -1, 1, 0],
    [0, 1, 1, -1, 0],
    [1, 1, 0, 0, -1],
]

B2_DEGREE_MATRIX = [
    [-1, 0, 1, 0, 2, 1],
    [0, -1, 0, 1, 1, 1],
    [1, 0, -1, 2, 0, 1],
    [0, 1, 1, -1, 1, 0],
    [1, 1, 0, 1, -1, 0],
    [1, 2, 1, 0, 0, -1],
]


@pytest.fixture()
def capped_atlas():
    root = root_seed(ExchangeMatrix([[0, 2], [-2, 0]]), "trivial")
    return explore(root, ExploreCaps(max_seeds=8))


class TestDVectors:
    def test_member_variables_have_negated_unit_d_vectors(self, a2_trivial):
        assert d_vector(0, (0, 1), a2_trivial) == (-1, 0)
        assert d_vector(1, (0, 1), a2_trivial) == (0, -1)
        assert d_vector(3, (0, 3), a2_trivial) == (0, -1)

    def test_zero_coordinate_when_numerator_cancels(self, a2_trivial):
        # Expansion of variable 2 over the root cluster is
        # x1^-1*x2 + x1^-1: the second coordinate never goes negative,
        # so the d-vector coordinate is 0, not -1.
        assert d_vector(2, (0, 1), a2_trivial) == (1, 0)

    def test_non_member_examples(self, a2_trivial):
        assert d_vector(4, (0, 1), a2_trivial) == (1, 1)
        assert d_vector(4, (0, 3), a2_trivial) == (1, 0)

    def test_coordinates_follow_ascending_ids(self, a2_trivial):
        # Cluster {3, 4}: first coordinate belongs to variable 3.
        assert d_vector(0, (3, 4), a2_trivial)[0] == compatibility_degree(
            3, 0, a2_trivial
        )


class TestCompatibilityDegree:
    def test_pentagon_matrix(self, a2_trivial):
        assert compatibility_matrix(a2_trivial) == A2_DEGREE_MATRIX

    def test_asymmetric_degrees_in_the_folded_pattern(self, b2_trivial):
        matrix = compatibility_matrix(b2_trivial)
        assert matrix == B2_DEGREE_MATRIX
        assert matrix[0][4] == 2 and matrix[4][0] == 1

    def test_choice_of_containing_cluster_is_immaterial(self, a2_trivial, b2_trivial):
        for atlas in (a2_trivial, b2_trivial):
            count = len(atlas.variables)
            for j in range(count):
                for i in range(count):
                    degree = compatibility_degree(j, i, atlas)
                    for c in atlas.clusters_containing(j):
                        assert d_vector(i, c, atlas)[c.index(j)] == degree

    def test_compatibility_predicate(self, a2_trivial):
        assert compatibility_degree(0, 1, a2_trivial) <= 0
        assert compatibility_degree(0, 0, a2_trivial) <= 0
        assert compatibility_degree(0, 2, a2_trivial) > 0
        assert compatibility_degree(2, 0, a2_trivial) > 0

    def test_tsv_format(self, a2_trivial):
        text = compatibility_matrix_tsv(a2_trivial)
        lines = text.splitlines()
        assert lines[0] == "variable\t0\t1\t2\t3\t4"
        assert lines[1] == "0\t-1\t0\t1\t0\t1"
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_unknown_variable_rejected(self, a2_trivial):
        with pytest.raises(KeyError):
            compatibility_degree(0, 99, a2_trivial)
        with pytest.raises(KeyError):
            compatibility_degree(99, 0, a2_trivial)


class TestMaximalSets:
    def test_maximal_sets_equal_clusters(
        self, a2_trivial, b2_trivial, g2_trivial, a3_trivial
    ):
        for atlas in (a2_trivial, b2_trivial, g2_trivial, a3_trivial):
            assert maximal_d_compatible_sets(atlas) == sorted(atlas.clusters)

    def test_rank_one_singletons(self):
        atlas = explore(root_seed(ExchangeMatrix([[0]]), "trivial"))
        assert compatibility_matrix(atlas) == [[-1, 1], [1, -1]]
        assert maximal_d_compatible_sets(atlas) == [(0,), (1,)]


class TestVerification:
    def test_degree_properties_pass(self, a2_trivial, b2_trivial, g2_trivial):
        for atlas in (a2_trivial, b2_trivial, g2_trivial):
            report = verify_degree_properties(atlas)
            assert report.passed
            assert report.suite == "degree-properties"
            names = [c.name for c in report.checks]
            assert names == [
                "choice-independence",
                "self-degree",
                "zero-iff-shared-cluster",
                "compatible-iff-shared-cluster",
                "positive-iff-no-shared-cluster",
            ]

    @pytest.mark.parametrize("rows", [A3_ROWS, B3_ROWS])
    def test_degree_sweep_reads_each_d_vector_once(self, monkeypatch, rows):
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        calls = []
        original = clusteralg.compat.d_vector

        def counted(v, cluster, atlas):
            calls.append((v, tuple(cluster)))
            return original(v, cluster, atlas)

        monkeypatch.setattr(clusteralg.compat, "d_vector", counted)
        assert verify_degree_properties(atlas).passed
        assert len(calls) == len(atlas.clusters) * len(atlas.variables)
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("rows, reads", [(A4_ROWS, 154), (D4_ROWS, 208)])
    def test_degree_matrix_reads_each_first_cluster_d_vector_once(
        self, monkeypatch, rows, reads
    ):
        # One read per (variable, distinct first cluster through a variable):
        # 14 x 11 on A4, 16 x 13 on D4.
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        count = len(atlas.variables)
        want = [
            [compatibility_degree(j, i, atlas) for i in range(count)]
            for j in range(count)
        ]
        calls = []
        original = clusteralg.compat.d_vector

        def counted(v, cluster, atlas):
            calls.append((v, tuple(cluster)))
            return original(v, cluster, atlas)

        monkeypatch.setattr(clusteralg.compat, "d_vector", counted)
        assert compatibility_matrix(atlas) == want
        assert len(calls) == len(set(calls)) == reads

    def test_report_lines(self, a2_trivial):
        lines = verify_degree_properties(a2_trivial).lines()
        assert lines[0] == "suite: degree-properties"
        assert "ordered-pairs: 25" in lines
        assert lines[-1] == "result: pass"

    def test_maximal_set_report(self, a2_trivial):
        report = verify_maximal_sets(a2_trivial)
        assert report.passed
        assert report.suite == "maximal-sets"
        assert ("maximal-sets", "5") in report.context
        assert ("clusters", "5") in report.context

    def test_incomplete_atlases_are_refused(self, capped_atlas):
        for fn in (
            compatibility_matrix,
            compatibility_matrix_tsv,
            maximal_d_compatible_sets,
            verify_degree_properties,
            verify_maximal_sets,
        ):
            with pytest.raises(IncompleteAtlasError):
                fn(capped_atlas)
