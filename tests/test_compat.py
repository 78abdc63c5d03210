"""Denominator vectors, compatibility degree, maximal compatible sets."""

from __future__ import annotations

import re

import pytest

import clusteralg.compat
from clusteralg import (
    ExchangeMatrix,
    ExploreCaps,
    IncompleteAtlasError,
    compatibility_matrix,
    compatibility_matrix_tsv,
    d_vector,
    explore,
    maximal_d_compatible_sets,
    root_seed,
    verify_degree_properties,
    verify_maximal_sets,
)
from clusteralg.atlas import PatternAtlas
from clusteralg.catalogue import matrix
from clusteralg.laurent import LaurentPoly
from clusteralg.reports import VerificationReport
from conftest import (
    A1_ROWS,
    A3_ROWS,
    A4_ROWS,
    B3_ROWS,
    C3_ROWS,
    D4_ROWS,
    D5_ROWS,
    KRONECKER_2_ROWS,
)


def compatibility_degree(xj, xi, atlas):
    """Reference for one ``compatibility_matrix`` entry: the coordinate of
    xj in the d-vector of xi over the first cluster through xj in atlas
    order."""
    atlas.require_variable(xi)
    hosts = atlas.clusters_containing(xj)
    if not hosts:
        raise IncompleteAtlasError(
            f"no stored cluster contains variable {xj}; atlas is incomplete"
        )
    c = hosts[0]
    return d_vector(xi, c, atlas)[c.index(xj)]

A2_DEGREE_MATRIX = [
    [-1, 0, 1, 0, 1],
    [0, -1, 0, 1, 1],
    [1, 0, -1, 1, 0],
    [0, 1, 1, -1, 0],
    [1, 1, 0, 0, -1],
]

C2_DEGREE_MATRIX = [
    [-1, 0, 1, 0, 2, 1],
    [0, -1, 0, 1, 1, 1],
    [1, 0, -1, 2, 0, 1],
    [0, 1, 1, -1, 1, 0],
    [1, 1, 0, 1, -1, 0],
    [1, 2, 1, 0, 0, -1],
]


def per_pair_degree_properties(atlas):
    """Reference for ``verify_degree_properties``: every ordered pair's
    degrees gathered into a set per pair, and each predicate tried pair by
    pair, j-major."""
    report = VerificationReport(suite="degree-properties")
    count = len(atlas.variables)
    report.add_context("atlas", atlas.summary())
    values = {(j, i): set() for j in range(count) for i in range(count)}
    for c in atlas.clusters:
        for i, d in enumerate(atlas.d_vectors(c)):
            for j, degree_ji in zip(c, d):
                values[(j, i)].add(degree_ji)
    bad = next(((j, i) for (j, i), v in values.items() if len(v) > 1), None)
    report.add_check(
        "choice-independence",
        bad is None,
        "" if bad is None else f"pair {bad} gives degrees {sorted(values[bad])}",
    )
    degree = {pair: min(vals) for pair, vals in values.items()}
    shared = [set().union(*atlas.clusters_containing(j)) for j in range(count)]
    cases = [
        (
            "self-degree",
            lambda j, i: (degree[(j, i)] == -1) == (j == i)
            and (degree[(j, i)] == -1) == (degree[(i, j)] == -1),
        ),
        (
            "zero-iff-shared-cluster",
            lambda j, i: (degree[(j, i)] == 0) == (j != i and i in shared[j])
            and (degree[(j, i)] == 0) == (degree[(i, j)] == 0),
        ),
        (
            "compatible-iff-shared-cluster",
            lambda j, i: (degree[(j, i)] <= 0) == (i in shared[j]),
        ),
        (
            "positive-iff-no-shared-cluster",
            lambda j, i: (degree[(j, i)] > 0) == (i not in shared[j])
            and (degree[(j, i)] > 0) == (degree[(i, j)] > 0),
        ),
    ]
    for name, predicate in cases:
        pairs = ((j, i) for j in range(count) for i in range(count))
        bad = next((p for p in pairs if not predicate(*p)), None)
        detail = ""
        if bad is not None:
            j, i = bad
            detail = (
                f"pair ({j}, {i}): degree {degree[(j, i)]}, reverse "
                f"{degree[(i, j)]}, shared cluster {i in shared[j]}"
            )
        report.add_check(name, bad is None, detail)
    report.add_context("ordered-pairs", str(count * count))
    report.resolve_status()
    return report


def bend_degrees(monkeypatch, atlas, case):
    """Patch ``d_vectors`` to serve tables with a seeded fault: degrees of
    pairs (j, i) set in every cluster through j, or for "disagree" lowered
    by 2 in the second cluster through j only.  j is the last variable or,
    where a zero moves off a neighbour in the first variable's row or
    column, keeping their count, the first; near and apart are that
    variable's first neighbour (a shared cluster) and first variable it
    shares none with."""
    count = len(atlas.variables)
    last = count - 1
    first = 0 if case.startswith("zero-moved") else last
    shared = set().union(*atlas.clusters_containing(first))
    near = min(shared - {first})
    apart = min(set(range(count)) - shared)
    bends = {
        "disagree": {(last, apart): None},
        "self": {(last, last): -2},
        "self-reverse": {(last, near): -1},
        "zero": {(last, near): -3},
        "zero-moved-row": {(first, near): 1, (first, apart): 0},
        "zero-moved-column": {(near, first): 1, (apart, first): 0},
        "compatible": {(last, apart): -3},
        "positive": {(last, apart): 0},
    }[case]
    second = atlas.clusters_containing(last)[1]
    original = PatternAtlas.d_vectors

    def bent(atlas, cluster):
        c = tuple(sorted(cluster))
        table = [list(d) for d in original(atlas, c)]
        for (j, i), value in bends.items():
            if j in c and (value is not None or c == second):
                p = c.index(j)
                table[i][p] = table[i][p] - 2 if value is None else value
        return tuple(map(tuple, table))

    monkeypatch.setattr(PatternAtlas, "d_vectors", bent)


@pytest.fixture()
def capped_atlas():
    root = root_seed(ExchangeMatrix(KRONECKER_2_ROWS), "trivial")
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
        matrix = compatibility_matrix(a2_trivial)
        assert d_vector(0, (3, 4), a2_trivial) == (matrix[3][0], matrix[4][0])
        assert matrix[3][0] != matrix[4][0]

    @pytest.mark.parametrize(
        "rows, coefficients",
        [
            (A1_ROWS, "trivial"),
            (A4_ROWS, "trivial"),
            (B3_ROWS, "trivial"),
            (C3_ROWS, "trivial"),
            (D4_ROWS, "trivial"),
            (D5_ROWS, "trivial"),
            (D4_ROWS, "principal"),
        ],
    )
    @pytest.mark.parametrize("expanded_first", [False, True])
    def test_tables_match_the_expansions(
        self, monkeypatch, rows, coefficients, expanded_first
    ):
        # Every entry of every cluster's table is the negated minimal x
        # exponents of the expansion there, read on an atlas that shares no
        # table.  Tables read in discovery order, as the degree sweep does,
        # are permuted along the maps kept so far; after every cluster is
        # expanded all maps are kept, and A1's one map is carried too.
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients))
        reference = explore(root_seed(ExchangeMatrix(rows), coefficients))
        if expanded_first:
            for c in atlas.clusters:
                atlas.expand(0, c)
        count = len(atlas.variables)
        want = {
            c: tuple(
                tuple(-e for e in reference.expand(v, c).x_min_exponents())
                for v in range(count)
            )
            for c in atlas.clusters
        }
        read = []
        x_min_exponents = LaurentPoly.x_min_exponents

        def counted(p):
            read.append(p)
            return x_min_exponents(p)

        monkeypatch.setattr(LaurentPoly, "x_min_exponents", counted)
        for c in atlas.clusters:
            assert atlas.d_vectors(c) == want[c], c
        # Under principal coefficients no map is kept, so every table is
        # read from expansions.  Otherwise some are permuted; A1 keeps its
        # one map only once its second cluster is expanded.
        tabled = len(read) // count
        if coefficients == "principal":
            assert tabled == len(atlas.clusters)
        elif expanded_first or atlas.n > 1:
            assert tabled < len(atlas.clusters)


class TestCompatibilityDegree:
    def test_pentagon_matrix(self, a2_trivial):
        assert compatibility_matrix(a2_trivial) == A2_DEGREE_MATRIX

    def test_asymmetric_degrees_in_the_folded_pattern(self, c2_trivial):
        matrix = compatibility_matrix(c2_trivial)
        assert matrix == C2_DEGREE_MATRIX
        assert matrix[0][4] == 2 and matrix[4][0] == 1

    def test_choice_of_containing_cluster_is_immaterial(self, a2_trivial, c2_trivial):
        for atlas in (a2_trivial, c2_trivial):
            matrix = compatibility_matrix(atlas)
            for j, row in enumerate(matrix):
                for i, degree in enumerate(row):
                    for c in atlas.clusters_containing(j):
                        assert d_vector(i, c, atlas)[c.index(j)] == degree

    def test_compatibility_predicate(self, a2_trivial):
        matrix = compatibility_matrix(a2_trivial)
        assert matrix[0][1] <= 0
        assert matrix[0][0] <= 0
        assert matrix[0][2] > 0
        assert matrix[2][0] > 0

    def test_tsv_format(self, a2_trivial):
        text = compatibility_matrix_tsv(a2_trivial)
        lines = text.splitlines()
        assert lines[0] == "variable\t0\t1\t2\t3\t4"
        assert lines[1] == "0\t-1\t0\t1\t0\t1"
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_unknown_variable_rejected(self, a2_trivial):
        with pytest.raises(KeyError):
            d_vector(99, (0, 1), a2_trivial)
        with pytest.raises(KeyError):
            d_vector(0, (0, 99), a2_trivial)
        # The variable is checked before the cluster.
        with pytest.raises(KeyError, match="variable id 99 is not in the atlas"):
            d_vector(99, (0, 99), a2_trivial)
        with pytest.raises(KeyError, match=re.escape("cluster {0,99} is not in")):
            d_vector(0, (99, 0), a2_trivial)


class TestMaximalSets:
    def test_maximal_sets_equal_clusters(
        self, a2_trivial, c2_trivial, g2_trivial, a3_trivial
    ):
        for atlas in (a2_trivial, c2_trivial, g2_trivial, a3_trivial):
            assert maximal_d_compatible_sets(atlas) == sorted(atlas.clusters)

    def test_rank_one_singletons(self):
        atlas = explore(root_seed(ExchangeMatrix(A1_ROWS), "trivial"))
        assert compatibility_matrix(atlas) == [[-1, 1], [1, -1]]
        assert maximal_d_compatible_sets(atlas) == [(0,), (1,)]


class TestVerification:
    def test_degree_properties_pass(self, a2_trivial, c2_trivial, g2_trivial):
        for atlas in (a2_trivial, c2_trivial, g2_trivial):
            report = verify_degree_properties(atlas)
            assert report.resolve_status() == "pass"
            assert report.suite == "degree-properties"
            names = [c.name for c in report.checks]
            assert names == [
                "choice-independence",
                "self-degree",
                "zero-iff-shared-cluster",
                "compatible-iff-shared-cluster",
                "positive-iff-no-shared-cluster",
            ]

    @pytest.mark.parametrize("rows, exchanged", [(A3_ROWS, 3), (B3_ROWS, 3)])
    def test_degree_sweep_reads_one_table_per_cluster(
        self, monkeypatch, rows, exchanged
    ):
        # Each cluster's table is read once.  Only hosts that neither a kept
        # map nor a twin serves exchange, and only their tables are built
        # from expansions and kept: 3 of 14 clusters on A3, 3 of 20 on B3.
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        reads, hosts = [], []
        d_vectors, exchange = PatternAtlas.d_vectors, PatternAtlas._exchange

        def counted_read(atlas, cluster):
            reads.append(tuple(cluster))
            return d_vectors(atlas, cluster)

        def counted_exchange(atlas, cluster):
            hosts.append(cluster)
            return exchange(atlas, cluster)

        monkeypatch.setattr(PatternAtlas, "d_vectors", counted_read)
        monkeypatch.setattr(PatternAtlas, "_exchange", counted_exchange)
        assert verify_degree_properties(atlas).resolve_status() == "pass"
        assert reads == atlas.clusters
        assert len(hosts) == len(set(hosts)) == exchanged
        assert set(hosts) == set(atlas._d_vectors)

    @pytest.mark.parametrize(
        "family, n, tables", [("A", 4, 4), ("D", 4, 4), ("D", 5, 15), ("E", 6, 36)]
    )
    def test_degree_sweep_keeps_tables_of_exchanged_clusters_alone(
        self, family, n, tables
    ):
        # Every cluster is read, and each served one's table is permuted from
        # its image's on the read, so the tables kept are the exchanged
        # clusters' (42, 50, 182 and 833 when served ones kept theirs too).
        atlas = explore(root_seed(ExchangeMatrix(matrix(family, n)), "trivial"))
        assert verify_degree_properties(atlas).resolve_status() == "pass"
        assert set(atlas._readings) == set(atlas.clusters)
        exchanged = {c for c, reading in atlas._readings.items() if reading[2] == c}
        assert set(atlas._d_vectors) == exchanged
        assert len(exchanged) == tables

    def test_a_changed_last_entry_breaks_choice_independence(self, monkeypatch):
        # At a later cluster through variable 0, the last variable's d-vector
        # gets 1 more at 0's coordinate, so 0's degree rows there and at its
        # first cluster differ in their last entry alone.
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        c = atlas.clusters[3]
        assert 0 in c and atlas.clusters_containing(0).index(c) > 0
        d_vectors = PatternAtlas.d_vectors

        def shifted(atlas, cluster):
            table = d_vectors(atlas, cluster)
            if tuple(sorted(cluster)) != c:
                return table
            last = list(table[-1])
            last[c.index(0)] += 1
            return table[:-1] + (tuple(last),)

        monkeypatch.setattr(PatternAtlas, "d_vectors", shifted)
        report = verify_degree_properties(atlas)
        assert report.resolve_status() == "fail"
        assert report.checks[0].name == "choice-independence"
        assert report.checks[0].detail == "pair (0, 8) gives degrees [1, 2]"

    @pytest.mark.parametrize("rows, reads", [(A4_ROWS, 5), (D4_ROWS, 4)])
    def test_degree_matrix_reads_each_cover_table_once(
        self, monkeypatch, rows, reads
    ):
        # One table read per cluster of the greedy cover: 5 clusters host
        # A4's 14 variables, 4 host D4's 16.  The entries still equal the
        # reference's, read at each variable's first cluster.
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        count = len(atlas.variables)
        want = [
            [compatibility_degree(j, i, atlas) for i in range(count)]
            for j in range(count)
        ]
        calls = []
        original = PatternAtlas.d_vectors

        def counted(atlas, cluster):
            calls.append(tuple(cluster))
            return original(atlas, cluster)

        monkeypatch.setattr(PatternAtlas, "d_vectors", counted)
        assert compatibility_matrix(atlas) == want
        assert len(calls) == len(set(calls)) == reads

    @pytest.mark.parametrize("coefficients", ["trivial", "principal"])
    @pytest.mark.parametrize(
        "rows",
        [A3_ROWS, A4_ROWS, B3_ROWS, C3_ROWS, D4_ROWS, D5_ROWS],
        ids=["A3", "A4", "B3", "C3", "D4", "D5"],
    )
    def test_degree_matrix_rows_come_from_tables_holding_them(
        self, monkeypatch, rows, coefficients
    ):
        # Each row is read whole from one table, at a cluster holding the
        # row's variable, and every table read serves a row.
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients))
        count = len(atlas.variables)
        want = [
            [compatibility_degree(j, i, atlas) for i in range(count)]
            for j in range(count)
        ]
        assert compatibility_matrix(atlas) == want
        reads = []

        def tagged(atlas, cluster):
            # Entry i's coordinate at position p names the cluster and c[p].
            c = tuple(cluster)
            reads.append(c)
            return tuple(tuple((c, u) for u in c) for _ in range(count))

        monkeypatch.setattr(PatternAtlas, "d_vectors", tagged)
        served = {}
        for j, row in enumerate(compatibility_matrix(atlas)):
            ((c, u),) = set(row)
            assert u == j and c in atlas.cluster_to_seed
            served.setdefault(c, []).append(j)
        assert len(reads) == len(set(reads)) == len(served)
        assert set(reads) == set(served)

    @pytest.mark.parametrize(
        "rows", [A3_ROWS, A4_ROWS, B3_ROWS, C3_ROWS, D4_ROWS, D5_ROWS]
    )
    def test_row_sweep_matches_the_per_pair_sweep(self, rows):
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        got = verify_degree_properties(atlas)
        assert got == per_pair_degree_properties(atlas)
        assert got.resolve_status() == "pass"

    @pytest.mark.parametrize(
        "case",
        [
            "disagree",
            "self",
            "self-reverse",
            "zero",
            "zero-moved-row",
            "zero-moved-column",
            "compatible",
            "positive",
        ],
    )
    @pytest.mark.parametrize("rows", [A4_ROWS, D4_ROWS])
    def test_failure_reports_match_the_per_pair_sweep(self, monkeypatch, rows, case):
        # Each seeded fault fails its own check; the row sweep must name the
        # same first failing pair, with the same degrees, as the pair sweep.
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        bend_degrees(monkeypatch, atlas, case)
        got = verify_degree_properties(atlas)
        assert got == per_pair_degree_properties(atlas)
        failed = {c.name for c in got.checks if not c.passed}
        assert {
            "disagree": "choice-independence",
            "self": "self-degree",
            "self-reverse": "self-degree",
            "zero": "zero-iff-shared-cluster",
            "zero-moved-row": "zero-iff-shared-cluster",
            "zero-moved-column": "zero-iff-shared-cluster",
            "compatible": "compatible-iff-shared-cluster",
            "positive": "positive-iff-no-shared-cluster",
        }[case] in failed
        assert all(c.detail for c in got.checks if not c.passed)

    def test_report_lines(self, a2_trivial):
        lines = verify_degree_properties(a2_trivial).lines()
        assert lines[0] == "suite: degree-properties"
        assert "ordered-pairs: 25" in lines
        assert lines[-1] == "result: pass"

    def test_maximal_set_report(self, a2_trivial):
        report = verify_maximal_sets(a2_trivial)
        assert report.resolve_status() == "pass"
        assert report.suite == "maximal-sets"
        assert ("maximal-sets", "5") in report.context
        assert ("clusters", "5") in report.context

    def test_maximal_set_failure_prints_clusters_as_sets(self, a2_trivial, monkeypatch):
        # The pentagon's last cluster in ascending order, {3,4}, swapped for
        # a set that is not a cluster.
        cliques = sorted(a2_trivial.clusters)[:-1] + [(0, 2)]
        monkeypatch.setattr(
            clusteralg.compat, "maximal_d_compatible_sets", lambda atlas: sorted(cliques)
        )
        report = verify_maximal_sets(a2_trivial)
        assert report.resolve_status() == "fail"
        assert report.checks[0].detail == (
            "maximal set {0,2} is not a cluster; cluster {3,4} is not a maximal set"
        )

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
