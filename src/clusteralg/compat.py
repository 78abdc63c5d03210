"""Denominator vectors, compatibility degree, and compatible-set checks.

The d-vector of a variable with respect to a cluster is the negated
componentwise minimum of the x exponents over its Laurent expansion in
that cluster's coordinates.  The compatibility degree d(x, z) reads the
x coordinate of z's d-vector in any cluster containing x; the choice of
cluster does not matter, which is one of the verified properties rather
than an assumption, so the degree matrix reads its rows off a greedy
cover of the variables by stored clusters, one table per covering cluster,
and few tables are expanded, served or permuted.  The degree-properties
sweep compares every choice a row at a time: it reads each cluster's kept
d-vector table once, as one degree row per variable of the cluster (that
variable's coordinate in every entry), and a variable's rows from all its
clusters must be equal.  Each property is then checked a row at a time,
against the row, its column and the variables sharing a cluster with it,
and pairs are scanned only in the first row that fails, for the report.

Two variables are d-compatible when the degree is <= 0.  Maximal
d-compatible sets are maximal cliques of that relation, enumerated
exactly; on every complete finite-type atlas they must coincide with the
stored clusters.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from .atlas import IncompleteAtlasError, PatternAtlas, format_cluster
from .reports import VerificationReport

DVector = tuple[int, ...]


def d_vector(v: int, cluster: Iterable[int], atlas: PatternAtlas) -> DVector:
    """Negated minimal x exponents of v's expansion in the cluster,
    ordered by ascending variable id: v's entry of the cluster's table."""
    atlas.require_variable(v)
    return atlas.d_vectors(cluster)[v]


def compatibility_matrix(atlas: PatternAtlas) -> list[list[int]]:
    """Full degree matrix; entry [j][i] is the degree of (var j, var i).

    Row j reads its host's d-vector table, each host's once.  The hosts
    cover the variables greedily: each variable in id order with no host
    yet takes the first cluster through it, in discovery order, that holds
    the most variables with no host, and that cluster hosts all of them.
    Any cluster through j gives row j, since the degree does not depend on
    the cluster read; degree-properties checks that over every cluster.
    """
    if not atlas.complete:
        raise IncompleteAtlasError("degree matrix needs a complete atlas")
    count = len(atlas.variables)
    hosts: list = [None] * count
    for j in range(count):
        if hosts[j] is None:
            c = max(
                atlas.clusters_containing(j),
                key=lambda through: sum(hosts[u] is None for u in through),
            )
            for u in c:
                if hosts[u] is None:
                    hosts[u] = c
    tables = {c: atlas.d_vectors(c) for c in dict.fromkeys(hosts)}
    return [[d[c.index(j)] for d in tables[c]] for j, c in enumerate(hosts)]


def compatibility_matrix_tsv(atlas: PatternAtlas) -> str:
    matrix = compatibility_matrix(atlas)
    count = len(matrix)
    header = "variable\t" + "\t".join(str(i) for i in range(count))
    lines = [header]
    for j in range(count):
        lines.append(str(j) + "\t" + "\t".join(str(v) for v in matrix[j]))
    return "\n".join(lines) + "\n"


def maximal_d_compatible_sets(atlas: PatternAtlas) -> list[tuple[int, ...]]:
    """All maximal cliques of the d-compatibility relation, sorted."""
    if not atlas.complete:
        raise IncompleteAtlasError(
            "maximal compatible sets need a complete atlas"
        )
    count = len(atlas.variables)
    matrix = compatibility_matrix(atlas)
    neighbors = {
        v: frozenset(
            u
            for u in range(count)
            if u != v and matrix[v][u] <= 0 and matrix[u][v] <= 0
        )
        for v in range(count)
    }
    results: list[tuple[int, ...]] = []

    def expand_clique(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            results.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & neighbors[u]))
        for v in sorted(p - neighbors[pivot]):
            expand_clique(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    expand_clique(set(), set(range(count)), set())
    return sorted(results)


def verify_degree_properties(atlas: PatternAtlas) -> VerificationReport:
    """Exhaustive check of the degree function's defining properties over
    all ordered variable pairs and all containing-cluster choices."""
    if not atlas.complete:
        raise IncompleteAtlasError("degree properties need a complete atlas")
    report = VerificationReport(suite="degree-properties")
    count = len(atlas.variables)
    report.add_context("atlas", atlas.summary())
    # Variable j's degree row at cluster c is the coordinate of j in every
    # entry of c's table: entry [i] is the degree of (j, i).
    rows: list = [None] * count
    spread: dict[int, list[tuple[int, ...]]] = {}  # j -> rows, when they differ
    for c in atlas.clusters:
        for j, row in zip(c, zip(*atlas.d_vectors(c))):
            if rows[j] is None:
                rows[j] = row
            elif row != rows[j]:
                spread.setdefault(j, [rows[j]]).append(row)
    detail = ""
    for j in sorted(spread):
        values = [set(column) for column in zip(*spread[j])]
        if not detail:  # the first pair, j-major, with two degrees
            i = next(i for i, v in enumerate(values) if len(v) > 1)
            detail = f"pair {(j, i)} gives degrees {sorted(values[i])}"
        rows[j] = tuple(map(min, values))
    report.add_check("choice-independence", not spread, detail)
    columns = list(zip(*rows))
    shared = [set().union(*atlas.clusters_containing(j)) for j in range(count)]
    everyone = range(count)
    # Each property: the degrees it marks, the variables row j must mark,
    # and whether column j must mark them too.  The wanted relation is
    # symmetric in j and i, so a row's first failing pair is the first i
    # where row j or column j differs from it.
    cases = [
        ("self-degree", (-1).__eq__, lambda j: {j}, True),
        ("zero-iff-shared-cluster", (0).__eq__, lambda j: shared[j] - {j}, True),
        ("compatible-iff-shared-cluster", (0).__ge__, shared.__getitem__, False),
        (
            "positive-iff-no-shared-cluster",
            (0).__lt__,
            lambda j: set(everyone).difference(shared[j]),
            True,
        ),
    ]
    for name, marks, wanted, with_column in cases:
        lines = (rows, columns) if with_column else (rows,)
        detail = ""
        for j in everyone:
            want = wanted(j)
            if any(
                set(compress(everyone, map(marks, line[j]))) != want for line in lines
            ):
                i = next(
                    i for i in everyone
                    if any(marks(line[j][i]) != (i in want) for line in lines)
                )
                detail = (
                    f"pair ({j}, {i}): degree {rows[j][i]}, reverse "
                    f"{rows[i][j]}, shared cluster {i in shared[j]}"
                )
                break
        report.add_check(name, not detail, detail)
    report.add_context("ordered-pairs", str(count * count))
    report.resolve_status()
    return report


def verify_maximal_sets(atlas: PatternAtlas) -> VerificationReport:
    """Maximal d-compatible sets must coincide with the stored clusters."""
    if not atlas.complete:
        raise IncompleteAtlasError("maximal-set comparison needs a complete atlas")
    report = VerificationReport(suite="maximal-sets")
    cliques = maximal_d_compatible_sets(atlas)
    clusters = sorted(atlas.clusters)
    report.add_context("maximal-sets", str(len(cliques)))
    report.add_context("clusters", str(len(clusters)))
    if cliques == clusters:
        report.add_check("sets-equal-clusters", True)
    else:
        extra = next((c for c in cliques if c not in clusters), None)
        missing = next((c for c in clusters if c not in cliques), None)
        detail = []
        if extra is not None:
            detail.append(f"maximal set {format_cluster(extra)} is not a cluster")
        if missing is not None:
            detail.append(f"cluster {format_cluster(missing)} is not a maximal set")
        report.add_check("sets-equal-clusters", False, "; ".join(detail))
    report.resolve_status()
    return report
