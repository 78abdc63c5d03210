"""Denominator vectors, compatibility degree, and compatible-set checks.

The d-vector of a variable with respect to a cluster is the negated
componentwise minimum of the x exponents over its Laurent expansion in
that cluster's coordinates.  The compatibility degree d(x, z) reads the
x coordinate of z's d-vector in any cluster containing x; the choice of
cluster does not matter, which is one of the verified properties rather
than an assumption, so the degree matrix reads the first containing
cluster in atlas order.  The degree-properties sweep compares every
choice: it reads each cluster's kept d-vector table once and records
each entry's coordinate at every variable of the cluster.

Two variables are d-compatible when the degree is <= 0.  Maximal
d-compatible sets are maximal cliques of that relation, enumerated
exactly; on every complete finite-type atlas they must coincide with the
stored clusters.
"""

from __future__ import annotations

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

    Row j reads the first cluster through j in atlas order, and each
    distinct first cluster's d-vector table is read once.
    """
    if not atlas.complete:
        raise IncompleteAtlasError("degree matrix needs a complete atlas")
    hosts = [atlas.clusters_containing(j)[0] for j in range(len(atlas.variables))]
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
    # Keyed j-major, so the first failing pair found below does not depend
    # on the order the loop fills the sets in.
    values: dict[tuple[int, int], set[int]] = {
        (j, i): set() for j in range(count) for i in range(count)
    }
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

    def first_failure(predicate) -> tuple[int, int] | None:
        for j in range(count):
            for i in range(count):
                if not predicate(j, i):
                    return (j, i)
        return None

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
        bad = first_failure(predicate)
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
