"""Witness monomials, incompatibility certificates, and cross-atlas
verification that the variable set determines the cluster structure.

A witness monomial for an ordered pair (xk, xi) is a term in the Laurent
expansion of xi with respect to some cluster containing xk whose
exponents away from xk's position are all nonnegative.  Its xk exponent
obeys a trichotomy: positive only when xi = xk, zero only when xi sits
in that cluster, and strictly negative whenever xi lies outside it.
Search order is canonical (atlas cluster order, then canonical term
order), so the returned witness is reproducible.

Canonical term order has the x part as the key's prefix, so the witness at
a cluster is its largest admissible x part in the cluster's own
coordinates, and its coefficient is every term with that x part: one scan
of xi's expansion finds it, with nothing sorted, grouped or copied.  A
cluster whose expansions the atlas keeps is read as it is.  One that a kept
cluster automorphism sigma serves (see ``atlas``) is read through the map:
the scan runs over sigma(xi)'s expansion at the image cluster, tests
admissibility at the image position of sigma(xk), and compares x parts
read into the cluster's coordinates by the pick ``expand`` relabels with.
The sweep reads each cluster once and checks only the sign of each pair's
reference exponent; ``laurent_witness`` searches the first failing pair
again, and its error is the failure reported.

The incompatibility certificate turns a positive compatibility degree
into an exact numeric contradiction: erase coefficients with the ring
homomorphism phi, evaluate the witness at xk = 1/2 and every other
cluster variable at 1, and the quantity 1 - phi(c) * 2^v with v >= 1 is
strictly negative, while the corresponding right-hand side of the
exchange identity it would have to equal is a specialization of a
positive Laurent combination, hence >= 0.  Any cluster through both
variables in a pattern with the same variable set is thereby ruled out.

Cross-atlas verification identifies variables the way an atlas interns
them, by equal Laurent expansions.  An anchor is a stored seed of the first
atlas, possibly with positions permuted, whose matrix matches the second
root's; the first atlas's expansions at the anchor, read in its positions,
must be the second atlas's expansions at its root, one for one.  On success
the cluster sets, labeled exchange graphs, and full d-compatibility matrices
are compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Sequence

from .atlas import (
    Cluster,
    ExchangeGraph,
    IncompleteAtlasError,
    PatternAtlas,
    format_cluster,
    graph_difference,
)
from .compat import compatibility_matrix
from .laurent import Exponents, LaurentPoly
from .reports import VerificationReport
from .seed import matching_permutations


class WitnessNotFoundError(RuntimeError):
    """No admissible term exists; on a complete atlas this is a
    verification failure, not a search miss."""


class TrichotomyViolationError(RuntimeError):
    """A witness term's xk exponent contradicts the required case split."""


class PreconditionViolatedError(ValueError):
    """Certificate requested for a pair that does share a cluster."""


def phi(p: LaurentPoly) -> LaurentPoly:
    """Coefficient-erasing ring homomorphism: every tropical monomial
    maps to 1, so each coefficient collapses to the sum of its integer
    coefficients; the result has trivial coefficients."""
    out: dict[Exponents, int] = {}
    for key, c in p.terms.items():
        x = key[: p.n]
        out[x] = out.get(x, 0) + c
    return LaurentPoly(p.n, 0, out)


@dataclass(frozen=True)
class WitnessMonomial:
    """An admissible expansion term: all exponents off the reference
    position are nonnegative."""

    cluster: Cluster
    k_position: int
    exponents: Exponents
    coefficient: LaurentPoly  # n = 0: the coefficient ring

    def __post_init__(self) -> None:
        if any(
            e < 0 for i, e in enumerate(self.exponents) if i != self.k_position
        ):
            raise ValueError("witness exponents off the reference must be >= 0")

    @property
    def k_exponent(self) -> int:
        return self.exponents[self.k_position]

    def describe(self) -> list[str]:
        return [
            f"cluster: {format_cluster(self.cluster)}",
            f"reference-position: {self.k_position}",
            f"exponents: {' '.join(str(e) for e in self.exponents)}",
            f"coefficient: {self.coefficient}",
            f"reference-exponent: {self.k_exponent}",
        ]


def laurent_witness(xk: int, xi: int, atlas: PatternAtlas) -> WitnessMonomial:
    """First admissible term over clusters containing xk, in canonical
    search order, with the exponent trichotomy validated.

    The witness at a cluster is its largest admissible x part in the
    cluster's own coordinates, with every term of that x part as its
    coefficient.  A cluster a kept automorphism serves is read through that
    map, with no relabeled copy; see the module docstring.
    """
    if not atlas.complete:
        raise IncompleteAtlasError("witness search needs a complete atlas")
    atlas.require_variable(xk)
    atlas.require_variable(xi)
    found = _witness_term(xk, xi, atlas, atlas._expansions_at)
    if found is None:
        raise WitnessNotFoundError(
            f"no admissible witness term for pair ({xk}, {xi}); on a complete "
            f"atlas this is a verification failure"
        )
    c, kpos, x_exps, coef = found
    error = _trichotomy_error(xk, xi, c, kpos, x_exps)
    if error:
        raise TrichotomyViolationError(error)
    return WitnessMonomial(c, kpos, x_exps, LaurentPoly(0, atlas.m, coef))


def _witness_term(
    xk: int, xi: int, atlas: PatternAtlas, read: Callable
) -> tuple[Cluster, int, Exponents, dict[Exponents, int]] | None:
    """(cluster, xk's position, x part, coefficient terms) of the first
    admissible term of xi over the clusters through xk, else None; ``read``
    is ``PatternAtlas._expansions_at`` or a memo of it."""
    n = atlas.n
    for c in atlas.clusters_containing(xk):
        kpos = c.index(xk)
        known, served = read(c)
        if served is None:
            p, at, pick = known[xi], kpos, None
        else:
            sigma, image, pick = served
            p, at = known[sigma[xi]], image.index(sigma[xk])
        best: Exponents | None = None
        coef: dict[Exponents, int] = {}
        for key, a in p.terms.items():
            off = list(key[:n])
            off[at] = 0  # only the exponents off the reference must be >= 0
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


def _trichotomy_error(
    xk: int, xi: int, c: Cluster, kpos: int, x_exps: Exponents
) -> str:
    """Why a witness at cluster c with x part x_exps, xk at position kpos,
    breaks the trichotomy for pair (xk, xi), or "" when it does not."""
    # The sign of the xk exponent: +1 for xi = xk, 0 for another variable
    # of the cluster, -1 for a variable outside it.
    if xi == xk:
        want, sign = 1, "positive"
    elif xi in c:
        want, sign = 0, "zero"
    else:
        want, sign = -1, "negative"
    e = x_exps[kpos]
    if (e > 0) - (e < 0) == want:
        return ""
    return (
        f"pair ({xk}, {xi}) in cluster {format_cluster(c)}: "
        f"the reference exponent is {e}, but it must be {sign}"
    )


def witness_sweep(atlas: PatternAtlas) -> VerificationReport:
    """The witness of every ordered variable pair must exist with a valid
    trichotomy; the module docstring says how clusters are read."""
    if not atlas.complete:
        raise IncompleteAtlasError("witness sweep needs a complete atlas")
    report = VerificationReport(suite="witnesses")
    count = len(atlas.variables)
    report.add_context("atlas", atlas.summary())
    read = cache(atlas._expansions_at)
    failure = ""
    checked = 0
    for xk, xi in product(range(count), repeat=2):
        found = _witness_term(xk, xi, atlas, read)
        if found is None or _trichotomy_error(xk, xi, *found[:3]):
            try:
                laurent_witness(xk, xi, atlas)
            except (WitnessNotFoundError, TrichotomyViolationError) as exc:
                failure = f"pair ({xk}, {xi}): {exc}"
                break
        checked += 1
    report.add_context("pairs-checked", str(checked))
    report.add_check("witness-for-all-pairs", not failure, failure)
    report.resolve_status()
    return report


@dataclass(frozen=True)
class IncompatibilityCertificate:
    """Exact numeric contradiction ruling out a shared cluster.

    ``lhs_value`` equals 1 - phi_coefficient * 2**denominator_exponent,
    computed by specializing the phi image of the witness monomial at
    reference = 1/2, all else 1; it is strictly negative.  The right
    side it would need to equal is a specialization of an expansion with
    positive coefficients, hence >= 0.
    """

    reference: int
    target: int
    witness: WitnessMonomial
    phi_coefficient: int
    denominator_exponent: int
    lhs_value: Fraction
    rhs_lower_bound: int = 0

    @property
    def host(self) -> tuple[int, int]:
        """The pair certified never to share a cluster, ascending."""
        return tuple(sorted((self.reference, self.target)))

    def lines(self) -> list[str]:
        return [
            f"reference: {self.reference}",
            f"target: {self.target}",
            f"host: {format_cluster(self.host)}",
            f"witness-cluster: {format_cluster(self.witness.cluster)}",
            f"witness-exponents: {' '.join(str(e) for e in self.witness.exponents)}",
            f"phi-coefficient: {self.phi_coefficient}",
            f"denominator-exponent: {self.denominator_exponent}",
            f"lhs-value: {self.lhs_value}",
            f"rhs-lower-bound: {self.rhs_lower_bound}",
        ]


def incompatibility_certificate(
    x: int, z: int, atlas: PatternAtlas
) -> IncompatibilityCertificate:
    """Certificate that no cluster over the same variable set can contain
    both x and z, given that none does in this atlas."""
    if not atlas.complete:
        raise IncompleteAtlasError("certificates need a complete atlas")
    atlas.require_variable(x)
    atlas.require_variable(z)
    if any(z in c for c in atlas.clusters_containing(x)):
        raise PreconditionViolatedError(
            f"variables {x} and {z} share a cluster; nothing to certify"
        )
    witness = laurent_witness(x, z, atlas)
    mono = LaurentPoly(
        atlas.n,
        atlas.m,
        {witness.exponents + y: a for y, a in witness.coefficient.terms.items()},
    )
    erased = phi(mono)
    values = [Fraction(1)] * atlas.n
    values[witness.k_position] = Fraction(1, 2)
    lhs = 1 - erased.specialize(values)
    c_int = sum(witness.coefficient.terms.values())
    v_exp = -witness.k_exponent
    if lhs != 1 - c_int * Fraction(2) ** v_exp or lhs >= 0 or v_exp < 1:
        raise RuntimeError(
            f"certificate arithmetic inconsistent for pair ({x}, {z}): "
            f"lhs={lhs}, coefficient={c_int}, exponent={v_exp}"
        )
    return IncompatibilityCertificate(
        reference=x,
        target=z,
        witness=witness,
        phi_coefficient=c_int,
        denominator_exponent=v_exp,
        lhs_value=lhs,
    )


def incompatible_pairs(atlas: PatternAtlas) -> list[tuple[int, int]]:
    """Ordered pairs of distinct variables sharing no cluster."""
    if not atlas.complete:
        raise IncompleteAtlasError("pair enumeration needs a complete atlas")
    count = len(atlas.variables)
    shared = [set().union(*atlas.clusters_containing(x)) for x in range(count)]
    return [(x, z) for x in range(count) for z in range(count) if z not in shared[x]]


def certify_incompatible_pairs(
    atlas: PatternAtlas,
) -> list[IncompatibilityCertificate]:
    return [
        incompatibility_certificate(x, z, atlas)
        for x, z in incompatible_pairs(atlas)
    ]


def verify_unistructural(a1: PatternAtlas, a2: PatternAtlas) -> VerificationReport:
    """Drive the full comparison: identify a2's variables inside a1, then
    require equal cluster sets, equal labeled exchange graphs, and equal
    d-compatibility matrices.

    Implemented for trivial coefficients, where seeds carry no
    coefficient data and variable identity is pure Laurent structure.
    """
    if not a1.complete or not a2.complete:
        raise IncompleteAtlasError("cross-atlas verification needs complete atlases")
    if a1.m != 0 or a2.m != 0:
        raise ValueError(
            "cross-atlas verification is implemented for trivial coefficients"
        )
    report = VerificationReport(suite="unistructural")
    report.add_context("first", a1.summary())
    report.add_context("second", a2.summary())
    if a1.n != a2.n:
        report.add_check(
            "identification", False, f"ranks differ: {a1.n} vs {a2.n}"
        )
        report.status = "error"
        return report
    mapping = _find_identification(a1, a2, report)
    if mapping is None:
        report.status = "error"
        return report

    mapped_clusters = {
        tuple(sorted(mapping[v] for v in c)) for c in a2.clusters
    }
    same_clusters = mapped_clusters == set(a1.clusters)
    detail = ""
    if not same_clusters:
        extra = sorted(mapped_clusters - set(a1.clusters))
        missing = sorted(set(a1.clusters) - mapped_clusters)
        parts = []
        if extra:
            parts.append(f"second-only cluster {format_cluster(extra[0])}")
        if missing:
            parts.append(f"first-only cluster {format_cluster(missing[0])}")
        detail = "; ".join(parts)
    report.add_check("cluster-sets-equal", same_clusters, detail)

    # Both graphs are read off the mutation edges, not the clusters, so they
    # can differ when the cluster sets agree.
    difference = graph_difference(
        _edge_graph(a1, range(len(a1.variables))), _edge_graph(a2, mapping)
    )
    report.add_check("exchange-graphs-equal", not difference, difference)

    matrix1 = compatibility_matrix(a1)
    matrix2 = compatibility_matrix(a2)
    count = len(a2.variables)
    translated = [[0] * len(matrix1) for _ in range(len(matrix1))]
    for j in range(count):
        for i in range(count):
            translated[mapping[j]][mapping[i]] = matrix2[j][i]
    matrices_equal = translated == matrix1
    report.add_context("compat-matrix-first", json.dumps(matrix1))
    report.add_context("compat-matrix-second-mapped", json.dumps(translated))
    report.add_check(
        "compat-matrices-equal",
        matrices_equal,
        "" if matrices_equal else "degree matrices differ after relabeling",
    )
    report.resolve_status()
    return report


def _edge_graph(
    atlas: PatternAtlas, rename: Sequence[int] | dict[int, int]
) -> ExchangeGraph:
    """The exchange graph of an atlas's mutation edges, its variable v
    written rename[v]: each stored seed's cluster is mapped once."""
    c = [tuple(sorted(rename[v] for v in ids)) for ids in atlas.seed_variable_ids]
    edges = {tuple(sorted((c[s], c[t]))) for (s, _), t in atlas.edges.items()}
    return ExchangeGraph(tuple(set(c)), tuple(edges))


def _find_identification(
    a1: PatternAtlas, a2: PatternAtlas, report: VerificationReport
) -> dict[int, int] | None:
    """Map every a2 variable id to the a1 variable id with the same
    expansion, or record why not.

    Anchors are permuted stored seeds of a1 whose matrix equals a2's
    root matrix, in store order, each seed's permutations in the order
    ``matching_permutations`` gives.  With trivial coefficients, sending
    the anchor's i-th variable to a2's root's i-th is a field map between
    the patterns, so the a1 expansions at the anchor's cluster, with
    coordinate i read at the anchor's position i, must be exactly a2's
    expansions at its root, whose ids 0..n-1 are its positions.  An
    expansion is unique, so each a2 variable has at most one image, and the
    images must be a bijection onto a1's variables.
    """
    tried = 0
    last_reason = "no stored seed of the first atlas matches the second root matrix"
    second = [a2.expand(v, a2.clusters[0]) for v in range(len(a2.variables))]
    count = len(a1.variables)
    anchors = (
        (sid, perm)
        for sid, seed in enumerate(a1.seeds)
        for perm in matching_permutations(seed.b.rows, a2.root.b.rows)
    )
    for sid, perm in anchors:
        tried += 1
        ids = [a1.seed_variable_ids[sid][i] for i in perm]
        c = tuple(sorted(ids))
        order = [c.index(v) for v in ids]
        first: dict[LaurentPoly, int] = {}
        for v1 in range(count):
            terms = a1.expand(v1, c).terms.items()
            relabeled = {tuple([key[j] for j in order]): a for key, a in terms}
            first[LaurentPoly._trusted(a1.n, 0, relabeled)] = v1
        mapping = {v2: first[p] for v2, p in enumerate(second) if p in first}
        image = set(mapping.values())
        if not len(image) == len(second) == count:
            last_reason = (
                f"identification from anchor seed {sid} is not a bijection "
                f"({len(image)} images for {len(second)} variables of {count})"
            )
            continue
        report.add_check(
            "identification", True, f"anchor seed {sid}, permutation {list(perm)}"
        )
        report.add_context(
            "variable-map",
            ",".join(f"{v2}->{v1}" for v2, v1 in mapping.items()),
        )
        return mapping
    report.add_check(
        "identification",
        False,
        f"variable sets are not equal: {last_reason} ({tried} anchors tried)",
    )
    return None
