"""g-vectors and g-pairs for principal-coefficient atlases.

With principal coefficients at the root, every cluster variable is
homogeneous for the Z^n grading in which deg(x_i) = e_i and deg(y_j) is
minus the j-th column of the root matrix.  The g-vector of a variable is
the common degree of the terms of its root expansion; it is computed
from homogeneity directly, which doubles as an assertion that the
expansion really is homogeneous: one that is not is an engine fault.

A g-pair check along a direction subset I asks, for every variable of a
cluster t, whether some monomial on an I-connected cluster t' supported
on I has the same projection to the I coordinates of the grading.  The
off-I columns of the G-matrix of t' are unit vectors (asserted at
runtime), so G is block triangular: the projected system reduces to the
I x I block, whose inverse is the I x I block of G's.  Tropical duality
(Nakanishi-Zelevinsky, "On tropical dualities in cluster algebras", 2012)
reads it off the seed: G^T D C = D, where diag(d) = D skew-symmetrizes
the root matrix and C's columns, the c-vectors, are the seed's y rows.
So entry (r, s) of the inverse is y_r[s] d_s / d_r, y_r being the y row
of the variable at position r.  One exact product, block times inverse,
must give the identity, else the engine is at fault.  The unique,
integral exponent vector of each variable then only needs a sign check.

Each direction subset I gets one cone index, kept in ``atlas.derived``: the
I-connected clusters in ascending order, and per variable the set, as the
bits of an integer, of the indexes j whose inverted I-block (each inverted
once) maps its g-vector, projected to I, to a nonnegative vector.  A partner
of t is then the lowest bit of the AND of t's variables' sets.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import and_, mul
from typing import Iterable, Sequence

from .atlas import Cluster, IncompleteAtlasError, PatternAtlas, format_cluster
from .laurent import GradedDegree, NotHomogeneousError
from .reports import VerificationReport
from .seed import find_skew_symmetrizer


class NotPrincipalError(ValueError):
    """The operation needs an atlas explored with principal coefficients."""


class GPairNotFoundError(RuntimeError):
    """No g-pair partner exists in the atlas; on a complete atlas this is
    a verification failure, not a search miss."""


def _require_principal(atlas: PatternAtlas) -> None:
    if atlas.coefficients != "principal":
        raise NotPrincipalError(
            f"atlas has {atlas.coefficients} coefficients; principal required"
        )


def g_vector(v: int, atlas: PatternAtlas) -> GradedDegree:
    """Graded degree of a variable's root expansion."""
    _require_principal(atlas)
    cache = atlas.derived.setdefault("g_vectors", {})
    if v not in cache:
        try:
            cache[v] = atlas.expansion(v).homogeneous_degree(atlas.root.b.rows)
        except NotHomogeneousError as exc:
            raise RuntimeError(
                f"the root expansion of variable {v} is not homogeneous: {exc}; "
                f"the exchange engine is inconsistent"
            ) from None
    return cache[v]


def _duality(atlas: PatternAtlas) -> tuple[list[GradedDegree], tuple[int, ...]]:
    """Every variable's g-vector by id, and the root's symmetrizer d, listed
    once per atlas for the cone indexes."""
    got = atlas.derived.get("duality")
    if got is None:
        gs = [g_vector(v, atlas) for v in range(len(atlas.variables))]
        got = atlas.derived["duality"] = gs, find_skew_symmetrizer(atlas.root.b.rows)
    return got


def _invert_i_block(
    ids: Sequence[int], I: tuple[int, ...], atlas: PatternAtlas
) -> list[list[int]]:
    """The inverse of the G-matrix I-block of the exact seed ids; see the module."""
    n = atlas.n
    gs, d = _duality(atlas)
    cols = [gs[v] for v in ids]
    for pos in range(n):
        # Positions never mutated along an I-walk still hold root
        # variables, so their columns must be unit vectors.
        if (pos + 1) not in I and cols[pos] != tuple(int(i == pos) for i in range(n)):
            raise RuntimeError(
                f"expected a unit g-vector at position {pos + 1} of an "
                f"I-connected seed; the grading engine is inconsistent"
            )
    # The stored seed of the cluster holds the same y rows, by variable.
    sid = atlas.cluster_to_seed[tuple(sorted(ids))]
    held, y = atlas.seed_variable_ids[sid], atlas.seeds[sid].y
    inverse = [
        [y[held.index(ids[r - 1])][s - 1] * d[s - 1] // d[r - 1] for s in I]
        for r in I
    ]
    block = [[cols[j - 1][i - 1] for j in I] for i in I]
    identity = [[int(r == s) for s in I] for r in I]
    if [[sum(map(mul, row, col)) for col in zip(*inverse)] for row in block] != identity:
        raise RuntimeError(
            f"the c-vectors of seed {sid} along {list(I)} do not invert its G-matrix "
            f"block; tropical duality fails, so the grading engine is inconsistent"
        )
    return inverse


def _cones(I: tuple[int, ...], atlas: PatternAtlas) -> tuple[list, list[int]]:
    """The cone index of direction subset I, built once; see the module."""
    index = atlas.derived.setdefault("cones", {})
    got = index.get(I)
    if got is None:
        reach = atlas.i_reachable(I)
        clusters = sorted(reach)
        inverses = [_invert_i_block(reach[c], I, atlas) for c in clusters]
        rhss = [[g[i - 1] for i in I] for g in _duality(atlas)[0]]
        cones = [0] * len(rhss)
        for j, inverse in enumerate(inverses):
            bit = 1 << j
            for v, rhs in enumerate(rhss):
                for row in inverse:
                    if sum(map(mul, row, rhs)) < 0:
                        break
                else:
                    cones[v] |= bit
        index[I] = got = clusters, cones
    return got


def check_g_pair(
    t: Iterable[int],
    t_prime: Iterable[int],
    subset: Iterable[int],
    atlas: PatternAtlas,
) -> bool:
    """Whether (t, t_prime) is a g-pair along the direction subset."""
    _require_principal(atlas)
    tc, tp = atlas.normalize_cluster(t), atlas.normalize_cluster(t_prime)
    clusters, cones = _cones(tuple(sorted(set(subset))), atlas)
    if tp not in clusters:
        return False
    j = clusters.index(tp)
    return all(cones[v] >> j & 1 for v in tc)


def find_g_pair(
    t: Iterable[int], subset: Iterable[int], atlas: PatternAtlas
) -> Cluster:
    """First I-connected cluster, in ascending cluster order, forming a
    g-pair with t; absence on a complete atlas raises loudly."""
    _require_principal(atlas)
    tc = atlas.normalize_cluster(t)
    I = tuple(sorted(set(subset)))
    clusters, cones = _cones(I, atlas)
    common = reduce(and_, map(cones.__getitem__, tc))
    if not common:
        raise GPairNotFoundError(
            f"no g-pair partner for cluster {format_cluster(tc)} along {list(I)}; "
            f"on a complete atlas this contradicts the enough-g-pairs property"
        )
    return clusters[(common & -common).bit_length() - 1]


def verify_g_pairs(atlas: PatternAtlas) -> VerificationReport:
    """Exhaustive g-pair search over every (cluster, direction subset).

    A complete principal atlas must yield a partner for every pair; a
    single miss fails the sweep.
    """
    _require_principal(atlas)
    if not atlas.complete:
        raise IncompleteAtlasError("g-pair sweep needs a complete atlas")
    report = VerificationReport(suite="g-pairs")
    report.add_context("atlas", atlas.summary())
    n = atlas.n
    subsets = [I for size in range(n + 1) for I in combinations(range(1, n + 1), size)]
    checked = 0
    failure = ""
    for t, I in product(sorted(atlas.clusters), subsets):
        try:
            find_g_pair(t, I, atlas)
        except GPairNotFoundError:
            failure = f"cluster {format_cluster(t)} along {list(I)} has no partner"
            break
        checked += 1
    report.add_context("pairs-checked", str(checked))
    report.add_check("partner-found-for-all", not failure, failure)
    report.resolve_status()
    return report


def g_vector_table(atlas: PatternAtlas, variables: Iterable[int] | None = None) -> str:
    """TSV table of variable ids and g-vectors."""
    _require_principal(atlas)
    ids = list(variables) if variables is not None else list(range(len(atlas.variables)))
    header = "variable\t" + "\t".join(f"g{i + 1}" for i in range(atlas.n))
    lines = [header]
    for v in ids:
        g = g_vector(v, atlas)
        lines.append(str(v) + "\t" + "\t".join(str(x) for x in g))
    return "\n".join(lines) + "\n"
