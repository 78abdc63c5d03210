"""Tropical oracles: d- and g-vectors from integer recurrences alone.

Each oracle walks the discovery tree breadth first and carries one
integer vector per variable, so it checks the engine's Laurent
expansions without any polynomial arithmetic: the d-vectors read by
``compat.d_vector`` from every stored cluster, and the g-vectors read by
``grading.g_vector`` from the root.
"""

from __future__ import annotations

from functools import cache

import pytest

from clusteralg import (
    ExchangeMatrix,
    ExploreCaps,
    d_vector,
    explore,
    g_vector,
    root_seed,
)
from clusteralg.catalogue import matrix

# (family, rank, max_depth): the finite types explored to completion, and
# two wild types capped by depth.
ATLASES = [
    ("A", 4, None),
    ("A", 5, None),
    ("B", 3, None),
    ("C", 3, None),
    ("D", 4, None),
    ("D", 5, None),
    ("Kronecker", 2, 8),
    ("Markov", 0, 3),
]


@pytest.fixture(scope="module")
def catalogue_atlas():
    """Explores each atlas once for this module: both oracles read the
    principal ones."""

    @cache
    def build(family, n, max_depth, coefficients):
        caps = ExploreCaps() if max_depth is None else ExploreCaps(max_depth=max_depth)
        seed = root_seed(ExchangeMatrix(matrix(family, n)), coefficients)
        return explore(seed, caps)

    return build


def walk_tree(atlas, start, vectors, step):
    """Fill ``vectors`` (variable id -> vector) breadth first over the
    discovery tree from seed ``start``, whose variables it must hold:
    ``step(seed, ids, k)`` gives the vector of the variable exchanged in
    direction k of a stored seed with variable ids ``ids``.  The walk builds
    its own neighbour lists from the parent entries, so it shares no walk
    with the engine."""
    ids = atlas.seed_variable_ids
    tree = [[] for _ in atlas.seeds]
    for sid, parent in enumerate(atlas.tree):
        if parent is not None:
            tree[sid].append(parent)
            tree[parent[0]].append((sid, parent[1]))
    walked = [(start, -1)]
    for u, came_from in walked:
        for w, k in tree[u]:
            if w == came_from:
                continue
            walked.append((w, u))
            new = ids[w][k - 1]
            if new not in vectors:
                vectors[new] = step(atlas.seeds[u], ids[u], k)
    return vectors


def tropical_d_vectors(atlas, cluster):
    """d-vectors of every variable in the coordinates of a stored cluster,
    by d(x'_k) = -d(x_k) + max(sum over b_ik > 0 of b_ik d(x_i), sum over
    b_ik < 0 of |b_ik| d(x_i)): Fomin and Zelevinsky, "Cluster algebras
    IV" (2007), eq. (7.7)."""
    n = atlas.n
    d = {u: tuple(-int(r == s) for s in range(n)) for r, u in enumerate(cluster)}

    def step(seed, ids, k):
        sides = [[0] * n, [0] * n]
        for row, i in zip(seed.b.rows, ids):
            side = sides[row[k - 1] < 0]
            for s in range(n):
                side[s] += abs(row[k - 1]) * d[i][s]
        return tuple(max(p, q) - e for p, q, e in zip(*sides, d[ids[k - 1]]))

    return walk_tree(atlas, atlas.cluster_to_seed[cluster], d, step)


def tropical_g_vectors(atlas):
    """g-vectors of every variable under principal coefficients, by
    g(x'_k) = -g(x_k) + sum over b_ik < 0 of |b_ik| g(x_i) - sum over
    c_jk < 0 of |c_jk| b0_j, where c_k is the seed's y_k and b0_j the j-th
    column of the root's matrix."""
    n = atlas.n
    b0 = atlas.root.b.rows
    root = atlas.seed_variable_ids[0]
    g = {u: tuple(int(r == s) for s in range(n)) for r, u in enumerate(root)}

    def step(seed, ids, k):
        out = [-e for e in g[ids[k - 1]]]
        for row, i in zip(seed.b.rows, ids):
            if row[k - 1] < 0:
                for s in range(n):
                    out[s] -= row[k - 1] * g[i][s]
        for j, c in enumerate(seed.y[k - 1]):
            if c < 0:
                for s in range(n):
                    out[s] += c * b0[s][j]
        return tuple(out)

    return walk_tree(atlas, 0, g, step)


def _atlas_id(case):
    family, n, max_depth = case
    name = family if family == "Markov" else f"{family}{n}"
    return name if max_depth is None else f"{name}-depth{max_depth}"


@pytest.mark.parametrize("coefficients", ["trivial", "principal"])
@pytest.mark.parametrize("case", ATLASES, ids=_atlas_id)
def test_d_vectors_match_the_tropical_recurrence(catalogue_atlas, case, coefficients):
    atlas = catalogue_atlas(*case, coefficients)
    assert atlas.complete == (case[2] is None)
    mismatches = []
    for c in atlas.clusters:
        want = tropical_d_vectors(atlas, c)
        assert sorted(want) == list(range(len(atlas.variables)))
        mismatches += [
            (v, c, got, want[v])
            for v in sorted(want)
            if (got := d_vector(v, c, atlas)) != want[v]
        ]
    assert len(mismatches) == 0, mismatches[:5]


@pytest.mark.parametrize("case", ATLASES, ids=_atlas_id)
def test_g_vectors_match_the_tropical_recurrence(catalogue_atlas, case):
    atlas = catalogue_atlas(*case, "principal")
    want = tropical_g_vectors(atlas)
    assert sorted(want) == list(range(len(atlas.variables)))
    mismatches = [
        (v, got, want[v])
        for v in range(len(atlas.variables))
        if (got := g_vector(v, atlas)) != want[v]
    ]
    assert len(mismatches) == 0, mismatches[:5]
