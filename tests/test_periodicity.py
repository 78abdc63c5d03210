"""Rank-2 periodicity of the stored exchange graph, with no Laurent arithmetic.

Fomin and Zelevinsky, "Cluster algebras II: Finite type classification"
(Invent. Math. 2003): from any seed, alternating mutations in two
directions i and j first return to the seed's cluster after exactly 4, 5,
6 or 8 steps when -b_ij * b_ji is 0, 1, 2 or 3, and never when it is 4
or more.  The walks step through ``PatternAtlas.mutate_state``, so they
read only the stored edge table and variable ids.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from clusteralg import ExchangeMatrix, ExploreCaps, explore, root_seed
from clusteralg.catalogue import finite_type, matrix

# Steps to the first return, by -b_ij * b_ji.
PERIOD = {0: 4, 1: 5, 2: 6, 3: 8}

FINITE_TYPES = [
    "A2", "A3", "A4", "A5", "A6", "B3", "B4", "C3", "C4",
    "D4", "D5", "E6", "F4", "G2",
]


def walk(atlas, sid: int, i: int, j: int, steps: int) -> list:
    """The clusters along mutations in directions i, j, i, ... from stored
    seed sid, the start first, until ``steps`` steps or the atlas's edge."""
    state = (sid, atlas.seed_variable_ids[sid])
    clusters = [sorted(state[1])]
    for step in range(steps):
        state = atlas.mutate_state(state, (i, j)[step % 2])
        if state is None:
            break
        clusters.append(sorted(state[1]))
    return clusters


@pytest.mark.parametrize("name", FINITE_TYPES)
def test_alternating_mutations_first_return_after_the_rank_two_period(name):
    atlas = explore(root_seed(ExchangeMatrix(matrix(*finite_type(name))), "trivial"))
    assert atlas.complete
    walks = 0
    for sid, seed in enumerate(atlas.seeds):
        b = seed.b.rows
        for i, j in combinations(range(1, atlas.n + 1), 2):
            period = PERIOD[-b[i - 1][j - 1] * b[j - 1][i - 1]]
            clusters = walk(atlas, sid, i, j, period)
            assert len(clusters) == period + 1
            assert clusters[period] == clusters[0]
            assert clusters[0] not in clusters[1:period]
            walks += 1
    assert walks == len(atlas.seeds) * atlas.n * (atlas.n - 1) // 2


def test_kronecker_walks_never_return_inside_the_atlas():
    # -b_12 * b_21 = 4: the rank-2 exchange graph is an infinite line, so a
    # walk meets a new cluster at every step until it leaves the atlas.
    atlas = explore(
        root_seed(ExchangeMatrix(matrix("Kronecker", 2)), "trivial"),
        ExploreCaps(max_depth=8),
    )
    assert len(atlas.seeds) == 17
    lengths = set()
    for sid in range(len(atlas.seeds)):
        for i, j in ((1, 2), (2, 1)):
            clusters = walk(atlas, sid, i, j, 12)
            assert len({tuple(c) for c in clusters}) == len(clusters)
            lengths.add(len(clusters))
    assert min(lengths) == 1 and max(lengths) == 13  # edge seeds, and 12 steps inside
