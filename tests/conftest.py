"""Shared fixtures: the desk-scale atlases, built once per session."""

from __future__ import annotations

import pytest

import clusteralg.atlas
import clusteralg.seed
from clusteralg import ExchangeMatrix, explore, root_seed
from clusteralg.catalogue import matrix

A1_ROWS = matrix("A", 1)
A2_ROWS = matrix("A", 2)
B2_ROWS = matrix("B", 2)
# The rank-2 double edge b12 = 2 the tests use is C2; B2 is its transpose.
C2_ROWS = matrix("C", 2)
G2_ROWS = matrix("G", 2)
A3_ROWS = matrix("A", 3)
B3_ROWS = matrix("B", 3)
C3_ROWS = matrix("C", 3)
A4_ROWS = matrix("A", 4)
D4_ROWS = matrix("D", 4)
A5_ROWS = matrix("A", 5)
D5_ROWS = matrix("D", 5)
KRONECKER_2_ROWS = matrix("Kronecker", 2)
KRONECKER_3_ROWS = matrix("Kronecker", 3)
MARKOV_ROWS = matrix("Markov")


def count_mutations(monkeypatch) -> list[int]:
    """Record the direction of every seed mutation from here on, under
    both names the engine calls it by."""
    calls: list[int] = []
    for module in (clusteralg.atlas, clusteralg.seed):
        original = module.mutate

        def counted(seed, k, original=original):
            calls.append(k)
            return original(seed, k)

        monkeypatch.setattr(module, "mutate", counted)
    return calls


def corrupt_first_edge(atlas):
    """Point the root's edge in direction 1 at a seed whose cluster differs
    from the root's in two variables, not one."""
    root = set(atlas.seed_variable_ids[0])
    atlas.edges[(0, 1)] = next(
        sid
        for sid, ids in enumerate(atlas.seed_variable_ids)
        if len(root.difference(ids)) == 2
    )


def misdirect_reverse_edges(monkeypatch):
    """From here on, point each new seed's edge back along its tree edge at
    the seed stored before it: right for seed 1, made from the root, and a
    wrong seed once the parent is not the seed stored just before."""
    store = clusteralg.atlas.PatternAtlas._store_seed

    def misdirected(atlas, seed, ids, parent, cluster):
        sid = store(atlas, seed, ids, parent, cluster)
        if parent is not None:
            atlas.edges[sid, parent[1]] = sid - 1
        return sid

    monkeypatch.setattr(clusteralg.atlas.PatternAtlas, "_store_seed", misdirected)


@pytest.fixture(scope="session")
def a2_trivial():
    return explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))


@pytest.fixture(scope="session")
def c2_trivial():
    return explore(root_seed(ExchangeMatrix(C2_ROWS), "trivial"))


@pytest.fixture(scope="session")
def g2_trivial():
    return explore(root_seed(ExchangeMatrix(G2_ROWS), "trivial"))


@pytest.fixture(scope="session")
def a3_trivial():
    return explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))


@pytest.fixture(scope="session")
def a2_principal():
    return explore(root_seed(ExchangeMatrix(A2_ROWS), "principal"))


@pytest.fixture(scope="session")
def c2_principal():
    return explore(root_seed(ExchangeMatrix(C2_ROWS), "principal"))


@pytest.fixture(scope="session")
def a3_principal():
    return explore(root_seed(ExchangeMatrix(A3_ROWS), "principal"))
