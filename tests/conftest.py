"""Shared fixtures: the desk-scale atlases, built once per session."""

from __future__ import annotations

import pytest

import clusteralg.atlas
import clusteralg.seed
from clusteralg import ExchangeMatrix, explore, random_exchange_matrix, root_seed

__all__ = ["random_exchange_matrix"]

A2_ROWS = [[0, 1], [-1, 0]]
B2_ROWS = [[0, 2], [-1, 0]]
G2_ROWS = [[0, 3], [-1, 0]]
A3_ROWS = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
B3_ROWS = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
A4_ROWS = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
D4_ROWS = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]


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


@pytest.fixture(scope="session")
def a2_trivial():
    return explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))


@pytest.fixture(scope="session")
def b2_trivial():
    return explore(root_seed(ExchangeMatrix(B2_ROWS), "trivial"))


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
def b2_principal():
    return explore(root_seed(ExchangeMatrix(B2_ROWS), "principal"))


@pytest.fixture(scope="session")
def a3_principal():
    return explore(root_seed(ExchangeMatrix(A3_ROWS), "principal"))
