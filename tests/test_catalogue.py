"""The exchange matrices of the tests are the benchmark catalogue's."""

from __future__ import annotations

import importlib.util
import os

import pytest

import conftest

CATALOGUE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "catalogue.py",
)


@pytest.fixture(scope="module")
def catalogue():
    spec = importlib.util.spec_from_file_location("perfbench_catalogue", CATALOGUE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# B2_ROWS is left out: the tests orient its double edge the other way.
@pytest.mark.parametrize(
    "family, n",
    [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 3), ("C", 3)]
    + [("D", 4), ("D", 5), ("E", 6)],
)
def test_tables_match_the_benchmark_catalogue(catalogue, family, n):
    assert getattr(conftest, f"{family}{n}_ROWS") == catalogue.matrix(family, n)
