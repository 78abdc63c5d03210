"""The type catalogue agrees with the benchmark's copy, and the engine
does not load it."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

import clusteralg
from clusteralg.catalogue import finite_counts, finite_type, matrix

CATALOGUE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "catalogue.py",
)


@pytest.fixture(scope="module")
def benchmark_catalogue():
    spec = importlib.util.spec_from_file_location("perfbench_catalogue", CATALOGUE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every finite type both catalogues define, up to a rank past the largest
# one explored anywhere.
@pytest.mark.parametrize(
    "family, n",
    [("A", n) for n in range(1, 9)]
    + [(family, n) for family in "BC" for n in range(2, 8)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6)],
)
def test_tables_match_the_benchmark_catalogue(benchmark_catalogue, family, n):
    assert matrix(family, n) == benchmark_catalogue.matrix(family, n)
    assert finite_counts(family, n) == benchmark_catalogue.finite_counts(family, n)
    assert finite_type(f"{family}{n}") == (family, n)


@pytest.mark.parametrize(
    "family, n", [("Kronecker", b) for b in (1, 2, 3)] + [("Markov", 0)]
)
def test_wild_matrices_match_the_benchmark_catalogue(benchmark_catalogue, family, n):
    assert matrix(family, n) == benchmark_catalogue.matrix(family, n)


@pytest.mark.parametrize(
    "name", ["A0", "B1", "C1", "D3", "E8", "F5", "G3", "H3", "A", "Ax"]
)
def test_names_outside_the_catalogue_are_refused(name):
    with pytest.raises(ValueError):
        finite_type(name)


def test_the_engine_does_not_load_the_catalogue():
    # In a fresh process, as this one has imported the catalogue already.
    src = os.path.dirname(os.path.dirname(clusteralg.__file__))
    code = "import sys, clusteralg.cli; print('clusteralg.catalogue' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
    ).stdout
    assert out == "False\n"
