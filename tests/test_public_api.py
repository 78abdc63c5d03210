"""The package's public names."""

from __future__ import annotations

import pytest

import clusteralg


def test_every_exported_name_resolves():
    for name in clusteralg.__all__:
        assert hasattr(clusteralg, name), name


@pytest.mark.parametrize(
    "name",
    [
        "TropicalElement",
        "CoefRingElement",
        "is_d_compatible",
        "compatibility_degree",
        "connected_by_I_sequence",
        "ClusterMonomial",
        "GMatrix",
        "g_matrix",
        "g_vector_monomial",
        "cluster_monomial_expansion",
        "GraphComparison",
        "graphs_equal",
        "phi",
    ],
)
def test_removed_names_are_gone(name):
    assert not hasattr(clusteralg, name)
    assert name not in clusteralg.__all__
