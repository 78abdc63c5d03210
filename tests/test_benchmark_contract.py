"""The benchmark's tracer patches engine names from outside; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
import os

import clusteralg.atlas
import clusteralg.grading
import clusteralg.laurent
import clusteralg.seed
from clusteralg import ExchangeMatrix, explore, root_seed
from clusteralg.atlas import ExploreCaps, PatternAtlas
from conftest import A3_ROWS, KRONECKER_3_ROWS

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracer.py",
)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for mod, cls, attr, name in tracer.PATCHES:
        owner = importlib.import_module(f"clusteralg.{mod}")
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (mod, cls, attr, name)


def test_traced_layers_are_called_through_their_names(monkeypatch):
    # The tracer times a layer only while the engine calls it by the patched
    # name; inlining one of these would silently zero its per-layer metric.
    calls = {}
    for owner, attr in [
        (clusteralg.atlas, "mutate"),
        (clusteralg.seed, "exchange_binomial"),
        (clusteralg.seed, "exact_div"),
        (PatternAtlas, "to_json"),
    ]:
        original = getattr(owner, attr)
        calls[attr] = 0

        def counted(*args, original=original, attr=attr):
            calls[attr] += 1
            return original(*args)

        monkeypatch.setattr(owner, attr, counted)
    atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "principal"))
    atlas.to_json()
    assert all(calls.values()), calls
    # Re-rooting reaches the binomial and the division by the same names.
    calls.update(exchange_binomial=0, exact_div=0)
    for v in range(len(atlas.variables)):
        atlas.expand(v, atlas.clusters[-1])
    assert calls["exchange_binomial"] and calls["exact_div"], calls
    # Kronecker b=3 holds its large binomials over packed keys; each computed
    # exchange still reaches the binomial and the division by name.
    held = []
    packed_binomial = clusteralg.laurent.packed_binomial

    def counted_binomial(*args):
        held.append(args)
        return packed_binomial(*args)

    monkeypatch.setattr(clusteralg.laurent, "packed_binomial", counted_binomial)
    calls.update(mutate=0, exchange_binomial=0, exact_div=0)
    explore(root_seed(ExchangeMatrix(KRONECKER_3_ROWS)), ExploreCaps(max_depth=4))
    assert held
    assert calls["mutate"] == calls["exchange_binomial"] == calls["exact_div"]
    # The g-pair sweep reaches its partner search by name.
    searches = []
    find_g_pair = clusteralg.grading.find_g_pair

    def counted_search(*args):
        searches.append(args)
        return find_g_pair(*args)

    monkeypatch.setattr(clusteralg.grading, "find_g_pair", counted_search)
    assert clusteralg.grading.verify_g_pairs(atlas).resolve_status() == "pass"
    assert len(searches) == 112
