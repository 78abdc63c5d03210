"""The benchmark's tracer patches engine names from outside; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
import os

import clusteralg.atlas
import clusteralg.seed
from clusteralg import ExchangeMatrix, explore, root_seed
from clusteralg.atlas import PatternAtlas
from conftest import A3_ROWS

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
