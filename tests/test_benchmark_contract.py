"""The benchmark's tracer patches engine names from outside; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
import os

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
