"""The scripts in ``scripts/`` run end to end and report success."""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from clusteralg import Seed

SCRIPTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", os.path.join(SCRIPTS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    # Registered first, as dataclasses look their module up while loading.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [("reroot_and_compare", ["--type", "A3"]), ("run_verifications", [])],
)
def test_script_passes(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out


def test_random_walks_at_defaults(capsys):
    assert load_script("random_walks").main([]) == 0
    assert capsys.readouterr().out == (
        "walks: 50, truncated: 1, steps: 595, variables checked: 1485, "
        "largest expansion: 1524 terms\n"
    )


def test_random_walks_fails_on_a_nonpositive_coefficient(monkeypatch, capsys):
    script = load_script("random_walks")
    real_mutate = script.mutate

    def negated(seed, k):
        out = real_mutate(seed, k)
        return Seed(out.b, out.y, [-p for p in out.x], path=out.path)

    monkeypatch.setattr(script, "mutate", negated)
    assert script.main(["--walks", "1", "--length", "1"]) == 1
    assert "nonpositive coefficient" in capsys.readouterr().err
