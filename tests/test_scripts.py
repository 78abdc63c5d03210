"""The scripts in ``scripts/`` run end to end and report success."""

from __future__ import annotations

import hashlib
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


# sha256 of each script's stdout, pinned so that output can only change on
# purpose; the re-root report prints every stored seed's discovery path.
STDOUT_DIGESTS = {
    "reroot_and_compare": (
        "231126bc6a5f82e1bf3e6a81943465ab98adcfe7fe0068f088c576dc8482b635"
    ),
    "run_verifications": (
        "3355e770260ab86224ab98567f9538b1a65ba462ab7894c4180bfae8120acbd2"
    ),
}


@pytest.mark.parametrize(
    "name, argv",
    [("reroot_and_compare", ["--type", "A3"]), ("run_verifications", [])],
)
def test_script_passes(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[name]


def test_random_walks_at_defaults(capsys):
    assert load_script("random_walks").main([]) == 0
    assert capsys.readouterr().out == (
        "walks: 50, truncated: 1, steps: 595, variables checked: 1485, "
        "largest expansion: 1524 terms\n"
    )


def test_random_walks_fails_on_a_nonpositive_coefficient(monkeypatch, capsys):
    script = load_script("random_walks")
    real_mutate = script.mutate
    steps = []

    def negated(seed, k):
        steps.append((seed.b.rows, k))
        out = real_mutate(seed, k)
        return Seed(out.b, out.y, [-p for p in out.x])

    monkeypatch.setattr(script, "mutate", negated)
    assert script.main(["--walks", "1", "--length", "1"]) == 1
    # Every variable of the one seed reached is flagged, each line naming
    # the root matrix and the walk's single step.
    [(rows, k)] = steps
    line = f"nonpositive coefficient, matrix {rows}, path ({k},)\n"
    assert capsys.readouterr().err == line * len(rows)
