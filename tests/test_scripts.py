"""The scripts in ``scripts/`` run end to end and report success."""

from __future__ import annotations

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", os.path.join(SCRIPTS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [("reroot_and_compare", ["--type", "A3"]), ("run_verifications", [])],
)
def test_script_passes(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
