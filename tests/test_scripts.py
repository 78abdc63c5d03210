"""The scripts in ``scripts/`` run end to end and report success."""

from __future__ import annotations

import hashlib
import importlib.util
import json
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
# purpose; the re-root report prints every stored seed's discovery path, and
# with --certificates every certificate.  B3's 72 certificates reach a phi
# coefficient of 3 and a denominator exponent of 2, so the closed form
# 1 - c * 2**v is printed past c = v = 1.  On the non-simply-laced types
# every suite runs with a symmetrizer other than (1, ..., 1), the g-pair
# sweep included.
STDOUT_DIGESTS = {
    "reroot_and_compare --type A3": (
        "231126bc6a5f82e1bf3e6a81943465ab98adcfe7fe0068f088c576dc8482b635"
    ),
    "run_verifications": (
        "3355e770260ab86224ab98567f9538b1a65ba462ab7894c4180bfae8120acbd2"
    ),
    "reroot_and_compare --type B3 --certificates": (
        "db0f40ed8ff8ca5756285da5e8bdce31c21e680322e7de2312853e35aebb0aad"
    ),
    "run_verifications --types B3 B4 C3 C4 F4 G2": (
        "13bc3c35b2c9c85741cc2f782fbbd1a80d03c260237613378f6ba4a00001dc57"
    ),
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("reroot_and_compare", ["--type", "A3"]),
        ("run_verifications", []),
        ("reroot_and_compare", ["--type", "B3", "--certificates"]),
        ("run_verifications", ["--types", "B3", "B4", "C3", "C4", "F4", "G2"]),
    ],
)
def test_script_passes(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    out = capsys.readouterr().out
    digest = STDOUT_DIGESTS[" ".join([name, *argv])]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The host and kept-map counts, the sha256 of every expansion's text and
# that of every d-vector's text, each host's variables in id order, hosts
# in discovery order, and the sha256 of every ordered pair's witness
# description, followed by the witness sweep report.  A3's d-vectors agree
# under both coefficients.
EXPANSION_REPORTS = {
    "trivial": (
        "hosts: 14\nkept maps: 3\n"
        "sha256: e13d89049cdcec15200a5363069fa5f8911f126c2357aaaa38282e8ee4dd6998\n"
        "d-vectors sha256: "
        "43e66cd9680bb74fa695d4285d12d123ec74e503daefa4ea53db3640bbfff5af\n"
        "witnesses sha256: "
        "c958bab2fa5d91921a87f167a9977aa82bda2b48f1bea2aea1dab5fb06d1faf1\n"
    ),
    "principal": (
        "hosts: 14\nkept maps: 0\n"
        "sha256: fbfde6bf126a34be68f2ef87f4c4a9b2c6ccd9111daff004ab60a36100a47ee7\n"
        "d-vectors sha256: "
        "43e66cd9680bb74fa695d4285d12d123ec74e503daefa4ea53db3640bbfff5af\n"
        "witnesses sha256: "
        "d15b4ef04fbe9c2c1ea497589b37549d9d0256355c28e3e0801f05ae286e2548\n"
    ),
}


@pytest.mark.parametrize("coefficients", sorted(EXPANSION_REPORTS))
def test_expand_every_host(coefficients, capsys):
    argv = ["--type", "A3", "--coefficients", coefficients]
    assert load_script("expand_every_host").main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == EXPANSION_REPORTS[coefficients]
    assert captured.err.startswith("seconds: ")
    assert "\nd-vector seconds: " in captured.err
    assert "\nwitness seconds: " in captured.err


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


def _work_tree(root, runs):
    """A synthetic benchmark work tree: run directory -> job records."""
    for run, records in runs.items():
        (root / run).mkdir(parents=True)
        lines = [json.dumps(r, sort_keys=True) + "\n" for r in records]
        (root / run / "jobs.jsonl").write_text("".join(lines))
    return str(root)


def _job(pass_index, job, **fields):
    record = {"pass": pass_index, "job": job, "exit_code": 0, "stderr": ""}
    record["stdout_sha256"] = "ab" * 32
    record.update(fields)
    return record


def test_compare_job_outputs(tmp_path, capsys):
    script = load_script("compare_job_outputs")
    parent = _work_tree(
        tmp_path / "parent",
        {
            "finite-explore-seed1-trace0": [_job(0, "a"), _job(0, "b"), _job(1, "a")],
            "suite-sweep-seed1-trace0": [_job(0, "a")],
        },
    )
    # Timings differ and the change ran one pass fewer: neither counts.
    same = _work_tree(
        tmp_path / "same",
        {
            "finite-explore-seed1-trace0": [_job(0, "a", seconds=1.0), _job(0, "b")],
            "suite-sweep-seed1-trace0": [_job(0, "a")],
        },
    )
    assert script.main([parent, same]) == 0
    assert capsys.readouterr().out == "common jobs: 3\ndiffering jobs: 0\n"

    changed = _work_tree(
        tmp_path / "changed",
        {
            "finite-explore-seed1-trace0": [
                _job(0, "a", exit_code=3, stderr="engine fault: x\n"),
                _job(0, "b", stdout_sha256="cd" * 32),
            ],
            # Same job names, but another run directory: not common.
            "finite-explore-seed2-trace0": [_job(1, "a", exit_code=1)],
        },
    )
    assert script.main([parent, changed]) == 1
    assert capsys.readouterr().out == (
        "common jobs: 2\n"
        "differs: finite-explore-seed1-trace0 pass 0 a: exit_code, stderr\n"
        "differs: finite-explore-seed1-trace0 pass 0 b: stdout_sha256\n"
        "differing jobs: 2\n"
    )

    assert script.main([parent, str(tmp_path / "empty")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "common jobs: 0\n"
    assert captured.err == "error: the two trees share no job\n"
