"""Self-tests of the benchmark's oracle, input generator and tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from catalogue import catalan, finite_counts, matrix, wild_counts  # noqa: E402
from inputs import mutate_matrix, reroot  # noqa: E402
from jobs import WORKLOADS, JobSpec, pass_jobs, verdict  # noqa: E402
from tracer import END, START, check_spans, layer_metrics, self_times  # noqa: E402

FINITE = [("A", n) for n in range(2, 7)] + [
    ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("E", 6)
]


def test_oracle_formulas_match_known_counts():
    assert [finite_counts("A", n)[1] for n in range(1, 7)] == [
        catalan(n + 1) for n in range(1, 7)
    ] == [2, 5, 14, 42, 132, 429]
    assert finite_counts("A", 4) == (14, 42)
    assert finite_counts("B", 3) == finite_counts("C", 3) == (12, 20)
    assert finite_counts("D", 4) == (16, 50)
    assert finite_counts("D", 5) == (25, 182)
    assert finite_counts("E", 6) == (42, 833)
    assert wild_counts("Kronecker", 16) == (34, 33)
    assert wild_counts("Markov", 5) == (96, 94)


def _symmetrizer(b: list[list[int]]) -> tuple[int, ...] | None:
    """Smallest diagonal d in {1,2,3}^n with d_i b_ij = -d_j b_ji."""
    n = len(b)
    for d in itertools.product(range(1, 4), repeat=n):
        if all(d[i] * b[i][j] == -d[j] * b[j][i] for i in range(n) for j in range(n)):
            return d
    return None


def test_catalogue_matrices_are_skew_symmetrizable():
    for family, n in FINITE + [("Kronecker", 2), ("Kronecker", 3), ("Markov", 0)]:
        assert _symmetrizer(matrix(family, n)) is not None, (family, n)


def test_matrix_mutation_is_an_involution():
    rng = random.Random(7)
    for family, n in FINITE:
        b = reroot(matrix(family, n), rng, 3)
        for k in range(len(b)):
            assert mutate_matrix(mutate_matrix(b, k), k) == b


def test_generator_is_deterministic_and_skew_symmetrizable(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    for workload in WORKLOADS:
        for p in range(3):
            a = pass_jobs(workload, 5, p, str(first))
            b = pass_jobs(workload, 5, p, str(second))
            for job_a, job_b in zip(a, b):
                assert job_a.spec == job_b.spec
                files_a = [x for x in job_a.argv if x.endswith(".json")]
                files_b = [x for x in job_b.argv if x.endswith(".json")]
                for fa, fb in zip(files_a, files_b):
                    assert open(fa).read() == open(fb).read()
    other = pass_jobs("suite-sweep", 6, 0, str(second))
    same = pass_jobs("suite-sweep", 5, 0, str(first))
    texts = [open(j.argv[j.argv.index("--seed") + 1]).read() for j in other + same]
    assert texts[: len(other)] != texts[len(other):]
    rng = random.Random(3)
    for family, n in FINITE:
        for _ in range(5):
            assert _symmetrizer(reroot(matrix(family, n), rng, 2)) is not None


def test_verdicts_accept_known_answers_and_reject_others():
    spec = JobSpec("g-pairs", "A", 2, "principal")
    good = "suite: g-pairs\natlas: n=2 variables=5 clusters=5\npairs-checked: 20\nresult: pass\n"
    assert verdict(spec, 0, good) == ""
    assert verdict(spec, 0, good.replace("20", "19")) != ""
    assert verdict(spec, 1, good) != ""
    wild = JobSpec("explore", "Kronecker", 2, "trivial", depth=1)
    assert verdict(wild, 0, '{"variables": [1,2,3,4], "seeds": [1,2,3], "complete": false}') == ""
    assert verdict(wild, 0, '{"variables": [1,2,3,4], "seeds": [1,2,3], "complete": true}') != ""


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, 0]


def test_self_times_add_up_to_the_root_span():
    spans = [
        _span("cli", 0, 100, -1),
        _span("atlas.explore", 10, 60, 0),
        _span("seed.mutate", 12, 30, 1),
        _span("laurent.mul", 14, 20, 2),
        _span("seed.mutate", 32, 50, 1),
        _span("reports", 70, 95, 0),
        _span("cli", 200, 230, -1, job=1),
        _span("laurent.mul", 205, 215, 6, job=1),
    ]
    assert self_times(spans) == [25, 14, 12, 6, 18, 25, 20, 10]
    assert sum(self_times(spans)[:6]) == spans[0][END] - spans[0][START]
    assert check_spans(spans) == ""
    metrics = layer_metrics(spans, passes=1, max_terms=0)
    assert metrics["seed.mutate.self_s"] == pytest.approx(30e-9)
    assert metrics["atlas.explore.mutations"] == 2
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == pytest.approx(130e-9)


def test_span_check_rejects_a_child_outside_its_parent():
    spans = [_span("cli", 0, 100, -1), _span("laurent.mul", 90, 120, 0)]
    assert "outside" in check_spans(spans)


def test_benchmark_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wild-growth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
