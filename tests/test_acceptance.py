"""Acceptance gate: ten end-to-end criteria with runtime budgets.

Each criterion prints one summary line directly to the real stdout so
the pass/fail record survives pytest's capture and shows up in plain
test logs.  Budgets are asserted, not advisory: a criterion that
finishes over budget fails.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product

import pytest

import clusteralg
from clusteralg import (
    ExchangeMatrix,
    LaurentPoly,
    certify_incompatible_pairs,
    explore,
    g_vector,
    mutate,
    random_exchange_matrix,
    root_seed,
    verify_degree_properties,
    verify_g_pairs,
    verify_maximal_sets,
    verify_unistructural,
    witness_sweep,
)
from clusteralg.catalogue import finite_counts, matrix
from conftest import A2_ROWS

# Mutating past this many terms in any one variable signals a wild-type
# blowup; random walks stop early there but still check every variable
# they did produce.
TERM_CAP = 400


_DISABLE_CAPTURE = None


@pytest.fixture(autouse=True)
def _install_emit_channel(capfd):
    # Capture works at the fd level, so the summary lines need pytest's
    # own escape hatch to reach the real stdout and any piped log.
    global _DISABLE_CAPTURE
    _DISABLE_CAPTURE = capfd.disabled
    yield
    _DISABLE_CAPTURE = None


def _emit(line: str) -> None:
    if _DISABLE_CAPTURE is None:
        print(line, file=sys.__stdout__, flush=True)
        return
    with _DISABLE_CAPTURE():
        print(line, flush=True)


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _emit(f"ACCEPTANCE {number} ({name}): FAIL [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        _emit(
            f"ACCEPTANCE {number} ({name}): FAIL "
            f"[{elapsed:.2f}s over {budget_s:.0f}s budget]"
        )
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s:.0f}s"
        )
    _emit(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def _guarded_walk(seed, rng: random.Random, length: int, cap: int = TERM_CAP):
    """Random mutation walk that stops after a term blowup; yields every
    seed it reaches, including the oversized final one, with the directions
    taken to reach it."""
    path: tuple[int, ...] = ()
    for _ in range(length):
        k = rng.randint(1, seed.n)
        seed = mutate(seed, k)
        path += (k,)
        yield path, seed
        if max(len(p.terms) for p in seed.x) > cap:
            return


def test_01_mutation_is_an_involution():
    with criterion(1, "mutation involutivity", 10.0):
        rng = random.Random(20260823)
        pairs = 0
        while pairs < 1000:
            n = rng.randint(2, 4)
            matrix = random_exchange_matrix(rng, n, max_sym=rng.choice((2, 2, 3)))
            seed = root_seed(matrix, rng.choice(["trivial", "principal"]))
            # Base the involution pairs at the deepest tame seed reached.
            for _, reached in _guarded_walk(seed, rng, rng.randint(0, 3)):
                if max(len(p.terms) for p in reached.x) <= TERM_CAP:
                    seed = reached
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(1, n)
                once = mutate(seed, k)
                again = mutate(once, k)
                assert again.b.rows == seed.b.rows
                assert again.y == seed.y
                assert again.x == seed.x
                pairs += 1
                if pairs == 1000:
                    break
        assert pairs == 1000


def test_02_laurent_positivity_along_random_walks():
    with criterion(2, "Laurent positivity on random walks", 30.0):
        rng = random.Random(97)
        walks = 0
        variables_checked = 0
        while walks < 80:
            n = rng.randint(2, 3)
            # One walk in eight samples wilder entries under a tighter
            # term cap; those blow up fast and dominate the budget.
            wild = walks % 8 == 0
            matrix = random_exchange_matrix(rng, n, max_sym=3 if wild else 2)
            seed = root_seed(matrix, "principal")
            cap = 150 if wild else TERM_CAP
            for path, reached in _guarded_walk(seed, rng, 12, cap):
                for poly in reached.x:
                    assert poly.terms, "cluster variable expansion vanished"
                    assert all(c > 0 for c in poly.terms.values()), (
                        f"negative coefficient after path {path}"
                    )
                    variables_checked += 1
            walks += 1
        assert variables_checked > 500


def _assert_single_cycle(graph) -> None:
    degree: dict[tuple[int, ...], int] = {v: 0 for v in graph.vertices}
    adjacency: dict[tuple[int, ...], list[tuple[int, ...]]] = {
        v: [] for v in graph.vertices
    }
    for a, b in graph.edges:
        degree[a] += 1
        degree[b] += 1
        adjacency[a].append(b)
        adjacency[b].append(a)
    assert all(d == 2 for d in degree.values())
    assert len(graph.edges) == len(graph.vertices)
    start = graph.vertices[0]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = [w for v in frontier for w in adjacency[v] if w not in seen]
        seen.update(nxt)
        frontier = nxt
    assert len(seen) == len(graph.vertices)


def test_03_finite_type_closures():
    # C2 (b12 = 2), not B2: the catalogue's B2 is its transpose.
    cases = [
        ("A", 2, "cycle"),
        ("C", 2, "cycle"),
        ("G", 2, "cycle"),
        ("A", 3, "cubic"),
    ]
    with criterion(3, "finite type closures", 20.0):
        for family, n, shape in cases:
            label = f"{family}{n}"
            start = time.perf_counter()
            atlas = explore(root_seed(ExchangeMatrix(matrix(family, n)), "trivial"))
            assert atlas.complete, label
            counts = (len(atlas.variables), len(atlas.clusters))
            assert counts == finite_counts(family, n), label
            graph = atlas.exchange_graph()
            if shape == "cycle":
                _assert_single_cycle(graph)
            else:
                degree = {v: 0 for v in graph.vertices}
                for a, b in graph.edges:
                    degree[a] += 1
                    degree[b] += 1
                assert all(d == 3 for d in degree.values()), label
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0, f"{label} closure took {elapsed:.2f}s"


def test_04_distinct_cluster_monomials_have_distinct_g_vectors(
    a2_principal, a3_principal
):
    with criterion(4, "cluster monomial g-vector injectivity", 60.0):
        for atlas in (a2_principal, a3_principal):
            power_cache = {}

            def power(v: int, p: int):
                if (v, p) not in power_cache:
                    power_cache[(v, p)] = atlas.expansion(v) ** p
                return power_cache[(v, p)]

            by_g: dict[tuple[int, ...], list] = {}
            seen: set[tuple[tuple[int, int], ...]] = set()
            checked = 0
            for cluster in sorted(atlas.clusters):
                for powers in product(range(4), repeat=atlas.n):
                    key = tuple(
                        (v, p) for v, p in zip(cluster, powers) if p
                    )
                    key = tuple(sorted(key))
                    if key in seen:
                        continue
                    seen.add(key)
                    # The monomial's expansion, and its g-vector predicted as
                    # the G-matrix of the cluster times the powers.
                    poly = LaurentPoly.one(atlas.n, atlas.m)
                    g = (0,) * atlas.n
                    for v, p in key:
                        poly = poly * power(v, p)
                        g = tuple(a + p * b for a, b in zip(g, g_vector(v, atlas)))
                    assert poly.homogeneous_degree(atlas.root.b.rows) == g
                    by_g.setdefault(g, []).append(poly)
                    checked += 1
            collisions = [
                g for g, polys in by_g.items() if len(set(polys)) > 1
            ]
            assert not collisions, f"g-vector collisions at {collisions[:3]}"
            assert checked >= len(atlas.clusters)


def test_05_g_pair_partner_exists_for_every_cluster_and_subset(
    a2_principal, a3_principal, c2_principal
):
    with criterion(5, "g-pair partners for all (cluster, subset)", 60.0):
        for atlas in (a2_principal, a3_principal, c2_principal):
            report = verify_g_pairs(atlas)
            assert report.status == "pass", report.text()


def test_06_compatibility_degree_properties(
    a2_trivial, a3_trivial, c2_trivial, g2_trivial
):
    with criterion(6, "compatibility degree properties", 60.0):
        for atlas in (a2_trivial, a3_trivial, c2_trivial, g2_trivial):
            report = verify_degree_properties(atlas)
            assert report.status == "pass", report.text()


def test_07_maximal_compatible_sets_are_clusters(
    a2_trivial, a3_trivial, c2_trivial, g2_trivial
):
    with criterion(7, "maximal compatible sets equal clusters", 30.0):
        for atlas in (a2_trivial, a3_trivial, c2_trivial, g2_trivial):
            report = verify_maximal_sets(atlas)
            assert report.status == "pass", report.text()


def test_08_laurent_witness_trichotomy_sweep(a2_trivial, a3_trivial, c2_trivial):
    with criterion(8, "Laurent witness trichotomy", 60.0):
        for atlas in (a2_trivial, a3_trivial, c2_trivial):
            report = witness_sweep(atlas)
            assert report.status == "pass", report.text()


def test_09_unistructural_verification_and_certificates(
    a2_trivial, a3_trivial, c2_trivial
):
    with criterion(9, "unistructural verification", 120.0):
        for atlas in (a2_trivial, a3_trivial, c2_trivial):
            for sid, stored in enumerate(atlas.seeds):
                rerooted = explore(root_seed(stored.b, "trivial"))
                report = verify_unistructural(atlas, rerooted)
                assert report.status == "pass", (
                    f"re-rooted at seed {sid}:\n{report.text()}"
                )
            certificates = certify_incompatible_pairs(atlas)
            assert certificates
            for cert in certificates:
                assert cert.lhs_value < 0
                assert cert.rhs_lower_bound == 0


CLI_COMMANDS = [
    ["mutate", "--seed", "{trivial}", "--path", "1 2"],
    ["explore", "--seed", "{trivial}", "--format", "json"],
    ["explore", "--seed", "{trivial}", "--format", "dot"],
    ["expand", "--seed", "{trivial}", "--var", "4", "--cluster", "0 3"],
    ["gvector", "--seed", "{principal}"],
    ["dvector", "--seed", "{trivial}", "--var", "4", "--cluster", "0 1"],
    ["compat", "--seed", "{trivial}"],
    ["exchange-graph", "--seed", "{trivial}"],
    ["gpair", "--seed", "{principal}", "--cluster", "2 4", "--subset", "1"],
    ["witness", "--seed", "{trivial}", "--ref", "0", "--target", "4"],
    ["verify", "degree-properties", "--seed", "{trivial}"],
    ["verify", "unistructural", "--seed", "{trivial}", "--seed2", "{trivial}"],
]


def test_10_cli_output_is_deterministic(tmp_path):
    trivial = tmp_path / "a2.json"
    trivial.write_text(
        json.dumps({"n": 2, "B": A2_ROWS, "coefficients": "trivial"})
    )
    principal = tmp_path / "a2p.json"
    principal.write_text(
        json.dumps({"n": 2, "B": A2_ROWS, "coefficients": "principal"})
    )
    # The child process imports the package this test imported.
    src = os.path.dirname(os.path.dirname(clusteralg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with criterion(10, "CLI determinism", 120.0):
        for template in CLI_COMMANDS:
            argv = [
                a.format(trivial=trivial, principal=principal) for a in template
            ]
            outputs = []
            for hash_seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
                proc = subprocess.run(
                    [sys.executable, "-m", "clusteralg.cli", *argv],
                    capture_output=True,
                    env=env,
                    check=False,
                )
                assert proc.returncode == 0, (argv, proc.stderr.decode())
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], f"nondeterministic: {argv}"
            assert outputs[0], f"no output: {argv}"
