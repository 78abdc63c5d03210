"""Command-line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json

import pytest

import clusteralg.atlas
import clusteralg.cli
import clusteralg.grading
import clusteralg.laurent
from clusteralg import ExchangeMatrix, Seed, VerificationReport, root_seed
from clusteralg.catalogue import matrix
from clusteralg.cli import main
from clusteralg.seed import PositivityError
from conftest import (
    A2_ROWS,
    A3_ROWS,
    A4_ROWS,
    A5_ROWS,
    B3_ROWS,
    C2_ROWS,
    D4_ROWS,
    D5_ROWS,
    KRONECKER_2_ROWS,
    KRONECKER_3_ROWS,
    MARKOV_ROWS,
    corrupt_first_edge,
    drop_last_edge,
    misdirect_reverse_edges,
    without_root_maps,
)

# A4 mutated along directions 2 then 3.
A4_REROOTED = [[0, 0, -1, 1], [0, 0, 1, 0], [1, -1, 0, -1], [-1, 0, 1, 0]]
# B3 mutated along 2, 1, 3 and C3 along 1, 3, 2.
B3_REROOTED = [[0, 1, 1], [-1, 0, 0], [-2, 0, 0]]
C3_REROOTED = [[0, 1, -2], [-1, 0, 2], [1, -1, 0]]
# An affine rank 3 pattern, with a double edge each way.
AFFINE_3_ROWS = [[0, 1, 0], [-2, 0, 2], [0, -1, 0]]


@pytest.fixture()
def seeds(tmp_path):
    files = {}
    for name, rows, coefficients in [
        ("a2", A2_ROWS, "trivial"),
        ("a2p", A2_ROWS, "principal"),
        ("a3", A3_ROWS, "trivial"),
        ("a3p", A3_ROWS, "principal"),
        ("c2p", C2_ROWS, "principal"),
        ("a4", A4_ROWS, "trivial"),
        ("a4_rerooted", A4_REROOTED, "trivial"),
        ("b3p_rerooted", B3_REROOTED, "principal"),
        ("c3p_rerooted", C3_REROOTED, "principal"),
        ("a4p", A4_ROWS, "principal"),
        ("a5p", A5_ROWS, "principal"),
        ("b3", B3_ROWS, "trivial"),
        ("d4", D4_ROWS, "trivial"),
        ("d4p", D4_ROWS, "principal"),
        ("d5", D5_ROWS, "trivial"),
        ("e6", matrix("E", 6), "trivial"),
        ("e6p", matrix("E", 6), "principal"),
        ("inf", KRONECKER_2_ROWS, "trivial"),
        ("inf_p", KRONECKER_2_ROWS, "principal"),
        ("kron3", KRONECKER_3_ROWS, "trivial"),
        ("markov", MARKOV_ROWS, "trivial"),
        ("markov_p", MARKOV_ROWS, "principal"),
        ("affine3_p", AFFINE_3_ROWS, "principal"),
        ("a2_moved", [[0, -1], [1, 0]], "trivial"),
        ("fractional", [[0, 1.5], [-1.5, 0]], "trivial"),
    ]:
        data = {"n": len(rows), "B": rows, "coefficients": coefficients}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "coefficients": "trivial"}))
    files["bad"] = str(bad)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    files["garbage"] = str(garbage)
    return files


class TestCommands:
    def test_mutate_identity(self, seeds, capsys):
        assert main(["mutate", "--seed", seeds["a2"]]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n: 2"
        assert "  x1 = x1" in out

    def test_mutate_path(self, seeds, capsys):
        assert main(["mutate", "--seed", seeds["a2"], "--path", "1 2"]) == 0
        out = capsys.readouterr().out
        assert "  x1 = x1^-1*x2 + x1^-1" in out
        assert "  x2 = x2^-1 + x1^-1 + x1^-1*x2^-1" in out

    def test_explore_summary(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["a2"]]) == 0
        assert capsys.readouterr().out == "variables: 5, clusters: 5, complete: true\n"

    def test_explore_capped_summary(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["inf"], "--max-seeds", "8"]) == 0
        assert capsys.readouterr().out.endswith("complete: false\n")

    def test_explore_json(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["a2"], "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["complete"] is True
        assert len(data["variables"]) == 5

    def test_expand(self, seeds, capsys):
        code = main(
            ["expand", "--seed", seeds["a2"], "--var", "4", "--cluster", "0 3"]
        )
        assert code == 0
        assert capsys.readouterr().out == "x1^-1*x2 + x1^-1\n"

    def test_gvector_table(self, seeds, capsys):
        assert main(["gvector", "--seed", seeds["a2p"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variable\tg1\tg2"
        assert lines[1] == "0\t1\t0"
        assert len(lines) == 6

    def test_gvector_single_variable(self, seeds, capsys):
        assert main(["gvector", "--seed", seeds["a2p"], "--var", "4"]) == 0
        assert capsys.readouterr().out == "variable\tg1\tg2\n4\t-1\t0\n"

    def test_gvector_unknown_variable(self, seeds, capsys):
        for var in ("-1", "5"):
            assert main(["gvector", "--seed", seeds["a2p"], "--var", var]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: variable id {var} is not in the atlas\n"

    def test_dvector(self, seeds, capsys):
        code = main(
            ["dvector", "--seed", seeds["a2"], "--var", "4", "--cluster", "0 1"]
        )
        assert code == 0
        assert capsys.readouterr().out == "1 1\n"

    def test_compat_matrix(self, seeds, capsys):
        assert main(["compat", "--seed", seeds["a2"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "variable\t0\t1\t2\t3\t4"
        assert lines[1] == "0\t-1\t0\t1\t0\t1"

    def test_exchange_graph_dot(self, seeds, capsys):
        assert main(["exchange-graph", "--seed", seeds["a2"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph exchange {\n")
        assert '  c0 [label="{0,1}"];' in out

    # Pinned before the graph was built by grouping clusters on their
    # shared (n - 1)-subsets.
    @pytest.mark.parametrize(
        "name, caps, digest",
        [
            (
                "a4",
                [],
                "ff5af217f71daa37b557de41711f19f5139f77659a485ffd795e737fcd938eb3",
            ),
            (
                "inf",
                ["--max-depth", "6"],
                "ed6db88a70c32f2a4ae12e1872718e8bc581c47fa0f7322e9af5159732d5324a",
            ),
        ],
    )
    def test_dot_matches_golden_digest(self, seeds, capsys, name, caps, digest):
        for argv in (
            ["exchange-graph", "--seed", seeds[name]],
            ["explore", "--seed", seeds[name], "--format", "dot"],
        ):
            assert main(argv + caps) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ["exchange-graph", "--max-depth", "3"],
            ["exchange-graph", "--max-depth", "3", "--format", "text"],
            ["explore", "--max-depth", "3", "--format", "dot"],
        ],
    )
    def test_incomplete_exchange_graph_warns_on_every_call(
        self, seeds, capsys, argv
    ):
        outputs = []
        for _ in range(2):
            assert main(argv + ["--seed", seeds["inf"]]) == 0
            captured = capsys.readouterr()
            assert captured.err == (
                "warning: exchange graph of an incomplete atlas may be a "
                "proper subgraph\n"
            )
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] != ""
        assert main(argv[:1] + ["--seed", seeds["a2"]]) == 0
        assert capsys.readouterr().err == ""

    def test_exchange_graph_text(self, seeds, capsys):
        code = main(["exchange-graph", "--seed", seeds["a2"], "--format", "text"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "vertices: 5"

    def test_gpair(self, seeds, capsys):
        code = main(
            ["gpair", "--seed", seeds["a2p"], "--cluster", "2 4", "--subset", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out == "{1,2}\n"

    def test_gpair_on_a_capped_atlas_stays_on_stored_seeds(self, seeds, capsys):
        # Along every direction a cluster is its own partner; the walk
        # must reach stored cluster {0,5,7} over stored edges.
        code = main(
            [
                "gpair", "--seed", seeds["a3p"], "--max-seeds", "8",
                "--cluster", "0 5 7", "--subset", "1 2 3",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "{0,5,7}\n"

    def test_witness(self, seeds, capsys):
        code = main(
            ["witness", "--seed", seeds["a2"], "--ref", "0", "--target", "4"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cluster: {0,1}"
        assert lines[-1] == "reference-exponent: -1"

    def test_verbose_preamble(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["a2"], "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"seed-file: {seeds['a2']}"
        assert lines[1] == "caps: max_seeds=10000 max_depth=64"

    def test_out_writes_file(self, seeds, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code = main(
            ["exchange-graph", "--seed", seeds["a2"], "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("graph exchange {")


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite,seed",
        [
            ("degree-properties", "a2"),
            ("maximal-sets", "a2"),
            ("witnesses", "a2"),
            ("g-pairs", "a2p"),
        ],
    )
    def test_passing_suites_exit_zero(self, seeds, capsys, suite, seed):
        assert main(["verify", suite, "--seed", seeds[seed]]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"suite: {suite}\n")
        assert out.endswith("result: pass\n")

    def test_unistructural(self, seeds, capsys):
        code = main(
            [
                "verify",
                "unistructural",
                "--seed",
                seeds["a2"],
                "--seed2",
                seeds["a2_moved"],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identification: pass" in out
        assert out.endswith("result: pass\n")

    def test_unistructural_needs_second_seed(self, seeds, capsys):
        assert main(["verify", "unistructural", "--seed", seeds["a2"]]) == 2
        assert "error: verify unistructural needs --seed2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, target",
        [
            ("degree-properties", "clusteralg.compat.verify_degree_properties"),
            ("maximal-sets", "clusteralg.compat.verify_maximal_sets"),
            ("g-pairs", "clusteralg.grading.verify_g_pairs"),
            ("witnesses", "clusteralg.unistructure.witness_sweep"),
        ],
    )
    def test_failing_suite_exits_one(self, seeds, capsys, monkeypatch, suite, target):
        report = VerificationReport(suite=suite)
        report.add_check("choice-independence", False, "synthetic failure")
        monkeypatch.setattr(target, lambda atlas: report)
        assert main(["verify", suite, "--seed", seeds["a2"]]) == 1
        out = capsys.readouterr().out
        assert "choice-independence: fail" in out
        assert out.endswith("result: fail\n")

    def test_incomplete_atlas_exits_two(self, seeds, capsys):
        code = main(
            ["verify", "degree-properties", "--seed", seeds["inf"], "--max-seeds", "8"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_key_in_seed_file(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["bad"]]) == 2
        assert "error: seed file is missing key 'B'" in capsys.readouterr().err

    def test_fractional_entries_in_seed_file(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["fractional"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: 'B' entries must be integers" in captured.err

    def test_invalid_json(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["garbage"]]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["explore", "--seed", str(tmp_path / "nope.json")]) == 2
        assert "cannot read seed file" in capsys.readouterr().err

    def test_invalid_format_for_command(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["a2"], "--format", "tsv"]) == 2
        assert "not valid for explore" in capsys.readouterr().err

    def test_unknown_variable(self, seeds, capsys):
        code = main(
            ["expand", "--seed", seeds["a2"], "--var", "99", "--cluster", "0 1"]
        )
        assert code == 2
        assert "variable id 99 is not in the atlas" in capsys.readouterr().err

    def test_unknown_cluster(self, seeds, capsys):
        code = main(
            ["expand", "--seed", seeds["a2"], "--var", "0", "--cluster", "0 2"]
        )
        assert code == 2
        assert "is not in the atlas" in capsys.readouterr().err

    def test_unparseable_cluster(self, seeds, capsys):
        code = main(
            ["dvector", "--seed", seeds["a2"], "--var", "0", "--cluster", "a b"]
        )
        assert code == 2
        assert "cannot parse cluster" in capsys.readouterr().err

    def test_gvector_on_trivial_seed(self, seeds, capsys):
        assert main(["gvector", "--seed", seeds["a2"]]) == 2
        assert "principal required" in capsys.readouterr().err

    def test_invalid_caps(self, seeds, capsys):
        assert main(["explore", "--seed", seeds["a2"], "--max-seeds", "0"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_suite(self, seeds, capsys):
        assert main(["verify", "nonsense", "--seed", seeds["a2"]]) == 2

    @pytest.mark.parametrize(
        "fault", [PositivityError("negative coefficient"), RuntimeError("broken")]
    )
    def test_engine_fault_exits_three(self, seeds, capsys, monkeypatch, fault):
        def failing(seed, k):
            raise fault

        monkeypatch.setattr("clusteralg.atlas.mutate", failing)
        assert main(["explore", "--seed", seeds["a2"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"engine fault: {fault}\n"

    @pytest.mark.parametrize("name", ["a4", "b3", "a3p"])
    @pytest.mark.parametrize(
        "change, fault",
        [
            # Passes positivity; a later exchange that divides by it fails.
            (lambda c: c + 1, ") is not divisible by ("),
            (lambda c: -c, "produced nonpositive coefficients"),
        ],
        ids=["plus-one", "negated"],
    )
    def test_wrong_quotient_coefficient_is_an_engine_fault(
        self, seeds, capsys, monkeypatch, name, change, fault
    ):
        # A quotient in the atlas's shared layout with a wrong leading
        # coefficient.
        packed_quotient = clusteralg.laurent._packed_quotient

        def wrong(num, den):
            quotient = packed_quotient(num, den)
            if quotient is not None and len(quotient.packed) > 1:
                lead = next(iter(quotient.packed))
                quotient.packed = {**quotient.packed, lead: change(quotient.packed[lead])}
            return quotient

        monkeypatch.setattr(clusteralg.laurent, "_packed_quotient", wrong)
        assert main(["explore", "--seed", seeds[name]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine fault: ")
        assert fault in captured.err

    def test_two_seeds_on_one_cluster_are_an_engine_fault(
        self, seeds, capsys, monkeypatch
    ):
        # Every memo hit's child has B negated: the first lands on a stored
        # cluster with a second seed.  A4's reversal would carry exchanges
        # along the root's map, each child mutated by mutate_rows too, so no
        # root map is kept and the first memo hit is the one named.
        without_root_maps(monkeypatch)
        mutate_rows = clusteralg.atlas.mutate_rows

        def negated(rows, y, k):
            got, y = mutate_rows(rows, y, k)
            return tuple(tuple(-e for e in row) for row in got), y

        monkeypatch.setattr(clusteralg.atlas, "mutate_rows", negated)
        assert main(["explore", "--seed", seeds["a4"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "engine fault: seed 14 mutated in direction 2 and seed 16 share a "
            "cluster but are different seeds; a seed should be determined by "
            "its cluster\n"
        )

    def test_a_wrong_quotient_carried_along_root_maps_is_an_engine_fault(
        self, seeds, capsys, monkeypatch
    ):
        # Markov's root mutated in direction 1 gets the variable of
        # direction 2.  Its rotations carry that wrong quotient to the
        # root's other two exchanges, and a later division fails.
        original = clusteralg.atlas.mutate
        root = root_seed(ExchangeMatrix(MARKOV_ROWS), "trivial")
        at_root = []

        def wrong(seed, k):
            child = original(seed, k)
            if seed.x != root.x:
                return child
            at_root.append(k)
            x = (original(seed, 2).x[1],) + child.x[1:]
            return Seed(child.b, child.y, x)

        monkeypatch.setattr(clusteralg.atlas, "mutate", wrong)
        assert main(["explore", "--seed", seeds["markov"], "--max-depth", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine fault: (")
        assert "is not divisible by" in captured.err
        assert at_root == [1]

    def test_a_reverse_edge_that_is_not_the_parent_is_an_engine_fault(
        self, seeds, capsys, monkeypatch
    ):
        misdirect_reverse_edges(monkeypatch)
        assert main(["explore", "--seed", seeds["a3"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "engine fault: seed 2 in direction 2 reaches seed 1, but mutation "
            "is an involution and seed 0 in direction 2 reaches seed 2\n"
        )

    def test_a_wrong_symmetrizer_fails_the_duality_check(
        self, seeds, capsys, monkeypatch
    ):
        # C2's symmetrizer is (1, 2); swapped, the inverse read off the
        # c-vectors is wrong wherever they mix both directions.
        monkeypatch.setattr(
            clusteralg.grading, "find_skew_symmetrizer", lambda rows: (2, 1)
        )
        assert main(["verify", "g-pairs", "--seed", seeds["c2p"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine fault: the c-vectors of seed ")
        assert captured.err.count("\n") == 1

    def test_a_non_homogeneous_root_expansion_is_an_engine_fault(
        self, seeds, capsys, monkeypatch
    ):
        # Under principal coefficients x1 + y1 has terms of degrees (1, 0)
        # and (0, 1), so no variable can expand to it.
        forged = clusteralg.laurent.LaurentPoly.parse("x1 + y1", 2, 2)
        monkeypatch.setattr(
            clusteralg.atlas.PatternAtlas, "expansion", lambda atlas, v: forged
        )
        for argv in (
            ["gvector", "--seed", seeds["a2p"]],
            ["verify", "g-pairs", "--seed", seeds["a2p"]],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "engine fault: the root expansion of variable 0 is not "
                "homogeneous: terms have degrees (1, 0) and (0, 1); the "
                "exchange engine is inconsistent\n"
            )

    def test_broken_edge_table_is_an_engine_fault(self, seeds, capsys, monkeypatch):
        explore = clusteralg.cli.explore

        def corrupted(root, caps):
            atlas = explore(root, caps)
            corrupt_first_edge(atlas)
            return atlas

        monkeypatch.setattr(clusteralg.cli, "explore", corrupted)
        for argv in (
            ["gpair", "--seed", seeds["a3p"], "--cluster", "0 1 2", "--subset", "1"],
            ["expand", "--seed", seeds["a3p"], "--cluster", "0 1 5", "--var", "3"],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "engine fault: the edge table is broken: seed 0 in direction 1 "
            )

    def test_missing_edge_of_a_complete_atlas_is_an_engine_fault(
        self, seeds, capsys, monkeypatch
    ):
        explore = clusteralg.cli.explore

        def dropped(root, caps):
            atlas = explore(root, caps)
            drop_last_edge(atlas)
            return atlas

        monkeypatch.setattr(clusteralg.cli, "explore", dropped)
        for argv in (
            ["gpair", "--seed", seeds["a3p"], "--cluster", "0 1 2", "--subset", "1"],
            ["expand", "--seed", seeds["a3p"], "--cluster", "0 1 5", "--var", "3"],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "engine fault: seed 13 has no edge in direction 1 on a complete "
                "atlas; exploration is broken\n"
            )


# sha256 of the help text of each parser and of stderr for four usage
# errors, pinned before the commands were declared once each.  argparse
# wraps to the terminal width, so COLUMNS is fixed.
HELP_DIGESTS = {
    "": "bc4097915036211aabdacf00ff3fc171495a5e99004a06803bf9a20c9d3ad461",
    "mutate": "4ef8a3a7db4d8cb1a5e3decc912f80c66daa9fd27613964ecb44d57ef7302c0e",
    "explore": "5cdf0b18b431ec5008d841072fe89f1cddde32811dc9f1bf10456b292124e4b5",
    "expand": "01555fc3bc78fd6e5dcc01c2097a0029017952d28b7a5729168ddd0fda58874e",
    "gvector": "4a6ab30970078ee099fcfc6886a7c65328460248ed8092ce77a710df67cdc147",
    "dvector": "f3d8661865dca39fb77285d4309099315198fe23fc3945f4660fff4c87a4643a",
    "compat": "9df9fe6610abf8c1d8f2721bc7a17ef1e2510acb336a7ac7770717e87262da59",
    "exchange-graph": "3f06ebd1a86eacad755d298786a504d6cd503dbfbecd4c9692233d63e121e6ad",
    "gpair": "b8b80dc2ef1a25534c63c0f7c88c6fc9fd083c95c4a2317985e31239ca1d0129",
    "witness": "26bea632e35b9a1a6a84b88d6e152f57e62332e1e016f158a381b69bb43da0e0",
    "verify": "7c140eb51e64df0af09ff218ed11e57008d84720ce79959caaa9c1acdfa2ca24",
}


def _count_parsers(monkeypatch) -> list[object]:
    """Record every ArgumentParser built from here on."""
    built: list[object] = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestSurface:
    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
    def test_help_matches_golden_digest(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"] if command else ["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == HELP_DIGESTS[command]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["frobnicate"],
                "761de1d6684a194f993fe7d43ec2e94d43b4abf561ca42c34680155182b83c6a",
            ),
            (
                ["verify", "nonsense", "--seed", "x"],
                "f620d6460e8ff1ca84437b26209aad4e491ad6db10ac5c9be965e44773f03414",
            ),
            (
                ["explore"],
                "54c1cdbde972473001d80cbd4d7d416f3d1b7a20487b5d6fbf7b9563ff403209",
            ),
            (
                ["explore", "--seed", "{a2}", "--format", "tsv"],
                "e3de29c80a90e4c17ea7f2750bd126b8c7bb31452f87a14e60629506b20b7e30",
            ),
        ],
    )
    def test_usage_error_matches_golden_digest(
        self, seeds, capsys, monkeypatch, argv, digest
    ):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([a.format(**seeds) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert hashlib.sha256(captured.err.encode()).hexdigest() == digest

    def test_import_builds_no_parser(self, seeds, capsys, monkeypatch):
        built = _count_parsers(monkeypatch)
        importlib.reload(clusteralg.cli)
        assert built == []
        assert main(["explore", "--seed", seeds["a2"]]) == 0
        assert built

    def test_repeat_calls_build_no_parser(self, seeds, capsys, monkeypatch):
        argv = ["explore", "--seed", seeds["a2"], "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        built = _count_parsers(monkeypatch)
        assert main(["frobnicate"]) == 2
        assert main(argv) == 0
        assert built == []
        assert capsys.readouterr().out == first


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", "--seed", "{a2}", "--format", "json"],
            ["compat", "--seed", "{a2}"],
            ["exchange-graph", "--seed", "{a2}"],
            ["verify", "degree-properties", "--seed", "{a2}"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, seeds, capsys, argv):
        argv = [a.format(a2=seeds["a2"]) for a in argv]
        assert main(argv) in (0, 1)
        first = capsys.readouterr().out
        assert main(argv) in (0, 1)
        assert capsys.readouterr().out == first

    # Pinned digests: repeat runs only compare one commit with itself, so
    # drift in the atlas or its JSON export across commits shows only here.
    @pytest.mark.parametrize(
        "name, caps, digest",
        [
            (
                "a3p",
                [],
                "d5a9944e888151c3348c854bbaef1846f8b300fe734169b6fe4dbcb3e663107f",
            ),
            (
                "a4p",
                ["--max-seeds", "20"],
                "8f6a0c447e30fe78509b665c0719f3f252fcdcfa1eeb292ebda0c501f7cb1a7e",
            ),
            (
                "inf",
                ["--max-depth", "6"],
                "03b2b4ae29dcd8277454f51378887a088a8c1e8c18ff26b734e6a729968fb154",
            ),
            # Pinned before divisions of 256 or more term pairs ran over
            # packed keys; both reach that path.
            (
                "markov",
                ["--max-depth", "4"],
                "bf51af3eca1aea01b66e79d3cef8dcc02cfb338f5e383c67798c957aa90504e1",
            ),
            (
                "kron3",
                ["--max-depth", "4"],
                "910a7c6fec99d079a599f20545674632ae808352601d7f8d55b18438a7316f31",
            ),
            # Pinned before large exchange binomials were held over packed
            # keys; the shape of the benchmark's Kronecker b=2 job.
            (
                "inf_p",
                ["--max-depth", "11"],
                "b2fc5f48b17d3b7a7e9a3e3f676bbe0309a6a2407a05ec8c23cf9ed45caf3979",
            ),
            # Pinned before exploration computed each distinct exchange
            # once: most of their edges repeat an exchange already made.
            (
                "a5p",
                [],
                "1f94953d3bf74ab3484b8b6d47753376d7d496009c91616feee1bc1f84283881",
            ),
            (
                "d5",
                [],
                "d0d344b9527e7488abf1ccdb8a981737264253d84539911aaee1dad36c4f32dc",
            ),
            # Pinned before the last level skipped exchanges that cannot
            # land on a stored seed: some of these last-level children do.
            (
                "a4p",
                ["--max-depth", "3"],
                "4a93078ad6d78f4abfd09f379637b9a2d242c4e83783faea84205e4cf9ce3262",
            ),
            (
                "d4",
                ["--max-depth", "2"],
                "629bc4eca8b72728a0e2ae0fbf6931b53392b72aab2f23b06f54f76cfa164f31",
            ),
            # Pinned before the export was written straight from the atlas:
            # B3's entries of -2 and 2, and A4 rooted at a mutated B.
            (
                "b3",
                [],
                "2098d618032116477a538861cf66bbaa2d190f68a20614eaf755e15047ddd69d",
            ),
            (
                "a4_rerooted",
                [],
                "e906346056be85e140f6e2f549feec94297cf434a0238ace7aa4f72318caa971",
            ),
            # Pinned before landings were checked in the stored seed's own
            # positions, with no canonical class key: rank 6, whose landings
            # mostly take the permuted branch.
            (
                "e6",
                [],
                "798bc6382fd591ef7a8f3128b14249da31be70a53319ab97bfb0f65459e4b268",
            ),
            (
                "e6p",
                [],
                "0b7792dd785f6e2fa2deb27a0660678a392df21187be200f85c2fbfb156cabe9",
            ),
            # Pinned before expansions were printed through one factor table
            # per rank: y factors over three generators, coefficients up to
            # 350 with negative exponents, and 17-digit coefficients.
            (
                "markov_p",
                ["--max-depth", "3"],
                "0600debd3e1f7d5ae4b5f8944eb2f75bcb76d7bbe409c6c6d56e03385706b74f",
            ),
            (
                "affine3_p",
                ["--max-depth", "6"],
                "addaf5d955a4c9d442d2e467078ff508d9a7ad620ba7838c7d336eb6a1273a77",
            ),
            (
                "kron3",
                ["--max-depth", "5"],
                "10cda7b9b2a9b73ac9963d8b97b2c968f11326cb10bb56036114bd2bf0dfd6a5",
            ),
            # Pinned before exchanges were carried along the root's maps:
            # Markov's rotations and swaps, and under principal coefficients
            # D4's swap of two legs, y moving along.
            (
                "markov",
                ["--max-depth", "5"],
                "c166c8c437c3bec0ca88393c649aa499e715acc1402241bed90a268c27517c27",
            ),
            (
                "d4p",
                [],
                "581bc666eeaafd1eb2aac4199ada7ebd23dc68b659c840369ca340d43f4b1558",
            ),
        ],
    )
    def test_explore_json_matches_golden_digest(
        self, seeds, capsys, name, caps, digest
    ):
        assert main(["explore", "--seed", seeds[name], "--format", "json"] + caps) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_expand_matches_golden_digest(self, seeds, capsys):
        # Pinned with the explore digests above: an affine variable in the
        # cluster of the seed at path 3, 2, 1.
        argv = ["expand", "--seed", seeds["affine3_p"], "--max-depth", "6"]
        assert main(argv + ["--var", "30", "--cluster", "5 8 12"]) == 0
        out = capsys.readouterr().out
        digest = "58b13d66a8c0755851f59ef469d862404ce80ad0685e1f2a158c57fb12dd3da9"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["markov", "kron3"])
    def test_golden_wild_explorations_divide_over_packed_keys(
        self, seeds, capsys, monkeypatch, name
    ):
        # Every exchange binomial is computed in the layout that holds the
        # atlas's variables and divided there, once, and nothing in the
        # exploration builds its tuple keys.
        held, divided, layouts = [], [], set()
        packed_binomial = clusteralg.laurent.packed_binomial
        packed_quotient = clusteralg.laurent._packed_quotient

        def holding(n, m, sides, den):
            held.append(packed_binomial(n, m, sides, den))
            assert held[-1].keys is den.layout.keys
            layouts.add(den.layout)
            return held[-1]

        def dividing(num, den):
            divided.append(num)
            return packed_quotient(num, den)

        monkeypatch.setattr(clusteralg.laurent, "packed_binomial", holding)
        monkeypatch.setattr(clusteralg.laurent, "_packed_quotient", dividing)
        argv = ["explore", "--seed", seeds[name], "--format", "json"]
        assert main(argv + ["--max-depth", "4"]) == 0
        assert held and len(divided) == len(held)
        assert all(num is binomial for num, binomial in zip(divided, held))
        assert len(layouts) == 1
        for num in held:
            with pytest.raises(AttributeError):
                clusteralg.laurent.LaurentPoly.terms.__get__(num)

    # Pinned at the commit before coefficients became plain exponent
    # tuples: these print the y line and a witness coefficient.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["mutate", "--seed", "{c2p}", "--path", "1 2 1"],
                "bb18087ba8af3d4ca1437236ba0e0cbbddb8cadfdf353e90b878fc87c119207a",
            ),
            (
                ["mutate", "--seed", "{a3p}", "--path", "1 2 1"],
                "75e70173d6648595263ed04b4f255f7b0d56b4ea3db91bc2f4c1f40b6976cfdb",
            ),
            (
                ["witness", "--seed", "{c2p}", "--ref", "1", "--target", "4"],
                "1a0d4234c4d14c93c3a947727dff852e6398d860e10065dd5876b4c17b567316",
            ),
        ],
    )
    def test_coefficient_output_matches_golden_digest(
        self, seeds, capsys, argv, digest
    ):
        assert main([a.format(**seeds) for a in argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Pinned before expansions were computed in ascending-id coordinates
    # directly; the A3 cluster {5,7,8} is held by a stored seed in the
    # order 8, 7, 5.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["verify", "degree-properties", "--seed", "{a4}"],
                "1c1761265ddfc3c72c887354df1a207269b3cda6b9cd8be4869ee530f649aff2",
            ),
            (
                ["verify", "witnesses", "--seed", "{a4}"],
                "30504c5803ddd638dd06528e77c0ec8da1ba0fbf4c19c30bcc4f92d0ee76caf1",
            ),
            (
                ["verify", "maximal-sets", "--seed", "{a4}"],
                "a8b36118b2ff287cc15d65a3b9fe9e8d107b97249c038290cd385360f73e5f9c",
            ),
            (
                [
                    "verify",
                    "unistructural",
                    "--seed",
                    "{a4}",
                    "--seed2",
                    "{a4_rerooted}",
                ],
                "52d27c8ee0c961d55d15809b0abe171ffbf30766c9c5a373c539e69500fbbbba",
            ),
            (
                ["expand", "--seed", "{a3p}", "--var", "1", "--cluster", "5 7 8"],
                "7b0807c03bcdd4be757fb479282ed55e88f6c1b1afc9c11137bac7838679b977",
            ),
            (
                ["expand", "--seed", "{a3p}", "--var", "0", "--cluster", "4 6 8"],
                "c6465d9255273776700a2a3439beea1a9fac86ce17d0703be20a218d9331b5d7",
            ),
            (
                ["dvector", "--seed", "{a3p}", "--var", "1", "--cluster", "5 7 8"],
                "ce05c204ff512d9fc2b2c25b2c1dbcbb5d731d6e8652bf35ee798862fdea29d8",
            ),
            # Pinned before hosts relabelled a twin host's expansions.
            (
                ["verify", "degree-properties", "--seed", "{d4}"],
                "e399933b92e3e1cb51f0eb331b4175e6edf58d4b26dfb2cd327cbf516a1618fd",
            ),
            (
                ["verify", "witnesses", "--seed", "{d4}"],
                "7affc95c2407206ca8c9bb7ab31b479fe997bb80c26bdadedede9d76bc1e96a8",
            ),
            (
                ["verify", "maximal-sets", "--seed", "{d4}"],
                "c7d563f1c990971c3f514ecb47b9404cd92f22d1b4b93c44c813b9b90d7d061e",
            ),
            (
                ["verify", "degree-properties", "--seed", "{b3}"],
                "c51c3582d6571ac7d5d1cf60e2daea86b981f4f0eaab7741ad441fe7e437191c",
            ),
            (
                ["verify", "witnesses", "--seed", "{b3}"],
                "c205500c48d1a63909127d450bc6a61879a9855753dd90cad2885bde177b689e",
            ),
            (
                ["verify", "maximal-sets", "--seed", "{b3}"],
                "8e7a91b7eea2ffad5bac5653c42e7123fb219379737b1568f6b619c195fee90f",
            ),
            (
                [
                    "expand",
                    "--seed",
                    "{a4}",
                    "--max-seeds",
                    "20",
                    "--var",
                    "11",
                    "--cluster",
                    "0 1 7 10",
                ],
                "f4c4d4b170ea32c749095f11cc6d1307bd919d3952dcd357afe280a772ca3678",
            ),
            # Pinned before kept cluster automorphisms served most hosts.
            (
                ["verify", "degree-properties", "--seed", "{d5}"],
                "7386ad88f1978c09e602575b9a2ad62940a938abbe21cf7f9b6a98ccf05f2dd1",
            ),
            (
                ["verify", "witnesses", "--seed", "{d5}"],
                "d57763bc92091503b5770467feb94a325cfa87d93992234a20e0f82c94f89d18",
            ),
            # Pinned before the cone index became one bit set per variable.
            (
                ["verify", "g-pairs", "--seed", "{b3p_rerooted}"],
                "f24a36f8c7d50a712d7806e93266b93018aea8bb8201312710db250e8c76ae38",
            ),
            (
                ["verify", "g-pairs", "--seed", "{c3p_rerooted}"],
                "f24a36f8c7d50a712d7806e93266b93018aea8bb8201312710db250e8c76ae38",
            ),
        ],
    )
    def test_rerooted_reports_match_golden_digest(self, seeds, capsys, argv, digest):
        assert main([a.format(**seeds) for a in argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
