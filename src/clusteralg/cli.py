"""Command-line surface for batch computation and verification.

Every command reads a root seed from a JSON file ({"n": ..., "B":
row-major lists, "coefficients": "trivial"|"principal"}), explores as
needed under explicit caps, and prints deterministic text: identical
inputs give byte-identical output.  Exit codes: 0 success or verified,
1 a verification ran and the property failed, 2 usage or input error
(including incomplete atlases handed to verification suites), 3 engine
fault (a broken invariant or an arithmetic failure inside the engine).
The exchange graph of a capped atlas comes with one warning on stderr.

Each command is declared once, where its subparser is added: its
options, its handler and its output formats (the first is the default).
A handler returns its text and exit code; ``main`` alone checks the
format and writes the ``--verbose`` preamble and the output.  The parser
is built on the first ``main()`` call and kept, so ``main()`` may be
called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import compat as compat_mod
from . import grading as grading_mod
from . import unistructure as unistructure_mod
from .atlas import ExchangeGraph, ExploreCaps, IncompleteAtlasError, PatternAtlas
from .atlas import explore, format_cluster
from .seed import format_seed, load_seed_file, mutate_path

# Suite name -> (module, function name).  The function is looked up when
# the suite runs, so a patched module attribute is the one called.
_SUITES = {
    "degree-properties": (compat_mod, "verify_degree_properties"),
    "maximal-sets": (compat_mod, "verify_maximal_sets"),
    "g-pairs": (grading_mod, "verify_g_pairs"),
    "witnesses": (unistructure_mod, "witness_sweep"),
    "unistructural": (unistructure_mod, "verify_unistructural"),
}


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}: expected integers") from None


def _load_atlas(args: argparse.Namespace) -> PatternAtlas:
    return explore(load_seed_file(args.seed), args.caps)


def _exchange_graph(atlas: PatternAtlas) -> ExchangeGraph:
    if not atlas.complete:
        print(
            "warning: exchange graph of an incomplete atlas may be a proper subgraph",
            file=sys.stderr,
        )
    return atlas.exchange_graph()


def _cmd_mutate(args: argparse.Namespace) -> tuple[str, int]:
    seed = load_seed_file(args.seed)
    path = _parse_int_list(args.path, "path")
    return format_seed(mutate_path(seed, path)) + "\n", 0


def _cmd_explore(args: argparse.Namespace) -> tuple[str, int]:
    atlas = _load_atlas(args)
    if args.fmt == "json":
        return atlas.to_json(), 0
    if args.fmt == "dot":
        return _exchange_graph(atlas).to_dot(), 0
    return (
        f"variables: {len(atlas.variables)}, "
        f"clusters: {len(atlas.clusters)}, "
        f"complete: {'true' if atlas.complete else 'false'}\n"
    ), 0


def _cmd_expand(args: argparse.Namespace) -> tuple[str, int]:
    atlas = _load_atlas(args)
    cluster = _parse_int_list(args.cluster, "cluster")
    return str(atlas.expand(args.var, cluster)) + "\n", 0


def _cmd_gvector(args: argparse.Namespace) -> tuple[str, int]:
    atlas = _load_atlas(args)
    if args.var is None:
        return grading_mod.g_vector_table(atlas), 0
    return grading_mod.g_vector_table(atlas, [args.var]), 0


def _cmd_dvector(args: argparse.Namespace) -> tuple[str, int]:
    atlas = _load_atlas(args)
    cluster = _parse_int_list(args.cluster, "cluster")
    vec = compat_mod.d_vector(args.var, cluster, atlas)
    return " ".join(str(v) for v in vec) + "\n", 0


def _cmd_compat(args: argparse.Namespace) -> tuple[str, int]:
    return compat_mod.compatibility_matrix_tsv(_load_atlas(args)), 0


def _cmd_exchange_graph(args: argparse.Namespace) -> tuple[str, int]:
    graph = _exchange_graph(_load_atlas(args))
    return (graph.to_dot() if args.fmt == "dot" else graph.to_text()), 0


def _cmd_gpair(args: argparse.Namespace) -> tuple[str, int]:
    atlas = _load_atlas(args)
    cluster = _parse_int_list(args.cluster, "cluster")
    subset = _parse_int_list(args.subset, "subset")
    partner = grading_mod.find_g_pair(cluster, subset, atlas)
    return format_cluster(partner) + "\n", 0


def _cmd_witness(args: argparse.Namespace) -> tuple[str, int]:
    atlas = _load_atlas(args)
    witness = unistructure_mod.laurent_witness(args.ref, args.target, atlas)
    return "\n".join(witness.describe()) + "\n", 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    atlases = [_load_atlas(args)]
    if args.suite == "unistructural":
        if not args.seed2:
            raise ValueError("verify unistructural needs --seed2")
        atlases.append(explore(load_seed_file(args.seed2), args.caps))
    module, name = _SUITES[args.suite]
    report = getattr(module, name)(*atlases)
    return report.text(), {"pass": 0, "fail": 1, "error": 2}[report.resolve_status()]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusteralg",
        description="Exact cluster-pattern computation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, formats, caps=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("--seed", required=True, help="seed JSON file")
        p.add_argument(
            "--verbose", action="store_true", help="print input context lines"
        )
        if caps:
            p.add_argument("--max-seeds", type=int, default=ExploreCaps.max_seeds)
            p.add_argument("--max-depth", type=int, default=ExploreCaps.max_depth)
        p.add_argument(
            "--format", dest="fmt", default=None, help="output format for the command"
        )
        p.add_argument("--out", default=None, help="write output to a file")
        p.set_defaults(handler=handler, formats=formats)
        return p

    p = command("mutate", _cmd_mutate, ("text",), caps=False)
    p.add_argument("--path", default="", help='directions, e.g. "1 2 1"')

    command("explore", _cmd_explore, ("text", "json", "dot"))

    p = command("expand", _cmd_expand, ("text",))
    p.add_argument("--var", type=int, required=True, help="variable id")
    p.add_argument("--cluster", required=True, help='variable ids, e.g. "0 3"')

    p = command("gvector", _cmd_gvector, ("tsv",))
    p.add_argument("--var", type=int, default=None, help="restrict to one variable id")

    p = command("dvector", _cmd_dvector, ("text",))
    p.add_argument("--var", type=int, required=True)
    p.add_argument("--cluster", required=True)

    command("compat", _cmd_compat, ("tsv",))
    command("exchange-graph", _cmd_exchange_graph, ("dot", "text"))

    p = command("gpair", _cmd_gpair, ("text",))
    p.add_argument("--cluster", required=True)
    p.add_argument("--subset", required=True, help='directions, e.g. "1 3"')

    p = command("witness", _cmd_witness, ("text",))
    p.add_argument("--ref", type=int, required=True, help="reference variable id")
    p.add_argument("--target", type=int, required=True, help="target variable id")

    p = command("verify", _cmd_verify, ("text",))
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--seed2", default=None, help="second seed file (unistructural)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fmt = args.fmt or args.formats[0]
        if args.fmt not in args.formats:
            raise ValueError(
                f"format {args.fmt!r} is not valid for {args.command}; "
                f"choose from {sorted(args.formats)}"
            )
        # Commands without cap options (mutate) print the default caps.
        if "max_seeds" in args:
            args.caps = ExploreCaps(max_seeds=args.max_seeds, max_depth=args.max_depth)
        else:
            args.caps = ExploreCaps()
        text, code = args.handler(args)
        if args.verbose:
            text = (
                f"seed-file: {args.seed}\n"
                f"caps: max_seeds={args.caps.max_seeds} "
                f"max_depth={args.caps.max_depth}\n" + text
            )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (
        ValueError,
        KeyError,
        IndexError,
        IncompleteAtlasError,
        OSError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"engine fault: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
