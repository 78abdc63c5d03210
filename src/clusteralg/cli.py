"""Command-line surface for batch computation and verification.

Every command reads a root seed from a JSON file ({"n": ..., "B":
row-major lists, "coefficients": "trivial"|"principal"}), explores as
needed under explicit caps, and prints deterministic text: identical
inputs give byte-identical output.  Exit codes: 0 success or verified,
1 a verification ran and the property failed, 2 usage or input error
(including incomplete atlases handed to verification suites), 3 engine
fault (a broken invariant or an arithmetic failure inside the engine).
"""

from __future__ import annotations

import argparse
import sys

from . import compat as compat_mod
from . import grading as grading_mod
from . import unistructure as unistructure_mod
from .atlas import ExploreCaps, IncompleteAtlasError, PatternAtlas, explore
from .seed import format_seed, load_seed_file, mutate_path

_FORMATS = {
    "mutate": ("text", {"text"}),
    "explore": ("text", {"text", "json", "dot"}),
    "expand": ("text", {"text"}),
    "gvector": ("tsv", {"tsv"}),
    "dvector": ("text", {"text"}),
    "compat": ("tsv", {"tsv"}),
    "exchange-graph": ("dot", {"dot", "text"}),
    "gpair": ("text", {"text"}),
    "witness": ("text", {"text"}),
    "verify": ("text", {"text"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusteralg",
        description="Exact cluster-pattern computation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", required=True, help="seed JSON file")
    seed_parent.add_argument(
        "--verbose", action="store_true", help="print input context lines"
    )

    caps_parent = argparse.ArgumentParser(add_help=False)
    caps_parent.add_argument("--max-seeds", type=int, default=ExploreCaps.max_seeds)
    caps_parent.add_argument("--max-depth", type=int, default=ExploreCaps.max_depth)

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument(
        "--format", dest="fmt", default=None, help="output format for the command"
    )
    out_parent.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("mutate", parents=[seed_parent, out_parent])
    p.add_argument("--path", default="", help='directions, e.g. "1 2 1"')

    sub.add_parser("explore", parents=[seed_parent, caps_parent, out_parent])

    p = sub.add_parser("expand", parents=[seed_parent, caps_parent, out_parent])
    p.add_argument("--var", type=int, required=True, help="variable id")
    p.add_argument("--cluster", required=True, help='variable ids, e.g. "0 3"')

    p = sub.add_parser("gvector", parents=[seed_parent, caps_parent, out_parent])
    p.add_argument("--var", type=int, default=None, help="restrict to one variable id")

    p = sub.add_parser("dvector", parents=[seed_parent, caps_parent, out_parent])
    p.add_argument("--var", type=int, required=True)
    p.add_argument("--cluster", required=True)

    sub.add_parser("compat", parents=[seed_parent, caps_parent, out_parent])
    sub.add_parser("exchange-graph", parents=[seed_parent, caps_parent, out_parent])

    p = sub.add_parser("gpair", parents=[seed_parent, caps_parent, out_parent])
    p.add_argument("--cluster", required=True)
    p.add_argument("--subset", required=True, help='directions, e.g. "1 3"')

    p = sub.add_parser("witness", parents=[seed_parent, caps_parent, out_parent])
    p.add_argument("--ref", type=int, required=True, help="reference variable id")
    p.add_argument("--target", type=int, required=True, help="target variable id")

    p = sub.add_parser("verify", parents=[seed_parent, caps_parent, out_parent])
    p.add_argument(
        "suite",
        choices=[
            "degree-properties",
            "maximal-sets",
            "g-pairs",
            "witnesses",
            "unistructural",
        ],
    )
    p.add_argument("--seed2", default=None, help="second seed file (unistructural)")
    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}: expected integers") from None


def _resolve(args: argparse.Namespace) -> None:
    """Check the output format and build the caps, in place on ``args``.

    Commands without cap options (``mutate``) get ``ExploreCaps()``, so
    the verbose preamble prints the same defaults everywhere.
    """
    default, allowed = _FORMATS[args.command]
    fmt = args.fmt or default
    if fmt not in allowed:
        raise ValueError(
            f"format {fmt!r} is not valid for {args.command}; "
            f"choose from {sorted(allowed)}"
        )
    args.fmt = fmt
    if "max_seeds" in args:
        args.caps = ExploreCaps(max_seeds=args.max_seeds, max_depth=args.max_depth)
    else:
        args.caps = ExploreCaps()


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _preamble(args: argparse.Namespace) -> str:
    if not args.verbose:
        return ""
    return (
        f"seed-file: {args.seed}\n"
        f"caps: max_seeds={args.caps.max_seeds} max_depth={args.caps.max_depth}\n"
    )


def _load_atlas(args: argparse.Namespace) -> PatternAtlas:
    return explore(load_seed_file(args.seed), args.caps)


def _cmd_mutate(args: argparse.Namespace) -> int:
    seed = load_seed_file(args.seed)
    path = _parse_int_list(args.path, "path")
    result = mutate_path(seed, path)
    _emit(_preamble(args) + format_seed(result) + "\n", args)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    if args.fmt == "json":
        body = atlas.to_json()
    elif args.fmt == "dot":
        body = atlas.exchange_graph().to_dot()
    else:
        body = (
            f"variables: {len(atlas.variables)}, "
            f"clusters: {len(atlas.clusters)}, "
            f"complete: {'true' if atlas.complete else 'false'}\n"
        )
    _emit(_preamble(args) + body, args)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    cluster = _parse_int_list(args.cluster, "cluster")
    poly = atlas.expand(args.var, cluster)
    _emit(_preamble(args) + str(poly) + "\n", args)
    return 0


def _cmd_gvector(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    if args.var is not None:
        atlas.require_variable(args.var)
        body = grading_mod.g_vector_table(atlas, [args.var])
    else:
        body = grading_mod.g_vector_table(atlas)
    _emit(_preamble(args) + body, args)
    return 0


def _cmd_dvector(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    cluster = _parse_int_list(args.cluster, "cluster")
    vec = compat_mod.d_vector(args.var, cluster, atlas)
    _emit(_preamble(args) + " ".join(str(v) for v in vec) + "\n", args)
    return 0


def _cmd_compat(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    _emit(_preamble(args) + compat_mod.compatibility_matrix_tsv(atlas), args)
    return 0


def _cmd_exchange_graph(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    graph = atlas.exchange_graph()
    body = graph.to_dot() if args.fmt == "dot" else graph.to_text()
    _emit(_preamble(args) + body, args)
    return 0


def _cmd_gpair(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    cluster = _parse_int_list(args.cluster, "cluster")
    subset = _parse_int_list(args.subset, "subset")
    partner = grading_mod.find_g_pair(cluster, subset, atlas)
    _emit(
        _preamble(args)
        + "{" + ",".join(str(v) for v in partner) + "}" + "\n",
        args,
    )
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    witness = unistructure_mod.laurent_witness(args.ref, args.target, atlas)
    _emit(_preamble(args) + "\n".join(witness.describe()) + "\n", args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    atlas = _load_atlas(args)
    if args.suite == "degree-properties":
        report = compat_mod.verify_degree_properties(atlas)
    elif args.suite == "maximal-sets":
        report = compat_mod.verify_maximal_sets(atlas)
    elif args.suite == "g-pairs":
        report = grading_mod.verify_g_pairs(atlas)
    elif args.suite == "witnesses":
        report = unistructure_mod.witness_sweep(atlas)
    else:
        if not args.seed2:
            raise ValueError("verify unistructural needs --seed2")
        atlas2 = explore(load_seed_file(args.seed2), args.caps)
        report = unistructure_mod.verify_unistructural(atlas, atlas2)
    _emit(_preamble(args) + report.text(), args)
    return {"pass": 0, "fail": 1, "error": 2}[report.resolve_status()]


_HANDLERS = {
    "mutate": _cmd_mutate,
    "explore": _cmd_explore,
    "expand": _cmd_expand,
    "gvector": _cmd_gvector,
    "dvector": _cmd_dvector,
    "compat": _cmd_compat,
    "exchange-graph": _cmd_exchange_graph,
    "gpair": _cmd_gpair,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _resolve(args)
        return _HANDLERS[args.command](args)
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
