"""Command line surface.

Commands: check, stone, catalog, cantor, graph.  Exit code 0 means the
run completed with nothing violated, 1 means a genuine property
violation (suite counterexamples or an internal cross-check firing), and
2 means the input could not be used.  Output is deterministic: identical
inputs and seeds render byte-identical reports.  A command line argparse
refuses is reported as one `error:` line on stderr with exit code 2;
`--help` prints argparse's help and exits 0.

The argparse parser is built once per process, on the first main call,
and reused by every later call.  That is safe because parsing keeps no
state between calls: each parse_args call fills a fresh Namespace, the
parser is the same whatever the argv, and argparse looks up sys.stdout,
sys.stderr and the terminal width when it prints, not when it is built.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import NoReturn

from . import cantor, classify, pathlat, stone
from .catalog import EXHAUSTIVE_LIMIT, MAX_SIZE, CatalogSpec
from .core import Semilattice, _members, nonzero_pairs_below, parse_semilattice
from .errors import SlatError, TheoremViolationError
from .filters import enumerate_filters, is_ultrafilter
from .suite import run_suite


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fmt_set(S: Semilattice, xs) -> str:
    return "{" + ",".join(S.labels_for(xs)) + "}"


def cmd_check(args: argparse.Namespace) -> int:
    S = parse_semilattice(_read(args.file))
    report = classify.is_compactable_finite(S)
    if args.report == "kv":
        for key, val in report.booleans().items():
            print(f"{key}={'true' if val else 'false'}")
        return 0
    print(f"semilattice: {len(S)} elements, zero={S.labels[S.zero]}, one={S.labels[S.one]}")
    for key, val in report.booleans().items():
        print(f"{key}={'true' if val else 'false'}")
    # The report has already checked that tight filters are the ultrafilters.
    print("filters:")
    for F in enumerate_filters(S):
        ultra = str(is_ultrafilter(S, F)).lower()
        print(f"  {_fmt_set(S, F)} ultrafilter={ultra} tight={ultra}")
    print("trapping witnesses:")
    for e, f in nonzero_pairs_below(S):
        W = classify.trapping_witness(S, e, f)
        shown = " ".join(S.labels_for(W)) if W is not None else "none"
        print(f"  ({S.labels[e]},{S.labels[f]}) -> {shown}")
    return 0


def cmd_stone(args: argparse.Namespace) -> int:
    S = parse_semilattice(_read(args.file))
    space = stone.build_space(S)
    algebra = stone.clopen_algebra(space)
    print(f"points: {len(space.points)}")
    for i, F in enumerate(space.points):
        print(f"  point {i}: {_fmt_set(S, F)}")
    print("base sets:")
    for e in S.elements():
        inside = ",".join(map(str, _members(space.base[e])))
        print(f"  K[{S.labels[e]}] = {{{inside}}}")
    separative = stone.kappa_injective(space)
    print(f"clopens: {2 ** len(algebra.atoms)}")
    print(f"separative={'true' if separative else 'false'}")
    print(f"dense={'true' if separative and stone._dense_atoms(space, algebra) else 'false'}")
    if len(space.points) <= 6:
        print("decompositions:")
        for C in stone.clopen_elements(space):
            parts = stone.join_decomposition(space, C)
            inside = ",".join(map(str, _members(C)))
            shown = " ".join(S.labels_for(parts)) if parts else "-"
            print(f"  {{{inside}}} = {shown}")
    else:
        print("decompositions: omitted (more than 6 points)")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.random is not None:
        spec = CatalogSpec(max_size=args.max_size, mode="random",
                           sample_count=args.random, seed=args.seed)
    else:
        spec = CatalogSpec(max_size=args.max_size)
    report = run_suite(spec)
    sys.stdout.write(report.render(kv=args.report == "kv"))
    return 0 if report.ok() else 1


def cmd_cantor(args: argparse.Namespace) -> int:
    if cantor.is_degenerate_alphabet(args.alphabet):
        print("note: one-symbol alphabet, the algebra degenerates to two elements",
              file=sys.stderr)
    result = cantor.eval_expr(args.alphabet, args.expr)
    print(result.render())
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    G = pathlat.parse_rooted_graph(_read(args.file))
    dist = pathlat.root_distances(G)
    if len(dist) < len(G.vertices):
        print("rooted=false")
        print("unreachable: " + " ".join(v for v in G.vertices if v not in dist))
        return 2
    S = pathlat.truncate(G, args.depth)
    zd_graph = pathlat.zero_disjunctive_graph(G)
    print("rooted=true")
    print(f"zero_disjunctive_graph={'true' if zd_graph else 'false'}")
    # Between f < e in a finite rooted graph's path order only finite chains fit.
    print("pseudofinite_graph=true")
    report = classify.is_compactable_finite(S)
    # Once the depth exceeds every vertex's distance to the root, each path
    # shorter than the depth has one child per in-edge of its end vertex,
    # and some such path ends at each vertex.  So a vertex of in-degree one
    # gives a path with a single lower cover, which no non-zero element
    # below that path avoids; otherwise every path with a child has two
    # children, which avoid each other, so the two verdicts must agree.
    if args.depth > max(dist.values()) and report.zero_disjunctive != zd_graph:
        raise TheoremViolationError(
            f"zero_disjunctive_graph={zd_graph} but the depth-{args.depth} truncation "
            f"has zero_disjunctive={report.zero_disjunctive}")
    print(f"depth={args.depth} elements={len(S)}")
    for key, val in report.booleans().items():
        print(f"{key}={'true' if val else 'false'}")
    print("witnesses:")
    for e in S.nonzero():
        witnesses = pathlat.sibling_cover_witnesses(S, e)
        for f in sorted(witnesses):
            if pathlat.level(S, f) > args.depth:
                continue  # frontier pairs are excluded from the table
            W = witnesses[f]
            shown = " ".join(S.labels_for(W)) if W else "-"
            print(f"  ({S.labels[e]},{S.labels[f]}) -> {shown}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a refused command line instead of printing usage and exiting,
    so main can report it as one error line."""

    def error(self, message: str) -> NoReturn:
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slat",
        description="finite bounded meet semilattices: filters, ultrafilter "
                    "spaces, clopen algebras, and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a semilattice file")
    p.add_argument("file")
    p.add_argument("--report", choices=["text", "kv"], default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("stone", help="ultrafilter space and clopen algebra of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_stone)

    p = sub.add_parser("catalog", help="run the verification suite over small instances")
    p.add_argument("--max-size", type=int, required=True,
                   help=f"largest size: every class of 2..max-size elements, up to {EXHAUSTIVE_LIMIT}, "
                        f"or with --random the sample size, up to {MAX_SIZE}")
    p.add_argument("--random", type=int, default=None, metavar="M",
                   help="sample M random instances of exactly max-size elements")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=["text", "kv"], default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("cantor", help="evaluate a clopen expression to normal form")
    p.add_argument("--alphabet", required=True)
    p.add_argument("expr")
    p.set_defaults(func=cmd_cantor)

    p = sub.add_parser("graph", help="graph criteria and truncation reports")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_graph)
    return parser


_DASH_THEN_SYMBOL = re.compile(r"-[^\w-]")


def _expression_after_dashes(argv: list[str]) -> list[str]:
    """Pass each cantor argument that starts with '-' and a symbol no option
    name has, such as the expression '-|a' (bottom join a), after '--',
    where argparse reads it as a positional instead of an unknown option."""
    if argv[:1] != ["cantor"] or "--" in argv:
        return argv
    dashed = [a for a in argv if _DASH_THEN_SYMBOL.match(a)]
    if not dashed:
        return argv
    return [a for a in argv if a not in dashed] + ["--", *dashed]


_DASH_THEN_WORD = re.compile(r"-\w")


def _refusal(argv: list[str], exc: argparse.ArgumentError) -> str:
    """Why argparse refused the command line.  A cantor expression such as
    '-a' reads as an unknown option, so argparse only reports the
    expression missing.  When the command line parses once its one
    '-<word>' argument stands after '--', the reason names that word and
    where it goes."""
    stray = [a for a in argv[1:] if _DASH_THEN_WORD.match(a)]
    if argv[:1] != ["cantor"] or len(stray) != 1:
        return str(exc)
    try:
        _parser().parse_args([a for a in argv if a not in stray and a != "--"] + ["--", *stray])
    except argparse.ArgumentError:
        return str(exc)
    return (f"argument expr: {stray[0]!r} reads as an option; "
            "an expression that starts with '-' goes after '--'")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_expression_after_dashes(argv))
        return args.func(args)
    except TheoremViolationError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except argparse.ArgumentError as exc:
        print(f"error: {_refusal(argv, exc)}", file=sys.stderr)
        return 2
    except (SlatError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
