"""Command line interface."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slat
from corpus import semilattice_files, spoil
from slat import cli, pathlat
from slat.cli import main

VEE_TEXT = "elements: 0 a b 1\norder: 0<a 0<b a<1 b<1\n"
CHAIN3_TEXT = "elements: 0 a 1\norder: 0<a a<1\n"
TWO_LOOP_TEXT = "vertices: t\nroot: t\nedge a t t\nedge b t t\n"
SINGLE_EDGE_TEXT = "vertices: r s\nroot: r\nedge a s r\n"
GOLDENS = Path(__file__).resolve().parents[1] / "bench" / "goldens.json"


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process main call; --help
    exits through SystemExit, as argparse does."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_slat(*args: str) -> subprocess.CompletedProcess:
    """`python -m slat.cli` in a child that imports the slat these tests import."""
    here = str(Path(slat.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (here, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "slat.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def vee_file(tmp_path):
    p = tmp_path / "vee.slat"
    p.write_text(VEE_TEXT)
    return str(p)


@pytest.fixture
def chain3_file(tmp_path):
    p = tmp_path / "chain3.slat"
    p.write_text(CHAIN3_TEXT)
    return str(p)


@pytest.fixture
def two_loop_file(tmp_path):
    p = tmp_path / "two_loop.graph"
    p.write_text(TWO_LOOP_TEXT)
    return str(p)


def test_check_vee(vee_file, capsys):
    assert main(["check", vee_file]) == 0
    out = capsys.readouterr().out
    assert "zero_disjunctive=true" in out
    assert "separative=true" in out
    assert "trapping=true" in out
    assert "{a,1} ultrafilter=true tight=true" in out
    assert "{1} ultrafilter=false tight=false" in out
    assert "(1,a) -> b" in out


def test_check_chain3(chain3_file, capsys):
    assert main(["check", chain3_file]) == 0
    out = capsys.readouterr().out
    assert "separative=false" in out
    assert "trapping=false" in out
    assert "(1,a) -> none" in out


def test_check_kv_report(chain3_file, capsys):
    assert main(["check", chain3_file, "--report", "kv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    pairs = dict(line.split("=", 1) for line in lines)
    assert pairs == {
        "zero_disjunctive": "false",
        "separative": "false",
        "meet_separation": "false",
        "trapping": "false",
        "tight_equals_ultrafilters": "true",
    }


def test_stone_vee(vee_file, capsys):
    assert main(["stone", vee_file]) == 0
    out = capsys.readouterr().out
    assert "points: 2" in out
    assert "clopens: 4" in out
    assert "separative=true" in out
    assert "dense=true" in out
    assert "K[a]" in out


def test_stone_chain3(chain3_file, capsys):
    assert main(["stone", chain3_file]) == 0
    out = capsys.readouterr().out
    assert "points: 1" in out
    assert "clopens: 2" in out
    assert "separative=false" in out
    assert "dense=false" in out


def test_cantor_complement_frozen(capsys):
    assert main(["cantor", "--alphabet", "ab", "!(aa)"]) == 0
    assert capsys.readouterr().out == "b ab\n"


def test_cantor_top_bottom(capsys):
    assert main(["cantor", "--alphabet", "ab", "a | b"]) == 0
    assert capsys.readouterr().out == "^\n"
    assert main(["cantor", "--alphabet", "ab", "a & b"]) == 0
    assert capsys.readouterr().out == "-\n"


def test_cantor_degenerate_alphabet_notes(capsys):
    assert main(["cantor", "--alphabet", "a", "aa"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "^\n"
    assert "degenerates" in captured.err


def test_cantor_parse_error(capsys):
    assert main(["cantor", "--alphabet", "ab", "a &"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, shown", [
    (["--alphabet", "ab", "-|a"], "a\n"),
    (["-|a", "--alphabet", "ab"], "a\n"),
    (["--alphabet", "ab", "--", "-|a"], "a\n"),
    (["--alphabet=ab", "-&b"], "-\n"),
    (["--alphabet", "ab", "-\t|\tb"], "b\n"),
    (["--alphabet", "ab", "!-"], "^\n"),
])
def test_cantor_expression_may_start_with_a_dash(argv, shown, capsys):
    assert main(["cantor", *argv]) == 0
    assert capsys.readouterr() == (shown, "")


def test_cantor_still_requires_an_alphabet():
    proc = run_slat("cantor", "-|a")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "the following arguments are required: --alphabet" in proc.stderr
    proc = run_slat("cantor", "--alphabet", "ab", "-|a")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "a\n", "")


# The complement of a trie deeper than the recursion limit still recurses
# in _flip; the expression evaluator itself keeps an explicit stack.
@pytest.mark.parametrize("expr", ["!" + "ab" * 1000], ids=["long-cylinder"])
def test_cantor_recursion_ends_in_one_error_line(expr):
    proc = run_slat("cantor", "--alphabet", "ab", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("expr, shown", [
    ("!" * 3000 + "a", "a\n"),
    ("(" * 3000 + "a" + ")" * 3000, "a\n"),
    ("!(" * 2000 + "ab|b" + ")" * 2000, "b ab\n"),
], ids=["nested-complements", "nested-parentheses", "nested-complemented-groups"])
def test_cantor_nesting_past_the_recursion_limit_answers(expr, shown):
    # '!' and parentheses nest on the evaluator's own stack, not Python's
    proc = run_slat("cantor", "--alphabet", "ab", expr)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, shown, "")


def test_cantor_deep_join_answers():
    # join and the trie builder keep explicit stacks, so words twice the
    # recursion limit deep join to their common prefix
    prefix = ("ab" * 1000)[:1999]
    proc = run_slat("cantor", "--alphabet", "ab", f"{prefix}a | {prefix}b")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, prefix + "\n", "")


# An alphabet, then text over its symbols, the operators, both bound
# spellings and whitespace.
cantor_fuzz_cases = st.sampled_from(("ab", "ba", "abc")).flatmap(lambda a: st.tuples(
    st.just(a), st.text(st.sampled_from(a + "&|!()^- \t\n"), max_size=30)))


@settings(max_examples=400, deadline=None)
@given(cantor_fuzz_cases)
def test_cantor_fuzz_ends_in_an_exit_code_and_at_most_one_line(case):
    # "--" keeps an expression such as "--" or "-a" from reading as an option;
    # "-|a" and the like need no "--" (test_cantor_expression_may_start_with_a_dash).
    alphabet, expr = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["cantor", "--alphabet", alphabet, "--", expr])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().count("\n") == 1 and not err.getvalue()
    else:
        assert not out.getvalue() and err.getvalue().startswith("error: ")


@settings(max_examples=400, deadline=None)
@given(cantor_fuzz_cases)
def test_cantor_fuzz_without_dashes_ends_in_an_exit_code_and_one_line(case):
    # Without "--" an expression such as "--" or "-a" reads as an option,
    # and argparse's refusal is one error line too.
    alphabet, expr = case
    code, out, err = outcome(["cantor", "--alphabet", alphabet, expr])
    assert code in (0, 1, 2)
    if code == 0:
        assert out.count("\n") == 1 and not err
    else:
        assert not out and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["cantor", "--alphabet", "ab"], "the following arguments are required: expr"),
    (["cantor", "-|a"], "the following arguments are required: --alphabet"),
    (["cantor", "--alphabet", "ab", "--"], "the following arguments are required: expr"),
    (["cantor", "--alphabet", "ab", "-a"],
     "argument expr: '-a' reads as an option; an expression that starts with '-' goes after '--'"),
    (["graph", "g.txt", "--depth", "two"], "argument --depth: invalid int value: 'two'"),
    (["catalog", "--max-size", "3", "extra"], "unrecognized arguments: extra"),
    ([], "the following arguments are required: command"),
    # a '-<word>' is named only when the line parses with it after '--'
    (["cantor", "-a"], "the following arguments are required: --alphabet, expr"),
    (["cantor", "--alphabet", "ab", "-a", "-b"], "the following arguments are required: expr"),
    (["cantor", "--alphabet", "ab", "x", "-a"], "unrecognized arguments: -a"),
])
def test_usage_errors_are_one_line(argv, message):
    assert outcome(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, word", [
    (["--alphabet", "ab", "-a"], "-a"),
    (["-ab", "--alphabet", "ab"], "-ab"),
    (["--alphabet=ab", "-a|b", "--"], "-a|b"),
])
def test_cantor_names_an_expression_read_as_an_option(argv, word):
    code, out, err = outcome(["cantor", *argv])
    assert (code, out) == (2, "")
    assert err == (f"error: argument expr: {word!r} reads as an option; "
                   "an expression that starts with '-' goes after '--'\n")
    # after '--' the word reaches the expression parser
    code, out, err = outcome(["cantor", "--alphabet", "ab", "--", word])
    assert (code, out) == (2, "") and err.startswith("error: ") and "option" not in err


def test_unknown_command_is_one_line():
    code, out, err = outcome(["bogus"])
    assert (code, out) == (2, "")
    assert err.startswith("error: argument command: invalid choice: 'bogus'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["cantor", "-h"]])
def test_help_exits_zero(argv):
    code, out, err = outcome(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: slat ") and "options:" in out


def _every_command(vee_file, two_loop_file) -> list[list[str]]:
    return [
        ["check", vee_file],
        ["check", vee_file, "--report", "kv"],
        ["stone", vee_file],
        ["graph", two_loop_file, "--depth", "2"],
        ["catalog", "--max-size", "6", "--random", "1"],
        ["cantor", "--alphabet", "ab", "!(aa)"],
    ]


def test_shared_parser_answers_like_a_fresh_one(vee_file, two_loop_file):
    calls = _every_command(vee_file, two_loop_file) + [
        ["cantor", "-|a"], ["cantor", "--alphabet", "ab", "--"], ["bogus"],
        ["graph", two_loop_file, "--depth", "x"], ["--help"], ["graph", "--help"]]
    fresh = {}
    for argv in calls:
        cli._parser.cache_clear()
        fresh[tuple(argv)] = outcome(argv)
    order = calls * 2
    random.Random(0).shuffle(order)
    cli._parser.cache_clear()
    for argv in order:
        assert outcome(argv) == fresh[tuple(argv)], argv


def test_parser_is_built_once_per_process(vee_file, two_loop_file, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    calls = _every_command(vee_file, two_loop_file)
    for i in range(20):
        assert outcome(calls[i % len(calls)])[0] == 0
    assert len(built) == 1


def test_catalog_command(capsys):
    assert main(["catalog", "--max-size", "5"]) == 0
    out = capsys.readouterr().out
    assert "instances size=5 count=5" in out
    assert "counterexamples: 0" in out
    assert out.endswith("result: pass\n")


def test_catalog_kv(capsys):
    assert main(["catalog", "--max-size", "4", "--report", "kv"]) == 0
    out = capsys.readouterr().out
    assert "result=pass" in out
    assert "instances_size_4=2" in out


def test_catalog_random(capsys):
    code = main(["catalog", "--max-size", "9", "--random", "4", "--seed", "5"])
    assert code == 0
    assert "instances size=9 count=4" in capsys.readouterr().out


def test_catalog_deterministic(capsys):
    assert main(["catalog", "--max-size", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["catalog", "--max-size", "5"]) == 0
    assert capsys.readouterr().out == first


def test_cli_runs_match_the_bench_goldens():
    # A golden's name is its command line, each input file named by its
    # path under bench/inputs without the .txt suffix.  The two catalog kv
    # goldens keep whole reports: test_suite.py compares the size-seven one
    # and the benchmark smoke check the size-four one.
    inputs = GOLDENS.parent / "inputs"
    runs = {name: want for name, want in json.loads(GOLDENS.read_text()).items() if "sha256" in want}
    assert len(runs) == 77
    for name, want in runs.items():
        argv = [str(inputs / f"{a}.txt") if (inputs / f"{a}.txt").is_file() else a for a in name.split()]
        code, out, _ = outcome(argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["sha256"]), name


def test_graph_two_loop(two_loop_file, capsys):
    assert main(["graph", two_loop_file, "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "rooted=true" in out
    assert "zero_disjunctive_graph=true" in out
    assert "pseudofinite_graph=true" in out
    assert "depth=2 elements=8" in out
    assert "(^,a) -> b" in out


def test_graph_single_edge(tmp_path, capsys):
    p = tmp_path / "single.graph"
    p.write_text(SINGLE_EDGE_TEXT)
    assert main(["graph", str(p), "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "zero_disjunctive_graph=false" in out
    assert "zero_disjunctive=false" in out


def test_graph_names_unreachable_vertices_in_declaration_order(tmp_path, capsys):
    # w and u reach each other but not the root r
    p = tmp_path / "unrooted.graph"
    p.write_text("vertices: w r u s\nroot: r\nedge a s r\nedge b w u\nedge c u w\n")
    assert main(["graph", str(p), "--depth", "2"]) == 2
    assert capsys.readouterr() == ("rooted=false\nunreachable: w u\n", "")


def test_graph_refuses_truncations_over_the_bound(two_loop_file, capsys):
    assert main(["graph", two_loop_file, "--depth", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: truncations are built for up to 2048 elements, "
                            "depth 11 already has 4096\n")


def test_graph_depth_beyond_the_last_path(tmp_path, capsys):
    p = tmp_path / "single.graph"
    p.write_text(SINGLE_EDGE_TEXT)
    assert main(["graph", str(p), "--depth", "1000000000"]) == 0
    captured = capsys.readouterr()
    assert "depth=1000000000 elements=3" in captured.out.splitlines()
    assert captured.err == ""


def test_catalog_refuses_exhaustive_sizes_beyond_the_limit(capsys):
    # the refusal comes before any enumeration, so size 11 costs nothing
    assert main(["catalog", "--max-size", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exhaustive enumeration supports sizes up to 10, got 11\n"


def test_catalog_refuses_sizes_beyond_labels(capsys):
    assert main(["catalog", "--max-size", "13", "--random", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: catalog instances support sizes up to 12, got 13\n"


def test_cross_check_violation_exits_one(vee_file, two_loop_file, lose_a_tight_filter,
                                         capsys):
    for argv in (["check", vee_file], ["graph", two_loop_file, "--depth", "1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: tight filters differ")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_graph_criterion_cross_check_exits_one(two_loop_file, monkeypatch, capsys):
    # depth 1 exceeds the root's distance 0, so the flipped criterion must
    # disagree with the truncation's 0-disjunctivity
    zero_disjunctive_graph = pathlat.zero_disjunctive_graph
    monkeypatch.setattr(pathlat, "zero_disjunctive_graph", lambda G: not zero_disjunctive_graph(G))
    assert main(["graph", two_loop_file, "--depth", "1"]) == 1
    err = capsys.readouterr().err
    assert err == ("violation: zero_disjunctive_graph=False but the depth-1 truncation "
                   "has zero_disjunctive=True\n")


def test_graph_criterion_is_not_checked_short_of_every_distance(tmp_path, capsys):
    # s has in-degree one and sits at distance 1, t at distance 2: the
    # depth-1 truncation never sees s's single in-edge, so the verdicts
    # differ without a violation; from depth 2 on they agree
    p = tmp_path / "tail.graph"
    p.write_text("vertices: r s t\nroot: r\nedge a s r\nedge b s r\nedge c t s\n")
    for depth, truncation in (("1", "true"), ("2", "false"), ("3", "false")):
        assert main(["graph", str(p), "--depth", depth]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "zero_disjunctive_graph=false" in out
        assert f"zero_disjunctive={truncation}" in out


@pytest.mark.parametrize("fault, reason", [
    ("blind_zero_disjunctive", "0-disjunctive=False but separative=True"),
    ("untrap_every_pair", "trapping=False but separative=True"),
])
def test_classify_cross_checks_exit_one(fault, reason, vee_file, request, capsys):
    request.getfixturevalue(fault)
    assert main(["check", vee_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"violation: {reason} on a finite instance\n"


def test_lost_ultrafilter_exits_one(vee_file, lose_an_ultrafilter, capsys):
    for command in ("stone", "check"):
        assert main([command, vee_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "violation: non-zero element 'a' lies in no ultrafilter\n"


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/file.slat"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_semilattice_file(tmp_path, capsys):
    p = tmp_path / "bad.slat"
    p.write_text("elements: x y\norder: \n")
    assert main(["check", str(p)]) == 2


def test_meet_line_against_the_declared_order_exits_two(tmp_path, capsys):
    # the line reads 1 <= a, which the declared a < 1 contradicts
    p = tmp_path / "overrule.slat"
    p.write_text("elements: 0 a 1\norder: 0<a a<1\nmeet: a 1 = 1\n")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr() == ("", "error: order pairs force 'a' = '1'\n")


@st.composite
def _graph_files(draw) -> str:
    """A vertices line, a root line and up to four edge lines, reserved ids included."""
    vertices = draw(st.lists(st.sampled_from(("t", "u", "v", "é")), min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(st.sampled_from(("a", "b", "e1", "xy", "é", "^", "a.b")), max_size=4, unique=True))
    ends = st.sampled_from(vertices)
    lines = ["vertices: " + " ".join(vertices), "root: " + vertices[0]]
    lines += [f"edge {eid} {draw(ends)} {draw(ends)}" for eid in ids]
    return spoil(draw, lines)


file_fuzz_cases = st.one_of(
    st.tuples(st.sampled_from(("check", "stone")), semilattice_files(), st.just(None)),
    st.tuples(st.just("graph"), _graph_files(), st.integers(1, 3)))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@settings(max_examples=150, deadline=None)
@given(case=file_fuzz_cases)
def test_file_fuzz_ends_in_an_exit_code_and_at_most_one_line(fuzz_file, case):
    command, text, depth = case
    fuzz_file.write_text(text, encoding="utf-8")
    code, out, err = outcome([command, str(fuzz_file)] + (["--depth", str(depth)] if depth else []))
    assert code in (0, 1, 2) and "Traceback" not in err
    if command == "graph" and out.startswith("rooted=false\n"):
        assert (code, err) == (2, "")  # unreachable vertices are listed on stdout
    elif code == 0:
        assert err == ""
    else:
        assert err.startswith(("error: ", "violation: ")) and err.count("\n") == 1 and err.endswith("\n")


def test_installed_entry_point(vee_file):
    # one true end-to-end run through the console script
    proc = run_slat("check", vee_file)
    assert proc.returncode == 0
    assert "separative=true" in proc.stdout
