"""The benchmark's workloads: their items, inputs and output checks.

An item is one call into slat's public surface whose output is checked.
Items run one after another in a single process (a closed loop with one
client): the next item starts when the previous one returns.  Checks run
after a pass, outside the timed region, and return None for a correct
output or a one-line reason.

Each workload comes in a full and a tiny size; the tiny one keeps the same
item kinds on small inputs and serves the benchmark's own smoke test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import slat.cantor
import slat.cli
import slat.core
import slat.pathlat
import slat.stone
from cantor_oracle import cover_set, random_expr

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDENS = HERE / "goldens.json"

# Sizes 2..7 of OEIS A006966, the number of lattices on n unlabeled elements.
A006966 = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], "str | None"]
    golden: str | None = None  # "sha256" or "stdout": what goldens.json keeps
    # A known defect: the item may raise this instead of returning.  It
    # still counts as failed; any other exception makes the run incorrect.
    known_error: type[BaseException] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list]


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def freeze_goldens() -> None:
    """Record the current program's CLI outputs as the goldens, both sizes."""
    goldens = {}
    for workload in WORKLOADS.values():
        for tiny in (False, True):
            for item in workload.build(0, tiny):
                if item.golden:
                    code, text = item.run({})
                    kept = _digest(text) if item.golden == "sha256" else text
                    goldens[item.name] = {"exit": code, item.golden: kept}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _cli(argv: list[str]) -> Callable[[dict], tuple[int, str]]:
    def run(state: dict) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = slat.cli.main(argv)
        return code, out.getvalue()
    return run


def _golden_check(name: str) -> Callable:
    def check(output) -> str | None:
        want = load_goldens()[name]
        code, text = output
        if code != want["exit"]:
            return f"exit code {code}, golden {want['exit']}"
        if _digest(text) != want["sha256"]:
            return "stdout differs from the golden copy"
        return None
    return check


def _cli_item(args: list[str]) -> Item:
    """A CLI run whose exit code and stdout are compared with goldens.json."""
    shown = " ".join(a[:-len(".txt")] if a.endswith(".txt") else a for a in args)
    argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in args]
    return Item(shown, _cli(argv), _golden_check(shown), golden="sha256")


# -- catalog ------------------------------------------------------------


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines())


def _suite_verdict(kv: dict[str, str]) -> str | None:
    failing = [k for k, v in kv.items() if k.endswith("_fail") and v != "0"]
    if failing:
        return f"failing checks {failing}"
    if kv.get("counterexamples") != "0" or kv.get("result") != "pass":
        return "suite reports counterexamples"
    return None


def _check_exhaustive(max_size: int) -> Callable:
    name = f"catalog --max-size {max_size} --report kv"

    def check(output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        if text != load_goldens()[name]["stdout"]:
            return "kv report differs from the golden copy"
        kv = _kv(text)
        for n in range(2, max_size + 1):
            if kv.get(f"instances_size_{n}") != str(A006966[n]):
                return f"size {n}: {kv.get(f'instances_size_{n}')} classes, A006966 says {A006966[n]}"
        return _suite_verdict(kv)
    return check


def _check_random(size: int) -> Callable:
    def check(output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        kv = _kv(text)
        if kv.get(f"instances_size_{size}") != "1":
            return "expected exactly one instance"
        return _suite_verdict(kv)
    return check


def catalog(seed: int, tiny: bool) -> list[Item]:
    """The exhaustive catalog plus single random instances, all via the CLI.

    Each random instance is its own CLI run with a seed drawn from the
    workload seed.  The instances outnumber the ten items beyond the
    latency tail twice over, so the median and the tail are both order
    statistics of many same-size instances and vary little with the seed.
    """
    exhaustive, sizes, count = (4, (5,), 2) if tiny else (7, (10,), 24)
    name = f"catalog --max-size {exhaustive} --report kv"
    items = [Item(name, _cli(name.split()), _check_exhaustive(exhaustive), golden="stdout")]
    rng = random.Random(seed)
    for size in sizes:
        for _ in range(count):
            argv = ["catalog", "--max-size", str(size), "--random", "1",
                    "--seed", str(rng.randrange(2 ** 31)), "--report", "kv"]
            items.append(Item(" ".join(argv), _cli(argv), _check_random(size)))
    return items


# -- graph-classify -----------------------------------------------------


def graph_classify(seed: int, tiny: bool) -> list[Item]:
    """Classification through `slat graph` and `slat check` on fixed files.

    The inputs are fixed, so the seed is unused.  one-loop has in-degree
    one and is the non-separative input; the other graphs are separative.
    size7/ holds the 53 lattices of seven elements, 4 of them separative.
    Three items (two-loop at depth 3, three-loop at depth 2 and its
    `check`) hold most of the time; the many small ones give the latency
    median and tail enough items, and show per-command overhead.
    """
    if tiny:
        runs = [["graph", "two-loop.txt", "--depth", "1"],
                ["graph", "one-loop.txt", "--depth", "3"],
                ["check", "vee.txt"]]
    else:
        runs = [["graph", "two-loop.txt", "--depth", str(d)] for d in (1, 2, 3)]
        runs += [["graph", "two-vertex.txt", "--depth", str(d)] for d in (1, 2)]
        runs += [["graph", "three-loop.txt", "--depth", str(d)] for d in (1, 2)]
        runs += [["graph", "one-loop.txt", "--depth", str(d)] for d in range(1, 11)]
        runs += [["check", "vee.txt"], ["check", "boolean-rank3.txt"],
                 ["check", "three-loop-depth2.txt"]]
        runs += [["check", f"size7/{p.name}"] for p in sorted((INPUTS / "size7").glob("*.txt"))]
    return [_cli_item(args) for args in runs]


# -- path-space ---------------------------------------------------------


def _graph(name: str) -> slat.pathlat.RootedGraph:
    return slat.pathlat.parse_rooted_graph((INPUTS / f"{name}.txt").read_text(encoding="utf-8"))


def _meet_of_paths(p: str, q: str) -> str:
    """Meet of two path labels: the longer when one extends the other."""
    p, q = ("" if p == "^" else p), ("" if q == "^" else q)
    if p.startswith(q):
        return p or "^"
    if q.startswith(p):
        return q or "^"
    return "0"


def _check_truncation(symbols: str, depth: int) -> Callable:
    def check(S) -> str | None:
        words = {"".join(w) for d in range(1, depth + 1)
                 for w in itertools.product(symbols, repeat=d)}
        if set(S.labels) != words | {"0", "^"} or len(S.labels) != len(words) + 2:
            return "truncation has the wrong elements"
        labels = S.labels
        for i, p in enumerate(labels):
            row = S.meet_table[i]
            for j, q in enumerate(labels):
                want = "0" if "0" in (p, q) else _meet_of_paths(p, q)
                if labels[row[j]] != want:
                    return f"meet({p}, {q}) is {labels[row[j]]}, expected {want}"
        return None
    return check


def _witness_table(depth: int) -> Callable[[dict], tuple]:
    """Acceptance criterion 4 at scale: witnesses for every non-frontier pair."""
    def run(state: dict) -> tuple:
        S = state["S"]
        rows = []
        for e, f in slat.core.nonzero_pairs_below(S):
            if slat.pathlat.level(S, f) > depth:
                continue
            W = slat.pathlat.sibling_cover_witness(S, e, f)
            rows.append((e, f, tuple(W), slat.core.arrow(S, e, list(W) + [f])))
        return S, tuple(rows)
    return run


def _check_witnesses(symbols: str, depth: int) -> Callable:
    k = len(symbols)
    pairs = sum(k ** d * d for d in range(1, depth))

    def check(output) -> str | None:
        S, rows = output
        t, zero = S.meet_table, S.zero
        if len(rows) != pairs:
            return f"{len(rows)} witness rows, expected {pairs}"
        for e, f, W, refines in rows:
            if not refines:
                return f"arrow rejects the witness for ({S.labels[e]}, {S.labels[f]})"
            if any(w == zero or t[w][e] != w or t[w][f] != zero for w in W):
                return f"witness for ({S.labels[e]}, {S.labels[f]}) leaves down(e) & star(f) - 0"
            family = W + (f,)
            if not all(any(t[x][g] != zero for g in family)
                       for x in range(len(S)) if x != zero and t[x][e] == x):
                return f"witness for ({S.labels[e]}, {S.labels[f]}) does not refine e"
        return None
    return check


def _unambiguous(state: dict) -> bool:
    """Distinct non-orthogonal elements are comparable."""
    S = state["S"]
    return all(S.leq(e, f) or S.leq(f, e)
               for e in S.nonzero() for f in S.nonzero()
               if S.meet(e, f) != S.zero)


def _space(state: dict) -> tuple[int, bool]:
    space = slat.stone.build_space(state["S"])
    return len(space.points), slat.stone.kappa_injective(space)


def path_space(seed: int, tiny: bool) -> list[Item]:
    """Truncation, unambiguity, witness tables and the ultrafilter space.

    The inputs are fixed, so the seed is unused.  Items of one truncation
    share its semilattice through the pass state, in this order.  The
    truncations at depths 4 to 7 and 3 to 4 hold most of the time; the
    smaller ones give the latency median and tail enough items.
    """
    ladder = [("two-loop", "ab", d) for d in ((1, 2) if tiny else range(1, 8))]
    if not tiny:
        ladder += [("three-loop", "abc", d) for d in range(1, 5)]
    items = []
    for name, symbols, depth in ladder:
        G = _graph(name)

        def truncate(state, G=G, depth=depth):
            state["S"] = slat.pathlat.truncate(G, depth)
            return state["S"]

        tag = f"{name} depth {depth}"
        items += [
            Item(f"truncate {tag}", truncate, _check_truncation(symbols, depth)),
            Item(f"unambiguous {tag}", _unambiguous,
                 lambda out: None if out is True else "distinct non-orthogonal paths are incomparable"),
            Item(f"witnesses {tag}", _witness_table(depth), _check_witnesses(symbols, depth)),
            Item(f"build_space {tag}", _space,
                 lambda out, n=len(symbols) ** depth: None if out == (n, True)
                 else f"space is {out}, expected ({n}, True)"),
        ]
    files = ["vee.txt"] if tiny else ["two-loop-depth3.txt", "three-loop-depth2.txt", "boolean-rank4.txt"]
    items += [_cli_item(["stone", f]) for f in files]
    return items


# -- cantor-exprs -------------------------------------------------------

ALPHABETS = ("ab", "abc", "abcd")
# Complements of cylinders of these lengths, over ALPHABETS in turn.  The
# complement of a cylinder of 40 symbols or more costs more than any
# random expression.
LONG_CYLINDERS = (10, 16, 24, 32, 40, 48, 57, 68, 81, 96, 114, 135, 160, 190, 226, 320, 760,
                  1800, 4000)
# Twelve more complements, of distinct 128-symbol cylinders over abc, which
# all cost about the same.  Only about six ladder cylinders cost more, so
# the latency tail (ten items beyond it) falls among these twelve: one
# noisy item barely moves it.
TAIL_CYLINDERS = (128, "abc", 12)


def _words(rendered: str) -> tuple[str, ...]:
    if rendered in ("-", "^"):
        return () if rendered == "-" else ("",)
    return tuple(rendered.split())


def _normal_form(alphabet: str, words: tuple[str, ...]) -> str | None:
    """None if `words` is in the form normalize promises, else why not.

    That form is a shortlex-sorted prefix antichain with no complete
    sibling family, which is unique for the clopen it covers.
    """
    rank = {c: i for i, c in enumerate(alphabet)}
    if list(words) != sorted(words, key=lambda w: (len(w), [rank[c] for c in w])):
        return "words are not in shortlex order"
    # In plain string order a word is directly followed by its extensions.
    ordered = sorted(words)
    if any(b.startswith(a) for a, b in zip(ordered, ordered[1:])):
        return "a word is a prefix of another"
    kept = set(words)
    for p in {w[:-1] for w in words if w}:
        if all(p + s in kept for s in alphabet):
            return f"the complete sibling family of {p!r} is not collapsed"
    return None


def _check_expr(alphabet: str, expr) -> Callable:
    def check(rendered: str) -> str | None:
        words = _words(rendered)
        L = max([expr.max_word_len()] + [len(w) for w in words]) + 1
        if cover_set(alphabet, words, L) != expr.oracle(alphabet, L):
            return f"{expr.text()} evaluates to {rendered!r}, which the oracle rejects"
        reason = _normal_form(alphabet, words)
        return reason and f"{expr.text()} evaluates to {rendered!r}: {reason}"
    return check


def _check_cylinder(alphabet: str, word: str) -> Callable:
    want = {word[:i] + s for i in range(len(word)) for s in alphabet if s != word[i]}

    def check(rendered: str) -> str | None:
        words = _words(rendered)
        if set(words) != want or len(words) != len(want):
            return f"complement of a {len(word)}-symbol cylinder is not its sibling set"
        return _normal_form(alphabet, words)
    return check


def _eval(alphabet: str, text: str) -> Callable[[dict], str]:
    return lambda state: slat.cantor.eval_expr(alphabet, text).render()


def cantor_exprs(seed: int, tiny: bool) -> list[Item]:
    """Seeded clopen expressions plus fixed long cylinder complements.

    The seed draws the expressions.  The cylinders are the same for every
    seed, so the tail they set does not depend on it; their words come
    from a fixed generator.  complement recurses once per symbol, so the
    cylinders longer than the recursion limit are declared to raise
    RecursionError, a known defect.
    """
    rng = random.Random(seed)
    count = 30 if tiny else 10_000
    cylinders = [(n, ALPHABETS[j % 3]) for j, n in enumerate(LONG_CYLINDERS[:2] if tiny else LONG_CYLINDERS)]
    if not tiny:
        length, alphabet, copies = TAIL_CYLINDERS
        cylinders += [(length, alphabet)] * copies
    items = []
    for i in range(count):
        alphabet = ALPHABETS[i % 3]
        expr = random_expr(rng, alphabet, 6)
        items.append(Item(f"expr {i}", _eval(alphabet, expr.text()), _check_expr(alphabet, expr)))
    words = random.Random(0)
    for j, (length, alphabet) in enumerate(cylinders):
        word = "".join(words.choice(alphabet) for _ in range(length))
        known = RecursionError if length > sys.getrecursionlimit() else None
        item = Item(f"complement of {length}-symbol cylinder {j}",
                    _eval(alphabet, "!" + word), _check_cylinder(alphabet, word), known_error=known)
        items.insert((j + 1) * count // (len(cylinders) + 1) + j, item)
    return items


WORKLOADS = {
    w.name: w for w in (
        Workload("catalog", catalog),
        Workload("graph-classify", graph_classify),
        Workload("path-space", path_space),
        Workload("cantor-exprs", cantor_exprs),
    )
}
