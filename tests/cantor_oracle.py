"""Independent finite-depth semantics for prefix clopens.

A clopen is modelled by the set of length-L words it covers, for L at
least the longest word involved.  Everything here is computed from raw
string operations so it shares no code with the library.

The normal form is also kept here the way the library first computed it:
two-phase normalization (prefix absorption, then repeated sibling
collapse), the four-rule validator (duplicates, prefixes, sibling
families, shortlex order) and the complement that rescans every prefix
at every node.  The tests hold the one-pass routines to them, and the
expression tokenizer's pattern to the character scan it replaced.
"""

from __future__ import annotations

import itertools
import random

from slat.cantor import PrefixClopen, eval_expr


def shortlex(alphabet: str, words) -> tuple[str, ...]:
    rank = {c: i for i, c in enumerate(alphabet)}
    return tuple(sorted(words, key=lambda w: (len(w), [rank[c] for c in w])))


def normalize_two_phase(alphabet: str, words) -> tuple[str, ...]:
    """Absorb words with a proper prefix present, then collapse complete
    sibling families into their parent until none is left."""
    pool = set(words)
    kept = {w for w in pool
            if not any(w[:cut] in pool for cut in range(len(w)))}
    changed = True
    while changed:
        changed = False
        for p in {w[:-1] for w in kept if w}:
            family = {p + s for s in alphabet}
            if family <= kept:
                kept -= family
                kept.add(p)
                changed = True
    return shortlex(alphabet, kept)


def four_rule_violation(alphabet: str, words) -> str | None:
    """Which rule of the reduced shortlex prefix antichain `words` breaks, if any."""
    seen = set(words)
    if len(seen) != len(words):
        return "duplicate words"
    for w in words:
        for cut in range(len(w)):
            if w[:cut] in seen:
                return f"{w[:cut]!r} is a proper prefix of {w!r}"
    for p in {w[:-1] for w in words if w}:
        if all(p + s in seen for s in alphabet):
            return f"complete sibling family under {p!r} not collapsed"
    if tuple(words) != shortlex(alphabet, words):
        return "words not in shortlex order"
    return None


def complement_by_prefix_scan(P: PrefixClopen) -> tuple[str, ...]:
    """Descend the symbol tree by words: a node covered by P (some prefix of
    it is a word of P) emits nothing, a node no word of P passes through
    emits itself, and any other node splits into its children."""
    have = set(P.words)

    def walk(u: str) -> list[str]:
        if any(u[:cut] in have for cut in range(len(u) + 1)):
            return []
        if not any(w.startswith(u) for w in have):
            return [u]
        out: list[str] = []
        for s in P.alphabet:
            out.extend(walk(u + s))
        return out

    return normalize_two_phase(P.alphabet, walk(""))


def tokenize_by_scan(text: str) -> list[str]:
    """Split an expression character by character: whitespace separates,
    each of &|!() is a token, and any other run of characters is one."""
    special = set("&|!()")
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in special:
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in special:
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def cover_set(alphabet: str, words, L: int) -> frozenset:
    """All length-L words extending some member of `words`."""
    out = set()
    for w in words:
        if len(w) > L:
            raise ValueError("depth too small for %r" % w)
        for tail in itertools.product(alphabet, repeat=L - len(w)):
            out.add(w + "".join(tail))
    return frozenset(out)


def full_set(alphabet: str, L: int) -> frozenset:
    return frozenset("".join(t) for t in itertools.product(alphabet, repeat=L))


class Expr:
    """Tiny AST mirrored by both the library evaluator and the oracle."""

    __slots__ = ("op", "args")

    def __init__(self, op, *args):
        self.op = op
        self.args = args

    def text(self) -> str:
        if self.op == "word":
            return self.args[0]
        if self.op == "top":
            return "TOP"
        if self.op == "bot":
            return "BOT"
        if self.op == "not":
            return "!(%s)" % self.args[0].text()
        sym = "&" if self.op == "and" else "|"
        return "(%s %s %s)" % (self.args[0].text(), sym, self.args[1].text())

    def max_word_len(self) -> int:
        if self.op == "word":
            return len(self.args[0])
        if self.op in ("top", "bot"):
            return 0
        return max(a.max_word_len() for a in self.args)

    def oracle(self, alphabet: str, L: int) -> frozenset:
        if self.op == "word":
            return cover_set(alphabet, [self.args[0]], L)
        if self.op == "top":
            return full_set(alphabet, L)
        if self.op == "bot":
            return frozenset()
        if self.op == "not":
            return full_set(alphabet, L) - self.args[0].oracle(alphabet, L)
        a = self.args[0].oracle(alphabet, L)
        b = self.args[1].oracle(alphabet, L)
        return a & b if self.op == "and" else a | b


def random_expr(rng: random.Random, alphabet: str, depth: int) -> Expr:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return Expr("top")
        if roll < 0.2:
            return Expr("bot")
        n = rng.randint(1, 3)  # the empty word is spelled TOP in the grammar
        return Expr("word", "".join(rng.choice(alphabet) for _ in range(n)))
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return Expr("not", random_expr(rng, alphabet, depth - 1))
    return Expr(
        op,
        random_expr(rng, alphabet, depth - 1),
        random_expr(rng, alphabet, depth - 1),
    )


def clopen_cover(P: PrefixClopen, L: int) -> frozenset:
    return cover_set(P.alphabet, P.words, L)


def check_expr_against_oracle(alphabet: str, e: Expr) -> None:
    """eval_expr result must cover exactly the oracle's word set."""
    P = eval_expr(alphabet, e.text())
    L = max(e.max_word_len(), max((len(w) for w in P.words), default=0)) + 1
    assert clopen_cover(P, L) == e.oracle(alphabet, L), e.text()
