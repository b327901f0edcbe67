"""Independent finite-depth semantics for prefix clopens.

A clopen is modelled by the set of length-L words it covers, for L at
least the longest word involved.  Everything here is computed from raw
string operations so it shares no code with the library.

The word-list routes the library has used are also kept here: two-phase
normalization (prefix absorption, then repeated sibling collapse), the
four-rule validator (duplicates, prefixes, sibling families, shortlex
order) and the complement that rescans every prefix at every node, which
the library first used; then the one-pass reduction, the pair-scan meet
and the word-descent complement, which the trie replaced.  The tests
hold the trie's words to all of them, and the expression tokenizer's
pattern to the character scan it replaced.  So too the recursive-descent
evaluator that the explicit-stack loop replaced, the cylinder test that
lists the complement's words and the membership test that scans every
word.  cover_set is the finite-depth model of a word list and
clopen_cover that of a clopen; random_expr draws Expr trees, whose
oracle method models an expression, and check_expr_against_oracle holds
eval_expr to that model.  The benchmark's cantor workload imports
cover_set and random_expr.
"""

from __future__ import annotations

import itertools
import random
from operator import methodcaller

from slat.cantor import (
    _TOKEN,
    PrefixClopen,
    UPWord,
    _check_alphabet,
    _check_words,
    bottom,
    complement,
    eval_expr,
    join,
    kappa_word,
    meet,
    top,
)
from slat.errors import ParseError


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


def _symbol_order(alphabet: str) -> methodcaller:
    """A sort key under which string order is symbol order: each symbol is
    translated to the character of its rank, so a word sorts right after
    its prefixes and, within one length, in shortlex order."""
    return methodcaller("translate", str.maketrans(alphabet, "".join(map(chr, range(len(alphabet))))))


def reduce_one_pass(alphabet: str, words) -> tuple[str, ...]:
    """The reduced prefix antichain covering the same points, shortlex sorted.

    One pass over the distinct words in symbol order.  A word extending
    the last kept word is absorbed by it; any other word is kept, and when
    it is the last member of a complete sibling family the family folds
    into its parent, repeatedly while that completes a family in turn.
    The parent sorts right before its children and after every earlier
    kept word, so kept stays in symbol order and one stable sort by length
    makes it shortlex.
    """
    last, k = alphabet[-1], len(alphabet)
    kept: list[str] = []
    for w in sorted(set(words), key=_symbol_order(alphabet)):
        if kept and w.startswith(kept[-1]):
            continue
        kept.append(w)
        # w ends its parent's family, and a complete family is the last k
        # kept words: whatever is kept between two siblings extends one.
        while w and w[-1] == last and kept[-k:] == [w[:-1] + s for s in alphabet]:
            w = w[:-1]
            kept[-k:] = [w]
    kept.sort(key=len)
    return tuple(kept)


def meet_by_pair_scan(alphabet: str, p_words, q_words) -> tuple[str, ...]:
    """Of each comparable pair of a word of P and a word of Q the longer
    one, sorted shortlex.  For reduced P and Q that is the reduced meet: a
    survivor comes from its one prefix in P and its one prefix in Q, so
    none repeats or extends another, and a complete family of survivors
    would leave a complete family in P or in Q."""
    out = []
    for u in p_words:
        for v in q_words:
            if u.startswith(v):
                out.append(u)
            elif v.startswith(u):
                out.append(v)
    out.sort(key=_symbol_order(alphabet))
    out.sort(key=len)
    return tuple(out)


def complement_by_word_descent(alphabet: str, words) -> tuple[str, ...]:
    """The reduced complement of reduced words, shortlex sorted.

    Descends the symbol tree, splitting the words through a node at depth
    d by their symbol at d: a node that is itself a word emits nothing, a
    child no word passes through emits itself, and every other child is
    descended.  Children are visited in alphabet order, so the output is
    in symbol order and only needs a stable sort by length.
    """
    out = [] if words else [""]

    def walk(through_node, d: int) -> None:
        if len(through_node[0]) == d:  # an antichain holds no other word through it
            return
        below: dict[str, list[str]] = {s: [] for s in alphabet}
        for w in through_node:
            below[w[d]].append(w)
        for s, through in below.items():
            if through:
                walk(through, d + 1)
            else:
                out.append(through_node[0][:d] + s)

    if words:
        walk(list(words), 0)
    out.sort(key=len)
    return tuple(out)


def eval_by_operations(alphabet: str, text: str) -> PrefixClopen:
    """The recursive-descent expression evaluator that eval_expr's loop
    replaced: the same grammar, errors and operations, with one parser
    closure per grammar rule, peek and take closures over the token list
    and a length test for its end.  It recurses once per nesting level."""
    _check_alphabet(alphabet)
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression")
        pos += 1
        return tokens[pos - 1]

    def parse_expr() -> PrefixClopen:
        acc = parse_term()
        while peek() == "|":
            take()
            acc = join(acc, parse_term())
        return acc

    def parse_term() -> PrefixClopen:
        acc = parse_factor()
        while peek() == "&":
            take()
            acc = meet(acc, parse_factor())
        return acc

    def parse_factor() -> PrefixClopen:
        tok = take()
        if tok == "!":
            return complement(parse_factor())
        if tok == "(":
            inner = parse_expr()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            take()
            return inner
        if tok in (")", "&", "|"):
            raise ParseError(f"unexpected {tok!r}")
        if tok in ("TOP", "^"):
            return top(alphabet)
        if tok in ("BOT", "-"):
            return bottom(alphabet)
        return kappa_word(alphabet, tok)

    if not tokens:
        raise ParseError("empty expression")
    result = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input from {tokens[pos]!r}")
    return result


def is_single_cylinder_complemented_by_words(alphabet: str, word: str) -> bool:
    """Whether the complement of the cylinder, listed, has at most one word."""
    return len(complement(kappa_word(alphabet, word)).words) <= 1


def membership_by_scan(P: PrefixClopen, w: UPWord) -> bool:
    """Expand the infinite word to the longest word of P and test every
    word of P as its prefix."""
    _check_words(P.alphabet, (w.preperiod, w.period))
    horizon = max((len(x) for x in P.words), default=0)
    prefix = w.expand(horizon)
    return any(prefix.startswith(x) for x in P.words)


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


def _full_set(alphabet: str, L: int) -> frozenset:
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
            return _full_set(alphabet, L)
        if self.op == "bot":
            return frozenset()
        if self.op == "not":
            return _full_set(alphabet, L) - self.args[0].oracle(alphabet, L)
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
