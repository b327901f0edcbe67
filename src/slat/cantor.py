"""Clopen subsets of the infinite-word space over a finite alphabet.

A clopen set is a finite union of cylinders, one cylinder per finite
word.  The canonical form is the reduced prefix antichain: no word is a
proper prefix of another, no node keeps its complete family of children,
and words are sorted shortlex in alphabet order.  The empty set of words
is the bottom and the singleton {empty word} is the top.

One pass in symbol order computes that form (_reduce); the constructor
accepts exactly its fixed points.  Every result is reduced once, by the
constructor's check: meet and complement build the form themselves (the
proofs are in their docstrings) and only sort their output, while join
and normalize reduce raw words before the constructor re-checks them.
complement descends the symbol tree with one Python frame per symbol, so
a cylinder longer than the recursion limit raises RecursionError.

Alphabets are strings of distinct symbols.  A one-symbol alphabet is
permitted but degenerate: the word space is a single point and the
algebra collapses to {bottom, top}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import methodcaller
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, ForeignSymbolError, ParseError


def _check_alphabet(alphabet: str) -> None:
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError(f"alphabet {alphabet!r} repeats a symbol")


def is_degenerate_alphabet(alphabet: str) -> bool:
    _check_alphabet(alphabet)
    return len(alphabet) == 1


def _check_words(alphabet: str, words: Sequence[str]) -> None:
    """Raise ForeignSymbolError naming the first word with a symbol outside
    the alphabet; one set test when there is none."""
    if set().union(*words) <= set(alphabet):
        return
    for word in words:
        foreign = set(word) - set(alphabet)
        if foreign:
            raise ForeignSymbolError(
                f"word {word!r} uses symbols {sorted(foreign)} outside alphabet {alphabet!r}")


@lru_cache(maxsize=16)
def _ranks(alphabet: str) -> dict[int, int]:
    """Translation of each symbol to the character of its rank, so that
    string order on translated words is symbol order: a word sorts right
    after its prefixes.  Within one length symbol order is shortlex order,
    so a stable sort by length then gives shortlex order."""
    return str.maketrans(alphabet, "".join(map(chr, range(len(alphabet)))))


def _reduce(alphabet: str, words: Iterable[str]) -> tuple[str, ...]:
    """The reduced prefix antichain covering the same points, shortlex sorted.

    One pass over the distinct words in symbol order, the only sort.  A
    word extending the last kept word is absorbed by it; any other word is
    kept, and when it is the last member of a complete sibling family the
    family folds into its parent, repeatedly while that completes a family
    in turn.  The parent sorts right before its children and after every
    earlier kept word, so kept stays in symbol order and one stable sort by
    length makes it shortlex.
    """
    last, k = alphabet[-1], len(alphabet)
    kept: list[str] = []
    for w in sorted(set(words), key=methodcaller("translate", _ranks(alphabet))):
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


@dataclass(frozen=True)
class PrefixClopen:
    """A clopen set in reduced prefix antichain form.

    Construct through normalize, top, bottom or the operations.  Direct
    construction accepts exactly the fixed points of normalization: words
    that _reduce returns unchanged.
    """

    alphabet: str
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_alphabet(self.alphabet)
        _check_words(self.alphabet, self.words)
        if _reduce(self.alphabet, self.words) != tuple(self.words):
            raise ValueError(
                "words are not a shortlex-sorted prefix antichain without complete sibling families")

    def is_bottom(self) -> bool:
        return not self.words

    def is_top(self) -> bool:
        return self.words == ("",)

    def __and__(self, other: "PrefixClopen") -> "PrefixClopen":
        return meet(self, other)

    def __or__(self, other: "PrefixClopen") -> "PrefixClopen":
        return join(self, other)

    def __invert__(self) -> "PrefixClopen":
        return complement(self)

    def render(self) -> str:
        """Frozen output form: '-' for bottom, '^' for top, else the words."""
        if self.is_bottom():
            return "-"
        if self.is_top():
            return "^"
        return " ".join(self.words)


def bottom(alphabet: str) -> PrefixClopen:
    _check_alphabet(alphabet)
    return PrefixClopen(alphabet, ())


def top(alphabet: str) -> PrefixClopen:
    _check_alphabet(alphabet)
    return PrefixClopen(alphabet, ("",))


def normalize(alphabet: str, words: Iterable[str]) -> PrefixClopen:
    """Canonical reduced prefix antichain for a set of cylinder words.

    Words with a proper prefix present are absorbed, complete sibling
    families fold into their parent, and the result is sorted shortlex,
    all in one pass (_reduce).  This preserves the covered point set.
    """
    _check_alphabet(alphabet)
    words = list(words)
    _check_words(alphabet, words)
    return PrefixClopen(alphabet, _reduce(alphabet, words))


def _same_alphabet(P: PrefixClopen, Q: PrefixClopen) -> None:
    if P.alphabet != Q.alphabet:
        raise AlphabetMismatchError(f"{P.alphabet!r} vs {Q.alphabet!r}")


def join(P: PrefixClopen, Q: PrefixClopen) -> PrefixClopen:
    """Union of the covered point sets.

    The words of P and Q are already checked, so they go straight to
    _reduce; the constructor checks the result.
    """
    _same_alphabet(P, Q)
    return PrefixClopen(P.alphabet, _reduce(P.alphabet, P.words + Q.words))


def meet(P: PrefixClopen, Q: PrefixClopen) -> PrefixClopen:
    """Intersection: of each comparable word pair the longer one survives.

    P and Q are reduced, so the survivors already are and only need
    sorting.  A survivor w has exactly one prefix in P and one in Q, and
    comes from that pair alone, so no word repeats.  If w1 were a proper
    prefix of w2, w1's pair would also be w2's, so w1 = w2.  If every
    child p+s of p survived: when the prefix in P of some p+s is no longer
    than p, it is the prefix in P of every p+t, so every p+t is a word of
    Q; likewise with P and Q swapped; otherwise every p+t is a word of
    both.  Either way P or Q keeps a complete sibling family, which a
    reduced form does not.
    """
    _same_alphabet(P, Q)
    out = []
    for u in P.words:
        for v in Q.words:
            if u.startswith(v):
                out.append(u)
            elif v.startswith(u):
                out.append(v)
    out.sort(key=methodcaller("translate", _ranks(P.alphabet)))
    out.sort(key=len)
    return PrefixClopen(P.alphabet, tuple(out))


def complement(P: PrefixClopen) -> PrefixClopen:
    """Set complement inside the whole word space.

    Recursive descent over the symbol tree, one frame per symbol: the
    words of P through a node at depth d are split by their symbol at d.
    A node that is itself a word of P emits nothing, a child no word
    passes through emits itself, and every other child is descended.

    The output is already reduced and in symbol order, so it is only
    sorted by length.  Emitted nodes are leaves of the tree of descended
    nodes, so none repeats and none is a prefix of another.  A descended
    node has a word of P through one of its children, and that child is
    descended, not emitted, so no complete sibling family is emitted.
    Children are visited in alphabet order, and whatever is emitted below
    one child precedes its later siblings in symbol order.
    """
    out = [] if P.words else [""]

    def walk(words: Sequence[str], d: int) -> None:
        if len(words[0]) == d:  # an antichain holds no other word through it
            return
        below: dict[str, list[str]] = {s: [] for s in P.alphabet}
        for w in words:
            below[w[d]].append(w)
        for s, through in below.items():
            if through:
                walk(through, d + 1)
            else:
                out.append(words[0][:d] + s)

    if P.words:
        walk(P.words, 0)
    out.sort(key=len)
    return PrefixClopen(P.alphabet, tuple(out))


def leq(P: PrefixClopen, Q: PrefixClopen) -> bool:
    """Containment of covered point sets."""
    return meet(P, Q) == P


def kappa_word(alphabet: str, word: str) -> PrefixClopen:
    """The cylinder of a single finite word."""
    return normalize(alphabet, [word])


def is_single_cylinder_complemented(alphabet: str, word: str) -> bool:
    """Is the complement of this cylinder itself a cylinder or a bound?

    True iff the complement normalizes to zero words (bottom or, for the
    degenerate one-symbol alphabet, anything) or exactly one word.
    """
    return len(complement(kappa_word(alphabet, word)).words) <= 1


@dataclass(frozen=True)
class UPWord:
    """An ultimately periodic infinite word: preperiod then period forever."""

    preperiod: str
    period: str

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be non-empty")

    def expand(self, n: int) -> str:
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        reps = (n - len(self.preperiod)) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]


def membership(P: PrefixClopen, w: UPWord) -> bool:
    """Does the infinite word land in the covered point set?

    Exact: expand far enough to compare against the longest word of P.
    """
    _check_words(P.alphabet, (w.preperiod, w.period))
    horizon = max((len(x) for x in P.words), default=0)
    prefix = w.expand(horizon)
    return any(prefix.startswith(x) for x in P.words)


def filter_prefixes(w: UPWord, k: int) -> list[str]:
    """The k shortest finite prefixes of the infinite word, shortest first."""
    if k < 0:
        raise ValueError("k must be non-negative")
    full = w.expand(max(k - 1, 0))
    return [full[:i] for i in range(k)]


# Expression surface.  Grammar, loosest binding last:
#   expr   := term ('|' term)*
#   term   := factor ('&' factor)*
#   factor := '!' factor | '(' expr ')' | atom
# Atoms are words over the alphabet, TOP or '^' for the top, BOT or '-'
# for the bottom.  The reserved atom spellings make rendered output
# round-trip through the parser.

# A token is one special character or a maximal run of anything else but
# whitespace; whitespace only separates.
_TOKEN = re.compile(r"[&|!()]|[^\s&|!()]+")


def eval_expr(alphabet: str, text: str) -> PrefixClopen:
    """Evaluate a clopen expression to canonical form.

    '!' binds tightest, then '&', then '|'; parentheses group.
    """
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
