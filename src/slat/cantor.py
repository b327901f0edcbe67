"""Clopen subsets of the infinite-word space over a finite alphabet.

A clopen set is a finite union of cylinders, one cylinder per finite
word.  Its canonical word form is the reduced prefix antichain: no word
is a proper prefix of another, no node keeps its complete family of
children, and words are sorted shortlex in alphabet order.  The empty
set of words is the bottom and the singleton {empty word} is the top.

A clopen is held as one node of a hash-consed trie, as in reduced
ordered BDDs (Bryant, Graph-based algorithms for Boolean function
manipulation, 1986).  The leaves OUT = 0 and IN = 1 cover nothing and
everything; any other node is an int naming a tuple with one child per
symbol, in alphabet order, that covers what the clopen covers inside the
child's cylinder.  _mk is the only node constructor: it folds a node
whose children are all the same leaf into that leaf and interns every
other tuple.  That makes nodes canonical, by induction on height: an
internal node covers neither everything nor nothing (its children would
all be IN, or all OUT, by induction, and _mk folds those), and two
internal nodes cover the same set iff their children do pairwise, iff
their tuples are equal, iff they are the same int.  So equal clopens
share a root, and equality, hashing and containment compare roots.  The
words are the paths to IN leaves, read by one pre-order walk in symbol
order and stably sorted by length: leaves form an antichain, and a
complete family of IN siblings is a node _mk folded.

The node table is process-wide and only grows: a node, once made, stays
for the life of the process.  It holds one node per distinct sub-clopen
ever built, so it grows with the variety of clopens a process meets, not
with the number of operations on them.

Two kernels work on roots: _walk meets or joins two of them and _flip
complements one.  _build makes one chain of nodes per word and joins
the chains with _walk.  normalize, meet, join and complement check
their arguments and hand one kernel result to _clopen, the one maker of
internal results; kappa_word and eval_expr are built on them.  Each
_walk and _flip call memoizes the nodes it combines for that call only.
Nothing is cached on a word, an expression or a root: the node table
already shares every sub-clopen, so such a cache would save only the
repeat of an identical call, for a lookup on every call and memory per
distinct input.

_walk keeps an explicit stack, and _build is chains joined by _walk, so
neither has a depth limit.  _flip recurses, one Python frame per trie
level, so complementing a clopen deeper than the recursion limit raises
RecursionError (one error line from the command line).  That is kept on
purpose for now: the complement of a cylinder of n symbols has n words
of up to n symbols, about 8 MB of output at 4000 symbols over two
letters, and the cantor-exprs benchmark declares RecursionError for its
two cylinders past the limit, as its word-by-word check of such outputs
would double the process's peak memory.

Alphabets are strings of distinct symbols, each checked and indexed once
into the record _record keeps for it.  A one-symbol alphabet is allowed
but degenerate: a node has one child, a leaf by induction, so _mk folds
every trie to a leaf and the algebra collapses to {bottom, top}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, cycle
from typing import Iterable, Sequence

from .errors import AlphabetMismatchError, ForeignSymbolError, ParseError

OUT, IN = 0, 1
# Children of each node by its int; the two leaves have none.
_KIDS: list[tuple[int, ...] | None] = [None, None]
_NODES: dict[tuple[int, ...], int] = {}


def _mk(kids: tuple[int, ...]) -> int:
    """The node with these children: a leaf if they are all that leaf,
    else the one interned node with exactly these children."""
    leaf = kids[0]
    if leaf <= IN and kids.count(leaf) == len(kids):
        return leaf
    node = _NODES.get(kids)
    if node is None:
        node = _NODES[kids] = len(_KIDS)
        _KIDS.append(kids)
    return node


@lru_cache(maxsize=16)
def _record(alphabet: str) -> tuple[frozenset[str], dict[str, int], tuple[tuple[int, str], ...]]:
    """An alphabet validated and indexed: its symbol set, each symbol's
    rank, and the (rank, symbol) pairs from the last symbol down.  A
    refused alphabet raises, so no record of it is kept."""
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    symbols = frozenset(alphabet)
    if len(symbols) != len(alphabet):
        raise ValueError(f"alphabet {alphabet!r} repeats a symbol")
    return symbols, {s: i for i, s in enumerate(alphabet)}, tuple(enumerate(alphabet))[::-1]


_check_alphabet = _record


def is_degenerate_alphabet(alphabet: str) -> bool:
    _check_alphabet(alphabet)
    return len(alphabet) == 1


def _check_words(alphabet: str, words: Sequence[str]) -> None:
    """Raise ForeignSymbolError naming the first word with a symbol outside
    the alphabet; one set test when there is none."""
    symbols = _record(alphabet)[0]
    if symbols.issuperset("".join(words)):
        return
    for word in words:
        foreign = set(word) - symbols
        if foreign:
            raise ForeignSymbolError(
                f"word {word!r} uses symbols {sorted(foreign)} outside alphabet {alphabet!r}")


def _build(alphabet: str, words: Sequence[str]) -> int:
    """The root of the trie covering the cylinders of `words`, in any order
    and with repeats: each word is a chain of nodes made from its last
    symbol up in one reused kids buffer, and the chains are joined one by
    one.  A join with a chain descends only along the chain's path, so the
    build is linear in the total length of the words and iterative."""
    rank = _record(alphabet)[1]
    kids = [OUT] * len(alphabet)
    root = OUT
    for word in words:
        node = IN
        for s in reversed(word):
            i = rank[s]
            kids[i] = node
            node = _mk(tuple(kids))
            kids[i] = OUT
        root = _walk(root, node, IN, OUT)
    return root


def _words_of(alphabet: str, root: int) -> tuple[str, ...]:
    """The words of a trie, shortlex sorted: the paths to its IN leaves in
    pre-order, which is symbol order, then a stable sort by length."""
    backwards = _record(alphabet)[2]
    out = []
    stack = [(root, "")]
    while stack:
        node, prefix = stack.pop()
        if node == IN:
            out.append(prefix)
        elif node != OUT:
            kids = _KIDS[node]
            for i, s in backwards:
                if kids[i] != OUT:
                    stack.append((kids[i], prefix + s))
    out.sort(key=len)
    return tuple(out)


class PrefixClopen:
    """A clopen set: the root of its trie over an alphabet.

    Equality and hashing use (alphabet, root); `words`, the reduced prefix
    antichain, is derived on first use.  Construct through normalize, top,
    bottom or the operations.  Direct construction from words accepts
    exactly the normal form: the words of the trie they build.  Instances
    are immutable; only the lazy `words` fills in its own slot.
    """

    __slots__ = ("alphabet", "root", "_words")

    def __init__(self, alphabet: str, words: Sequence[str]) -> None:
        _check_alphabet(alphabet)
        words = tuple(words)
        _check_words(alphabet, words)
        root = _build(alphabet, words)
        if _words_of(alphabet, root) != words:
            raise ValueError(
                "words are not a shortlex-sorted prefix antichain without complete sibling families")
        _set_alphabet(self, alphabet)
        _set_root(self, root)
        _set_words(self, words)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PrefixClopen is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PrefixClopen is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # Roots name nodes of this process's table, so copies rebuild from words.
        return PrefixClopen, (self.alphabet, self.words)

    @property
    def words(self) -> tuple[str, ...]:
        """The reduced prefix antichain, read off the trie on first use."""
        if self._words is None:
            _set_words(self, _words_of(self.alphabet, self.root))
        return self._words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrefixClopen):
            return NotImplemented
        return self.root == other.root and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash((self.alphabet, self.root))

    def __repr__(self) -> str:
        return f"PrefixClopen(alphabet={self.alphabet!r}, words={self.words!r})"

    def is_bottom(self) -> bool:
        return self.root == OUT

    def is_top(self) -> bool:
        return self.root == IN

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


# The slots are set through their member descriptors, bound once, which
# gets past the immutability guard at less cost than object.__setattr__.
_new = object.__new__
_set_alphabet = PrefixClopen.alphabet.__set__
_set_root = PrefixClopen.root.__set__
_set_words = PrefixClopen._words.__set__


def _clopen(alphabet: str, root: int) -> PrefixClopen:
    """The clopen of a trie root, unchecked: roots are canonical."""
    P = _new(PrefixClopen)
    _set_alphabet(P, alphabet)
    _set_root(P, root)
    _set_words(P, None)
    return P


def bottom(alphabet: str) -> PrefixClopen:
    _check_alphabet(alphabet)
    return _clopen(alphabet, OUT)


def top(alphabet: str) -> PrefixClopen:
    _check_alphabet(alphabet)
    return _clopen(alphabet, IN)


def normalize(alphabet: str, words: Iterable[str]) -> PrefixClopen:
    """The clopen covered by the cylinders of a set of words.

    Any order and repeats are allowed; a word with a proper prefix present
    is absorbed and complete sibling families fold into their parent, so
    the result's words are the canonical reduced prefix antichain.
    """
    _check_alphabet(alphabet)
    words = list(words)
    _check_words(alphabet, words)
    return _clopen(alphabet, _build(alphabet, words))


def _walk(x: int, y: int, zero: int, one: int) -> int:
    """The meet (zero=OUT, one=IN) or join (zero=IN, one=OUT) of two nodes.

    zero absorbs, one is the unit, and equal nodes give themselves;
    otherwise the children combine pairwise.  Pairs wait on an explicit
    stack until their children's pairs are done, and each pair is
    combined once per call.
    """
    if x == zero or y == zero:
        return zero
    if x == one or x == y:
        return y
    if y == one:
        return x
    done: dict[tuple[int, int], int] = {}
    stack = [(x, y)]
    while stack:
        pair = stack[-1]
        if pair in done:
            stack.pop()
            continue
        kids = []
        waiting = False
        for c, d in zip(_KIDS[pair[0]], _KIDS[pair[1]]):
            if c == zero or d == zero:
                kids.append(zero)
            elif c == one or c == d:
                kids.append(d)
            elif d == one:
                kids.append(c)
            else:
                node = done.get((c, d))
                if node is None:
                    stack.append((c, d))
                    waiting = True
                kids.append(node)
        if not waiting:
            done[pair] = _mk(tuple(kids))
            stack.pop()
    return done[(x, y)]


def join(P: PrefixClopen, Q: PrefixClopen) -> PrefixClopen:
    """Union of the covered point sets."""
    alphabet = P.alphabet
    if Q.alphabet != alphabet:
        raise AlphabetMismatchError(f"{alphabet!r} vs {Q.alphabet!r}")
    return _clopen(alphabet, _walk(P.root, Q.root, IN, OUT))


def meet(P: PrefixClopen, Q: PrefixClopen) -> PrefixClopen:
    """Intersection of the covered point sets."""
    alphabet = P.alphabet
    if Q.alphabet != alphabet:
        raise AlphabetMismatchError(f"{alphabet!r} vs {Q.alphabet!r}")
    return _clopen(alphabet, _walk(P.root, Q.root, OUT, IN))


def _flip(node: int, flipped: dict[int, int]) -> int:
    """The complement of a node: the trie with its leaves swapped.

    A recursive descent of exactly one Python frame per trie level: the
    children are flipped in a plain loop, since a comprehension or a
    generator would add a frame of its own per level.  `flipped` memoizes
    the nodes of one call, shared subtries included.  Leaves never enter."""
    out = flipped.get(node)
    if out is None:
        kids = []
        for kid in _KIDS[node]:
            kids.append(IN - kid if kid <= IN else _flip(kid, flipped))
        out = flipped[node] = _mk(tuple(kids))
    return out


def complement(P: PrefixClopen) -> PrefixClopen:
    """Set complement inside the whole word space."""
    root = P.root
    return _clopen(P.alphabet, IN - root if root <= IN else _flip(root, {}))


def leq(P: PrefixClopen, Q: PrefixClopen) -> bool:
    """Containment of covered point sets: P is its own meet with Q."""
    return meet(P, Q).root == P.root


def kappa_word(alphabet: str, word: str) -> PrefixClopen:
    """The cylinder of a single finite word."""
    return normalize(alphabet, [word])


def is_single_cylinder_complemented(alphabet: str, word: str) -> bool:
    """Is the complement of this cylinder itself a cylinder or a bound?

    True iff the complement has at most one word, decided from their
    count.  Over k >= 2 symbols the complement of the cylinder of w has
    the |w|*(k-1) words w[:i]+s with i < |w| and s != w[i]:
    - they cover the complement: an infinite word outside the cylinder
      first leaves w at some i < |w|, with a symbol s != w[i], and no
      word of the form w[:i]+s meets the cylinder;
    - they are the normal form, which is unique: two of them at depths
      i < j are incomparable, since w[:j]+t passes w[:i]+w[i], and each
      family w[:i]+_ lacks its sibling w[:i]+w[i], so none is complete.
    So the answer is |w|*(k-1) <= 1: w empty (the complement is bottom),
    or w one symbol over two.  Over k = 1 every clopen is a bound.
    """
    _check_alphabet(alphabet)
    _check_words(alphabet, (word,))
    return len(alphabet) == 1 or len(word) * (len(alphabet) - 1) <= 1


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

    Exact: walk the trie from the root along the word's symbols until a
    leaf, which a finite trie reaches within its height.
    """
    _check_words(P.alphabet, (w.preperiod, w.period))
    rank = _record(P.alphabet)[1]
    symbols = chain(w.preperiod, cycle(w.period))
    node = P.root
    while node > IN:
        node = _KIDS[node][rank[next(symbols)]]
    return node == IN


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

    '!' binds tightest, then '&', then '|'; parentheses group.  Each atom
    is a kappa_word, top or bottom, and each operator the public meet,
    join or complement.
    """
    _check_alphabet(alphabet)
    tokens: list[str | None] = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty expression")
    tokens.append(None)  # past the end
    pos = 0

    def parse_expr() -> PrefixClopen:
        nonlocal pos
        acc = parse_term()
        while tokens[pos] == "|":
            pos += 1
            acc = join(acc, parse_term())
        return acc

    def parse_term() -> PrefixClopen:
        nonlocal pos
        acc = parse_factor()
        while tokens[pos] == "&":
            pos += 1
            acc = meet(acc, parse_factor())
        return acc

    def parse_factor() -> PrefixClopen:
        nonlocal pos
        tok = tokens[pos]
        if tok is None:
            raise ParseError("unexpected end of expression")
        pos += 1
        if tok == "!":
            return complement(parse_factor())
        if tok == "(":
            inner = parse_expr()
            if tokens[pos] != ")":
                raise ParseError("missing closing parenthesis")
            pos += 1
            return inner
        if tok in (")", "&", "|"):
            raise ParseError(f"unexpected {tok!r}")
        if tok in ("TOP", "^"):
            return top(alphabet)
        if tok in ("BOT", "-"):
            return bottom(alphabet)
        return kappa_word(alphabet, tok)

    result = parse_expr()
    if tokens[pos] is not None:
        raise ParseError(f"trailing input from {tokens[pos]!r}")
    return result
