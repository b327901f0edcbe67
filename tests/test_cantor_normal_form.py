"""The words of the trie against the word-list routes it replaced (kept
in cantor_oracle): two-phase normalization and the one-pass reduction,
the four-rule validator, the pair-scan meet, and the prefix-rescanning
and word-descent complements."""

from __future__ import annotations

import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_oracle import (
    check_expr_against_oracle,
    complement_by_prefix_scan,
    complement_by_word_descent,
    four_rule_violation,
    meet_by_pair_scan,
    normalize_two_phase,
    random_expr,
    reduce_one_pass,
    shortlex,
)
from slat.cantor import PrefixClopen, complement, eval_expr, join, kappa_word, meet, normalize

# Alphabets of 1-4 symbols in any order, so that symbol order is not
# always code point order.
alphabets = st.integers(1, 4).flatmap(
    lambda k: st.permutations("abcd").map(lambda p: "".join(p[:k])))


def word_lists(alphabet: str):
    # duplicates and any order are allowed
    return st.lists(st.text(alphabet=alphabet, max_size=5), max_size=8)


def accepts(alphabet: str, words: tuple[str, ...]) -> bool:
    try:
        PrefixClopen(alphabet, words)
    except ValueError:
        return False
    return True


def candidates(alphabet: str, words: list[str]) -> list[tuple[str, ...]]:
    """The raw words, their normal form and three ways to spoil it."""
    nf = normalize_two_phase(alphabet, words)
    return [tuple(words), nf, nf[::-1], nf + nf[:1], nf[1:] + nf[:1]]


def check_operations_match_word_oracles(alphabet: str, ws1: list[str], ws2: list[str]) -> None:
    P, Q = normalize(alphabet, ws1), normalize(alphabet, ws2)
    assert P.words == reduce_one_pass(alphabet, ws1)
    assert meet(P, Q).words == meet_by_pair_scan(alphabet, P.words, Q.words)
    assert join(P, Q).words == reduce_one_pass(alphabet, P.words + Q.words)
    assert complement(P).words == complement_by_word_descent(alphabet, P.words)


def seeded_sweep():
    """2000 seeded word lists, over alphabets of 1-4 symbols in any order."""
    rng = random.Random(6)
    for _ in range(2000):
        alphabet = "".join(rng.sample("abcd", rng.randint(1, 4)))
        yield alphabet, ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
                         for _ in range(rng.randint(0, 8))]


@settings(max_examples=400, deadline=None)
@given(alphabets.flatmap(lambda a: st.tuples(st.just(a), word_lists(a), word_lists(a))))
def test_operations_match_word_oracles(case):
    check_operations_match_word_oracles(*case)


def test_seeded_sweep_operations_match_word_oracles():
    sweep = list(seeded_sweep())
    for (alphabet, ws1), (_, ws2) in zip(sweep, sweep[1:]):
        # the next list, its symbols mapped onto this alphabet
        onto = str.maketrans("abcd", (alphabet * 4)[:4])
        check_operations_match_word_oracles(alphabet, ws1, [w.translate(onto) for w in ws2])


@settings(max_examples=400, deadline=None)
@given(alphabets.flatmap(lambda a: st.tuples(st.just(a), word_lists(a))))
def test_normal_form_matches_two_phase(case):
    alphabet, words = case
    assert normalize(alphabet, words).words == normalize_two_phase(alphabet, words)


@settings(max_examples=400, deadline=None)
@given(alphabets.flatmap(lambda a: st.tuples(st.just(a), word_lists(a))))
def test_constructor_accepts_what_the_four_rules_accept(case):
    alphabet, words = case
    for c in candidates(alphabet, words):
        assert accepts(alphabet, c) == (four_rule_violation(alphabet, c) is None), c


@settings(max_examples=400, deadline=None)
@given(alphabets.flatmap(lambda a: st.tuples(st.just(a), word_lists(a))))
def test_complement_matches_prefix_scan(case):
    alphabet, words = case
    P = normalize(alphabet, words)
    assert complement(P).words == complement_by_prefix_scan(P)


def test_seeded_sweep_gives_both_verdicts():
    verdicts = {True: 0, False: 0}
    for alphabet, words in seeded_sweep():
        assert normalize(alphabet, words).words == normalize_two_phase(alphabet, words)
        for c in candidates(alphabet, words):
            ok = accepts(alphabet, c)
            assert ok == (four_rule_violation(alphabet, c) is None), (alphabet, c)
            verdicts[ok] += 1
    assert min(verdicts.values()) > 2000


def test_long_cylinders_match_prefix_scan():
    rng = random.Random(0)
    for length, alphabet in ((10, "ab"), (57, "abc"), (160, "abcd"), (400, "ba")):
        P = kappa_word(alphabet, "".join(rng.choice(alphabet) for _ in range(length)))
        assert complement(P).words == complement_by_prefix_scan(P)


def test_word_listing_matches_the_oracle_on_wide_tries():
    # Cylinder complements over four symbols, three siblings per level, up
    # to the 900 symbols a complement reaches below the recursion limit.
    rng = random.Random(28)
    for length in (1, 2, 3, 10, 57, 160, 400, 900):
        word = "".join(rng.choice("abcd") for _ in range(length))
        siblings = {word[:i] + s for i, c in enumerate(word) for s in "abcd" if s != c}
        got = complement(kappa_word("abcd", word)).words
        assert got == shortlex("abcd", siblings), length
        if length <= 400:
            assert got == complement_by_word_descent("abcd", (word,)), length
    for _ in range(300):
        alphabet = rng.choice(("ab", "abc", "abcd", "dbca"))
        expr = random_expr(rng, alphabet, 6)
        words = eval_expr(alphabet, expr.text()).words
        assert words == reduce_one_pass(alphabet, words), expr.text()
        assert four_rule_violation(alphabet, words) is None, expr.text()
        check_expr_against_oracle(alphabet, expr)


def test_complement_takes_one_frame_per_symbol():
    # A cylinder 100 symbols short of the recursion limit still complements.
    word = ("ab" * sys.getrecursionlimit())[:sys.getrecursionlimit() - 100]
    got = complement(kappa_word("ab", word)).words
    siblings = {word[:i] + ("b" if c == "a" else "a") for i, c in enumerate(word)}
    assert len(got) == len(word) and set(got) == siblings


def test_evaluated_complement_takes_one_frame_per_symbol():
    # The evaluator flips the cylinder it parsed on the same frame budget.
    word = ("ab" * sys.getrecursionlimit())[:sys.getrecursionlimit() - 100]
    got = eval_expr("ab", "!" + word).words
    siblings = {word[:i] + ("b" if c == "a" else "a") for i, c in enumerate(word)}
    assert len(got) == len(word) and set(got) == siblings
