"""Symbolic clopen algebra over infinite words."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantor_oracle import (
    check_expr_against_oracle,
    clopen_cover,
    eval_by_operations,
    is_single_cylinder_complemented_by_words,
    membership_by_scan,
    normalize_two_phase,
    random_expr,
    tokenize_by_scan,
)
from slat import cantor
from slat.cantor import (
    PrefixClopen,
    UPWord,
    bottom,
    complement,
    eval_expr,
    filter_prefixes,
    is_degenerate_alphabet,
    is_single_cylinder_complemented,
    join,
    kappa_word,
    leq,
    meet,
    membership,
    normalize,
    top,
)
from slat.errors import AlphabetMismatchError, ForeignSymbolError, ParseError

AB = "ab"
# Beyond AB: three symbols, a symbol order that is not code point order,
# and the degenerate one-symbol alphabet.
MORE_ALPHABETS = ("abc", "ba", "a")


def words_over(alphabet: str):
    return st.lists(
        st.text(alphabet=alphabet, min_size=0, max_size=4), min_size=0, max_size=5)


words_ab = words_over(AB)


def clop(ws) -> PrefixClopen:
    return normalize(AB, ws)


def test_normalize_fixtures():
    assert clop(["a", "ab"]).words == ("a",)
    assert clop(["a", "b"]).words == ("",)  # complete siblings collapse to the top
    assert clop(["aa", "ab", "b"]).words == ("",)
    assert clop([]).words == ()
    assert clop(["ba", "ab", "aa"]).words == ("a", "ba")  # aa, ab collapse first
    assert clop(["ba", "a"]).words == ("a", "ba")  # shortlex: length before lex


def test_normalize_rejects_foreign_symbols():
    with pytest.raises(ForeignSymbolError):
        normalize(AB, ["ac"])


def test_invariants_enforced_on_direct_construction():
    with pytest.raises(ValueError):
        PrefixClopen(AB, ("a", "ab"))  # proper prefix present
    with pytest.raises(ValueError):
        PrefixClopen(AB, ("a", "b"))  # complete sibling family kept
    with pytest.raises(ValueError):
        PrefixClopen(AB, ("ab", "aa"))  # not shortlex
    with pytest.raises(ValueError):
        PrefixClopen(AB, ("a", "a"))


def test_meet_fixtures():
    assert meet(clop(["a"]), clop(["ab"])).words == ("ab",)
    assert meet(clop(["a"]), clop(["b"])).words == ()
    assert join(clop(["aa"]), clop(["ab"])).words == ("a",)


def test_complement_fixtures():
    assert complement(clop(["aa"])).words == ("b", "ab")
    assert complement(top(AB)).words == ()
    assert complement(bottom(AB)).words == ("",)


def test_leq_fixtures():
    assert leq(clop(["aa"]), clop(["a"]))
    assert not leq(clop(["a"]), clop(["b"]))
    assert leq(bottom(AB), clop(["b"]))
    assert leq(clop(["b"]), top(AB))


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        meet(clop(["a"]), normalize("abc", ["a"]))


def test_kappa_word():
    assert kappa_word(AB, "aa").words == ("aa",)
    assert kappa_word(AB, "").words == ("",)
    assert meet(kappa_word(AB, "a"), kappa_word(AB, "ab")) == kappa_word(AB, "ab")


def test_kappa_is_injective_meet_hom():
    all_words = [""] + ["a", "b", "aa", "ab", "ba", "bb"]
    seen = {}
    for u in all_words:
        P = kappa_word(AB, u)
        assert P not in seen.values()
        seen[u] = P
    for u in all_words:
        for v in all_words:
            if u.startswith(v) or v.startswith(u):
                longer = u if len(u) >= len(v) else v
                assert meet(seen[u], seen[v]) == seen[longer]
            else:
                assert meet(seen[u], seen[v]).is_bottom()


def test_single_cylinder_complemented():
    assert not is_single_cylinder_complemented(AB, "aa")
    assert is_single_cylinder_complemented(AB, "")
    assert is_single_cylinder_complemented(AB, "a")


def test_single_cylinder_complemented_matches_listing_the_complement():
    for alphabet in ("a", "ab", "abc"):
        for n in range(6):
            for word in map("".join, itertools.product(alphabet, repeat=n)):
                assert is_single_cylinder_complemented(alphabet, word) == \
                    is_single_cylinder_complemented_by_words(alphabet, word), (alphabet, word)


def test_single_cylinder_complemented_past_the_recursion_limit():
    # The listing route would recurse 2000 frames deep.
    assert not is_single_cylinder_complemented(AB, "a" * 2000)
    assert is_single_cylinder_complemented("a", "a" * 2000)
    with pytest.raises(ForeignSymbolError):
        is_single_cylinder_complemented(AB, "abc")
    with pytest.raises(ValueError):
        is_single_cylinder_complemented("aa", "a")


def test_membership():
    w = UPWord("", "ab")
    assert membership(clop(["a"]), w)
    assert not membership(clop(["aa"]), w)
    assert membership(top(AB), w)
    assert not membership(bottom(AB), w)
    assert membership(clop(["abab"]), w)


def test_membership_respects_operations():
    rng = random.Random(7)
    for _ in range(200):
        P = eval_expr(AB, random_expr(rng, AB, 3).text())
        Q = eval_expr(AB, random_expr(rng, AB, 3).text())
        pre = "".join(rng.choice(AB) for _ in range(rng.randint(0, 3)))
        per = "".join(rng.choice(AB) for _ in range(rng.randint(1, 3)))
        w = UPWord(pre, per)
        assert membership(join(P, Q), w) == (membership(P, w) or membership(Q, w))
        assert membership(meet(P, Q), w) == (membership(P, w) and membership(Q, w))
        assert membership(complement(P), w) == (not membership(P, w))


def test_membership_walk_matches_word_scan():
    rng = random.Random(15)
    for i in range(400):
        alphabet = ("ab", "abc", "ba")[i % 3]
        P = eval_expr(alphabet, random_expr(rng, alphabet, 4).text())
        for Q in (P, bottom(alphabet), top(alphabet)):
            pre = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))
            per = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            w = UPWord(pre, per)
            assert membership(Q, w) == membership_by_scan(Q, w), (Q, w)
    with pytest.raises(ForeignSymbolError):
        membership(top(AB), UPWord("", "c"))


def test_upword_expand():
    assert UPWord("", "ab").expand(5) == "ababa"
    assert UPWord("a", "b").expand(4) == "abbb"
    with pytest.raises(ValueError):
        UPWord("a", "")


def test_filter_prefixes():
    assert filter_prefixes(UPWord("", "ab"), 3) == ["", "a", "ab"]
    assert filter_prefixes(UPWord("", "ab"), 0) == []
    assert filter_prefixes(UPWord("a", "b"), 3) == ["", "a", "ab"]


def test_eval_fixtures():
    assert eval_expr(AB, "!(aa)").words == ("b", "ab")
    assert eval_expr(AB, "a | b").is_top()
    assert eval_expr(AB, "!(a & ab)").words == ("b", "aa")
    assert eval_expr(AB, "TOP").is_top()
    assert eval_expr(AB, "BOT").is_bottom()
    assert eval_expr(AB, "^").is_top()
    assert eval_expr(AB, "-").is_bottom()


def test_eval_precedence():
    # ! binds tighter than &, & tighter than |
    assert eval_expr(AB, "!a & b") == meet(complement(clop(["a"])), clop(["b"]))
    assert eval_expr(AB, "a & b | ab") == join(
        meet(clop(["a"]), clop(["b"])), clop(["ab"]))
    assert eval_expr(AB, "a | b & ab") == join(
        clop(["a"]), meet(clop(["b"]), clop(["ab"])))


def test_eval_errors():
    for bad in ("a &", "(a", "a b", "", "& a", "a !b"):
        with pytest.raises(ParseError):
            eval_expr(AB, bad)
    with pytest.raises(ForeignSymbolError):
        eval_expr(AB, "c")


# Text over the alphabet, a foreign symbol, the operators, both bound
# spellings and whitespace.
expr_texts = st.lists(st.sampled_from(
    ("a", "b", "x", "&", "|", "!", "(", ")", "^", "-", "TOP", "BOT", " ", "\t")), max_size=12).map("".join)


def outcome_of(evaluate, text: str):
    try:
        return evaluate(AB, text)
    except Exception as exc:
        return type(exc), str(exc)


# Which error wins when an expression has a parse error and a foreign symbol.
@pytest.mark.parametrize("text, error", [
    ("x )", ForeignSymbolError), ("(a", ParseError), ("a !b", ParseError), ("&", ParseError),
    ("", ParseError), ("x (", ForeignSymbolError), ("(x", ForeignSymbolError),
    ("a & x )", ForeignSymbolError), ("a ) x", ParseError), ("!!", ParseError),
])
def test_eval_raises_what_the_closure_parser_raises(text, error):
    got = outcome_of(eval_expr, text)
    assert got[0] is error and got == outcome_of(eval_by_operations, text)


@settings(max_examples=500, deadline=None)
@given(expr_texts)
def test_eval_matches_the_closure_parser(text):
    assert outcome_of(eval_expr, text) == outcome_of(eval_by_operations, text)


# Each public route that takes an alphabet, called with one.
ALPHABET_ROUTES = {
    "normalize": lambda alphabet: normalize(alphabet, ["a"]),
    "kappa_word": lambda alphabet: kappa_word(alphabet, "a"),
    "top": top,
    "bottom": bottom,
    "is_degenerate_alphabet": is_degenerate_alphabet,
    "eval_expr": lambda alphabet: eval_expr(alphabet, "a"),
    "PrefixClopen": lambda alphabet: PrefixClopen(alphabet, ("a",)),
}


@pytest.mark.parametrize("route", ALPHABET_ROUTES)
def test_bad_alphabets_are_refused_before_and_after_a_good_one(route):
    # Each alphabet is validated once and its record kept; a refusal is
    # never kept, so it is given again after a valid alphabet was used.
    call = ALPHABET_ROUTES[route]
    cantor._record.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^alphabet must not be empty$"):
            call("")
        with pytest.raises(ValueError, match=r"^alphabet 'aa' repeats a symbol$"):
            call("aa")
        call("ab")


def test_degenerate_alphabet():
    assert is_degenerate_alphabet("a")
    assert not is_degenerate_alphabet(AB)
    # over one symbol every non-empty clopen is the whole space
    assert normalize("a", ["aaa"]).is_top()
    assert complement(normalize("a", ["a"])).is_bottom()


def test_density_structural():
    rng = random.Random(21)
    for _ in range(100):
        P = eval_expr(AB, random_expr(rng, AB, 4).text())
        if P.is_bottom():
            continue
        assert any(leq(kappa_word(AB, x), P) for x in P.words)


def check_ops_match_cover_semantics(alphabet: str, ws1, ws2) -> None:
    P, Q = normalize(alphabet, ws1), normalize(alphabet, ws2)
    L = 1 + max((len(w) for w in tuple(ws1) + tuple(ws2)), default=0)
    cp, cq = clopen_cover(P, L), clopen_cover(Q, L)
    M, C = meet(P, Q), complement(P)
    assert clopen_cover(join(P, Q), L) == cp | cq
    assert clopen_cover(M, L) == cp & cq
    assert clopen_cover(C, L) == clopen_cover(top(alphabet), L) - cp
    assert leq(P, Q) == (cp <= cq)
    # meet and complement emit their normal form without reducing it
    survivors = [max(u, v, key=len) for u in P.words for v in Q.words
                 if u.startswith(v) or v.startswith(u)]
    assert M.words == normalize_two_phase(alphabet, survivors)
    assert C.words == normalize_two_phase(alphabet, C.words)


def check_canonicity(alphabet: str, ws1, ws2) -> None:
    # semantic equality at depth L decides syntactic equality
    P, Q = normalize(alphabet, ws1), normalize(alphabet, ws2)
    L = 1 + max((len(w) for w in tuple(ws1) + tuple(ws2)), default=0)
    assert (P == Q) == (clopen_cover(P, L) == clopen_cover(Q, L))


def check_boolean_laws(alphabet: str, ws1, ws2, ws3) -> None:
    P, Q, R = (normalize(alphabet, ws) for ws in (ws1, ws2, ws3))
    assert complement(complement(P)) == P
    assert complement(meet(P, Q)) == join(complement(P), complement(Q))
    assert complement(join(P, Q)) == meet(complement(P), complement(Q))
    assert meet(P, join(Q, R)) == join(meet(P, Q), meet(P, R))
    assert join(P, meet(Q, R)) == meet(join(P, Q), join(P, R))
    assert join(P, meet(P, Q)) == P
    assert meet(P, join(P, Q)) == P
    assert meet(P, complement(P)).is_bottom()
    assert join(P, complement(P)).is_top()


@settings(max_examples=150, deadline=None)
@given(words_ab, words_ab)
def test_ops_match_cover_semantics(ws1, ws2):
    check_ops_match_cover_semantics(AB, ws1, ws2)


@settings(max_examples=150, deadline=None)
@given(words_ab, words_ab)
def test_canonicity(ws1, ws2):
    check_canonicity(AB, ws1, ws2)


@settings(max_examples=100, deadline=None)
@given(words_ab, words_ab, words_ab)
def test_boolean_laws(ws1, ws2, ws3):
    check_boolean_laws(AB, ws1, ws2, ws3)


@pytest.mark.parametrize("alphabet", MORE_ALPHABETS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ops_match_cover_semantics_over_more_alphabets(alphabet, data):
    words = words_over(alphabet)
    check_ops_match_cover_semantics(alphabet, data.draw(words), data.draw(words))


@pytest.mark.parametrize("alphabet", MORE_ALPHABETS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonicity_over_more_alphabets(alphabet, data):
    words = words_over(alphabet)
    check_canonicity(alphabet, data.draw(words), data.draw(words))


@pytest.mark.parametrize("alphabet", MORE_ALPHABETS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_boolean_laws_over_more_alphabets(alphabet, data):
    words = words_over(alphabet)
    check_boolean_laws(alphabet, *(data.draw(words) for _ in range(3)))


def test_equal_clopens_share_a_root():
    rng = random.Random(12)
    for _ in range(200):
        alphabet = rng.choice(("ab", "abc", "ba"))
        P = eval_expr(alphabet, random_expr(rng, alphabet, 4).text())
        Q = eval_expr(alphabet, random_expr(rng, alphabet, 4).text())
        assert (~~P).root == P.root
        assert (P | Q).root == (Q | P).root
        assert (P & Q).root == (Q & P).root
        assert (~(P & Q)).root == (~P | ~Q).root
        assert normalize(alphabet, P.words).root == P.root
    assert normalize(AB, ["a", "b"]).root == top(AB).root
    assert normalize(AB, []).root == bottom(AB).root


def test_interned_nodes_are_reduced_and_unique():
    rng = random.Random(13)
    for _ in range(300):
        alphabet = rng.choice(("ab", "abc", "abcd"))
        eval_expr(alphabet, random_expr(rng, alphabet, 5).text())
    nodes = cantor._KIDS[2:]
    assert all(set(kids) not in ({cantor.OUT}, {cantor.IN}) for kids in nodes)
    assert len(set(nodes)) == len(nodes)
    assert all(cantor._KIDS[node] == kids for kids, node in cantor._NODES.items())


def test_clopens_are_immutable_and_copy_by_words():
    P = normalize(AB, ["ab", "b"])
    for name in ("root", "alphabet", "words", "_words"):
        with pytest.raises(AttributeError):
            setattr(P, name, getattr(P, name))
    with pytest.raises(AttributeError):
        del P.root
    assert copy.deepcopy(P) == P and pickle.loads(pickle.dumps(P)) == P


def test_word_lists_deeper_than_the_recursion_limit_build():
    deep = ("ab" * sys.getrecursionlimit())[:3 * sys.getrecursionlimit()]
    assert normalize(AB, [deep + "b", deep + "a", deep + "a"]) == kappa_word(AB, deep)
    words = (deep + "a", deep + "ba")
    assert PrefixClopen(AB, words).words == words
    with pytest.raises(ValueError):
        PrefixClopen(AB, (deep + "a", deep + "b"))


def test_second_evaluation_adds_no_nodes():
    rng = random.Random(14)
    exprs = [(a, random_expr(rng, a, 6).text()) for a in ("ab", "abc", "abcd") * 100]
    first = [eval_expr(a, text) for a, text in exprs]
    size = len(cantor._KIDS)
    assert [eval_expr(a, text) for a, text in exprs] == first
    assert len(cantor._KIDS) == size


@settings(max_examples=100, deadline=None)
@given(words_over("a"), words_over("a"))
def test_one_symbol_alphabets_collapse_to_the_bounds(ws1, ws2):
    P, Q = normalize("a", ws1), normalize("a", ws2)
    assert P == (top("a") if ws1 else bottom("a"))
    for R in (P & Q, P | Q, ~P):
        assert R.root in (cantor.OUT, cantor.IN)
        assert R.words in ((), ("",))


# Every whitespace character Python knows, the specials, and two
# zero-width characters that are not whitespace.
TOKEN_CHARS = ("ab&|!()^- \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
               "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
               "\u2028\u2029\u202f\u205f\u3000\u200b\ufeff")


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(TOKEN_CHARS))))
def test_token_pattern_matches_character_scan(text):
    assert cantor._TOKEN.findall(text) == tokenize_by_scan(text)


def test_pattern_whitespace_is_str_isspace():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]
    assert {c for c in TOKEN_CHARS if c.isspace()} == {c for c in everything if c.isspace()}


def test_operator_sugar():
    P, Q = clop(["aa"]), clop(["b"])
    assert (P & Q) == meet(P, Q)
    assert (P | Q) == join(P, Q)
    assert (~P) == complement(P)


def test_render():
    assert clop([]).render() == "-"
    assert clop([""]).render() == "^"
    assert complement(clop(["aa"])).render() == "b ab"


def test_seeded_expressions_against_oracle():
    # small smoke version of the acceptance loop
    rng = random.Random(2026)
    for _ in range(150):
        alphabet = rng.choice(("ab", "abc"))
        check_expr_against_oracle(alphabet, random_expr(rng, alphabet, 5))
