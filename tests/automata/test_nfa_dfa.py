"""Unit tests for NFA/DFA construction and basic operations."""

import pytest

from repro.automata import (
    ANY,
    EPSILON,
    alt,
    concat,
    determinize,
    opt,
    plus,
    star,
    sym,
    thompson,
    word,
)

AB = frozenset("ab")
ABC = frozenset("abc")


class TestThompson:
    def test_single_symbol(self):
        nfa = thompson(sym("a"), AB)
        assert nfa.accepts("a")
        assert not nfa.accepts("b")
        assert not nfa.accepts("")
        assert not nfa.accepts("aa")

    def test_epsilon(self):
        nfa = thompson(EPSILON, AB)
        assert nfa.accepts("")
        assert not nfa.accepts("a")

    def test_concat(self):
        nfa = thompson(word("ab"), AB)
        assert nfa.accepts("ab")
        assert not nfa.accepts("a")
        assert not nfa.accepts("ba")

    def test_alt(self):
        nfa = thompson(alt(sym("a"), sym("b")), AB)
        assert nfa.accepts("a")
        assert nfa.accepts("b")
        assert not nfa.accepts("ab")

    def test_star(self):
        nfa = thompson(star(sym("a")), AB)
        for n in range(5):
            assert nfa.accepts("a" * n)
        assert not nfa.accepts("ab")

    def test_plus_and_opt(self):
        nfa = thompson(plus(sym("a")), AB)
        assert not nfa.accepts("")
        assert nfa.accepts("a")
        assert nfa.accepts("aaa")
        nfa = thompson(opt(sym("a")), AB)
        assert nfa.accepts("")
        assert nfa.accepts("a")
        assert not nfa.accepts("aa")

    def test_wildcard_expands_to_alphabet(self):
        nfa = thompson(concat(ANY, sym("c")), ABC)
        assert nfa.accepts("ac")
        assert nfa.accepts("bc")
        assert nfa.accepts("cc")
        assert not nfa.accepts("c")

    def test_wildcard_star_is_sigma_star(self):
        nfa = thompson(star(ANY), AB)
        assert nfa.accepts("")
        assert nfa.accepts("abba")

    def test_wildcard_arcs_follow_repr_order(self):
        # A frozenset iterates in hash-seed order; the arcs, and so the
        # first word a walk over them finds, must not.
        alphabet = frozenset(("label", tid) for tid in "TSRQPONM")
        nfa = thompson(ANY, alphabet)
        arcs = [symbol for symbol, _dst in nfa.arcs_from(nfa.start)]
        assert arcs == sorted(alphabet, key=repr)

    def test_symbol_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            thompson(sym("z"), AB)

    def test_tuple_symbols(self):
        # Schema regexes use (label, Tid) pairs as symbols.
        pair = ("paper", "PAPER")
        nfa = thompson(star(sym(pair)), frozenset([pair]))
        assert nfa.accepts([pair, pair])
        assert nfa.accepts([])


class TestNFAQueries:
    def test_is_empty(self):
        from repro.automata import EMPTY

        assert thompson(EMPTY, AB).is_empty()
        assert not thompson(sym("a"), AB).is_empty()
        # a . empty is empty by smart construction
        assert concat(sym("a"), EMPTY).is_empty_language()

    def test_shortest_word(self):
        nfa = thompson(concat(star(sym("a")), sym("b")), AB)
        assert nfa.shortest_word() == ("b",)
        from repro.automata import EMPTY

        assert thompson(EMPTY, AB).shortest_word() is None

    def test_shortest_word_takes_the_repr_least_symbol(self):
        letters = frozenset("zyxwvutsrq")
        nfa = thompson(alt(*(sym(letter) for letter in letters)), letters)
        assert nfa.shortest_word() == ("q",)

    def test_shortest_word_epsilon(self):
        nfa = thompson(star(sym("a")), AB)
        assert nfa.shortest_word() == ()

    def test_useful_symbols(self):
        # In (a.b | a.dead-end), with dead-end removed, only a and b are useful.
        regex = alt(word("ab"), word("ac"))
        nfa = thompson(regex, ABC)
        assert nfa.useful_symbols() == {"a", "b", "c"}

    def test_enumerate_words(self):
        nfa = thompson(star(sym("a")), AB)
        words = set(nfa.enumerate_words(3))
        assert words == {(), ("a",), ("a", "a"), ("a", "a", "a")}


class TestDFA:
    def test_determinize_preserves_language(self):
        regex = concat(star(alt(sym("a"), sym("b"))), word("ab"))
        nfa = thompson(regex, AB)
        dfa = determinize(nfa)
        for trial in ["ab", "aab", "abab", "bbab", "", "a", "ba", "abba"]:
            assert dfa.accepts(trial) == nfa.accepts(trial), trial

    def test_complement(self):
        nfa = thompson(word("ab"), AB)
        comp = determinize(nfa).complement()
        assert not comp.accepts("ab")
        assert comp.accepts("")
        assert comp.accepts("ba")
        assert comp.accepts("aba")

    def test_minimize(self):
        # (a|b)*ab requires a 3-state minimal DFA plus nothing else... compute.
        regex = concat(star(alt(sym("a"), sym("b"))), word("ab"))
        dfa = determinize(thompson(regex, AB)).minimize()
        assert dfa.n_states == 3
        for trial in ["ab", "aab", "abab", "", "a", "ba"]:
            assert dfa.accepts(trial) == (trial.endswith("ab")), trial

    def test_minimize_empty_language(self):
        from repro.automata import EMPTY

        dfa = determinize(thompson(EMPTY, AB)).minimize()
        assert dfa.is_empty()
        assert dfa.n_states == 1

    def test_dfa_round_trip_to_nfa(self):
        regex = alt(word("ab"), word("ba"))
        dfa = determinize(thompson(regex, AB))
        nfa2 = dfa.to_nfa()
        for trial in ["ab", "ba", "", "aa", "abab"]:
            assert nfa2.accepts(trial) == dfa.accepts(trial)
