"""Tests for schema-product reachability (the traces engine)."""

import itertools
import sys
import threading

import pytest

from repro.automata import ANY, Sym, concat, star, word
from repro.batch.plan import run_item
from repro.engine import Engine
from repro.schema import parse_schema
from repro.typing import SchemaReach
from repro.workloads import domain_corpus

SCHEMA = parse_schema(
    """
    DOCUMENT = [(paper -> PAPER)*];
    PAPER = [title -> TITLE . (author -> AUTHOR)*];
    AUTHOR = [name -> NAME]; NAME = string; TITLE = string
    """
)


@pytest.fixture(scope="module")
def reach():
    return SchemaReach(SCHEMA)


class TestStartSymbols:
    def test_first_steps(self, reach):
        options = reach.start_symbols(word(["paper", "title"]), "DOCUMENT")
        assert len(options) == 1
        (symbol, states) = options[0]
        assert symbol == ("paper", "PAPER")
        assert states

    def test_wildcard_start(self, reach):
        options = reach.start_symbols(concat(ANY, Sym("title")), "DOCUMENT")
        assert [symbol for symbol, _s in options] == [("paper", "PAPER")]

    def test_dead_start(self, reach):
        assert reach.start_symbols(Sym("nosuch"), "DOCUMENT") == []


class TestCompletions:
    def test_end_types(self, reach):
        regex = concat(Sym("paper"), star(ANY))
        states = reach.path(regex).step(reach.initial_states(regex), "paper")
        ends = reach.reachable_end_types(regex, "PAPER", states)
        # paper._* can stop at PAPER itself or anything below it.
        assert ends == {"PAPER", "TITLE", "AUTHOR", "NAME"}

    def test_can_complete(self, reach):
        regex = word(["paper", "author", "name"])
        after_paper = reach.path(regex).step(
            reach.initial_states(regex), "paper"
        )
        assert reach.can_complete(regex, "PAPER", after_paper, {"NAME"})
        assert not reach.can_complete(regex, "PAPER", after_paper, {"TITLE"})
        assert not reach.can_complete(regex, "PAPER", after_paper, set())

    def test_completions_include_start(self, reach):
        regex = Sym("paper")
        states = reach.path(regex).step(reach.initial_states(regex), "paper")
        configurations = reach.completions(regex, "PAPER", states)
        assert ("PAPER", states) in configurations

    def test_uninhabited_targets_pruned(self):
        schema = parse_schema(
            "R = [a -> U | c -> W]; U = string; W = [x -> W]"
        )
        reach = SchemaReach(schema)
        assert reach.start_symbols(Sym("c"), "R") == []
        assert reach.start_symbols(Sym("a"), "R") != []

    def test_caching_stable(self, reach):
        regex = word(["paper", "title"])
        states = reach.initial_states(regex)
        first = reach.completions(regex, "DOCUMENT", states)
        second = reach.completions(regex, "DOCUMENT", states)
        assert first is second


class TestMemoBound:
    """The engine keeps one ``SchemaReach`` per schema for as long as the
    schema is queried, so its memos are held to the engine cache's bound."""

    @staticmethod
    def _paths(count=100):
        labels = ("paper", "title", "author", "name")
        words = itertools.chain.from_iterable(
            itertools.product(labels, repeat=n) for n in range(1, 5)
        )
        return [word(list(path)) for path in itertools.islice(words, count)]

    @classmethod
    def _walk_paths(cls, engine, count=100):
        reach = engine.reach(SCHEMA)
        sizes = []
        for regex in cls._paths(count):
            reach.reachable_end_types(regex, "DOCUMENT", reach.initial_states(regex))
            sizes.append((len(reach._runners), len(reach._completions)))
        return sizes

    def test_memos_never_exceed_the_engine_bound(self):
        sizes = self._walk_paths(Engine(max_entries=8))
        assert max(runners for runners, _ in sizes) == 8
        assert max(completions for _, completions in sizes) == 8

    def test_an_unbounded_engine_keeps_every_entry(self):
        runners, completions = self._walk_paths(Engine(max_entries=None))[-1]
        assert runners == 100
        assert completions == 100

    def test_threads_sharing_the_engine_keep_the_bound_and_the_answers(self):
        reach = Engine(max_entries=8).reach(SCHEMA)
        reference = Engine(max_entries=None).reach(SCHEMA)
        paths = self._paths()

        def ends(reach, regex):
            return reach.reachable_end_types(regex, "DOCUMENT", reach.initial_states(regex))

        expected = {regex: ends(reference, regex) for regex in paths}
        failures = []

        def walk(offset):
            for regex in paths[offset:] + paths[:offset]:
                if ends(reach, regex) != expected[regex]:
                    failures.append(regex)
                if len(reach._runners) > 8 or len(reach._completions) > 8:
                    failures.append("bound")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(25 * i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    @pytest.mark.parametrize("backend", ["compiled", "nfa"])
    def test_a_tiny_bound_gives_the_same_answers(self, backend):
        """A bound of 1 clears the memos between the steps of one search,
        which then fetches freshly compiled paths (about 1,500 times per
        backend on these corpora): the answers must not move."""
        for seed in range(3):
            for corpus in domain_corpus(seed=seed):
                answers = []
                for max_entries in (1, None):
                    schema = parse_schema(corpus.schema_text)
                    engine = Engine(max_entries=max_entries, backend=backend)
                    items = [("satisfiable", {"query": q}) for q in corpus.queries]
                    items += [("infer", {"query": q}) for q in corpus.queries]
                    items += [("check", check) for check in corpus.check_payloads()]
                    answers.append(
                        [run_item(op, schema, engine, item) for op, item in items]
                    )
                assert answers[0] == answers[1], (seed, corpus.name)
