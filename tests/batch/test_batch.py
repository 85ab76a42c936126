"""Semantics of the bulk-decision pipeline.

The contracts under test: per-item error isolation (one bad item never
fails the batch), input-order results from every executor, and — the
load-bearing one — *executor equivalence*: sequential and process-pool
runs of the same fixed-seed corpus must produce byte-identical per-item
envelopes.
"""

import json
import threading

import pytest

from repro.batch import (
    EXECUTORS,
    OPERATIONS,
    BatchPlan,
    chunk_indexed,
    read_ndjson,
    results_to_ndjson,
    run_batch,
    run_items_shared,
)
from repro.engine import Engine
from repro.schema import schema_to_string
from repro.workloads import batch_corpus, document_schema

SCHEMA_TEXT = schema_to_string(document_schema(4))
GOOD_QUERY = "SELECT X WHERE Root = [paper.title -> X]"


def _plan(items, operation="satisfiable", schema_text=SCHEMA_TEXT):
    return BatchPlan(
        operation=operation, items=tuple(items), schema_text=schema_text
    )


class TestPlanValidation:
    def test_unknown_operation_is_rejected(self):
        with pytest.raises(ValueError, match="unknown batch operation"):
            _plan([{"query": GOOD_QUERY}], operation="frobnicate")

    def test_empty_items_are_rejected(self):
        with pytest.raises(ValueError, match="at least one item"):
            _plan([])

    def test_schema_required_except_for_evaluate(self):
        with pytest.raises(ValueError, match="needs a schema"):
            _plan([{"query": GOOD_QUERY}], schema_text=None)
        plan = _plan(
            [{"query": GOOD_QUERY, "data": 'o1 = [paper -> o2]; o2 = "t"'}],
            operation="evaluate",
            schema_text=None,
        )
        assert plan.schema_text is None

    def test_bad_schema_text_fails_the_plan_not_the_items(self):
        plan = _plan([{"query": GOOD_QUERY}], schema_text="not a schema (((")
        for executor in EXECUTORS:
            with pytest.raises((ValueError, SyntaxError)):
                run_batch(plan, executor=executor)

    def test_unknown_executor_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_batch(_plan([{"query": GOOD_QUERY}]), executor="gpu")


class TestErrorIsolation:
    def test_one_bad_item_never_fails_the_batch(self):
        items = [
            {"query": GOOD_QUERY},
            {"query": "((("},                      # parse error
            "not-an-object",                        # wrong item shape
            {"query": GOOD_QUERY, "limit": True},   # boolean masquerading as int
            {},                                     # missing query
            {"query": GOOD_QUERY},
        ]
        plan = _plan(items, operation="infer")
        for executor in EXECUTORS:
            outcome = run_batch(plan, executor=executor, workers=2)
            assert [e["index"] for e in outcome.results] == list(range(6))
            oks = [e["ok"] for e in outcome.results]
            assert oks == [True, False, False, False, False, True]
            assert outcome.summary["errors"] == 4
            codes = outcome.summary["error_codes"]
            assert codes["parse-error"] == 1
            assert codes["bad-request"] == 3

    def test_malformed_ndjson_lines_become_bad_request_items(self):
        text = "\n".join(
            [json.dumps({"query": GOOD_QUERY}), "", "{{nope", "   "]
        )
        items = read_ndjson(text)
        assert len(items) == 2
        # The marker is no JSON value, so no client field can forge it.
        assert not isinstance(items[1], (dict, list, str, int, float, bool, type(None)))
        outcome = run_batch(_plan(items))
        assert outcome.results[0]["ok"]
        assert not outcome.results[1]["ok"]
        assert outcome.results[1]["error"]["code"] == "bad-request"
        assert outcome.results[1]["error"]["message"].startswith("item is not valid JSON: ")

    def test_results_to_ndjson_round_trips(self):
        outcome = run_batch(_plan([{"query": GOOD_QUERY}]))
        lines = results_to_ndjson(outcome.results).splitlines()
        assert [json.loads(line) for line in lines] == outcome.results


class TestChunking:
    def test_chunks_cover_all_items_in_order(self):
        items = list(range(23))
        chunks = chunk_indexed(items, workers=4, chunk_size=5)
        flat = [pair for chunk in chunks for pair in chunk]
        assert flat == list(enumerate(items))
        assert all(len(chunk) <= 5 for chunk in chunks)

    def test_auto_chunk_size_is_positive_even_for_tiny_inputs(self):
        assert chunk_indexed([1], workers=8) == [[(0, 1)]]

    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            chunk_indexed([1, 2], workers=0)
        with pytest.raises(ValueError):
            chunk_indexed([1, 2], workers=2, chunk_size=0)


class TestInOrderLoop:
    def test_items_are_decided_on_the_calling_thread(self, monkeypatch):
        """The decision procedures hold the GIL, so the loop starts no
        thread: items run in order where the caller runs."""

        def refuse(thread):
            raise AssertionError(f"started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        plan = _plan([{"query": GOOD_QUERY}] * 3)
        schema, engine = plan.compile()
        envelopes = run_items_shared("satisfiable", schema, engine, plan.items)
        assert [e["index"] for e in envelopes] == [0, 1, 2]
        assert all(e["ok"] and e["result"]["satisfiable"] for e in envelopes)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("operation", ["satisfiable", "classify", "conforms"])
    def test_all_executors_agree_on_a_fixed_seed_corpus(self, operation):
        schema_text, items = batch_corpus(
            operation=operation,
            n_items=40,
            seed=7,
            n_sections=4,
            corrupt_rate=0.0 if operation == "conforms" else 0.1,
        )
        plan = _plan(items, operation=operation, schema_text=schema_text)
        outcomes = {
            executor: run_batch(plan, executor=executor, workers=3)
            for executor in EXECUTORS
        }
        reference = outcomes["sequential"].results
        assert outcomes["process"].results == reference
        assert [e["index"] for e in reference] == list(range(len(items)))

    def test_backends_agree_and_executors_stay_byte_identical(self):
        # The envelope contract must hold across executors *and* across
        # backends: the automata representation may never change a
        # decision or a witness-bearing payload's bytes.  The executors
        # run compiled; the nfa reference decides the same items in
        # process.
        schema_text, items = batch_corpus(
            operation="satisfiable", n_items=30, seed=11, n_sections=3
        )
        plan = _plan(items, schema_text=schema_text)
        runs = [
            results_to_ndjson(run_batch(plan, executor=executor, workers=2).results)
            for executor in EXECUTORS
        ]
        assert runs[0] == runs[1]
        schema, compiled = plan.compile()
        per_backend = {
            engine.backend: results_to_ndjson(
                run_items_shared("satisfiable", schema, engine, plan.items)
            )
            for engine in (Engine(backend="nfa"), compiled)
        }
        assert per_backend["nfa"] == per_backend["compiled"] == runs[0]


class TestOperations:
    def test_every_operation_has_a_handler(self):
        schema_text, _ = batch_corpus(n_items=1, seed=0, n_sections=4)
        for operation in OPERATIONS:
            plan = BatchPlan(
                operation=operation,
                items=({"query": GOOD_QUERY},),
                schema_text=schema_text,
            )
            outcome = run_batch(plan)
            assert len(outcome.results) == 1  # envelope, ok or isolated error

    def test_check_operation_reports_well_typedness(self):
        items = [
            {"query": GOOD_QUERY, "assignment": {"X": "TITLE"}},
            {"query": GOOD_QUERY, "assignment": {"X": "EMAIL"}},
            {"query": GOOD_QUERY, "assignment": {"NoSuchVar": "TITLE"}},
        ]
        outcome = run_batch(_plan(items, operation="check"))
        assert outcome.results[0]["result"]["well_typed"] is True
        assert outcome.results[1]["result"]["well_typed"] is False
        assert not outcome.results[2]["ok"]
        assert outcome.results[2]["error"]["code"] == "bad-request"

    def test_evaluate_operation_binds_against_item_data(self):
        data = 'o1 = [paper -> o2]; o2 = [title -> o3]; o3 = "T"'
        outcome = run_batch(
            _plan(
                [{"query": GOOD_QUERY, "data": data}],
                operation="evaluate",
                schema_text=None,
            )
        )
        result = outcome.results[0]["result"]
        assert result["count"] == len(result["bindings"]) >= 1
