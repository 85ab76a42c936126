"""Cooperative cancellation: abandoned NP-hard work stops, not just detaches.

A timed-out request used to leave its computation running on detached
threads; on the 3SAT reduction the word search's unordered placement
subsets grew without bound (several GB within a minute).  The deadline
runner now cancels the call's token when it detaches it, and the word
search, its placement enumeration and the ``/batch`` item loop poll it.
"""

import random
import threading
import time

import pytest

from repro.batch import run_items_shared
from repro.cancellation import (
    CancelToken,
    Cancelled,
    bind,
    current_token,
    raise_if_cancelled,
)
from repro.engine import Engine
from repro.query import query_to_string
from repro.reductions import random_3sat, reduce_formula
from repro.service.limits import DeadlineExceeded, DeadlineRunner, ServiceLimits
from repro.typing import is_satisfiable


@pytest.fixture(scope="module")
def reduction():
    formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
    return reduce_formula(formula)


def _in_thread(fn, token):
    """Run ``fn`` on a thread with ``token`` bound; returns (thread, box)."""
    box = {}

    def run():
        bind(token)
        try:
            box["value"] = fn()
        except BaseException as error:  # noqa: BLE001 — inspected below
            box["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


class TestPrimitives:
    def test_no_token_is_a_no_op(self):
        raise_if_cancelled(None)
        raise_if_cancelled(CancelToken())

    def test_cancelled_token_raises(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(Cancelled):
            raise_if_cancelled(token)

    def test_binding_is_per_thread(self):
        token = CancelToken()
        thread, box = _in_thread(current_token, token)
        thread.join(timeout=5)
        assert box["value"] is token
        assert current_token() is None


class TestDecisionProceduresUnwind:
    def test_satisfiability_unwinds_when_cancelled(self, reduction):
        schema, query = reduction
        token = CancelToken()
        engine = Engine()
        thread, box = _in_thread(
            lambda: is_satisfiable(query, schema, engine=engine), token
        )
        time.sleep(0.3)
        assert thread.is_alive()  # the reduction is still searching
        token.cancel()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), Cancelled)

    def test_cancelled_batch_raises_instead_of_a_partial_result(self, reduction):
        """Cancelled during its first item, a multi-item batch stops before
        the next one and raises: the caller gets no partial list."""
        schema, query = reduction
        token = CancelToken()
        items = [{"query": query_to_string(query)}] * 4
        engine = Engine()
        thread, box = _in_thread(
            lambda: run_items_shared("satisfiable", schema, engine, items), token
        )
        time.sleep(0.3)
        assert thread.is_alive()
        token.cancel()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), Cancelled)
        assert "value" not in box

    def test_single_item_raises_instead_of_an_error_envelope(self, reduction):
        """The cancelled last item used to come back as an ``internal``
        error envelope and the call returned normally — a cancelled
        migration analysis then read as finished."""
        schema, query = reduction
        token = CancelToken()
        items = [{"query": query_to_string(query)}]
        engine = Engine()
        thread, box = _in_thread(
            lambda: run_items_shared("satisfiable", schema, engine, items), token
        )
        time.sleep(0.3)
        assert thread.is_alive()
        token.cancel()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), Cancelled)


class TestDeadlineRunnerCancels:
    def test_detached_call_is_cancelled_and_reconciles(self, reduction):
        schema, query = reduction
        runner = DeadlineRunner(ServiceLimits(max_slots=2))
        engine = Engine()
        with pytest.raises(DeadlineExceeded):
            runner.call(lambda: is_satisfiable(query, schema, engine=engine), 0.5)
        assert runner.stats()["detached"] == 1
        deadline = time.monotonic() + 5
        while runner.stats()["detached"] and time.monotonic() < deadline:
            time.sleep(0.02)
        assert runner.stats()["detached"] == 0
        # Both slots are free again: two calls that each hold a slot
        # can run side by side without a busy refusal.
        gate = threading.Barrier(2, timeout=5)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(runner.call(gate.wait, 5)))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(results) == [0, 1]

    def test_finished_call_is_not_cancelled(self):
        runner = DeadlineRunner(ServiceLimits())
        token = runner.call(current_token, 5)
        assert token is not None and not token.cancelled
