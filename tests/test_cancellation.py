"""Cooperative cancellation: NP-hard work stops at its deadline.

A timed-out request used to leave its computation running on detached
threads; on the 3SAT reduction the word search's unordered placement
subsets grew without bound (several GB within a minute).  Each call now
binds its deadline, and the word search, its placement enumeration and
the ``/batch`` item loop poll it.
"""

import random
import threading
import time

import pytest

from repro.batch import run_items_shared
from repro.cancellation import Cancelled, bind, current_deadline, raise_if_cancelled
from repro.engine import Engine
from repro.query import query_to_string
from repro.reductions import random_3sat, reduce_formula
from repro.service.limits import DeadlineExceeded, DeadlineRunner, ServiceLimits
from repro.typing import is_satisfiable


@pytest.fixture(scope="module")
def reduction():
    formula = random_3sat(8, n_clauses=32, rng=random.Random(3))
    return reduce_formula(formula)


def _in_thread(fn, deadline):
    """Run ``fn`` on a thread with ``deadline`` bound; returns (thread, box)."""
    box = {}

    def run():
        bind(deadline)
        try:
            box["value"] = fn()
        except BaseException as error:  # noqa: BLE001 — inspected below
            box["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _deadline(seconds: float) -> float:
    """The :func:`time.monotonic` instant ``seconds`` from now."""
    return time.monotonic() + seconds


class TestPrimitives:
    def test_no_deadline_or_time_left_is_a_no_op(self):
        raise_if_cancelled(None)
        raise_if_cancelled(_deadline(60))

    def test_passed_deadline_raises(self):
        with pytest.raises(Cancelled):
            raise_if_cancelled(_deadline(0))

    def test_binding_is_per_thread(self):
        deadline = _deadline(60)
        thread, box = _in_thread(current_deadline, deadline)
        thread.join(timeout=5)
        assert box["value"] == deadline
        assert current_deadline() is None


class TestDecisionProceduresUnwind:
    def test_satisfiability_unwinds_when_cancelled(self, reduction):
        schema, query = reduction
        engine = Engine()
        thread, box = _in_thread(
            lambda: is_satisfiable(query, schema, engine=engine), _deadline(0.3)
        )
        thread.join(timeout=0.2)
        assert thread.is_alive()  # the reduction is still searching
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), Cancelled)

    def test_cancelled_batch_raises_instead_of_a_partial_result(self, reduction):
        """Cancelled during its first item, a multi-item batch stops before
        the next one and raises: the caller gets no partial list."""
        schema, query = reduction
        items = [{"query": query_to_string(query)}] * 4
        engine = Engine()
        thread, box = _in_thread(
            lambda: run_items_shared("satisfiable", schema, engine, items), _deadline(0.3)
        )
        thread.join(timeout=0.2)
        assert thread.is_alive()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), Cancelled)
        assert "value" not in box

    def test_single_item_raises_instead_of_an_error_envelope(self, reduction):
        """The cancelled last item used to come back as an ``internal``
        error envelope and the call returned normally — a cancelled
        migration analysis then read as finished."""
        schema, query = reduction
        items = [{"query": query_to_string(query)}]
        engine = Engine()
        thread, box = _in_thread(
            lambda: run_items_shared("satisfiable", schema, engine, items), _deadline(0.3)
        )
        thread.join(timeout=0.2)
        assert thread.is_alive()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(box.get("error"), Cancelled)


class TestDeadlineRunnerCancels:
    def test_timed_out_call_unwinds_and_frees_its_slot(self, reduction):
        schema, query = reduction
        runner = DeadlineRunner(ServiceLimits(max_slots=1, slot_wait_s=0.05))
        engine = Engine()
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            runner.call(lambda: is_satisfiable(query, schema, engine=engine), 0.5)
        assert time.perf_counter() - started < 0.7
        assert runner.stats()["timeouts"] == 1
        # The only slot is free the moment the 503 is raised.
        assert runner.call(lambda: "free", 5) == "free"

    def test_finished_call_had_time_left(self):
        runner = DeadlineRunner(ServiceLimits())
        deadline = runner.call(current_deadline, 5)
        assert deadline is not None and deadline > time.monotonic()
