"""Regression tests for the deadline runner and the numeric fields.

1. **The inline deadline runner.**  ``DeadlineRunner.call`` runs the
   computation on the calling thread with its deadline bound.  These
   tests pin what it guarantees: every caller gets its own result,
   exception or ``DeadlineExceeded``; no slot leaks; each call sees its
   own deadline in a fresh context and leaves the caller's context as it
   was; ``ServiceBusy`` once ``max_slots`` are taken; and
   no thread is ever started.

2. **Boolean deadlines.**  ``isinstance(True, int)`` holds in Python, so
   ``{"deadline": true}`` used to clamp to a silent 1-second deadline
   instead of a 400.  Same hole for every optional integer field
   (``limit``), now closed centrally in ``positive_int_field``.
"""

import contextvars
import random
import sys
import threading
import time

import pytest

from repro.cancellation import bind, current_deadline, raise_if_cancelled
from repro.service.envelope import ServiceError, positive_int_field
from repro.service.limits import (
    DeadlineExceeded,
    DeadlineRunner,
    ServiceBusy,
    ServiceLimits,
)


class _Boom(Exception):
    pass


def _poll_until_cancelled():
    """A computation that only ends by its deadline."""
    deadline = current_deadline()
    while True:
        raise_if_cancelled(deadline)


def _run_concurrently(runner, n, deadline_s=5):
    """``n`` calls held open together; returns their results."""
    gate = threading.Barrier(n, timeout=5)
    results, errors = [], []

    def one():
        try:
            results.append(runner.call(gate.wait, deadline_s))
        except BaseException as error:  # noqa: BLE001 — asserted below
            errors.append(error)

    threads = [threading.Thread(target=one) for _ in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    return sorted(results)


class TestInlineRunner:
    def test_runs_on_the_calling_thread_and_starts_none(self, monkeypatch):
        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        runner = DeadlineRunner(ServiceLimits(max_slots=1))
        assert runner.call(threading.current_thread, 5) is threading.current_thread()
        with pytest.raises(KeyError):
            runner.call(lambda: {}["missing"], 5)
        with pytest.raises(DeadlineExceeded):
            runner.call(_poll_until_cancelled, 0.05)
        assert runner.stats() == {"timeouts": 1, "max_slots": 1}
        # The one slot is free again after each outcome.
        assert runner.call(lambda: "free", 5) == "free"

    def test_fresh_deadline_and_context_per_call(self):
        var = contextvars.ContextVar("probe", default=None)
        outer = time.monotonic() + 3600
        runner = DeadlineRunner(ServiceLimits(max_slots=1))
        bind(outer)
        try:
            runner.call(lambda: var.set("left over"), 5)
            assert runner.call(var.get, 5) is None
            started = time.monotonic()
            first, second = runner.call(current_deadline, 5), runner.call(current_deadline, 5)
            assert started + 5 <= first <= second <= time.monotonic() + 5
            assert current_deadline() == outer  # the caller's context is unchanged
            with pytest.raises(DeadlineExceeded):
                runner.call(_poll_until_cancelled, 0.01)
            assert current_deadline() == outer
        finally:
            bind(None)

    def test_busy_when_max_slots_are_taken(self):
        runner = DeadlineRunner(ServiceLimits(max_slots=2, slot_wait_s=0.05))
        release = threading.Event()
        holders = [
            threading.Thread(target=runner.call, args=(release.wait, 10)) for _ in range(2)
        ]
        for holder in holders:
            holder.start()
        try:
            with pytest.raises(ServiceBusy):
                for _ in range(100):  # until both holders hold their slot
                    runner.call(lambda: None, 1)
                    release.wait(0.01)
        finally:
            release.set()
            for holder in holders:
                holder.join(timeout=5)
        assert _run_concurrently(runner, 2) == [0, 1]


class TestStress:
    CALLERS = 16
    CALLS_EACH = 40
    MAX_SLOTS = 4

    def test_mixed_outcomes_leak_no_slot(self):
        runner = DeadlineRunner(
            ServiceLimits(max_slots=self.MAX_SLOTS, slot_wait_s=30)
        )
        deadlines = []
        timed_out = []
        failures = []
        lock = threading.Lock()

        def note(deadline_s):
            # The call's own deadline: bound, and no later than its budget
            # allows (a 10-s call's deadline never shows up in a 2-ms one).
            deadline = current_deadline()
            assert deadline is not None and deadline - time.monotonic() <= deadline_s
            with lock:
                deadlines.append(deadline)

        def caller(index):
            rng = random.Random(index)
            try:
                for step in range(self.CALLS_EACH):
                    tag = (index, step)
                    kind = rng.choice(("return", "return", "raise", "timeout"))
                    if kind == "return":
                        def returns(tag=tag):
                            note(10)
                            return tag
                        assert runner.call(returns, 10) == tag
                    elif kind == "raise":
                        def raises(tag=tag):
                            note(10)
                            raise _Boom(tag)
                        with pytest.raises(_Boom) as excinfo:
                            runner.call(raises, 10)
                        assert excinfo.value.args == (tag,)
                    else:
                        def polls():
                            note(0.002)
                            _poll_until_cancelled()
                        with pytest.raises(DeadlineExceeded):
                            runner.call(polls, 0.002)
                        timed_out.append(tag)
                    assert current_deadline() is None
            except BaseException as error:  # noqa: BLE001 — reported below
                failures.append((index, error))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [
                threading.Thread(target=caller, args=(i,)) for i in range(self.CALLERS)
            ]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
        finally:
            sys.setswitchinterval(previous)
        assert not failures, failures[:3]
        assert runner.stats()["timeouts"] == len(timed_out) > 0
        # Every call ran with its own deadline, and every slot is free:
        # max_slots calls can all be in flight at once.
        assert len(deadlines) == self.CALLERS * self.CALLS_EACH
        assert _run_concurrently(runner, self.MAX_SLOTS) == list(range(self.MAX_SLOTS))


class TestBooleanNumericFields:
    def test_boolean_deadline_is_rejected(self):
        limits = ServiceLimits()
        with pytest.raises(ServiceError) as excinfo:
            limits.clamp_deadline(True)
        assert excinfo.value.code == "bad-request"
        with pytest.raises(ServiceError):
            limits.clamp_deadline(False)

    def test_numeric_deadlines_still_clamp(self):
        limits = ServiceLimits(default_deadline_s=30.0, max_deadline_s=120.0)
        assert limits.clamp_deadline(None) == 30.0
        assert limits.clamp_deadline(1) == 1.0
        assert limits.clamp_deadline(2.5) == 2.5
        assert limits.clamp_deadline(500) == 120.0
        with pytest.raises(ServiceError):
            limits.clamp_deadline(0)
        with pytest.raises(ServiceError):
            limits.clamp_deadline("10")

    def test_boolean_limit_field_is_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            positive_int_field({"limit": True}, "limit")
        assert excinfo.value.code == "bad-request"
        with pytest.raises(ServiceError):
            positive_int_field({"limit": False}, "limit")

    def test_limit_field_accepts_positive_ints_only(self):
        assert positive_int_field({}, "limit") is None
        assert positive_int_field({"limit": None}, "limit") is None
        assert positive_int_field({"limit": 3}, "limit") == 3
        for bad in (0, -1, 2.5, "3"):
            with pytest.raises(ServiceError):
                positive_int_field({"limit": bad}, "limit")
