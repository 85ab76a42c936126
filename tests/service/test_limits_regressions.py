"""Regression tests for two service-layer bugs.

1. **The detached-counter leak race in ``DeadlineRunner.call``.**  If the
   worker thread finished in the window between ``done.wait(timeout)``
   returning False and the caller taking the runner lock, the old code
   still counted a timeout and incremented ``_detached`` — but the
   worker's ``finally`` had already run and seen ``abandoned`` unset, so
   nobody ever decremented it: the counter leaked forever and the caller
   raised a spurious ``DeadlineExceeded`` even though the answer was
   sitting in the result box.  The fix decides the handshake under one
   lock; these tests pin the window open deterministically by making
   ``done.wait`` wait for the call to finish before reporting a timeout.

2. **Boolean deadlines.**  ``isinstance(True, int)`` holds in Python, so
   ``{"deadline": true}`` used to clamp to a silent 1-second deadline
   instead of a 400.  Same hole for every optional integer field
   (``limit``), now closed centrally in ``positive_int_field``.
"""

import threading
import time

import pytest

import repro.service.limits as limits_mod
from repro.service.envelope import ServiceError, positive_int_field
from repro.service.limits import DeadlineExceeded, DeadlineRunner, ServiceLimits


class _WorkerFinishesDuringWait(threading.Event):
    """An Event whose timed wait lets the compute thread finish first.

    Waiting until the call's own ``done`` is set and then reporting a
    timeout reproduces, deterministically, the schedule where the worker
    completes in the gap between the caller's wait expiring and the
    caller taking the runner lock.  (The compute threads are reused, so
    waiting for a thread to exit would wait for its idle timeout.)
    """

    def wait(self, timeout=None):
        if timeout is None:
            return super().wait()
        super().wait(timeout=10)
        return False


class TestDetachedCounterRace:
    def test_worker_finishing_at_the_deadline_is_not_a_timeout(self, monkeypatch):
        """The caller must take the computed result, not leak a detached
        count and raise a spurious DeadlineExceeded."""
        monkeypatch.setattr(limits_mod.threading, "Event", _WorkerFinishesDuringWait)
        runner = DeadlineRunner(ServiceLimits(max_slots=2))
        assert runner.call(lambda: "answer", deadline_s=0.01) == "answer"
        assert runner.stats() == {"timeouts": 0, "detached": 0, "max_slots": 2}

    def test_worker_erroring_at_the_deadline_propagates_the_error(self, monkeypatch):
        monkeypatch.setattr(limits_mod.threading, "Event", _WorkerFinishesDuringWait)
        runner = DeadlineRunner(ServiceLimits(max_slots=2))
        with pytest.raises(KeyError):
            runner.call(lambda: {}["missing"], deadline_s=0.01)
        assert runner.stats()["detached"] == 0
        assert runner.stats()["timeouts"] == 0

    def test_no_slot_leak_across_racy_calls(self, monkeypatch):
        """Every slot must be released whichever side of the race wins —
        a leak would eventually starve the runner into ServiceBusy."""
        monkeypatch.setattr(limits_mod.threading, "Event", _WorkerFinishesDuringWait)
        runner = DeadlineRunner(ServiceLimits(max_slots=1, slot_wait_s=0.2))
        for i in range(5):
            assert runner.call(lambda i=i: i, deadline_s=0.01) == i
        assert runner.stats()["detached"] == 0

    def test_genuine_timeout_detaches_then_reconciles(self):
        """A real overrun: timeout + detach while the worker runs, and
        the worker pays the decrement when it finishes (no leak)."""
        release = threading.Event()
        runner = DeadlineRunner(ServiceLimits(max_slots=2))
        with pytest.raises(DeadlineExceeded):
            runner.call(lambda: release.wait(10), deadline_s=0.05)
        assert runner.stats()["timeouts"] == 1
        assert runner.stats()["detached"] == 1
        release.set()
        deadline = time.monotonic() + 5
        while runner.stats()["detached"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert runner.stats()["detached"] == 0
        assert runner.stats()["timeouts"] == 1


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
