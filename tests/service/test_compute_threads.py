"""The deadline runner's reused compute threads.

``DeadlineRunner.call`` hands each computation to a parked compute
thread and starts a new one only when none is parked.  These tests pin
what reuse must not change — every caller gets its own outcome, slots
and the ``detached`` counter reconcile, no cancelled token reaches a
later call — and what it adds: the thread count stays within
``max_slots``, idle threads exit, and a failed thread start gives its
slot back.
"""

import contextvars
import random
import sys
import threading
import time

import pytest

import repro.service.limits as limits_mod
from repro.cancellation import current_token
from repro.service.limits import DeadlineExceeded, DeadlineRunner, ServiceLimits


class _Boom(Exception):
    pass


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


class TestThreadReuse:
    def test_sequential_calls_share_one_thread(self):
        runner = DeadlineRunner(ServiceLimits(max_slots=4))
        caller = threading.current_thread()
        threads = [runner.call(threading.current_thread, 5) for _ in range(20)]
        assert caller not in threads  # still runs on another thread
        assert len(set(threads)) == 1
        assert threads[0].name == "repro-compute"

    def test_each_call_sees_a_fresh_token_after_a_timeout(self):
        """The thread a timed-out call ran on is reused; its next call
        must not see the cancelled token."""
        runner = DeadlineRunner(ServiceLimits(max_slots=1, slot_wait_s=5))
        release = threading.Event()
        seen = {}

        def stuck():
            seen["thread"] = threading.current_thread()
            seen["token"] = current_token()
            release.wait(5)

        with pytest.raises(DeadlineExceeded):
            runner.call(stuck, 0.05)
        assert seen["token"].cancelled
        release.set()
        thread, token = runner.call(
            lambda: (threading.current_thread(), current_token()), 5
        )
        assert thread is seen["thread"]
        assert token is not seen["token"] and not token.cancelled
        assert runner.stats()["detached"] == 0

    def test_the_context_is_fresh_for_every_call(self):
        var = contextvars.ContextVar("probe", default=None)
        runner = DeadlineRunner(ServiceLimits(max_slots=1))
        runner.call(lambda: var.set("left over"), 5)
        assert runner.call(var.get, 5) is None
        assert runner.call(current_token, 5) is not None


class TestFailedThreadStart:
    def test_a_failed_start_releases_its_slot(self, monkeypatch):
        """Two failed starts used to hold both slots for good, so every
        later call answered ServiceBusy."""
        runner = DeadlineRunner(ServiceLimits(max_slots=2, slot_wait_s=0.2))

        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="can't start new thread"):
                runner.call(lambda: "never runs", 5)
        monkeypatch.undo()
        # Both slots are free again, and no thread was parked by the
        # failures: two calls held open together both get a thread.
        assert _run_concurrently(runner, 2) == [0, 1]
        assert runner.stats() == {"timeouts": 0, "detached": 0, "max_slots": 2}


class TestStress:
    CALLERS = 16
    CALLS_EACH = 40
    MAX_SLOTS = 4

    def test_concurrent_calls_reconcile(self, monkeypatch):
        monkeypatch.setattr(limits_mod, "IDLE_EXIT_S", 0.3)
        runner = DeadlineRunner(
            ServiceLimits(max_slots=self.MAX_SLOTS, slot_wait_s=30)
        )
        seen_threads = set()
        seen_lock = threading.Lock()
        peak = [0]
        tokens = []
        stalled = []  # (token cancelled, token unchanged) once released
        failures = []

        def note():
            """Record this call's thread, token and the live thread count."""
            token = current_token()
            with seen_lock:
                seen_threads.add(threading.current_thread())
                live = sum(thread.is_alive() for thread in seen_threads)
                peak[0] = max(peak[0], live)
                tokens.append(token)
            return token

        def caller(index):
            rng = random.Random(index)
            try:
                for step in range(self.CALLS_EACH):
                    tag = (index, step)
                    kind = rng.choice(("return", "return", "raise", "timeout"))
                    if kind == "return":
                        def returns(tag=tag):
                            token = note()
                            assert token is not None and not token.cancelled
                            return tag
                        assert runner.call(returns, 10) == tag
                    elif kind == "raise":
                        def raises(tag=tag):
                            note()
                            raise _Boom(tag)
                        with pytest.raises(_Boom) as excinfo:
                            runner.call(raises, 10)
                        assert excinfo.value.args == (tag,)
                    else:
                        release = threading.Event()

                        def stalls(release=release):
                            token = note()
                            release.wait(10)  # until its caller timed out
                            stalled.append((token.cancelled, current_token() is token))
                            return "late"
                        with pytest.raises(DeadlineExceeded):
                            runner.call(stalls, 0.002)
                        release.set()
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

        # detached returns to 0 once the stalled computations finish.
        deadline = time.monotonic() + 10
        while runner.stats()["detached"] and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = runner.stats()
        assert stats["detached"] == 0
        assert stats["timeouts"] == len(stalled) > 0
        assert set(stalled) == {(True, True)}
        # Never more compute threads than slots; one token per call.
        assert peak[0] <= self.MAX_SLOTS
        assert len(set(map(id, tokens))) == len(tokens)
        # No slot leaked: max_slots calls can all be in flight at once.
        assert _run_concurrently(runner, self.MAX_SLOTS) == list(range(self.MAX_SLOTS))
        # Parked threads exit after the idle period.
        deadline = time.monotonic() + 10
        while any(t.is_alive() for t in seen_threads) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(t.is_alive() for t in seen_threads)
