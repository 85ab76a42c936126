"""Per-request resource limits: deadlines, body caps, worker slots.

The paper's Table 2 has NP-complete cells, and the daemon accepts
arbitrary (schema, query) pairs — so any request may be a 3SAT instance
in disguise.  A production service cannot let one such request pin a
worker forever.  This module gives every request:

* a **wall-clock deadline** (client-settable per request, clamped to a
  server maximum).  The decision procedure runs on a compute thread
  that the runner reuses: a thread parks when its call ends and takes
  the next one, so no call pays a thread start-up.  If the deadline
  passes, the HTTP worker answers a structured 503 ``timeout``
  envelope and is immediately reclaimed for new requests, while the
  computation runs on detached.
  Pure-Python CPU-bound work cannot be interrupted from outside, so the
  runner **cancels** the abandoned computation's
  :class:`~repro.cancellation.CancelToken` and the long loops (the
  satisfiability word search, the ``/batch`` item loop) poll it and
  unwind within a few hundred steps.  Work with no poll point still runs
  to completion in the background — which is why a bounded **slot
  semaphore** caps how many computations (live or abandoned) may exist
  at once, and with them how many compute threads; when no slot frees
  up in time the server answers 503 ``busy`` instead of queueing
  unboundedly.  A call made when nothing is left of its deadline times
  out at once and starts nothing.
* an **input size cap** on request bodies (413 ``payload-too-large``).

All three failure modes surface as :class:`~repro.service.envelope.ServiceError`
subclasses and therefore as machine-readable error envelopes.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..cancellation import CancelToken, bind
from .envelope import ServiceError

#: Seconds a parked compute thread waits for its next call before it
#: exits: a busy server keeps its threads, an idle one gives them back.
IDLE_EXIT_S = 10.0


class DeadlineExceeded(ServiceError):
    """The per-request wall-clock deadline passed before an answer."""

    def __init__(self, deadline_s: float):
        super().__init__(
            f"request exceeded its {deadline_s:g}s deadline; "
            f"the computation was detached and the worker reclaimed",
            code="timeout",
            status=503,
            detail={"deadline_s": deadline_s},
        )


class ServiceBusy(ServiceError):
    """All computation slots are taken (live or abandoned-by-timeout)."""

    def __init__(self, slots: int):
        super().__init__(
            f"all {slots} computation slots are busy; retry later",
            code="busy",
            status=503,
            detail={"slots": slots},
        )


class PayloadTooLarge(ServiceError):
    """The request body exceeds the configured cap."""

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"request body of {size} bytes exceeds the {limit}-byte cap",
            code="payload-too-large",
            status=413,
            detail={"size": size, "limit": limit},
        )


@dataclass(frozen=True)
class ServiceLimits:
    """The knob set enforced on every request.

    Attributes:
        max_body_bytes: reject bodies larger than this (413).
        default_deadline_s: deadline when the request names none.
        max_deadline_s: ceiling a request's own ``deadline`` is clamped to.
        max_slots: concurrent computations (including ones abandoned by a
            timeout but still burning CPU) the server will carry; also
            the most compute threads the runner keeps.
        slot_wait_s: how long a request waits for a free slot before 503
            ``busy`` — kept short so saturation is visible, not queued.
        max_batch_items: largest item list ``POST /batch`` accepts; the
            whole batch occupies one computation slot and decides its
            items in order, so this bounds the work a single slot may hide.
    """

    max_body_bytes: int = 1 << 20
    default_deadline_s: float = 30.0
    max_deadline_s: float = 120.0
    max_slots: int = 32
    slot_wait_s: float = 1.0
    max_batch_items: int = 256

    def clamp_deadline(self, requested: Optional[float]) -> float:
        """The effective deadline for a request asking for ``requested``.

        JSON booleans satisfy ``isinstance(value, int)`` (``True == 1``),
        so they are rejected explicitly — ``{"deadline": true}`` must be a
        400 ``bad-request``, not a silent 1-second deadline.
        """
        if requested is None:
            return self.default_deadline_s
        if (
            isinstance(requested, bool)
            or not isinstance(requested, (int, float))
            or requested <= 0
        ):
            raise ServiceError(
                "deadline must be a positive number of seconds",
                code="bad-request",
            )
        return min(float(requested), self.max_deadline_s)

    def check_body_size(self, size: int) -> None:
        if size > self.max_body_bytes:
            raise PayloadTooLarge(size, self.max_body_bytes)


class _Call:
    """One computation handed to a compute thread, and its outcome."""

    __slots__ = ("fn", "token", "done", "value", "error")

    def __init__(self, fn: Callable[[], Any]):
        self.fn = fn
        # Cancelling the token is also how the caller marks the call
        # abandoned: the compute thread reads it under the runner lock.
        self.token = CancelToken()
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        bind(self.token)
        try:
            self.value = self.fn()
        except BaseException as exc:  # propagated to the caller
            self.error = exc


class _Worker:
    """A compute thread's hand-off point.

    ``wake`` stays locked while the thread runs or waits; a caller that
    takes the parked thread stores its call in ``call`` and releases it.
    """

    __slots__ = ("wake", "call")

    def __init__(self) -> None:
        self.wake = threading.Lock()
        self.wake.acquire()
        self.call: Optional[_Call] = None


class DeadlineRunner:
    """Runs callables under a deadline on reused compute threads.

    One runner per server; the semaphore is the global computation-slot
    budget.  :meth:`call` either returns the callable's result, re-raises
    its exception, or raises :class:`DeadlineExceeded` /
    :class:`ServiceBusy`.

    The callable always runs on another thread.  A thread that finishes
    its call parks, and the next call goes to the most recently parked
    thread; a new thread starts only when none is parked, so at most
    ``max_slots`` compute threads exist, and one parked for
    :data:`IDLE_EXIT_S` exits.  A timed-out call leaves its thread
    running detached; the thread parks once the computation ends.

    Each call runs in a fresh, empty context with its own
    :class:`~repro.cancellation.CancelToken` bound, as on a new thread,
    so nothing a call binds (a cancelled token included) reaches the
    next call on that thread.  Detaching a call cancels its token, so a
    computation that polls it gives its slot back (and ``detached``
    falls back) shortly after the timeout instead of when it finishes.
    """

    def __init__(self, limits: ServiceLimits):
        self.limits = limits
        self._slots = threading.BoundedSemaphore(limits.max_slots)
        self._lock = threading.Lock()
        self._timeouts = 0
        self._detached = 0  # calls currently running past their deadline
        self._parked: List[_Worker] = []  # most recently parked last
        self._exited: List[threading.Thread] = []  # idle exits not yet joined

    def call(self, fn: Callable[[], Any], deadline_s: float) -> Any:
        if deadline_s <= 0:
            # Nothing is left of the request's deadline: time out without
            # taking a slot or starting the computation.
            with self._lock:
                self._timeouts += 1
            raise DeadlineExceeded(deadline_s)
        if not self._slots.acquire(timeout=self.limits.slot_wait_s):
            raise ServiceBusy(self.limits.max_slots)
        call = _Call(fn)
        self._hand_off(call)
        timed_out = False
        if not call.done.wait(timeout=deadline_s):
            with self._lock:
                # The thread may finish between the wait timing out and
                # this acquisition; deciding on done under the lock keeps
                # the detached counter exact and, when the answer did
                # arrive, returns it instead of a spurious timeout.
                if not call.done.is_set():
                    self._timeouts += 1
                    self._detached += 1
                    call.token.cancel()
                    timed_out = True
        if timed_out:
            raise DeadlineExceeded(deadline_s)
        if call.error is not None:
            raise call.error
        return call.value

    def _hand_off(self, call: _Call) -> None:
        """Give ``call`` (whose slot is taken) to a parked thread or a new one."""
        with self._lock:
            if self._parked:
                worker = self._parked.pop()
            else:
                worker = None
                exited, self._exited = self._exited, []
        if worker is not None:
            worker.call = call
            worker.wake.release()
            return
        # Threads that left the parked list on their idle timeout are
        # finishing; joining them keeps the live count within max_slots.
        for thread in exited:
            thread.join()
        try:
            threading.Thread(
                target=self._serve, args=(_Worker(), call), daemon=True, name="repro-compute"
            ).start()
        except BaseException:
            # No thread runs the call, so nothing else will free its slot.
            self._slots.release()
            raise

    def _serve(self, worker: _Worker, call: Optional[_Call]) -> None:
        """A compute thread's life: run a call, park, wait for the next."""
        while True:
            contextvars.Context().run(call.run)
            with self._lock:
                # done and the cancellation are written/read under one
                # lock so exactly one side accounts for this call:
                # either the caller sees done first and takes the result,
                # or it abandons first and this thread pays the decrement.
                call.done.set()
                if call.token.cancelled:
                    self._detached -= 1
                # Parked before the slot is freed: a caller holding that
                # slot finds this thread instead of starting another.
                self._parked.append(worker)
            self._slots.release()
            call = None  # hold no finished call (or its result) while parked
            if not worker.wake.acquire(timeout=IDLE_EXIT_S):
                with self._lock:
                    if worker in self._parked:
                        self._parked.remove(worker)
                        self._exited.append(threading.current_thread())
                        return
                # A caller took this thread as the wait ran out.
                worker.wake.acquire()
            call, worker.call = worker.call, None

    def stats(self) -> dict:
        with self._lock:
            return {
                "timeouts": self._timeouts,
                "detached": self._detached,
                "max_slots": self.limits.max_slots,
            }
