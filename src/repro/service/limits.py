"""Per-request resource limits: deadlines, body caps, computation slots.

The paper's Table 2 has NP-complete cells, and the daemon accepts
arbitrary (schema, query) pairs — so any request may be a 3SAT instance
in disguise.  A production service cannot let one such request pin a
worker forever.  This module gives every request:

* a **wall-clock deadline** (client-settable per request, clamped to a
  server maximum).  The decision procedure runs on the request's own
  connection thread with the deadline bound in its context
  (:mod:`repro.cancellation`).  Pure-Python CPU-bound work cannot be
  interrupted from outside, so every loop one request can make
  unbounded polls the deadline and unwinds once it passes; the
  runner answers a structured 503 ``timeout`` envelope within one poll
  interval of the deadline.  A call made when nothing is left of its
  deadline times out at once and starts nothing.
* a bounded **slot semaphore** capping how many computations run at
  once; when no slot frees up in time the server answers 503 ``busy``
  instead of queueing unboundedly.
* an **input size cap** on request bodies (413 ``payload-too-large``).

All three failure modes surface as :class:`~repro.service.envelope.ServiceError`
subclasses and therefore as machine-readable error envelopes.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..cancellation import Cancelled, bind
from .envelope import ServiceError


class DeadlineExceeded(ServiceError):
    """The per-request wall-clock deadline passed before an answer."""

    def __init__(self, deadline_s: float):
        super().__init__(
            f"request exceeded its {deadline_s:g}s deadline; "
            f"the computation was cancelled",
            code="timeout",
            status=503,
            detail={"deadline_s": deadline_s},
        )


class ServiceBusy(ServiceError):
    """All computation slots are taken."""

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
        max_slots: concurrent computations the server will carry; a
            timed-out computation gives its slot back within one poll
            interval of its deadline.
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


class DeadlineRunner:
    """Runs callables under a deadline and a slot budget.

    One runner per server; the semaphore is the global computation-slot
    budget.  :meth:`call` either returns the callable's result, re-raises
    its exception, or raises :class:`DeadlineExceeded` /
    :class:`ServiceBusy`.

    The callable runs on the calling thread (the request's connection
    thread), in a fresh, empty context with the call's
    :func:`time.monotonic` deadline bound (:mod:`repro.cancellation`),
    so nothing a call binds reaches the caller or the next call.  The
    long loops poll that deadline and raise
    :class:`~repro.cancellation.Cancelled` once it passes, which this
    method answers with :class:`DeadlineExceeded`: the slot (and any
    engine-cache lock the computation held) comes back within one poll
    interval of the deadline, and a computation waiting for an
    engine-cache lock gives up at its deadline.  A callable that returns
    after its deadline without reaching a poll point still has its
    answer returned.
    """

    def __init__(self, limits: ServiceLimits):
        self.limits = limits
        self._slots = threading.BoundedSemaphore(limits.max_slots)
        self._lock = threading.Lock()
        self._timeouts = 0

    def call(self, fn: Callable[[], Any], deadline_s: float) -> Any:
        # With nothing left of the request's deadline, time out without
        # taking a slot or starting the computation.
        if deadline_s > 0:
            if not self._slots.acquire(timeout=self.limits.slot_wait_s):
                raise ServiceBusy(self.limits.max_slots)
            context = contextvars.Context()
            try:
                context.run(bind, time.monotonic() + deadline_s)
                return context.run(fn)
            except Cancelled:
                pass
            finally:
                self._slots.release()
        with self._lock:
            self._timeouts += 1
        raise DeadlineExceeded(deadline_s)

    def stats(self) -> dict:
        with self._lock:
            return {"timeouts": self._timeouts, "max_slots": self.limits.max_slots}
