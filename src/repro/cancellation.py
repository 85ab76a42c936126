"""Cooperative cancellation for long decision procedures.

The NP-complete cells of Table 2 can run for minutes, and pure-Python
CPU-bound work cannot be interrupted from outside.  So a computation
carries its deadline, a :func:`time.monotonic` instant, and every loop
one request can make unbounded polls it every :data:`POLL_EVERY` steps
(or every step, where a step is itself costly) through
:func:`raise_if_cancelled`, unwinding with :class:`Cancelled` once the
deadline has passed.

The deadline travels in a context variable, so the decision procedures
read it without any parameter threading — and without importing the
service package.  The service's deadline runner :func:`bind`\\ s each
call's deadline in a fresh context on the thread that runs the call.
With no deadline bound, every poll is a no-op.
"""

from __future__ import annotations

import contextvars
import time
from typing import Optional

#: How many loop steps the long loops run between two polls.
POLL_EVERY = 256


class Cancelled(Exception):
    """The computation's deadline passed; its result is unwanted."""


_current: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
    "repro_deadline", default=None
)


def current_deadline() -> Optional[float]:
    """The deadline bound in the calling context, or ``None``."""
    return _current.get()


def bind(deadline: Optional[float]) -> None:
    """Bind ``deadline`` for the rest of the calling thread's context."""
    _current.set(deadline)


def raise_if_cancelled(deadline: Optional[float]) -> None:
    """Raise :class:`Cancelled` once ``deadline`` has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise Cancelled()
