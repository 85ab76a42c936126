"""Cooperative cancellation for long decision procedures.

The NP-complete cells of Table 2 can run for minutes, and pure-Python
CPU-bound work cannot be interrupted from outside.  A caller that gives
up on a computation (the service's deadline runner, on a timeout) sets
the computation's :class:`CancelToken`; the long loops poll it every
:data:`POLL_EVERY` steps through :func:`raise_if_cancelled` and unwind
with :class:`Cancelled`.

The token travels in a context variable, so the decision procedures read
it without any parameter threading — and without importing the service
package.  A new thread starts with an empty context: the deadline runner
:func:`bind`\\ s each call's token on the compute thread that runs it,
and the work stays on that thread.  With no token bound, every poll is a
no-op.
"""

from __future__ import annotations

import contextvars
from typing import Optional

#: How many loop steps the long loops run between two polls.
POLL_EVERY = 256


class Cancelled(Exception):
    """The computation's token was cancelled; its result is unwanted."""


class CancelToken:
    """A one-way flag: once cancelled, stays cancelled."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


_current: contextvars.ContextVar[Optional[CancelToken]] = contextvars.ContextVar(
    "repro_cancel_token", default=None
)


def current_token() -> Optional[CancelToken]:
    """The token bound in the calling context, or ``None``."""
    return _current.get()


def bind(token: Optional[CancelToken]) -> None:
    """Bind ``token`` for the rest of the calling thread's context."""
    _current.set(token)


def raise_if_cancelled(token: Optional[CancelToken]) -> None:
    """Raise :class:`Cancelled` when ``token`` is set and cancelled."""
    if token is not None and token.cancelled:
        raise Cancelled()

