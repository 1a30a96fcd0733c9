"""Cooperative per-request deadlines for the query read path.

The service front end gives every request a wall-clock budget; a
query that outlives it must *stop burning CPU*, not merely have its
response discarded.  Killing a thread mid-traversal is unsafe (the
kernels share cache state), so cancellation is cooperative: the
request thread enters a :func:`deadline_scope`, and the traversal
loops (``queries/kernels.py``, ``store/csr.py``) consult the scope's
deadline slot every few thousand expansions, raising
:class:`~repro.errors.DeadlineExceededError` once the budget is gone.

Cost model (mirrors :mod:`repro.obs` and :mod:`repro.faults`): the
*disabled* path is one module-global integer read at kernel entry —
when no thread in the process holds a deadline, the kernels dispatch
straight to their unchecked loops (``python3 -m bench``'s
``query_warm.overhead_ratio`` measures what a deadline costs).  Only a
thread actually inside a scope pays the periodic ``perf_counter``
check.

The slot is a plain thread-local (not a contextvar): kernels run on
worker threads, and the service sets the scope around the whole
synchronous query call on that same thread, so inheritance across
awaits is not needed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

from ..errors import DeadlineExceededError

#: Expansions between deadline checks inside a traversal loop.  Node
#: expansions are tens-of-nanoseconds each, so 1024 keeps the check
#: overhead around 0.1% while bounding overshoot to well under a
#: millisecond on any realistic graph.
CHECK_EVERY = 1024

_local = threading.local()

#: Count of threads currently inside a deadline scope.  The kernels
#: read this one global to decide between the unchecked fast loop and
#: the checking twin; it is only ever mutated under ``_count_lock``.
_scopes = 0
_count_lock = threading.Lock()

#: Monotonic scope counter — lets tests and the slow-query log tell
#: "which request's deadline fired" apart without identity games.
_generation = 0


class Deadline:
    """One request's wall-clock budget, pinned at scope entry."""

    __slots__ = ("budget_seconds", "started_at", "expires_at", "generation")

    def __init__(self, budget_seconds: float, generation: int = 0):
        self.budget_seconds = budget_seconds
        self.started_at = time.perf_counter()
        self.expires_at = self.started_at + budget_seconds
        self.generation = generation

    def remaining(self) -> float:
        return self.expires_at - time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() >= self.expires_at

    def check(self, where: Optional[str] = None) -> None:
        """Raise :class:`DeadlineExceededError` once the budget is gone."""
        now = time.perf_counter()
        if now >= self.expires_at:
            raise DeadlineExceededError(
                self.budget_seconds, now - self.started_at, where=where)

    def __repr__(self) -> str:
        return (f"Deadline({self.budget_seconds * 1000:.0f}ms, "
                f"remaining={self.remaining() * 1000:.0f}ms)")


def current() -> Optional[Deadline]:
    """The calling thread's active deadline, or None.

    The no-scope fast path is a single module-global integer
    comparison — callers on the hot path rely on that.
    """
    if _scopes == 0:
        return None
    return getattr(_local, "deadline", None)


def active() -> bool:
    """Whether *any* thread currently holds a deadline scope."""
    return _scopes != 0


@contextmanager
def deadline_scope(budget_seconds: Optional[float]):
    """Install a deadline for the calling thread's dynamic extent.

    ``None`` (or a non-positive budget) is a no-op scope, so callers
    can thread an optional budget without branching.  Scopes nest;
    the inner scope wins while it is active and the outer one is
    restored on exit.
    """
    global _scopes, _generation
    if budget_seconds is None or budget_seconds <= 0:
        yield None
        return
    with _count_lock:
        _scopes += 1
        _generation += 1
        generation = _generation
    previous = getattr(_local, "deadline", None)
    deadline = Deadline(budget_seconds, generation=generation)
    _local.deadline = deadline
    try:
        yield deadline
    finally:
        _local.deadline = previous
        with _count_lock:
            _scopes -= 1


def check(where: Optional[str] = None) -> None:
    """Checkpoint helper for coarse-grained call sites (catalog loads,
    snapshot builds): no-op without a scope, raises when expired."""
    deadline = current()
    if deadline is not None:
        deadline.check(where=where)
