"""Micro-batching request coalescer for the serving hot path.

One user's cache miss costs a ``(1, n_items)`` score row — a gemv plus
Python/numpy call overhead.  Under concurrent load those misses arrive
together, and ``B`` of them answered as one ``(B, n_items)``
``scores_batch`` gemm cost far less than ``B`` gemv dispatches.
:class:`RequestCoalescer` is the generic queue that realizes this: callers
block in :meth:`submit` while a *leader* thread dispatches up to
``max_batch`` queued requests through one user-supplied ``compute``
callable and distributes the per-request results.

The leader/follower scheme needs no dedicated dispatcher thread — the
first thread to find no leader active becomes one, which keeps the
coalescer dead-simple to embed (no lifecycle, nothing to shut down).  The
leader never waits for batch partners: it dispatches whatever is queued
as soon as it takes leadership, so a lone request is computed at once.
Requests that arrive while a batch is computing queue up and share the
leader's next round, so concurrent misses still fold into one gemm.

Failure semantics (pinned by ``tests/serve/test_coalescer.py``):

* an exception in the leader's ``compute`` reaches **every** caller
  whose request was in the failing batch, exactly once each, and the
  next ``submit`` elects a fresh leader — a failed batch never wedges
  the queue;
* if the leader thread itself dies outside the compute guard (a bug, a
  ``KeyboardInterrupt`` between rounds), the pending queue is aborted
  with that error instead of hanging followers forever.

A hung compute holds its followers as long as it holds the leader; the
serving layer pairs the coalescer with a circuit breaker for failures
that do return.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Generic, List, Sequence, TypeVar

from repro.utils.validation import check_positive

__all__ = ["CoalescerStats", "RequestCoalescer"]

TRequest = TypeVar("TRequest")
TResult = TypeVar("TResult")


@dataclass
class CoalescerStats:
    """Dispatch accounting (mutated under the coalescer lock)."""

    requests: int = 0
    batches: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    #: Leader threads that died outside the compute guard, aborting the
    #: queued requests they were responsible for.
    leader_aborts: int = 0

    @property
    def max_batch_size(self) -> int:
        return max(self.batch_sizes) if self.batch_sizes else 0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)


class _Slot(Generic[TResult]):
    """One in-flight request: its payload plus a completion event."""

    __slots__ = ("request", "done", "result", "error")

    def __init__(self, request) -> None:
        self.request = request
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class RequestCoalescer(Generic[TRequest, TResult]):
    """Collect concurrent blocking requests into batched compute calls.

    Parameters
    ----------
    compute:
        ``compute(requests) -> results`` with results aligned to the
        request list.  Called outside the coalescer lock, from whichever
        thread is leading the batch; it must be thread-safe with respect
        to itself (the service serializes scoring under its own lock).
    max_batch:
        Largest batch handed to one ``compute`` call.
    """

    def __init__(
        self,
        compute: Callable[[Sequence[TRequest]], Sequence[TResult]],
        *,
        max_batch: int = 256,
    ) -> None:
        self.max_batch = int(check_positive(max_batch, "max_batch"))
        self._compute = compute
        self._lock = threading.Lock()
        self._queue: List[_Slot] = []
        self._leader_active = False
        self.stats = CoalescerStats()

    # ------------------------------------------------------------------ #

    def submit(self, request: TRequest) -> TResult:
        """Block until ``request`` has been computed; return its result.

        Exceptions raised by ``compute`` propagate to every caller whose
        request was in the failing batch.
        """
        slot: _Slot = _Slot(request)
        with self._lock:
            self._queue.append(slot)
            self.stats.requests += 1
            # With a leader active, wait for its next round as a follower.
            is_leader = not self._leader_active
            self._leader_active = True
        if is_leader:
            try:
                self._lead()
            except BaseException as error:
                # The leader died outside the compute guard (which
                # handles compute errors itself): fail the queue it was
                # responsible for rather than leaving followers hanging
                # with no leader.
                self._abort_pending(error)
                raise
        else:
            slot.done.wait()
        if slot.error is not None:
            raise slot.error
        return slot.result

    # ------------------------------------------------------------------ #

    def _lead(self) -> None:
        """Run dispatch rounds until the queue is drained, then step down.

        Each round takes up to ``max_batch`` queued requests at once: the
        first holds the leader's own request, later ones the backlog that
        queued while the previous batch was computing.
        """
        while True:
            with self._lock:
                if not self._queue:
                    self._leader_active = False
                    return
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
                self.stats.batches += 1
                self.stats.batch_sizes.append(len(batch))
            try:
                results = self._compute([slot.request for slot in batch])
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"compute returned {len(results)} results for "
                        f"{len(batch)} requests"
                    )
                for slot, result in zip(batch, results):
                    slot.result = result
            except BaseException as error:  # noqa: BLE001 - must reach waiters
                for slot in batch:
                    slot.error = error
            finally:
                for slot in batch:
                    slot.done.set()

    def _abort_pending(self, error: BaseException) -> None:
        """Fail every queued slot with ``error`` and vacate leadership.

        Only reached when the leader thread itself dies abnormally (not
        on compute failures, which `_lead` already delivers per batch):
        the queued followers would otherwise wait on a leader that no
        longer exists.
        """
        with self._lock:
            orphans = list(self._queue)
            self._queue.clear()
            self._leader_active = False
            self.stats.leader_aborts += 1
        for slot in orphans:
            slot.error = error
            slot.done.set()
