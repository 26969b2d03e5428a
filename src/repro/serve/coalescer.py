"""Async request coalescing: many concurrent searches, few dispatches.

FeReX earns its throughput by amortising one array evaluation over many
queries (the ~50x batch-over-serial win measured in
``benchmarks/bench_batch_throughput.py``).  A serving process only sees
that win if concurrent single-query callers are *coalesced* into
micro-batches before they reach the index — which is exactly what
:class:`RequestCoalescer` does.

The flush rule is work-conserving: a request never waits for company
while the backend has a free dispatch *slot* (a pool worker, or a
replica when unpooled).

* a submitted request parks in the pending queue;
* while a slot is free, the queue flushes on the next event-loop tick,
  so requests that arrive in the same tick (a concurrent burst) share
  one batch and a lone request pays no timer;
* while every slot is busy, arrivals keep parking; the queue flushes
  when a slot frees, when it reaches ``max_batch_size``, or
  ``max_wait_ms`` after the oldest parked arrival — whichever is first.
  Batches therefore grow exactly while the backend is saturated, and
  ``max_wait_ms`` is a hard ceiling on parking, even behind a hung
  slot;
* a flush groups pending requests by ``k`` (the index's batch entry
  point takes one ``k`` per call) and dispatches each group through the
  supplied async ``dispatch`` callable in arrival order;
* each caller's future resolves with its own ``(ids, distances)`` row.

With an ``inline_dispatch`` a lone request skips the batch machinery's
task hop: when no slot is busy and nothing else joins it during one
event-loop yield, it is dispatched inline by its own caller.

Because the index's batch path is bit-identical to its serial path by
construction, coalescing changes *when* a query is evaluated but never
*what* it returns.

Cancellation discipline: a caller that abandons its request (e.g. via
``asyncio.wait_for``) before the flush is silently dropped from the
batch; one cancelled after dispatch simply never receives the result.
Other requests in the same micro-batch are unaffected either way.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Tuple

import numpy as np

#: Async dispatch: (queries (n, dims), k) -> (ids (n, k), distances).
DispatchFn = Callable[
    [np.ndarray, int], Awaitable[Tuple[np.ndarray, np.ndarray]]
]

#: Smoothing factor of the service-time EWMA.
_SERVICE_ALPHA = 0.25


class DeadlineExceededError(TimeoutError):
    """A request's deadline expired while it was parked in the pending
    queue: it was rejected at flush time instead of being dispatched.

    The wire front-end maps this to ``503`` + ``Retry-After`` — under
    overload, queue time (not service time) is what grows without
    bound, so rejecting stale requests before they reach the array is
    what keeps served p99 bounded.
    """


@dataclass(eq=False, slots=True)
class _Pending:
    """One parked request.  ``deadline`` is the absolute event-loop
    time after which it must not be dispatched (None = no deadline)."""

    query: np.ndarray
    k: int
    future: asyncio.Future
    deadline: Optional[float]
    arrived: float


class RequestCoalescer:
    """Collects concurrent ``submit`` calls into micro-batches.

    Parameters
    ----------
    dispatch:
        Async callable evaluating one micro-batch.  Exceptions it
        raises propagate to every caller in that batch.
    max_batch_size:
        Flush immediately once this many requests are pending.
    max_wait_ms:
        Hard ceiling on parking: a request that finds every slot busy
        is dispatched at latest this long after the oldest parked
        arrival.  ``0`` flushes on the next event-loop tick regardless
        of slots.
    on_batch:
        Optional observer called with each successfully served batch
        size (the server wires :meth:`ServerStats.record_batch` here).
    slots:
        Zero-argument callable returning how many batches the backend
        serves at once, read at every decision (so a pool that grows or
        shrinks applies at once).  Defaults to one slot.
    inline_dispatch:
        Optional dispatch variant for a lone request that finds no slot
        busy; the caller awaits it directly instead of a batch task.
        The server passes a loop-blocking direct search here —
        acceptable exactly because nothing else is in flight.  Without
        it, a lone request rides a size-1 batch on the next tick.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        on_batch: Optional[Callable[[int], None]] = None,
        slots: Optional[Callable[[], int]] = None,
        inline_dispatch: Optional[DispatchFn] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self._slots = slots or (lambda: 1)
        self._dispatch = dispatch
        self._inline_dispatch = inline_dispatch
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self._on_batch = on_batch
        #: EWMA of batch dispatch durations (seconds; None = no data).
        self._ewma_service: Optional[float] = None
        self._pending: List[_Pending] = []
        #: Next-tick flush, armed while a slot is free.
        self._tick: Optional[asyncio.Handle] = None
        #: ``max_wait_ms`` ceiling, armed while every slot is busy.
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Batches dispatched and not yet finished (busy slots), inline
        #: ones included.
        self._inflight = 0
        #: Batch tasks, held so they are not garbage-collected mid-flight.
        self._tasks: set = set()
        self._idle = asyncio.Event()
        self._idle.set()
        #: Requests rejected at flush time because their deadline had
        #: already expired while parked (never dispatched).
        self.n_deadline_drops = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Requests parked and not yet dispatched."""
        return len(self._pending)

    @property
    def n_inflight(self) -> int:
        """Batches dispatched and not yet finished (busy slots)."""
        return self._inflight

    @property
    def ewma_service_s(self) -> Optional[float]:
        """EWMA of batch dispatch durations in seconds (``None`` until
        the first batch is served) — the service-time half of the
        autoscaling signal."""
        return self._ewma_service

    def _observe_service(self, duration: float) -> None:
        if self._ewma_service is None:
            self._ewma_service = duration
        else:
            self._ewma_service += _SERVICE_ALPHA * (
                duration - self._ewma_service
            )

    async def submit(
        self,
        query: np.ndarray,
        k: int,
        deadline: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Park one query until its micro-batch flushes; returns this
        query's ``(ids, distances)`` row.

        ``deadline`` is an absolute event-loop time
        (``loop.time()``-based).  A request whose deadline has already
        passed raises :class:`DeadlineExceededError` immediately; one
        whose deadline expires *while parked* is rejected at flush time
        instead of being dispatched (stale work never reaches the
        index).  A deadline does not abort a dispatch already in
        flight — the answer is nearly done by then, and returning it
        costs nothing extra.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        loop = asyncio.get_running_loop()
        now = loop.time()
        if deadline is not None and now >= deadline:
            raise DeadlineExceededError(
                "deadline expired before the request could be queued"
            )
        future = loop.create_future()
        pending = _Pending(query, k, future, deadline, now)
        if (
            self._inline_dispatch is not None
            and not self._pending
            and not self._inflight
        ):
            # Nothing parked and nothing in flight.  Park and yield
            # exactly once — submits already sitting in the event
            # loop's ready queue (a concurrent burst) join the pending
            # list during the yield and batch as usual; a request still
            # alone afterwards dispatches inline (no tick, no task hop).
            self._pending.append(pending)
            try:
                await asyncio.sleep(0)
            except asyncio.CancelledError:
                # Cancelled mid-park: the task never reaches the await
                # on its future, so the done-future filter can't drop
                # it — remove the ghost entry explicitly or it would be
                # dispatched as wasted work in the next real batch.
                if pending in self._pending:
                    self._pending.remove(pending)
                raise
            if self._pending == [pending]:
                self._pending = []
                self._acquire()
                try:
                    await self._run_batch(
                        [pending], k, dispatch=self._inline_dispatch
                    )
                finally:
                    self._release()
            return await future
        self._pending.append(pending)
        if len(self._pending) >= self.max_batch_size:
            self._flush()
        else:
            self._schedule()
        return await future

    async def close(self) -> None:
        """Flush any parked requests and wait out in-flight batches;
        subsequent submits raise."""
        self._closed = True
        self._flush()
        await self._idle.wait()

    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        """Arm the trigger that will flush the parked requests: the
        next tick while a slot is free, else the ``max_wait_ms``
        ceiling of the oldest parked arrival."""
        if not self._pending:
            return
        loop = asyncio.get_running_loop()
        if self._inflight < self._slots():
            if self._tick is None:
                self._tick = loop.call_soon(self._on_tick)
        elif self._timer is None:
            self._timer = loop.call_at(
                self._pending[0].arrived + self.max_wait_s, self._flush
            )

    def _on_tick(self) -> None:
        self._tick = None
        if self._inflight < self._slots():
            self._flush()
        else:
            # The pool shrank since the tick was armed: park until a
            # slot frees.
            self._schedule()

    def _acquire(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _release(self, _task: Optional[asyncio.Task] = None) -> None:
        """A batch finished: its slot is free for the parked queue."""
        self._inflight -= 1
        if not self._inflight:
            self._idle.set()
        if self._pending and self._inflight < self._slots():
            self._flush()

    def _flush(self) -> None:
        """Dispatch every pending request now.

        ``submit`` flushes synchronously the moment the queue reaches
        ``max_batch_size`` (and flushing itself never awaits), so the
        queue only exceeds one batch through the inline path's one-tick
        yield — dispatched batches are still capped below.
        """
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        # Callers that cancelled while parked drop out of the batch.
        batch = [p for p in batch if not p.future.done()]
        # Requests whose deadline expired while parked are rejected
        # here, before any dispatch work is spent on them.
        now = asyncio.get_running_loop().time()
        expired = [
            p
            for p in batch
            if p.deadline is not None and now >= p.deadline
        ]
        if expired:
            batch = [p for p in batch if p not in expired]
            self.n_deadline_drops += len(expired)
            for pending in expired:
                pending.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired while queued for dispatch"
                    )
                )
        # One index call per distinct k, arrival order preserved.
        by_k: dict = {}
        for pending in batch:
            by_k.setdefault(pending.k, []).append(pending)
        loop = asyncio.get_running_loop()
        for k, group in by_k.items():
            for start in range(0, len(group), self.max_batch_size):
                chunk = group[start : start + self.max_batch_size]
                self._acquire()
                task = loop.create_task(self._run_batch(chunk, k))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                task.add_done_callback(self._release)

    async def _run_batch(
        self,
        group: List[_Pending],
        k: int,
        dispatch: Optional[DispatchFn] = None,
    ) -> None:
        # Everything — batch assembly, dispatch, and handing out the
        # rows — stays inside the try: an exception that escaped before
        # every future resolves (a ragged batch, a dispatch that
        # returned too few rows) would leave callers awaiting forever.
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            if len(group) == 1:
                # Zero-copy lift for a singleton batch.
                queries = np.asarray(group[0].query)[None]
            else:
                queries = np.stack([pending.query for pending in group])
            ids, distances = await (dispatch or self._dispatch)(queries, k)
            self._observe_service(loop.time() - started)
            if len(ids) < len(group) or len(distances) < len(group):
                raise ValueError(
                    f"dispatch returned {len(ids)} rows for a batch "
                    f"of {len(group)}"
                )
            # Observed only on success: the stats histogram counts
            # batches that were actually served.
            if self._on_batch is not None:
                self._on_batch(len(group))
            for row, pending in enumerate(group):
                if not pending.future.done():
                    pending.future.set_result((ids[row], distances[row]))
        except Exception as exc:  # propagate to every unresolved caller
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(exc)
