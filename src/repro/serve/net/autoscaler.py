"""Pool autoscaling from the coalescer's queue-depth gauge.

The signal is ``ServerStats.coalescer_queue_depth``; this module is its
consumer.  The coalescer is work-conserving — a request parks only
while every pool worker is busy — so the depth is a real backlog: it
reads zero whenever the pool keeps up, and grows only when arrivals
outrun the workers.  The control loop is intentionally boring —
boring controllers are the ones whose behaviour operators can predict:

* every tick, read the **queue depth** (requests parked in the
  coalescer behind busy workers) and the **EWMA service time** (the
  coalescer's own estimate of how long a dispatched batch takes);
* their product is the *backlog* in seconds — how long the queue would
  take to drain right now.  Depth alone is the wrong unit: 30 parked
  requests are an emergency when a batch takes 50 ms and irrelevant
  when it takes 50 µs;
* a backlog above ``high_backlog_s`` for ``up_ticks`` consecutive
  ticks grows the pool by one worker; below ``low_backlog_s`` for
  ``down_ticks`` consecutive ticks shrinks it by one.  The dead band
  between the watermarks plus the longer down-streak is the
  hysteresis that keeps the pool from flapping on bursty traffic;
* worker count is clamped to ``[min_workers, max_workers]`` — the
  controller saturates silently at either end.

The decision logic (:meth:`Autoscaler.tick`) is synchronous and takes
injected probes, so tests drive it with a scripted gauge;
:meth:`Autoscaler.run` is the production loop, which applies grow and
shrink on an executor thread because spawning a worker process takes
seconds and must not stall the event loop that is busy serving.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Optional


class Autoscaler:
    """Grow/shrink a worker pool between ``min_workers``/``max_workers``
    from the queue-depth gauge and EWMA service time.

    Parameters
    ----------
    pool:
        Anything with ``n_workers``, ``grow()`` and ``shrink()`` —
        a :class:`~repro.serve.procpool.ProcReplicaPool` in production,
        a scripted fake in tests.
    depth_probe:
        Returns the coalescer's current pending-queue depth (the
        server exposes it as ``stats.coalescer_queue_depth``).
    service_probe:
        Returns the EWMA batch service time in seconds, or ``None``
        before the first batch (the coalescer's ``ewma_service_s``);
        ``fallback_service_s`` substitutes for ``None``.
    high_backlog_s / low_backlog_s:
        Scale-up / scale-down watermarks on the estimated drain time
        ``depth * service``.  ``low`` must sit strictly below ``high``;
        the gap is the hysteresis dead band.
    up_ticks / down_ticks:
        Consecutive ticks the backlog must hold beyond a watermark
        before the pool is resized.  Scale-down defaults slower than
        scale-up: adding capacity late costs latency, removing it
        early costs a respawn seconds later.
    interval_s:
        Tick period of the :meth:`run` loop.
    """

    def __init__(
        self,
        pool,
        depth_probe: Callable[[], int],
        service_probe: Optional[Callable[[], Optional[float]]] = None,
        min_workers: int = 1,
        max_workers: int = 4,
        high_backlog_s: float = 0.02,
        low_backlog_s: float = 0.002,
        fallback_service_s: float = 0.005,
        up_ticks: int = 2,
        down_ticks: int = 5,
        interval_s: float = 0.25,
    ):
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if not 0 <= low_backlog_s < high_backlog_s:
            raise ValueError(
                "need 0 <= low_backlog_s < high_backlog_s "
                f"(got {low_backlog_s} / {high_backlog_s})"
            )
        if up_ticks < 1 or down_ticks < 1:
            raise ValueError("up_ticks and down_ticks must be >= 1")
        if fallback_service_s <= 0:
            raise ValueError("fallback_service_s must be > 0")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.pool = pool
        self.depth_probe = depth_probe
        self.service_probe = service_probe
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.high_backlog_s = float(high_backlog_s)
        self.low_backlog_s = float(low_backlog_s)
        self.fallback_service_s = float(fallback_service_s)
        self.up_ticks = int(up_ticks)
        self.down_ticks = int(down_ticks)
        self.interval_s = float(interval_s)
        self._up_streak = 0
        self._down_streak = 0
        self.n_ticks = 0
        self.n_grows = 0
        self.n_shrinks = 0
        self.n_errors = 0
        self.last_backlog_s = 0.0
        self.last_error: Optional[BaseException] = None
        #: Recent (tick, action, n_workers) scaling events.
        self.events: deque = deque(maxlen=64)
        self._stop = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Decision + actuation
    # ------------------------------------------------------------------
    def _decide(self) -> Optional[str]:
        """Read the probes, update the streaks, pick an action (or
        None).  Pure control logic — nothing is resized here."""
        depth = int(self.depth_probe())
        service = self.service_probe() if self.service_probe else None
        if service is None:
            service = self.fallback_service_s
        self.last_backlog_s = depth * float(service)
        self.n_ticks += 1
        if self.last_backlog_s >= self.high_backlog_s:
            self._up_streak += 1
            self._down_streak = 0
        elif self.last_backlog_s <= self.low_backlog_s:
            self._down_streak += 1
            self._up_streak = 0
        else:
            # Dead band: hold steady, reset both streaks — the signal
            # must commit to a direction before the pool moves.
            self._up_streak = 0
            self._down_streak = 0
        if (
            self._up_streak >= self.up_ticks
            and self.pool.n_workers < self.max_workers
        ):
            return "grow"
        if (
            self._down_streak >= self.down_ticks
            and self.pool.n_workers > self.min_workers
        ):
            return "shrink"
        return None

    def _apply(self, action: str) -> None:
        """Resize by one worker; a pool failure is recorded, not
        raised — a scaling hiccup must never take the control loop (or
        the serving loop above it) down."""
        try:
            if action == "grow":
                self.pool.grow()
                self.n_grows += 1
            else:
                self.pool.shrink()
                self.n_shrinks += 1
            self.events.append(
                (self.n_ticks, action, int(self.pool.n_workers))
            )
        except Exception as exc:
            self.n_errors += 1
            self.last_error = exc
        finally:
            self._up_streak = 0
            self._down_streak = 0

    def tick(self) -> Optional[str]:
        """One synchronous control step: decide and (when warranted)
        resize.  Returns ``"grow"``, ``"shrink"`` or ``None`` — the
        unit-test entry point, and exactly what :meth:`run` executes
        per interval."""
        action = self._decide()
        if action is not None:
            self._apply(action)
        return action

    # ------------------------------------------------------------------
    # The production loop
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Tick every ``interval_s`` until :meth:`stop`.  Resizes run
        on an executor thread: ``grow()`` blocks for a process spawn
        and ``shrink()`` for an idle-queue checkout, neither of which
        may stall the event loop mid-traffic."""
        loop = asyncio.get_running_loop()
        while not self._stop.is_set():
            try:
                await asyncio.wait_for(
                    self._stop.wait(), timeout=self.interval_s
                )
                return
            except asyncio.TimeoutError:
                pass
            action = self._decide()
            if action is not None:
                await loop.run_in_executor(None, self._apply, action)

    def start(self) -> asyncio.Task:
        """Spawn the control loop on the running event loop."""
        if self._task is not None and not self._task.done():
            raise RuntimeError("autoscaler is already running")
        self._stop.clear()
        self._task = asyncio.get_running_loop().create_task(self.run())
        return self._task

    async def stop(self) -> None:
        """Signal the loop to exit and wait for it (any in-flight
        resize finishes first)."""
        self._stop.set()
        if self._task is not None:
            await self._task
            self._task = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready controller state for the ``/metrics`` endpoint."""
        return {
            "n_workers": int(self.pool.n_workers),
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "high_backlog_s": self.high_backlog_s,
            "low_backlog_s": self.low_backlog_s,
            "up_ticks": self.up_ticks,
            "down_ticks": self.down_ticks,
            "interval_s": self.interval_s,
            "n_ticks": int(self.n_ticks),
            "n_grows": int(self.n_grows),
            "n_shrinks": int(self.n_shrinks),
            "n_errors": int(self.n_errors),
            "last_backlog_s": float(self.last_backlog_s),
            "up_streak": int(self._up_streak),
            "down_streak": int(self._down_streak),
            "events": [
                [int(tick), str(action), int(workers)]
                for tick, action, workers in self.events
            ],
        }

    def __repr__(self) -> str:
        return (
            f"Autoscaler(workers={self.pool.n_workers} in "
            f"[{self.min_workers}, {self.max_workers}], "
            f"grows={self.n_grows}, shrinks={self.n_shrinks})"
        )
