"""RequestCoalescer: micro-batching, flush triggers, cancellation."""

import asyncio

import numpy as np
import pytest

from repro.serve import DeadlineExceededError, RequestCoalescer


class Recorder:
    """Dispatch stub: answers with (query-sum, k) rows and records every
    batch it sees."""

    def __init__(self, delay_s=0.0, fail=False):
        self.batches = []
        self.delay_s = delay_s
        self.fail = fail

    async def __call__(self, queries, k):
        self.batches.append((np.array(queries), k))
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("backend exploded")
        n = len(queries)
        ids = np.tile(queries.sum(axis=1)[:, None], (1, k))
        distances = np.full((n, k), float(k))
        return ids, distances


class Gate:
    """Dispatch gated on an :class:`asyncio.Event`: every batch it sees
    parks until :meth:`open`; ``held`` counts batches parked right now
    and ``peak`` the most ever parked at once.  Passes through to
    ``inner`` once released (or at once, for batches after ``hold``
    of them when ``hold`` is set)."""

    def __init__(self, inner=None, hold=None):
        self.inner = inner or Recorder()
        self.hold = hold
        self.event = asyncio.Event()
        self.seen = 0
        self.held = 0
        self.peak = 0

    def open(self):
        self.event.set()

    async def __call__(self, queries, k):
        self.seen += 1
        if self.hold is None or self.seen <= self.hold:
            self.held += 1
            self.peak = max(self.peak, self.held)
            try:
                await self.event.wait()
            finally:
                self.held -= 1
            if self.hold is not None:
                # A holder batch: occupies its slot, never recorded.
                n = len(queries)
                return np.zeros((n, k), dtype=np.int64), np.zeros((n, k))
        return await self.inner(queries, k)


async def until(predicate, timeout=5.0):
    """Yield to the loop until ``predicate()`` holds."""
    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while not predicate():
        assert loop.time() < give_up, "condition never held"
        await asyncio.sleep(0)


def test_batch_flushes_at_max_size():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=10_000
        )
        queries = [np.full(3, i) for i in range(4)]
        results = await asyncio.gather(
            *(coalescer.submit(q, 2) for q in queries)
        )
        # One dispatch of all four, despite the enormous wait knob.
        assert len(recorder.batches) == 1
        assert len(recorder.batches[0][0]) == 4
        for i, (ids, distances) in enumerate(results):
            assert ids.tolist() == [3 * i, 3 * i]
        await coalescer.close()

    asyncio.run(main())


def test_partial_batch_flushes_after_max_wait():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=64, max_wait_ms=5
        )
        ids, distances = await asyncio.wait_for(
            coalescer.submit(np.zeros(3, dtype=int), 1), timeout=5
        )
        assert len(recorder.batches) == 1
        assert ids.tolist() == [0]
        await coalescer.close()

    asyncio.run(main())


def test_distinct_k_split_into_separate_dispatches():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=1
        )
        results = await asyncio.gather(
            *(
                coalescer.submit(np.full(3, i), 1 + (i % 2))
                for i in range(8)
            )
        )
        ks = sorted(k for _, k in recorder.batches)
        assert ks == [1, 2]
        for i, (ids, _) in enumerate(results):
            assert ids.shape == (1 + (i % 2),)
        await coalescer.close()

    asyncio.run(main())


def test_oversize_wave_splits_into_capped_batches():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=1
        )
        await asyncio.gather(
            *(coalescer.submit(np.full(3, i), 1) for i in range(10))
        )
        sizes = sorted(len(batch) for batch, _ in recorder.batches)
        assert sum(sizes) == 10
        assert max(sizes) <= 4
        await coalescer.close()

    asyncio.run(main())


def test_cancelled_caller_drops_out_before_dispatch():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=20
        )
        doomed = asyncio.ensure_future(
            coalescer.submit(np.zeros(3, dtype=int), 1)
        )
        survivor = asyncio.ensure_future(
            coalescer.submit(np.ones(3, dtype=int), 1)
        )
        await asyncio.sleep(0)  # both parked, nothing flushed yet
        doomed.cancel()
        ids, _ = await survivor
        assert ids.tolist() == [3]
        with pytest.raises(asyncio.CancelledError):
            await doomed
        # The cancelled query never reached the backend.
        assert len(recorder.batches) == 1
        assert len(recorder.batches[0][0]) == 1
        await coalescer.close()

    asyncio.run(main())


def test_cancel_during_inline_park_leaves_no_ghost():
    """Regression: a caller cancelled during the inline path's one-tick
    park never reaches the await on its future, so the done-future
    filter can't drop it — the entry must be removed explicitly or it
    lingers in the queue and is dispatched as wasted work later."""
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder,
            max_batch_size=8,
            max_wait_ms=1,
            inline_dispatch=recorder,
        )
        doomed = asyncio.ensure_future(
            coalescer.submit(np.ones(3, dtype=int), 1)
        )
        await asyncio.sleep(0)  # advance doomed to its one-tick park
        assert coalescer.n_pending == 1
        doomed.cancel()
        with pytest.raises(asyncio.CancelledError):
            await doomed
        assert coalescer.n_pending == 0  # no ghost left behind
        ids, _ = await coalescer.submit(np.full(3, 2, dtype=int), 1)
        assert ids.tolist() == [6]
        # The cancelled query (row sum 3) never reached the backend,
        # alone or as a stowaway in a later batch.
        assert all(
            (batch.sum(axis=1) != 3).all() for batch, _ in recorder.batches
        )
        assert all(len(batch) == 1 for batch, _ in recorder.batches)
        await coalescer.close()

    asyncio.run(main())


def test_inline_park_cannot_exceed_max_batch_size():
    """Regression: a request parked by the inline path (which bypasses
    the normal size-trigger check) joined by a same-tick arrival must
    still dispatch in batches capped at max_batch_size."""
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder,
            max_batch_size=1,
            max_wait_ms=1,
            inline_dispatch=recorder,
        )
        results = await asyncio.gather(
            coalescer.submit(np.ones(3, dtype=int), 1),
            coalescer.submit(np.full(3, 2, dtype=int), 1),
        )
        assert [ids.tolist() for ids, _ in results] == [[3], [6]]
        assert all(len(batch) <= 1 for batch, _ in recorder.batches)
        await coalescer.close()

    asyncio.run(main())


def test_lone_request_runs_inline_and_a_burst_does_not():
    """A request that is alone with nothing in flight is dispatched by
    its own caller through ``inline_dispatch``; same-tick arrivals
    batch through the regular dispatch instead."""
    batched, inline = Recorder(), Recorder()

    async def main():
        coalescer = RequestCoalescer(
            batched,
            max_batch_size=8,
            max_wait_ms=60_000,
            inline_dispatch=inline,
        )
        ids, _ = await coalescer.submit(np.ones(3, dtype=int), 1)
        assert ids.tolist() == [3]
        assert len(inline.batches) == 1 and not batched.batches
        await asyncio.gather(
            *(coalescer.submit(np.full(3, i), 1) for i in range(3))
        )
        assert len(inline.batches) == 1
        assert [len(batch) for batch, _ in batched.batches] == [3]
        await coalescer.close()

    asyncio.run(main())


def test_timeout_mid_dispatch_leaves_batch_unharmed():
    recorder = Recorder(delay_s=0.05)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=1
        )
        slowpoke = coalescer.submit(np.zeros(3, dtype=int), 1)
        survivor = asyncio.ensure_future(
            coalescer.submit(np.ones(3, dtype=int), 1)
        )
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(slowpoke, timeout=0.01)
        ids, _ = await survivor
        assert ids.tolist() == [3]
        await coalescer.close()

    asyncio.run(main())


def test_dispatch_error_propagates_to_every_caller():
    recorder = Recorder(fail=True)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=1
        )
        results = await asyncio.gather(
            coalescer.submit(np.zeros(3, dtype=int), 1),
            coalescer.submit(np.ones(3, dtype=int), 1),
            return_exceptions=True,
        )
        assert all(isinstance(r, RuntimeError) for r in results)
        await coalescer.close()

    asyncio.run(main())


def test_ragged_batch_resolves_every_future():
    """Regression: a failure while *assembling* the batch (np.stack on
    ragged queries) must propagate to every caller instead of leaving
    them awaiting forever."""
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=1
        )
        results = await asyncio.wait_for(
            asyncio.gather(
                coalescer.submit(np.zeros(3, dtype=int), 1),
                coalescer.submit(np.zeros(4, dtype=int), 1),  # ragged
                return_exceptions=True,
            ),
            timeout=5,
        )
        assert all(isinstance(r, ValueError) for r in results)
        assert recorder.batches == []  # never reached the backend
        await coalescer.close()

    asyncio.run(main())


def test_short_dispatch_result_resolves_every_future():
    """Regression: a dispatch returning fewer rows than the batch must
    fail every caller instead of hanging the overflow."""

    async def short_dispatch(queries, k):
        return (
            np.zeros((len(queries) - 1, k), dtype=np.int64),
            np.zeros((len(queries) - 1, k)),
        )

    async def main():
        coalescer = RequestCoalescer(
            short_dispatch, max_batch_size=2, max_wait_ms=1
        )
        results = await asyncio.wait_for(
            asyncio.gather(
                coalescer.submit(np.zeros(3, dtype=int), 1),
                coalescer.submit(np.ones(3, dtype=int), 1),
                return_exceptions=True,
            ),
            timeout=5,
        )
        assert all(isinstance(r, ValueError) for r in results)
        await coalescer.close()

    asyncio.run(main())


def test_close_flushes_parked_requests_then_refuses():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=64, max_wait_ms=60_000
        )
        parked = asyncio.ensure_future(
            coalescer.submit(np.zeros(3, dtype=int), 1)
        )
        await asyncio.sleep(0)
        await coalescer.close()
        ids, _ = await parked
        assert ids.tolist() == [0]
        with pytest.raises(RuntimeError, match="closed"):
            await coalescer.submit(np.zeros(3, dtype=int), 1)

    asyncio.run(main())


def test_knob_validation():
    async def main():
        recorder = Recorder()
        with pytest.raises(ValueError):
            RequestCoalescer(recorder, max_batch_size=0)
        with pytest.raises(ValueError):
            RequestCoalescer(recorder, max_wait_ms=-1)

    asyncio.run(main())


def test_expired_deadline_rejected_at_submit():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=10
        )
        loop = asyncio.get_running_loop()
        with pytest.raises(DeadlineExceededError):
            await coalescer.submit(
                np.zeros(3, dtype=int), 1, deadline=loop.time() - 0.001
            )
        # Nothing was parked, nothing dispatched, nothing counted as a
        # queue drop (the request never entered the queue).
        assert coalescer.n_pending == 0
        assert recorder.batches == []
        assert coalescer.n_deadline_drops == 0
        await coalescer.close()

    asyncio.run(main())


def test_deadline_expiring_while_parked_is_dropped_at_flush():
    recorder = Recorder()

    async def main():
        # A holder batch keeps the only slot busy, and the flush
        # ceiling (30 ms) far exceeds the 2 ms deadline: the doomed
        # request is parked alive, then expires before dispatch.
        gate = Gate(recorder, hold=1)
        coalescer = RequestCoalescer(gate, max_batch_size=16, max_wait_ms=30)
        loop = asyncio.get_running_loop()
        holder = asyncio.ensure_future(coalescer.submit(np.full(3, 9), 1))
        await until(lambda: gate.held == 1)
        doomed = asyncio.ensure_future(
            coalescer.submit(
                np.zeros(3, dtype=int), 1, deadline=loop.time() + 0.002
            )
        )
        patient = asyncio.ensure_future(
            coalescer.submit(np.full(3, 5), 1)
        )
        with pytest.raises(DeadlineExceededError):
            await doomed
        ids, _ = await patient
        # The survivor rode a batch that no longer carried the stale
        # row: dead work never reaches the index.
        assert ids.tolist() == [15]
        assert len(recorder.batches) == 1
        assert recorder.batches[0][0].shape == (1, 3)
        assert coalescer.n_deadline_drops == 1
        gate.open()
        await holder
        await coalescer.close()

    asyncio.run(main())


def test_unexpired_deadline_is_served_normally():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=1
        )
        loop = asyncio.get_running_loop()
        ids, _ = await coalescer.submit(
            np.full(3, 2), 1, deadline=loop.time() + 10.0
        )
        assert ids.tolist() == [6]
        assert coalescer.n_deadline_drops == 0
        await coalescer.close()

    asyncio.run(main())


def test_service_ewma_is_none_until_observed():
    recorder = Recorder(delay_s=0.001)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=50
        )
        assert coalescer.ewma_service_s is None
        await asyncio.gather(
            coalescer.submit(np.zeros(3, dtype=int), 1),
            coalescer.submit(np.full(3, 1), 1),
        )
        assert coalescer.ewma_service_s is not None
        assert coalescer.ewma_service_s > 0.0
        await coalescer.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# The work-conserving flush rule
# ----------------------------------------------------------------------
def test_idle_singleton_dispatches_without_a_timer():
    """With a free slot a lone request goes out on the next tick: an
    hour-long ``max_wait_ms`` is never waited out."""
    gate = Gate()

    async def main():
        coalescer = RequestCoalescer(
            gate, max_batch_size=64, max_wait_ms=3_600_000
        )
        lone = asyncio.ensure_future(coalescer.submit(np.full(3, 2), 1))
        await until(lambda: gate.held == 1)
        assert coalescer.n_pending == 0
        assert coalescer.n_inflight == 1
        gate.open()
        ids, _ = await asyncio.wait_for(lone, timeout=5)
        assert ids.tolist() == [6]
        assert coalescer.n_inflight == 0
        await coalescer.close()

    asyncio.run(main())


def test_arrivals_during_a_busy_slot_join_one_next_batch():
    gate = Gate()

    async def main():
        coalescer = RequestCoalescer(
            gate, max_batch_size=64, max_wait_ms=3_600_000
        )
        first = asyncio.ensure_future(coalescer.submit(np.zeros(3), 1))
        await until(lambda: gate.held == 1)
        # Arrivals spread over several ticks while the slot is busy.
        late = []
        for i in range(1, 6):
            late.append(
                asyncio.ensure_future(coalescer.submit(np.full(3, i), 1))
            )
            await asyncio.sleep(0)
        await until(lambda: coalescer.n_pending == 5)
        assert gate.seen == 1  # still parked behind the busy slot
        gate.open()
        await asyncio.wait_for(asyncio.gather(first, *late), timeout=5)
        # The slot freeing flushed every parked arrival as one batch.
        assert [len(b) for b, _ in gate.inner.batches] == [1, 5]
        await coalescer.close()

    asyncio.run(main())


def test_partial_batches_in_flight_never_exceed_live_slots():
    """At most ``slots`` partial batches are in flight, with ``slots``
    read live from a pool that grows and shrinks."""

    class FakePool:
        n_workers = 2

    pool = FakePool()
    gate = Gate()

    async def wave(coalescer, n):
        tasks = []
        for i in range(n):
            tasks.append(
                asyncio.ensure_future(coalescer.submit(np.full(3, i), 1))
            )
            # One arrival per tick: each would be its own batch if
            # slots were ignored.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        return tasks

    async def main():
        coalescer = RequestCoalescer(
            gate,
            max_batch_size=64,
            max_wait_ms=3_600_000,
            slots=lambda: pool.n_workers,
        )
        tasks = await wave(coalescer, 6)
        await until(lambda: gate.held == 2)
        assert coalescer.n_inflight == 2 and coalescer.n_pending > 0
        # Grow: the next arrival sees a free slot and takes it.
        pool.n_workers = 3
        tasks += await wave(coalescer, 1)
        await until(lambda: gate.held == 3)
        assert coalescer.n_pending == 0
        # Shrink below the busy count: arrivals park until enough
        # slots free, then the backlog goes out as one batch.
        pool.n_workers = 1
        tasks += await wave(coalescer, 4)
        assert coalescer.n_inflight == 3 and coalescer.n_pending == 4
        gate.open()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=5)
        assert gate.peak == 3
        assert sum(len(b) for b, _ in gate.inner.batches) == 11
        await coalescer.close()

    asyncio.run(main())


def test_batch_parked_behind_a_hung_slot_flushes_at_max_wait():
    gate = Gate(hold=1)  # the first batch hangs until the end

    async def main():
        coalescer = RequestCoalescer(gate, max_batch_size=64, max_wait_ms=20)
        loop = asyncio.get_running_loop()
        hung = asyncio.ensure_future(coalescer.submit(np.zeros(3), 1))
        await until(lambda: gate.held == 1)
        start = loop.time()
        results = await asyncio.wait_for(
            asyncio.gather(
                coalescer.submit(np.full(3, 1), 1),
                coalescer.submit(np.full(3, 2), 1),
            ),
            timeout=5,
        )
        waited = loop.time() - start
        assert [ids.tolist() for ids, _ in results] == [[3], [6]]
        # Dispatched by the ceiling, not by the slot freeing.
        assert waited >= coalescer.max_wait_s * 0.9
        assert gate.held == 1 and not hung.done()
        assert [len(b) for b, _ in gate.inner.batches] == [2]
        gate.open()
        await hung
        await coalescer.close()

    asyncio.run(main())


def test_close_drains_parked_requests_while_every_slot_is_busy():
    gate = Gate()

    async def main():
        coalescer = RequestCoalescer(
            gate, max_batch_size=64, max_wait_ms=3_600_000
        )
        busy = asyncio.ensure_future(coalescer.submit(np.zeros(3), 1))
        await until(lambda: gate.held == 1)
        parked = [
            asyncio.ensure_future(coalescer.submit(np.full(3, i), 1))
            for i in range(1, 4)
        ]
        await until(lambda: coalescer.n_pending == 3)
        closing = asyncio.ensure_future(coalescer.close())
        # close() dispatched the parked requests despite the busy slot
        # and now waits for both batches.
        await until(lambda: gate.held == 2)
        assert coalescer.n_pending == 0 and not closing.done()
        gate.open()
        await asyncio.wait_for(closing, timeout=5)
        results = await asyncio.gather(busy, *parked)
        assert [ids.tolist() for ids, _ in results] == [[0], [3], [6], [9]]
        assert coalescer.n_inflight == 0

    asyncio.run(main())
