"""Autoscaler: scripted-gauge control-logic tests plus an end-to-end
surge/drain over the wire with the real queue-depth gauge."""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import FerexServer
from repro.serve.net import Autoscaler, HttpClient, NetFrontend


class FakePool:
    """Scripted actuator: counts workers, records every resize."""

    def __init__(self, n_workers=1, fail=False):
        self.n_workers = n_workers
        self.calls = []
        self.fail = fail

    def grow(self, n=1):
        if self.fail:
            raise RuntimeError("spawn failed")
        self.n_workers += n
        self.calls.append(("grow", self.n_workers))
        return self.n_workers

    def shrink(self, n=1):
        self.n_workers -= n
        self.calls.append(("shrink", self.n_workers))
        return self.n_workers


class Gauge:
    """A scripted depth probe: yields the scripted values in order,
    then holds the last one."""

    def __init__(self, *values):
        self.values = list(values)

    def __call__(self):
        if len(self.values) > 1:
            return self.values.pop(0)
        return self.values[0]


def make_scaler(pool, gauge, **kwargs):
    defaults = dict(
        min_workers=1,
        max_workers=4,
        high_backlog_s=0.02,
        low_backlog_s=0.002,
        fallback_service_s=0.005,
        up_ticks=2,
        down_ticks=3,
    )
    defaults.update(kwargs)
    return Autoscaler(pool, gauge, **defaults)


class TestDecisionLogic:
    def test_sustained_depth_scales_up(self):
        # backlog = depth * fallback(5ms): depth 10 -> 50ms >= 20ms.
        pool = FakePool(n_workers=1)
        scaler = make_scaler(pool, Gauge(10))
        assert scaler.tick() is None  # streak 1 of 2
        assert scaler.tick() == "grow"
        assert pool.n_workers == 2
        assert scaler.n_grows == 1
        # The streak resets after a resize: growth is one worker per
        # up_ticks window, not one per tick.
        assert scaler.tick() is None
        assert scaler.tick() == "grow"
        assert pool.n_workers == 3

    def test_transient_spike_does_not_scale(self):
        pool = FakePool(n_workers=1)
        scaler = make_scaler(pool, Gauge(10, 0, 10, 0, 10, 0))
        for _ in range(6):
            scaler.tick()
        assert pool.n_workers == 1
        assert scaler.n_grows == 0

    def test_dead_band_resets_both_streaks(self):
        # depth 1 -> 5ms backlog: between low (2ms) and high (20ms).
        pool = FakePool(n_workers=2)
        scaler = make_scaler(pool, Gauge(10, 1, 10, 1, 0, 0, 1, 0, 0))
        for _ in range(9):
            scaler.tick()
        assert pool.calls == []

    def test_scale_down_needs_longer_streak(self):
        pool = FakePool(n_workers=3)
        scaler = make_scaler(pool, Gauge(0))
        assert scaler.tick() is None
        assert scaler.tick() is None
        assert scaler.tick() == "shrink"
        assert pool.n_workers == 2
        # Streak resets: the next shrink needs three more quiet ticks.
        assert scaler.tick() is None
        assert scaler.tick() is None
        assert scaler.tick() == "shrink"
        assert pool.n_workers == 1

    def test_clamped_at_max_workers(self):
        pool = FakePool(n_workers=4)
        scaler = make_scaler(pool, Gauge(50))
        for _ in range(10):
            assert scaler.tick() is None
        assert pool.n_workers == 4
        assert pool.calls == []

    def test_clamped_at_min_workers(self):
        pool = FakePool(n_workers=1)
        scaler = make_scaler(pool, Gauge(0))
        for _ in range(10):
            assert scaler.tick() is None
        assert pool.n_workers == 1

    def test_service_probe_sets_the_backlog_unit(self):
        # Same depth, slower service: 4 * 10ms = 40ms >= high.
        pool = FakePool(n_workers=1)
        scaler = make_scaler(
            pool, Gauge(4), service_probe=lambda: 0.010
        )
        scaler.tick()
        assert scaler.last_backlog_s == pytest.approx(0.040)
        assert scaler.tick() == "grow"
        # Same depth, fast service: 4 * 0.1ms -> dead band floor.
        pool = FakePool(n_workers=2)
        scaler = make_scaler(
            pool, Gauge(4), service_probe=lambda: 0.0001
        )
        for _ in range(6):
            scaler.tick()
        assert pool.calls == [("shrink", 1)]

    def test_none_service_falls_back(self):
        pool = FakePool(n_workers=1)
        scaler = make_scaler(pool, Gauge(10), service_probe=lambda: None)
        scaler.tick()
        assert scaler.last_backlog_s == pytest.approx(10 * 0.005)

    def test_pool_failure_is_recorded_not_raised(self):
        pool = FakePool(n_workers=1, fail=True)
        scaler = make_scaler(pool, Gauge(10))
        scaler.tick()
        assert scaler.tick() == "grow"  # decided, but the apply failed
        assert scaler.n_errors == 1
        assert "spawn failed" in str(scaler.last_error)
        assert scaler.n_grows == 0
        assert pool.n_workers == 1

    def test_events_and_snapshot(self):
        pool = FakePool(n_workers=1)
        scaler = make_scaler(pool, Gauge(10))
        scaler.tick()
        scaler.tick()
        snap = scaler.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["n_workers"] == 2
        assert snap["n_grows"] == 1
        assert snap["events"] == [[2, "grow", 2]]

    def test_validation(self):
        pool = FakePool()
        with pytest.raises(ValueError):
            Autoscaler(pool, Gauge(0), min_workers=0)
        with pytest.raises(ValueError):
            Autoscaler(pool, Gauge(0), min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            Autoscaler(
                pool, Gauge(0), high_backlog_s=0.01, low_backlog_s=0.02
            )
        with pytest.raises(ValueError):
            Autoscaler(pool, Gauge(0), up_ticks=0)
        with pytest.raises(ValueError):
            Autoscaler(pool, Gauge(0), interval_s=0.0)


def test_surge_grows_and_drain_shrinks_over_the_wire(
    make_index, queries, hold_slot
):
    """The acceptance path: live wire traffic builds real queue depth,
    the running control loop grows the pool; after the drain it shrinks
    back — and every request is answered exactly once, bit-identically."""

    async def main():
        index = make_index()
        reference = index.search(queries, k=3)
        # A busy slot plus a wide flush ceiling guarantee a sustained
        # queue-depth plateau while the burst is parked.
        async with FerexServer(
            index, max_batch_size=256, max_wait_ms=80.0, cache_size=0
        ) as server:
            pool = FakePool(n_workers=1)
            scaler = Autoscaler(
                pool,
                depth_probe=lambda: server.stats.coalescer_queue_depth,
                service_probe=None,
                min_workers=1,
                max_workers=3,
                high_backlog_s=0.02,
                low_backlog_s=0.001,
                fallback_service_s=0.005,
                up_ticks=2,
                down_ticks=2,
                interval_s=0.005,
            )
            async with NetFrontend(
                server, autoscaler=scaler
            ) as frontend:
                clients = [
                    await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    )
                    for _ in range(len(queries))
                ]
                try:
                    async with hold_slot(server):
                        responses = await asyncio.gather(
                            *(
                                client.request(
                                    "POST",
                                    "/v1/search",
                                    json_body={
                                        "query": queries[row].tolist(),
                                        "k": 3,
                                    },
                                )
                                for row, client in enumerate(clients)
                            )
                        )
                finally:
                    for client in clients:
                        await client.close()
                # The surge grew the pool...
                assert scaler.n_grows >= 1
                assert any(
                    action == "grow" for action, _ in pool.calls
                )
                # ...never past the clamp...
                assert max(count for _, count in pool.calls) <= 3
                # ...and the drain shrinks it back to the floor.
                loop = asyncio.get_running_loop()
                give_up = loop.time() + 5.0
                while pool.n_workers > 1 and loop.time() < give_up:
                    await asyncio.sleep(0.01)
                assert pool.n_workers == 1
                assert scaler.n_shrinks >= 1
                # No request dropped, duplicated or wrong: one answer
                # per query, each bit-identical to direct search.
                assert len(responses) == len(queries)
                for row, response in enumerate(responses):
                    assert response.status == 200
                    payload = response.json()
                    assert payload["ids"] == reference.ids[row].tolist()
                    assert (
                        np.asarray(payload["distances"])
                        == reference.distances[row]
                    ).all()

    asyncio.run(main())


def test_start_stop_lifecycle():
    async def main():
        pool = FakePool(n_workers=1)
        scaler = make_scaler(pool, Gauge(10), interval_s=0.005)
        task = scaler.start()
        with pytest.raises(RuntimeError, match="already running"):
            scaler.start()
        loop = asyncio.get_running_loop()
        give_up = loop.time() + 5.0
        while scaler.n_grows == 0 and loop.time() < give_up:
            await asyncio.sleep(0.005)
        await scaler.stop()
        assert task.done()
        assert scaler.n_grows >= 1
        ticks = scaler.n_ticks
        await asyncio.sleep(0.03)
        assert scaler.n_ticks == ticks  # the loop really stopped

    asyncio.run(main())
