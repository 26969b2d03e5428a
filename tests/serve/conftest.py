"""Shared fixtures for the serving-layer suite.

The suite runs plain-asyncio (no pytest-asyncio dependency): tests
define a coroutine and run it through ``asyncio.run``.
"""

import asyncio
import contextlib
import threading

import numpy as np
import pytest

from repro.index import FerexIndex

DIMS = 8
BITS = 2


@pytest.fixture
def stored(rng):
    return rng.integers(0, 1 << BITS, size=(40, DIMS))


@pytest.fixture
def queries(rng):
    return rng.integers(0, 1 << BITS, size=(24, DIMS))


@pytest.fixture
def make_index(stored):
    """Deterministic index factory: every call yields a bit-identical
    replica (same config, same seed, same insertion order)."""

    def factory(backend="ferex", seed=11, preload=True):
        index = FerexIndex(
            dims=DIMS,
            metric="hamming",
            bits=BITS,
            backend=backend,
            bank_rows=16,
            seed=seed,
        )
        if preload:
            index.add(stored)
        return index

    return factory


@pytest.fixture
def hold_slot():
    """Async context manager keeping an unpooled server's only dispatch
    slot busy: a two-row batch whose index search blocks on a gate until
    the block exits.  Requests submitted inside the block park behind
    it, as they would behind a saturated backend."""

    @contextlib.asynccontextmanager
    async def hold(server):
        index = server.router.primary
        search = index.search
        gate = threading.Event()

        def gated(*args, **kwargs):
            # One-shot: batches after the holder search normally.
            del index.search
            gate.wait(timeout=30)
            return search(*args, **kwargs)

        async def dispatched():
            while not server.coalescer.n_inflight:
                await asyncio.sleep(0)

        index.search = gated
        rows = np.eye(2, index.dims, dtype=np.int64)
        holder = asyncio.ensure_future(server.search_many(rows, k=1))
        await asyncio.wait_for(dispatched(), timeout=5)
        try:
            yield
        finally:
            gate.set()
            await holder

    return hold
