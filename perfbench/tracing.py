"""Spans around calls into each layer, and the self-time arithmetic.

The program is not instrumented: :func:`install` wraps public (and a
few well-known private) entry points of each layer from the outside and
records one span per call while :attr:`Tracer.on` is set.  A span is
``(trace, name, start, end, rows)``; ``trace`` is the id of the request
that caused it, or a tuple of ids when one call serves several requests
(a coalesced micro-batch).  The current trace id rides a
:class:`contextvars.ContextVar`, which asyncio tasks copy at creation;
executor threads get it through :class:`ContextExecutor`.

Self time follows the flame-graph rule: within a request's end-to-end
interval each instant is charged to the highest-priority span covering
it (:data:`PRIORITY`, which orders the layers from the wire inwards),
and instants no span covers are ``untraced``.
"""

from __future__ import annotations

import contextvars
import functools
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

#: Trace id of the request the running code serves.
TRACE: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_trace", default=None
)

#: Stages from the wire inwards; a later entry wins an instant.
PRIORITY = (
    "net.transport",
    "gen.late",
    "frontend",
    "protocol.decode",
    "protocol.encode",
    "server",
    "server.write",
    "coalescer",
    "router.write_wait",
    "router.write",
    "server.dispatch",
    "router.read_wait",
    "cache",
    "pool.search",
    "pool.republish",
    "index.search",
    "index.write",
    "routing.search",
    "crossbar",
    "kernel.compile",
    "kernel.scores",
)
_RANK = {name: i for i, name in enumerate(PRIORITY)}

#: Pool batches kept for the in-process replay (the rest are counted).
MAX_REPLAY_BATCHES = 64


class ContextExecutor(ThreadPoolExecutor):
    """Thread pool that runs each job in the submitter's context, so
    spans recorded on executor threads keep their trace id."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    """In-memory span and counter store (written out at the end)."""

    def __init__(self):
        self.on = False
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: id(query) -> trace id, for coalescer submits in flight.
        self.owner: Dict[int, object] = {}
        #: Pool batches recorded for the in-process replay.
        self.pool_batches: List[tuple] = []

    def record(self, name, start, end, rows=0, trace=None):
        if self.on:
            trace = TRACE.get() if trace is None else trace
            self.spans.append((trace, name, start, end, rows))

    def add(self, name, value=1.0):
        if self.on:
            self.counts[name] += value

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.pool_batches = []


def _rows(args) -> int:
    """Query rows in the first array argument: its leading dimension
    when 2-D, 1 for a single vector, 0 without one."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            return int(arg.shape[0]) if arg.ndim == 2 else 1
    return 0


def _wrap_sync(tracer, owner, attr, name, after=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return original(*args, **kwargs)
        start = time.perf_counter()
        result = original(*args, **kwargs)
        end = time.perf_counter()
        tracer.record(name, start, end, _rows(args))
        if after is not None:
            after(args, result, start, end)
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, original


def _wrap_async(tracer, owner, attr, name):
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        if not tracer.on:
            return await original(*args, **kwargs)
        start = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            tracer.record(name, start, time.perf_counter(), _rows(args))

    setattr(owner, attr, wrapper)
    return owner, attr, original


def install(tracer: Tracer):
    """Wrap every layer's entry points; returns an ``uninstall``
    callable that restores the originals.  Must run before the
    front-end is constructed (it binds its route handlers then)."""
    from repro.arch import crossbar
    from repro.core import kernel
    from repro.index import FerexIndex, RoutedBackend
    from repro.serve import cache, coalescer, procpool, router, server
    from repro.serve.net import frontend

    Front = frontend.NetFrontend
    Server = server.FerexServer
    Coalescer = coalescer.RequestCoalescer
    Router = router.ReplicaRouter
    Array = crossbar.FeReXArray
    saved = []

    def wrap(owner, attr, name, after=None):
        saved.append(_wrap_sync(tracer, owner, attr, name, after))

    def wrap_async(owner, attr, name):
        saved.append(_wrap_async(tracer, owner, attr, name))

    # net.protocol / net.frontend ------------------------------------
    original_read_request = frontend.read_request

    async def read_request(reader):
        request = await original_read_request(reader)
        if request is not None and "x-trace-id" in request.headers:
            TRACE.set(int(request.headers["x-trace-id"]))
            tracer.record("net.head", *(2 * (time.perf_counter(),)))
        return request

    frontend.read_request = read_request
    saved.append((frontend, "read_request", original_read_request))
    for attr in ("json_body", "pack_result_frame", "write_response"):
        wrap(frontend, attr, "protocol.encode")
    wrap(frontend, "_wire_distances", "protocol.encode")
    wrap_async(Front, "_read_json", "protocol.decode")
    wrap_async(Front, "_read_binary_2d", "protocol.decode")
    wrap_async(Front, "_handle_search", "frontend")
    wrap_async(Front, "_handle_search_batch", "frontend")
    wrap_async(Front, "_handle_add", "frontend")
    wrap_async(Front, "_handle_remove", "frontend")

    # serve.server / cache / coalescer / router ----------------------
    wrap_async(Server, "search", "server")
    wrap_async(Server, "search_many", "server")
    wrap_async(Server, "_dispatch", "server.dispatch")
    wrap_async(Server, "add", "server.write")
    wrap_async(Server, "remove", "server.write")
    for attr in ("get", "peek", "put", "clear"):
        wrap(cache.QueryCache, attr, "cache")
    wrap_async(Router, "acquire_read", "router.read_wait")
    wrap_async(Router, "write", "router.write_wait")
    wrap_async(Router, "_apply_to_fleet", "router.write")

    original_submit = Coalescer.submit

    @functools.wraps(original_submit)
    async def submit(self, query, k, deadline=None):
        if not tracer.on:
            return await original_submit(self, query, k, deadline)
        tracer.owner[id(query)] = TRACE.get()
        start = time.perf_counter()
        try:
            return await original_submit(self, query, k, deadline)
        finally:
            tracer.record("coalescer", start, time.perf_counter())
            tracer.owner.pop(id(query), None)

    Coalescer.submit = submit
    saved.append((Coalescer, "submit", original_submit))

    original_run_batch = Coalescer._run_batch

    @functools.wraps(original_run_batch)
    async def run_batch(self, group, k, dispatch=None):
        if not tracer.on:
            return await original_run_batch(self, group, k, dispatch)
        owners = tuple(tracer.owner.get(id(p.query)) for p in group)
        TRACE.set(owners)
        tracer.add("coalescer.flushes")
        tracer.add("coalescer.rows", len(group))
        return await original_run_batch(self, group, k, dispatch)

    Coalescer._run_batch = run_batch
    saved.append((Coalescer, "_run_batch", original_run_batch))

    # serve.procpool -------------------------------------------------
    def pool_after(args, result, start, end):
        # The server dispatches ``pool.search(queries, k)`` positionally.
        _, queries, k = args
        tracer.add("pool.rows", len(queries))
        if len(tracer.pool_batches) < MAX_REPLAY_BATCHES:
            tracer.pool_batches.append((np.array(queries), int(k)))

    wrap(procpool.ProcReplicaPool, "search", "pool.search", pool_after)
    wrap(procpool.ProcReplicaPool, "republish", "pool.republish")

    # index / index.routing ------------------------------------------
    seen_generation: Dict[int, int] = {}

    def index_after(args, result, start, end):
        index = args[0]
        generation = index.write_generation
        if seen_generation.get(id(index), generation) != generation:
            tracer.add("index.post_write_searches")
            tracer.add("index.post_write_search_s", end - start)
        seen_generation[id(index)] = generation

    wrap(FerexIndex, "search", "index.search", index_after)
    wrap(FerexIndex, "add", "index.write")
    wrap(FerexIndex, "remove", "index.write")

    def routing_after(args, result, start, end):
        info = args[0].last_routing or {}
        tracer.add(
            "routing.clusters",
            info.get("probed_clusters_mean", 0.0) * _rows(args[1:]),
        )
        tracer.add("routing.queries", _rows(args[1:]))

    wrap(RoutedBackend, "search", "routing.search", routing_after)

    # arch.crossbar / core.kernel ------------------------------------
    for attr in ("search_k_batch_values", "search_batch_values"):
        wrap(Array, attr, "crossbar")
    wrap(Array, "_compile_kernel", "kernel.compile")

    def kernel_after(args, result, start, end):
        lut, value_index = args[0], args[1]
        n, cells = np.shape(value_index)
        terms = lut.n_values - 1
        tracer.add("kernel.calls")
        # dgemm formulation: one (n, cells) @ (cells, rows) product
        # per non-zero query value; bytes = operands + output, float64.
        tracer.add("kernel.ops", 2.0 * n * cells * lut.rows * terms)
        tracer.add(
            "kernel.bytes",
            8.0 * (n * cells * (1 + terms) + terms * cells * lut.rows)
            + 8.0 * n * lut.rows,
        )

    wrap(kernel.LUTKernel, "scores", "kernel.scores", kernel_after)

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def exclusive(start: float, end: float, spans) -> Dict[str, float]:
    """Charge each instant of ``[start, end]`` to the highest-priority
    span covering it; returns seconds per stage plus ``untraced``.

    ``spans`` are ``(name, t0, t1)``; unknown names and spans outside
    the interval are ignored, partial overlaps are clipped.
    """
    events = []
    for name, t0, t1 in spans:
        rank = _RANK.get(name)
        if rank is None:
            continue
        t0, t1 = max(t0, start), min(t1, end)
        if t1 > t0:
            events.append((t0, 1, rank))
            events.append((t1, -1, rank))
    events.sort()
    out: Dict[str, float] = defaultdict(float)
    active = [0] * len(PRIORITY)
    cursor = start
    for t, delta, rank in events:
        if t > cursor:
            top = _top(active)
            out["untraced" if top is None else PRIORITY[top]] += t - cursor
            cursor = t
        active[rank] += delta
    if end > cursor:
        out["untraced"] += end - cursor
    return dict(out)


def _top(active) -> Optional[int]:
    for rank in range(len(active) - 1, -1, -1):
        if active[rank]:
            return rank
    return None


def group_spans(spans) -> Dict[object, list]:
    """Spans per request id; a batch span counts for each request it
    served."""
    by_trace: Dict[object, list] = defaultdict(list)
    for trace, name, t0, t1, _ in spans:
        members = trace if isinstance(trace, tuple) else (trace,)
        for member in members:
            if member is not None:
                by_trace[member].append((name, t0, t1))
    return by_trace


def add_transport(root: tuple, spans: list) -> list:
    """Wire requests: the time from the client's send to the server's
    parsed head, and from the server's last span to the client's
    receive, is transport."""
    start, end = root
    heads = [t0 for name, t0, _ in spans if name == "net.head"]
    served = [t1 for name, _, t1 in spans if name != "net.head"]
    extra = []
    if heads:
        extra.append(("net.transport", start, min(heads)))
    if served:
        extra.append(("net.transport", max(served), end))
    return spans + extra


def synthesize_pool_children(spans, replay: Dict[str, float]) -> list:
    """Pool workers are out of reach of the wrappers: give each
    ``pool.search`` span nested children whose lengths are the replayed
    in-process per-row self times (``replay``: stage -> seconds/row),
    so the pool's own self time is its overhead."""
    out = list(spans)
    inner = [s for s in PRIORITY if s in replay]
    for trace, name, t0, t1, rows in spans:
        if name != "pool.search":
            continue
        # Nested from t0: each deeper stage is a prefix of its parent.
        remaining = sum(replay[s] for s in inner) * rows
        for stage in inner:
            length = min(remaining, t1 - t0)
            out.append((trace, stage, t0, t0 + length, rows))
            remaining -= replay[stage] * rows
    return out
