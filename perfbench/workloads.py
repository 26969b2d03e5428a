"""The three workloads: set-up, timed phases, answer checks, metrics.

``run_wire`` (``hdc_json``, ``knn_batch``) and ``run_routed`` return a
:class:`Run`.  With ``trace=False`` it carries the end-to-end metrics; with
``trace=True`` the timed phase is split into an untraced and a traced
half and it carries the per-layer table instead.  Answers are checked
after the timed phases, against a reference index that replays the
same writes.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import gen
import tracing
from server_proc import build_hdc_index, layer_snapshots, peak_rss_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"hdc_json": 7, "knn_batch": 3, "routed_mixed": 5}

#: Per-layer metrics: name -> (unit, better).  Time metrics named
#: ``<stage>_ms`` without a ``per call`` note are a stage's mean self
#: time per read request (a wire frame counts as one request).
PER_LAYER = {
    "net.transport_ms": ("ms", "lower"),
    "protocol.decode_ms": ("ms", "lower"),
    "protocol.encode_ms": ("ms", "lower"),
    "protocol.bytes_in": ("B/req", "lower"),
    "protocol.bytes_out": ("B/req", "lower"),
    "frontend.self_ms": ("ms", "lower"),
    "admission.shed": ("count", "lower"),
    "server.self_ms": ("ms", "lower"),
    "server.dispatch_ms": ("ms", "lower"),
    "cache.self_ms": ("ms", "lower"),
    "cache.hit_ratio": ("share", "higher"),
    "cache.dispatch_hits": ("count", "higher"),
    "cache.clears": ("count", "lower"),
    "coalescer.wait_ms": ("ms", "lower"),
    "coalescer.batch_rows": ("rows", "higher"),
    "coalescer.flushes": ("count", "lower"),
    "router.read_wait_ms": ("ms", "lower"),
    "router.write_wait_ms": ("ms", "lower"),
    "router.write_ms": ("ms", "lower"),
    "pool.search_ms": ("ms", "lower"),
    "pool.overhead_ms": ("ms", "lower"),
    "pool.republish_ms": ("ms", "lower"),
    "pool.slab_dispatches": ("count", "higher"),
    "pool.pickle_fallbacks": ("count", "lower"),
    "pool.spawn_s": ("s", "lower"),
    "index.search_ms": ("ms", "lower"),
    "index.rows_per_call": ("rows", "higher"),
    "index.write_ms": ("ms", "lower"),
    "index.post_write_search_ms": ("ms", "lower"),
    "index.load_s": ("s", "lower"),
    "routing.search_ms": ("ms", "lower"),
    "routing.clusters_per_query": ("count", "lower"),
    "kernel.scores_ms": ("ms", "lower"),
    "kernel.calls": ("1/req", "lower"),
    "kernel.compiles": ("count", "lower"),
    "kernel.compile_ms": ("ms", "lower"),
    "kernel.ops": ("op/req", "lower"),
    "kernel.bytes": ("B/req", "lower"),
    "crossbar.self_ms": ("ms", "lower"),
    "gen.late_p99_ms": ("ms", "lower"),
    "trace.untraced_ms": ("ms", "lower"),
    "trace.coverage": ("share", "higher"),
    "trace.overhead": ("share", "lower"),
    "latency.p99_ms": ("ms", "lower"),
    "latency.write_p50_ms": ("ms", "lower"),
    "latency.write_p99_ms": ("ms", "lower"),
}

#: Stage (tracing.PRIORITY name) -> per-layer metric of its mean self
#: time per read request.
STAGE_METRIC = {
    "net.transport": "net.transport_ms",
    "protocol.decode": "protocol.decode_ms",
    "protocol.encode": "protocol.encode_ms",
    "frontend": "frontend.self_ms",
    "server": "server.self_ms",
    "server.dispatch": "server.dispatch_ms",
    "cache": "cache.self_ms",
    "coalescer": "coalescer.wait_ms",
    "router.read_wait": "router.read_wait_ms",
    "index.search": "index.search_ms",
    "routing.search": "routing.search_ms",
    "crossbar": "crossbar.self_ms",
    "kernel.scores": "kernel.scores_ms",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Run:
    metrics: Dict[str, float] = field(default_factory=dict)
    #: phase -> [attempted, failed]
    phases: Dict[str, List[int]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    table: List[tuple] = field(default_factory=list)

    def count(self, phase: str, attempted: int, failed: int) -> None:
        entry = self.phases.setdefault(phase, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def pct_ms(durations, q: float) -> float:
    return ms(float(np.percentile(durations, q))) if len(durations) else 0.0


def exact_distances(metric: str, queries, stored) -> np.ndarray:
    """(n, rows) ground-truth distances, in row chunks."""
    queries = np.asarray(queries, dtype=np.int16)
    stored = np.asarray(stored, dtype=np.int16)
    out = np.empty((len(queries), len(stored)), dtype=np.int64)
    step = max(1, (1 << 22) // max(1, len(queries) * stored.shape[1]))
    for lo in range(0, len(stored), step):
        diff = queries[:, None, :] - stored[None, lo : lo + step, :]
        if metric == "hamming":
            out[:, lo : lo + step] = (diff != 0).sum(axis=2)
        else:
            out[:, lo : lo + step] = np.abs(diff).sum(axis=2)
    return out


def recall_at_k(metric, queries, live_ids, live_rows, served_ids, k):
    """Tie-tolerant recall@k: a served id counts when its exact
    distance is within the exact k-th nearest distance."""
    dist = exact_distances(metric, queries, live_rows)
    kth = np.sort(dist, axis=1)[:, k - 1]
    column = {int(i): c for c, i in enumerate(live_ids)}
    hits = 0
    for row, ids in enumerate(served_ids):
        cols = [column[int(i)] for i in ids if int(i) in column]
        hits += int((dist[row, cols] <= kth[row]).sum())
    return hits / (k * len(queries))


class LiveSet:
    """The stored rows the index should hold, mirrored beside it."""

    def __init__(self, rows: np.ndarray):
        self.rows = {i: row for i, row in enumerate(rows)}

    def arrays(self):
        ids = np.fromiter(self.rows, dtype=np.int64)
        return ids, np.stack([self.rows[int(i)] for i in ids])


def answers_equal(expected, ids, distances) -> bool:
    return np.array_equal(expected.ids, ids) and np.array_equal(
        expected.distances, distances
    )


# ----------------------------------------------------------------------
# Wire plumbing
# ----------------------------------------------------------------------
class Conn:
    """One keep-alive HTTP/1.1 connection (Content-Length bodies).

    The load generator's own client, not the program's
    ``repro.serve.net.client``: a change to the program must not move
    the client-side half of the latency it is measured by.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def post(self, path, body, content_type, trace, accept=None):
        head = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\nX-Trace-Id: {trace}\r\n"
        )
        if accept:
            head += f"Accept: {accept}\r\n"
        start = time.perf_counter()
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        status = int(raw.split(b" ", 2)[1])
        length = 0
        for line in raw.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload, start, time.perf_counter()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServerHandle:
    """The server process of a wire workload and its control pipe."""

    def __init__(self, config: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_proc.py"), json.dumps(config)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready = self._read()
        self.port = self.ready["port"]
        self.worker_pids = list(self.ready["worker_pids"])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait(timeout=30)
            raise RuntimeError(f"server process exited with code {code}")
        return json.loads(line)

    def command(self, **payload) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self, run: Run, prefix: str) -> dict:
        """Shut the server down; record leaks and a bad exit as
        problems."""
        reply = self.command(cmd="close")
        self.proc.stdin.close()
        code = self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if code != 0:
            run.problems.append(f"server process exited with {code}")
        check_clean(run, self.worker_pids, prefix)
        return reply

    def kill(self) -> None:
        for pid in self.worker_pids:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def shm_segments(prefix: str) -> List[str]:
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def check_clean(run: Run, pids, prefix: str) -> None:
    """Pool workers gone and no shared-memory segment left behind."""
    deadline = time.perf_counter() + 10.0
    while time.perf_counter() < deadline:
        if not any(pid_alive(p) for p in pids):
            break
        time.sleep(0.05)
    for pid in pids:
        if pid_alive(pid):
            run.problems.append(f"pool worker {pid} outlived the server")
    leaked = shm_segments(prefix)
    if leaked:
        run.problems.append(f"leaked shared memory: {leaked}")


async def closed_loop(port, n_conn, seconds, next_read, trace_ids):
    """``n_conn`` keep-alive clients, each sending its next request as
    soon as the previous answer arrives, until ``seconds`` pass."""
    conns = [await Conn.open(port) for _ in range(n_conn)]
    sent = []
    stop_at = time.perf_counter() + seconds

    async def client(conn):
        while time.perf_counter() < stop_at:
            trace = next(trace_ids)
            path, body, ctype, accept, queries = next_read()
            t0 = time.perf_counter()
            try:
                status, payload, t0, t1 = await conn.post(
                    path, body, ctype, trace, accept
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                # A dropped connection fails this read and ends the
                # client; the check counts it.
                sent.append((trace, queries, -1, b"", t0, t0))
                return
            sent.append((trace, queries, status, payload, t0, t1))

    start = time.perf_counter()
    try:
        await asyncio.gather(*(client(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return sent, start, time.perf_counter()


# ----------------------------------------------------------------------
# Wire workloads (hdc_json, knn_batch)
# ----------------------------------------------------------------------
class WireSpec:
    """What differs between the two wire workloads."""

    def __init__(self, workload: str, seed: int):
        from repro.serve.net.protocol import (
            BINARY_CONTENT_TYPE,
            pack_array_frame,
            unpack_result_frame,
        )

        self.workload = workload
        self.cfg = gen.CONFIGS[workload]
        self.seed = seed
        self.binary = BINARY_CONTENT_TYPE
        self.pack = pack_array_frame
        self.unpack = unpack_result_frame
        dims, bits = self.cfg["dims"], self.cfg["bits"]
        self.fresh = gen.FreshQueries(seed, "fresh-queries", dims, bits)
        self.warm = gen.FreshQueries(seed, "warm-queries", dims, bits)

    def read_request(self, stream=None):
        """(path, body, content type, accept, queries) of one read."""
        stream = stream or self.fresh
        k = self.cfg["k"]
        if self.workload == "hdc_json":
            query = stream.take(1)
            body = json.dumps({"query": query[0].tolist(), "k": k}).encode()
            return "/v1/search", body, "application/json", None, query
        queries = stream.take(self.cfg["frame_rows"])
        body = self.pack(queries, k=k)
        return "/v1/search_batch", body, self.binary, self.binary, queries

    def parse(self, payload: bytes):
        """(ids, distances) as (rows, k) arrays."""
        if self.workload == "hdc_json":
            answer = json.loads(payload)
            distances = [
                np.inf if d is None else d for d in answer["distances"]
            ]
            return (
                np.asarray([answer["ids"]], dtype=np.int64),
                np.asarray([distances], dtype=float),
            )
        return self.unpack(payload)


def run_wire(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    from repro.index import FerexIndex

    spec = WireSpec(workload, seed)
    cfg = spec.cfg
    run = Run()
    stored = gen.uniform_rows(
        seed,
        f"{workload}-stored",
        cfg["rows"],
        cfg["dims"],
        cfg["bits"],
    )
    config = {"workload": workload, "seed": seed, "trace": trace}
    if workload == "knn_batch":
        index = FerexIndex(
            dims=cfg["dims"],
            metric=cfg["metric"],
            bits=cfg["bits"],
            bank_rows=cfg["bank_rows"],
        )
        index.add(stored)
        WORK.mkdir(parents=True, exist_ok=True)
        path = WORK / f"knn-{os.getpid()}.npz"
        index.save(path)
        config["index_path"] = str(path)
        reference = FerexIndex.load(path)
        del index
    else:
        reference = build_hdc_index(seed)
        path = None
    n_conn = nproc()
    setups: List[float] = []
    handle: Optional[ServerHandle] = None
    prefix = ""
    try:
        for attempt in range(SETUP_REPEATS[workload]):
            prefix = f"pfb{os.getpid()}s{attempt}"
            config["shm_prefix"] = prefix
            handle = ServerHandle(config)
            warm_up(handle, spec, n_conn, run)
            setups.append(time.perf_counter() - handle.ready["t_first_call"])
            if attempt < SETUP_REPEATS[workload] - 1:
                handle.close(run, prefix)
                handle = None
        run.metrics["setup_s"] = statistics.median(setups)
        run.metrics["index.load_s"] = handle.ready["load_s"]
        run.metrics["pool.spawn_s"] = handle.ready["spawn_s"]
        session = wire_session(handle, spec, n_conn, seconds, trace, run)
        final = handle.close(run, prefix)
        handle = None
    finally:
        if handle is not None:
            handle.kill()
            check_clean(run, handle.worker_pids, prefix)
        if path is not None:
            path.unlink(missing_ok=True)
    admission = final["final"]["admission"]
    net = final["final"]["net"]
    sheds = admission["n_rejected"] + net["n_shed_429"] + net["n_shed_503"]
    if sheds:
        run.problems.append(f"{sheds} requests shed")
    run.metrics["rss_mb"] = session.rss_kb / 1024.0
    check_wire(run, spec, reference, stored, session)
    if trace:
        layer_table(run, session, wire=True)
    return run


def warm_up(handle, spec, n_conn, run) -> None:
    """Rounds of ``n_conn`` concurrent reads until every pool worker
    has served (so each compiled its kernels); two rounds unpooled."""

    async def round_trip():
        conns = [await Conn.open(handle.port) for _ in range(n_conn)]
        requests = [spec.read_request(spec.warm) for _ in conns]
        try:
            replies = await asyncio.gather(
                *(
                    c.post(path, body, ctype, 0, accept)
                    for c, (path, body, ctype, accept, _) in zip(
                        conns, requests
                    )
                )
            )
        finally:
            for conn in conns:
                await conn.close()
        bad = sum(status != 200 for status, *_ in replies)
        run.count("warmup", len(replies), bad)

    for attempt in range(12):
        asyncio.run(round_trip())
        if handle.worker_pids:
            if min(handle.command(cmd="pool")["served"]) > 0:
                return
        elif attempt >= 1:
            return
    run.problems.append("warm-up did not reach every pool worker")


@dataclass
class Session:
    """One serving session's timed ops, as the load generator saw them
    (the open loop fills the same shape for the per-layer table)."""

    reads: list  # (trace, queries, status, payload, t0, t1)
    writes: list  # (trace, kind, status, payload, t0, t1, row)
    recall: tuple  # (queries, status, payload)
    start: float
    end: float
    report: Optional[dict] = None
    untraced_p50_s: float = 0.0
    #: Reads of the untraced first half of a traced run (checked too).
    untraced: list = field(default_factory=list)
    rss_kb: int = 0


def wire_session(handle, spec, n_conn, seconds, trace, run) -> Session:
    cfg = spec.cfg
    trace_ids = itertools.count(1)
    untraced: list = []
    untraced_p50_s = 0.0
    if trace:
        # Untraced first half: the reference for the tracing overhead.
        untraced, _, _ = asyncio.run(
            closed_loop(
                handle.port, n_conn, seconds / 2, spec.read_request, trace_ids
            )
        )
        untraced_p50_s = float(np.median([r[5] - r[4] for r in untraced]))
        handle.command(cmd="trace", on=True)
        seconds = seconds / 2
    reads, start, end = asyncio.run(
        closed_loop(handle.port, n_conn, seconds, spec.read_request, trace_ids)
    )
    # Peak RSS through set-up and the timed reads: the post-write
    # recompile transient of a pool worker depends on collector timing.
    rss_kb = handle.command(cmd="rss")["rss_kb"]
    writes = asyncio.run(write_probe(handle.port, spec, trace_ids))
    report = handle.command(cmd="report") if trace else None

    async def recall():
        conn = await Conn.open(handle.port)
        try:
            queries = gen.uniform_rows(
                gen.CORPUS_SEED,
                "recall",
                cfg["recall_queries"],
                cfg["dims"],
                cfg["bits"],
            )
            status, payload, _, _ = await conn.post(
                "/v1/search_batch",
                spec.pack(queries, k=10),
                spec.binary,
                0,
                spec.binary,
            )
        finally:
            await conn.close()
        return queries, status, payload

    return Session(
        reads=reads,
        writes=writes,
        recall=asyncio.run(recall()),
        start=start,
        end=end,
        report=report,
        untraced_p50_s=untraced_p50_s,
        untraced=untraced,
        rss_kb=rss_kb,
    )


async def write_probe(port, spec, trace_ids):
    """Sequential 1-row writes over JSON, alternating an add and the
    remove of the row just added."""
    rows = gen.uniform_rows(
        spec.seed,
        "write-rows",
        spec.cfg["write_probe_ops"],
        spec.cfg["dims"],
        spec.cfg["bits"],
    )
    conn = await Conn.open(port)
    out = []
    last_id = None
    try:
        for i, row in enumerate(rows):
            trace = next(trace_ids)
            if i % 2 == 0:
                body = {"vectors": [row.tolist()]}
                path, kind = "/v1/add", "add"
            else:
                body = {"ids": [last_id]}
                path, kind = "/v1/remove", "remove"
            status, payload, t0, t1 = await conn.post(
                path, json.dumps(body).encode(), "application/json", trace
            )
            if kind == "add" and status == 200:
                last_id = json.loads(payload)["ids"][0]
            out.append((trace, kind, status, payload, t0, t1, row))
    finally:
        await conn.close()
    return out


def check_wire(run: Run, spec, reference, stored, session) -> None:
    """Every answer against direct ``FerexIndex.search``; e2e metrics."""
    cfg = spec.cfg
    k = cfg["k"]
    limit = cfg["read_limit_ms"] / 1000.0
    ok_rows = 0
    in_slo = 0
    attempted = 0
    latencies = []
    batch = []

    def flush():
        nonlocal ok_rows, in_slo
        if not batch:
            return
        expected = reference.search(np.concatenate([b[1] for b in batch]), k)
        row = 0
        for _, queries, ids, distances, latency in batch:
            n = len(queries)
            if ids is not None and ids.shape == (n, k):
                good = int(
                    (
                        (ids == expected.ids[row : row + n]).all(axis=1)
                        & (
                            distances == expected.distances[row : row + n]
                        ).all(axis=1)
                    ).sum()
                )
                ok_rows += good
                in_slo += good if latency <= limit else 0
            row += n
        batch.clear()

    timed = len(session.untraced)
    for i, read in enumerate(session.untraced + session.reads):
        trace, queries, status, payload, t0, t1 = read
        attempted += len(queries)
        ids = distances = None
        if status == 200:
            try:
                ids, distances = spec.parse(payload)
            except (ValueError, KeyError, TypeError):
                ids = distances = None
            if i >= timed:
                latencies.append(t1 - t0)
        batch.append((trace, queries, ids, distances, t1 - t0))
        if sum(len(b[1]) for b in batch) >= 1024:
            flush()
    flush()
    run.count("timed", attempted, attempted - ok_rows)
    timed_rows = sum(len(r[1]) for r in session.reads if r[2] == 200)
    run.metrics["qps"] = timed_rows / (session.end - session.start)
    run.metrics["p50_ms"] = pct_ms(latencies, 50)
    run.metrics["latency.p99_ms"] = pct_ms(latencies, 99)
    run.metrics["slo_share"] = in_slo / max(1, attempted)

    # Writes: the reference replays them; ids must agree.
    live = LiveSet(stored)
    write_latencies = []
    bad = 0
    last = None
    for _, kind, status, payload, t0, t1, row in session.writes:
        write_latencies.append(t1 - t0)
        if status != 200:
            bad += 1
            continue
        answer = json.loads(payload)
        if kind == "add":
            last = int(reference.add(row[None])[0])
            bad += answer["ids"] != [last]
            live.rows[last] = row
        elif last is None:
            bad += 1
        else:
            bad += answer["removed"] != 1 or reference.remove([last]) != 1
            live.rows.pop(last)
            last = None
    run.count("writes", len(session.writes), bad)
    run.metrics["latency.write_p50_ms"] = pct_ms(write_latencies, 50)
    run.metrics["latency.write_p99_ms"] = pct_ms(write_latencies, 99)

    queries, status, payload = session.recall
    ok = False
    if status == 200:
        ids, distances = spec.unpack(payload)
        ok = answers_equal(reference.search(queries, 10), ids, distances)
        live_ids, live_rows = live.arrays()
        run.metrics["recall_at_10"] = recall_at_k(
            cfg["metric"], queries, live_ids, live_rows, ids, 10
        )
    run.count("recall", len(queries), 0 if ok else len(queries))


# ----------------------------------------------------------------------
# routed_mixed (in-process, open loop)
# ----------------------------------------------------------------------
def build_routed(stored):
    from repro.index import FerexIndex

    cfg = gen.CONFIGS["routed_mixed"]
    index = FerexIndex(
        dims=cfg["dims"],
        metric=cfg["metric"],
        bits=cfg["bits"],
        backend="routed",
        backend_options={
            "n_clusters": cfg["n_clusters"],
            "top_p": cfg["top_p"],
        },
    )
    index.add(stored)
    return index


class OpenLoop:
    """Poisson arrivals from one coroutine scheduler; every op is a task
    timed from its due time."""

    def __init__(self, server, inputs):
        self.server = server
        self.inputs = inputs
        self.k = gen.CONFIGS["routed_mixed"]["k"]
        self.writes_started = 0
        self.writes_done = 0
        self.added: Dict[int, asyncio.Future] = {}
        #: reads: (op no, rank, due, issued, done, gen lo, gen hi, ids,
        #: distances); writes: (op no, kind, due, issued, done, id, ok)
        self.reads: list = []
        self.writes: list = []
        self.write_order: list = []  # (kind, add no) as applied

    async def run(self, ops, first_no: int):
        if not ops:
            return
        loop = asyncio.get_running_loop()
        base = time.perf_counter() + 0.02 - ops[0].due
        tasks = []
        for n, op in enumerate(ops, start=first_no):
            due = base + op.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(self.one(n, op, due)))
        await asyncio.gather(*tasks)

    async def one(self, n, op, due):
        tracing.TRACE.set(n)
        issued = time.perf_counter()
        if op.kind == "read":
            lo = self.writes_done
            try:
                out = await self.server.search(
                    self.inputs.distinct[op.arg], k=self.k
                )
                ids, distances = out.ids, out.distances
            except Exception:
                ids = distances = None
            done = time.perf_counter()
            hi = self.writes_started
            self.reads.append(
                (n, op.arg, due, issued, done, lo, hi, ids, distances)
            )
            return
        if op.kind == "add":
            self.added[op.arg] = asyncio.get_running_loop().create_future()
            self.write_order.append(("add", op.arg))
            self.writes_started += 1
            try:
                new = await self.server.add(
                    self.inputs.write_rows[op.arg][None]
                )
                row_id, ok = int(new[0]), True
            except Exception:
                row_id, ok = -1, False
            self.added[op.arg].set_result(row_id)
        else:
            row_id = await self.added[op.arg]
            self.write_order.append(("remove", op.arg))
            self.writes_started += 1
            try:
                ok = await self.server.remove([row_id]) == 1
            except Exception:
                ok = False
        self.writes_done += 1
        self.writes.append(
            (n, op.kind, due, issued, time.perf_counter(), row_id, ok)
        )


def run_routed(seed: int, seconds: float, trace: bool) -> Run:
    cfg = gen.CONFIGS["routed_mixed"]
    run = Run()
    inputs = gen.routed_inputs(seed)
    ops = gen.open_loop_schedule(seed, seconds)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if trace else None
    try:
        session = asyncio.run(
            routed_session(inputs, ops, seconds, tracer, trace, run)
        )
    finally:
        if uninstall is not None:
            uninstall()
    run.metrics["rss_mb"] = session["rss_kb"] / 1024.0
    check_routed(run, inputs, session, cfg)
    if trace:
        layer_table(run, session["traced"], wire=False)
    return run


async def routed_session(inputs, ops, seconds, tracer, trace, run):
    from repro.serve import FerexServer

    cfg = gen.CONFIGS["routed_mixed"]
    if trace:
        asyncio.get_running_loop().set_default_executor(
            tracing.ContextExecutor()
        )
    setups = []
    server = None
    for _ in range(SETUP_REPEATS["routed_mixed"]):
        if server is not None:
            # Drop the previous set-up first: peak RSS must not count
            # two indexes.
            await server.close()
            server = None
            gc.collect()
        start = time.perf_counter()
        server = FerexServer(
            build_routed(inputs.stored),
            cache_size=cfg["cache_size"],
            cache_policy=cfg["cache_policy"],
        )
        # One coalescer batch at a time, as a single client would warm
        # it: every cluster's kernel compiles once.
        for lo in range(0, len(inputs.warm), 64):
            await server.search_many(inputs.warm[lo : lo + 64], k=cfg["k"])
        setups.append(time.perf_counter() - start)
        run.count("warmup", len(inputs.warm), 0)
    run.metrics["setup_s"] = statistics.median(setups)
    loop_ = OpenLoop(server, inputs)
    untraced_p50_s = 0.0
    if trace:
        half = [op for op in ops if op.due < seconds / 2]
        rest = [op for op in ops if op.due >= seconds / 2]
        await loop_.run(half, 0)
        untraced_p50_s = float(np.median([r[4] - r[2] for r in loop_.reads]))
        traced_from = len(half)
        before = layer_snapshots(server)
        tracer.reset()
        tracer.on = True
        await loop_.run(rest, traced_from)
        tracer.on = False
        after = layer_snapshots(server)
    else:
        await loop_.run(ops, 0)
    rss_kb = peak_rss_kb(os.getpid())
    recall = await server.search_many(inputs.recall, k=10)
    await server.close()
    session = {"loop": loop_, "rss_kb": rss_kb, "recall": recall}
    if trace:
        session["traced"] = Session(
            reads=[
                (r[0], None, 200, None, r[2], r[4], r[3])
                for r in loop_.reads
                if r[0] >= traced_from
            ],
            writes=[
                (w[0], w[1], 200, None, w[2], w[4], None, w[3])
                for w in loop_.writes
                if w[0] >= traced_from
            ],
            recall=(),
            start=0.0,
            end=0.0,
            report={
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
                "replay": {},
                "before": before,
                "after": after,
            },
            untraced_p50_s=untraced_p50_s,
        )
    return session


def check_routed(run, inputs, session, cfg, mirror=None) -> None:
    """Replay the writes on a mirror index; each read must equal the
    mirror's answer at one of the generations it could have seen."""
    loop_ = session["loop"]
    k = cfg["k"]
    limit = cfg["read_limit_ms"] / 1000.0
    if mirror is None:
        mirror = build_routed(inputs.stored)
    live = LiveSet(inputs.stored)
    pending = {i for i, r in enumerate(loop_.reads) if r[7] is not None}
    matched = set()
    mirror_ids: Dict[int, int] = {}
    bad_writes = 0
    n_gens = len(loop_.write_order)
    for g in range(n_gens + 1):
        due_now = [
            i for i in pending if loop_.reads[i][5] <= g <= loop_.reads[i][6]
        ]
        ranks = sorted({loop_.reads[i][1] for i in due_now})
        if ranks:
            expected = mirror.search(inputs.distinct[ranks], k)
            where = {rank: j for j, rank in enumerate(ranks)}
            for i in due_now:
                read = loop_.reads[i]
                j = where[read[1]]
                same_ids = np.array_equal(expected.ids[j], read[7])
                if same_ids and np.array_equal(expected.distances[j], read[8]):
                    matched.add(i)
            pending -= matched
        if g == n_gens:
            break
        kind, add_no = loop_.write_order[g]
        if kind == "add":
            row = inputs.write_rows[add_no]
            mirror_ids[add_no] = int(mirror.add(row[None])[0])
            live.rows[mirror_ids[add_no]] = row
        else:
            mirror.remove([mirror_ids[add_no]])
            live.rows.pop(mirror_ids[add_no])
    for *_, ok in loop_.writes:
        bad_writes += not ok
    added = {w[5] for w in loop_.writes if w[1] == "add"}
    if added != set(mirror_ids.values()):
        bad_writes += 1
        run.problems.append("server and mirror assigned different ids")
    n_reads = len(loop_.reads)
    run.count("timed", n_reads, n_reads - len(matched))
    run.count("writes", len(loop_.writes), bad_writes)
    read_lat = [r[4] - r[2] for r in loop_.reads if r[7] is not None]
    write_lat = [w[4] - w[2] for w in loop_.writes]
    in_slo = sum(
        1 for i in matched if loop_.reads[i][4] - loop_.reads[i][2] <= limit
    )
    first = min(r[2] for r in loop_.reads)
    last = max(r[4] for r in loop_.reads + loop_.writes)
    run.metrics["qps"] = (len(matched) + len(loop_.writes)) / (last - first)
    run.metrics["p50_ms"] = pct_ms(read_lat, 50)
    run.metrics["latency.p99_ms"] = pct_ms(read_lat, 99)
    run.metrics["latency.write_p50_ms"] = pct_ms(write_lat, 50)
    run.metrics["latency.write_p99_ms"] = pct_ms(write_lat, 99)
    run.metrics["slo_share"] = in_slo / max(1, n_reads)
    late = [r[3] - r[2] for r in loop_.reads] + [
        w[3] - w[2] for w in loop_.writes
    ]
    run.metrics["gen.late_p99_ms"] = pct_ms(late, 99)
    recall = session["recall"]
    ok = answers_equal(
        mirror.search(inputs.recall, 10), recall.ids, recall.distances
    )
    run.count("recall", len(inputs.recall), 0 if ok else len(inputs.recall))
    live_ids, live_rows = live.arrays()
    run.metrics["recall_at_10"] = recall_at_k(
        cfg["metric"], inputs.recall, live_ids, live_rows, recall.ids, 10
    )


# ----------------------------------------------------------------------
# The per-layer table
# ----------------------------------------------------------------------
def _delta(report, *path) -> float:
    before, after = report["before"], report["after"]
    for key in path:
        before = before.get(key, {}) if isinstance(before, dict) else 0
        after = after.get(key, {}) if isinstance(after, dict) else 0
    return float((after or 0) - (before or 0))


def layer_table(run: Run, session: Session, wire: bool) -> None:
    """Per-layer metrics of the traced phase, and the stage table."""
    report = session.report
    spans = [
        (tuple(t) if isinstance(t, list) else t, n, t0, t1, rows)
        for t, n, t0, t1, rows in report["spans"]
    ]
    by_trace = tracing.group_spans(spans)
    stage_sum: Dict[str, float] = {}
    total = 0.0
    for read in session.reads:
        trace, t0, t1 = read[0], read[4], read[5]
        own = by_trace.get(trace, [])
        if wire:
            own = tracing.add_transport((t0, t1), own)
        else:
            own = own + [("gen.late", t0, read[6])]
        for stage, secs in tracing.exclusive(t0, t1, own).items():
            stage_sum[stage] = stage_sum.get(stage, 0.0) + secs
        total += t1 - t0
    n_reads = max(1, len(session.reads))
    m = run.metrics
    for stage, metric in STAGE_METRIC.items():
        m[metric] = ms(stage_sum.get(stage, 0.0) / n_reads)
    untraced = stage_sum.get("untraced", 0.0)
    total = max(total, 1e-12)
    m["trace.untraced_ms"] = ms(untraced / n_reads)
    m["trace.coverage"] = 1.0 - untraced / total
    # Median, not mean: a single post-write stall would swing a mean.
    traced_p50 = float(np.median([r[5] - r[4] for r in session.reads]))
    m["trace.overhead"] = (
        traced_p50 / session.untraced_p50_s - 1.0
        if session.untraced_p50_s
        else 0.0
    )
    rows = [
        (stage, ms(secs / n_reads), secs / total)
        for stage, secs in stage_sum.items()
    ]
    run.table = sorted(rows, key=lambda row: -row[1])

    # Writes: mean self time per write of the write-path stages.
    write_sum: Dict[str, float] = {}
    for write in session.writes:
        trace, t0, t1 = write[0], write[4], write[5]
        own = by_trace.get(trace, [])
        if wire:
            own = tracing.add_transport((t0, t1), own)
        for stage, secs in tracing.exclusive(t0, t1, own).items():
            write_sum[stage] = write_sum.get(stage, 0.0) + secs
    n_writes = max(1, len(session.writes))
    m["router.write_wait_ms"] = ms(
        write_sum.get("router.write_wait", 0.0) / n_writes
    )
    m["router.write_ms"] = ms(write_sum.get("router.write", 0.0) / n_writes)

    def durations(name):
        return [t1 - t0 for _, n, t0, t1, _ in spans if n == name]

    def mean_ms(name):
        values = durations(name)
        return ms(float(np.mean(values))) if values else 0.0

    m["index.write_ms"] = mean_ms("index.write")
    m["pool.republish_ms"] = mean_ms("pool.republish")
    m["kernel.compile_ms"] = mean_ms("kernel.compile")
    m["kernel.compiles"] = float(len(durations("kernel.compile")))
    pool_spans = [
        (t1 - t0, rows) for _, n, t0, t1, rows in spans if n == "pool.search"
    ]
    if pool_spans:
        per_row = sum(report["replay"].values())
        m["pool.search_ms"] = ms(np.mean([d for d, _ in pool_spans]))
        m["pool.overhead_ms"] = ms(
            np.mean([d - per_row * rows for d, rows in pool_spans])
        )
    index_rows = [
        rows for _, n, _, _, rows in spans if n == "index.search" and rows
    ]
    m["index.rows_per_call"] = (
        float(np.mean(index_rows)) if index_rows else 0.0
    )
    counts = report["counts"]
    searches = counts.get("index.post_write_searches", 0.0)
    m["index.post_write_search_ms"] = (
        ms(counts["index.post_write_search_s"] / searches) if searches else 0.0
    )
    routed = counts.get("routing.queries", 0.0)
    m["routing.clusters_per_query"] = (
        counts["routing.clusters"] / routed if routed else 0.0
    )
    for name in ("kernel.calls", "kernel.ops", "kernel.bytes"):
        m[name] = counts.get(name, 0.0) / n_reads
    flushes = counts.get("coalescer.flushes", 0.0)
    m["coalescer.flushes"] = flushes
    m["coalescer.batch_rows"] = (
        counts.get("coalescer.rows", 0.0) / flushes if flushes else 0.0
    )
    hits = _delta(report, "cache", "hits")
    misses = _delta(report, "cache", "misses")
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.dispatch_hits"] = _delta(report, "stats", "n_dispatch_cache_hits")
    m["cache.clears"] = _delta(report, "cache", "invalidations")
    m["pool.slab_dispatches"] = _delta(report, "pool", "n_slab_dispatches")
    m["pool.pickle_fallbacks"] = _delta(report, "pool", "n_pickle_fallbacks")
    n_requests = max(1.0, _delta(report, "net", "n_requests"))
    m["protocol.bytes_in"] = _delta(report, "net", "bytes_in") / n_requests
    m["protocol.bytes_out"] = _delta(report, "net", "bytes_out") / n_requests
    m["admission.shed"] = _delta(report, "admission", "n_rejected")
