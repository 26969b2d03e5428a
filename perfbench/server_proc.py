"""The wire server process of the ``hdc_json`` and ``knn_batch`` workloads.

Started as ``python3 perfbench/server_proc.py '<json config>'`` by
:mod:`workloads`, not by hand.  It builds (or loads) the index, starts
the pool, the :class:`FerexServer` and the :class:`NetFrontend`,
prints one ``ready`` JSON line, then answers JSON commands read line
by line from stdin:

* ``{"cmd": "trace", "on": true|false}`` -- start/stop span recording;
* ``{"cmd": "pool"}`` -- requests served per pool worker;
* ``{"cmd": "rss"}`` -- peak RSS summed over this process and its pool
  workers;
* ``{"cmd": "report"}`` -- spans, counters and layer snapshots of the
  traced phase (pooled batches are replayed in-process first);
* ``{"cmd": "close"}`` -- front-end, server and pool shut down, final
  layer snapshots are returned and the process exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one live process, in kB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def build_hdc_index(seed: int):
    from repro.index import FerexIndex

    cfg = gen.CONFIGS["hdc_json"]
    index = FerexIndex(
        dims=cfg["dims"], metric=cfg["metric"], bits=cfg["bits"]
    )
    index.add(
        gen.uniform_rows(
            seed, "hdc_json-stored", cfg["rows"], cfg["dims"], cfg["bits"]
        )
    )
    return index


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def layer_snapshots(server, frontend=None, admission=None) -> dict:
    """JSON-ready counters of every serving layer present."""
    out = {
        "cache": server.cache.snapshot(),
        "stats": server.stats.snapshot(),
    }
    if frontend is not None:
        out["net"] = frontend.snapshot()
    if admission is not None:
        out["admission"] = admission.snapshot()
    if server.pool is not None:
        out["pool"] = server.pool.snapshot()
    return _jsonable(out)


class ServerProcess:
    def __init__(self, config: dict):
        self.config = config
        self.tracer = tracing.Tracer()
        self.uninstall = None
        self.pool = None
        self.baseline: dict = {}

    async def start(self) -> dict:
        from repro.index import FerexIndex
        from repro.serve import FerexServer, ProcReplicaPool
        from repro.serve.net import AdmissionController, NetFrontend

        if self.config["trace"]:
            self.uninstall = tracing.install(self.tracer)
            asyncio.get_running_loop().set_default_executor(
                tracing.ContextExecutor()
            )
        workload = self.config["workload"]
        t_first = time.perf_counter()
        if workload == "knn_batch":
            index = FerexIndex.load(self.config["index_path"])
            t_loaded = time.perf_counter()
            self.pool = ProcReplicaPool(
                index,
                n_workers=max(1, len(os.sched_getaffinity(0)) - 1),
                name_prefix=self.config["shm_prefix"],
            )
            t_spawned = time.perf_counter()
            self.server = FerexServer(pool=self.pool)
        else:
            index = build_hdc_index(self.config["seed"])
            t_loaded = t_spawned = time.perf_counter()
            self.server = FerexServer(index)
        self.admission = AdmissionController()
        self.frontend = NetFrontend(self.server, admission=self.admission)
        _, port = await self.frontend.start()
        return {
            "event": "ready",
            "port": port,
            "pid": os.getpid(),
            "worker_pids": self.worker_pids(),
            "t_first_call": t_first,
            "load_s": t_loaded - t_first,
            "spawn_s": t_spawned - t_loaded,
        }

    def worker_pids(self):
        if self.pool is None:
            return []
        return [worker.process.pid for worker in self.pool.workers]

    def snapshots(self) -> dict:
        return layer_snapshots(self.server, self.frontend, self.admission)

    async def handle(self, command: dict) -> dict:
        cmd = command["cmd"]
        if cmd == "trace":
            if command["on"]:
                self.tracer.reset()
                self.baseline = self.snapshots()
            self.tracer.on = bool(command["on"])
            return {"ok": True}
        if cmd == "pool":
            return {"served": [w.served for w in self.pool.workers]}
        if cmd == "report":
            self.tracer.on = False
            replay = self.replay_pool_batches()
            spans = self.tracer.spans
            if replay:
                spans = tracing.synthesize_pool_children(spans, replay)
            return {
                "spans": [_jsonable(span) for span in spans],
                "counts": dict(self.tracer.counts),
                "replay": replay,
                "before": self.baseline,
                "after": self.snapshots(),
            }
        if cmd == "rss":
            pids = [os.getpid(), *self.worker_pids()]
            return {"rss_kb": sum(peak_rss_kb(pid) for pid in pids)}
        if cmd == "close":
            final = self.snapshots()
            await self.frontend.close()
            await self.server.close()
            if self.pool is not None:
                self.pool.close()
            if self.uninstall is not None:
                self.uninstall()
            return {"closed": True, "final": final}
        raise ValueError(f"unknown command {cmd!r}")

    def replay_pool_batches(self, budget_s: float = 2.0) -> dict:
        """Replay dispatched pool batches through the primary index in
        this process, traced, and return per-row self seconds of the
        stages the workers ran (``{}`` without a pool)."""
        batches = self.tracer.pool_batches
        if self.pool is None or not batches:
            return {}
        index = self.pool.index
        # The primary compiles lazily, like a fresh worker: pay that
        # once, untraced, before timing anything.
        index.search(batches[0][0], batches[0][1])
        tracer = self.tracer
        tracer.spans, saved_spans = [], tracer.spans
        tracer.counts, saved_counts = defaultdict(float), tracer.counts
        totals: dict = {}
        rows = 0
        deadline = time.perf_counter() + budget_s
        tracer.on = True
        try:
            for queries, k in batches:
                tracer.spans = []
                start = time.perf_counter()
                index.search(queries, k)
                end = time.perf_counter()
                named = [(n, t0, t1) for _, n, t0, t1, _ in tracer.spans]
                for stage, secs in tracing.exclusive(
                    start, end, named
                ).items():
                    totals[stage] = totals.get(stage, 0.0) + secs
                rows += len(queries)
                if end > deadline:
                    break
        finally:
            tracer.on = False
            replay_counts = tracer.counts
            tracer.spans, tracer.counts = saved_spans, saved_counts
        pooled_rows = tracer.counts["pool.rows"]
        # Kernel work happened in the workers: scale the replayed
        # counts up to every pooled row.
        for name in ("kernel.calls", "kernel.ops", "kernel.bytes"):
            tracer.counts[name] += (
                replay_counts.get(name, 0.0) * pooled_rows / rows
            )
        totals.pop("untraced", None)
        return {stage: secs / rows for stage, secs in totals.items()}


def main() -> int:
    config = json.loads(sys.argv[1])
    process = ServerProcess(config)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    done = asyncio.Event()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    def control() -> None:
        try:
            for line in sys.stdin:
                if not line.strip():
                    continue
                command = json.loads(line)
                future = asyncio.run_coroutine_threadsafe(
                    process.handle(command), loop
                )
                reply(future.result())
                if command["cmd"] == "close":
                    return
        finally:
            loop.call_soon_threadsafe(done.set)

    try:
        reply(loop.run_until_complete(process.start()))
        thread = threading.Thread(target=control, daemon=True)
        thread.start()
        loop.run_until_complete(done.wait())
        thread.join(timeout=10)
    finally:
        if process.pool is not None:
            process.pool.close()
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
