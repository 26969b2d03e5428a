"""FeReX serving benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hdc_json --seed 1 --seconds 10 \\
        --trace 0

Workloads (see ``gen.CONFIGS`` and ``README.md``):

* ``hdc_json``     -- closed-loop JSON ``/v1/search`` over the wire,
  16 x 512-bit hypervectors: the layers above the kernel;
* ``knn_batch``    -- closed-loop 64-row binary frames through a process
  pool over a 4096 x 512 2-bit index: the kernel and the pool;
* ``routed_mixed`` -- open-loop Zipf reads and 1% writes in-process on a
  routed 32768-row index: cache, coalescing, writer exclusion and
  post-write recompiles.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer table (stderr) and metrics.  The last stdout line is always
``{"correct", "attempted", "failed", "metrics"}``; provenance and the
per-phase op counts go to stderr and to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

#: BLAS threads in every benchmark process (workers inherit the env).
BLAS_THREADS = "1"
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "slo_share": "share",
    "recall_at_10": "share",
    "rss_mb": "MB",
}

#: Hard wall-clock cap on one run (the contract allows 180 s).
RUN_LIMIT_S = 170


def _utc() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the program's source files (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    import gen
    from workloads import nproc

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = blas.get("blas", {}).get("name", "unknown")
    except (TypeError, AttributeError):
        blas = "unknown"
    return {
        "utc": _utc(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "config_sha256": gen.config_digest(workload, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("hdc_json", "knn_batch", "routed_mixed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_LIMIT_S)

    import workloads

    trace = bool(args.trace)
    if args.workload == "routed_mixed":
        result = workloads.run_routed(args.seed, args.seconds, trace)
    else:
        result = workloads.run_wire(
            args.workload, args.seed, args.seconds, trace
        )
    signal.alarm(0)

    if trace:
        units = {n: u for n, (u, _) in workloads.PER_LAYER.items()}
    else:
        units = E2E_UNITS
        missing = sorted(set(units) - set(result.metrics))
        if missing:
            result.problems.append(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.workload, args.seed),
        "phases": {
            phase: {
                "attempted": attempted,
                "succeeded": attempted - failed,
                "failed": failed,
            }
            for phase, (attempted, failed) in result.phases.items()
        },
        "problems": result.problems,
        "metrics": metrics,
        "layer_table": [
            {"stage": stage, "ms_per_request": value, "share": share}
            for stage, value, share in result.table
        ],
    }
    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    report = [json.dumps(record["provenance"]), json.dumps(record["phases"])]
    report += [f"PROBLEM: {problem}" for problem in result.problems]
    if result.table:
        report.append(f"{'stage':<20} {'ms/request':>11} {'share':>7}")
        report += [
            f"{stage:<20} {value:>11.4f} {share:>7.1%}"
            for stage, value, share in result.table
        ]
    print("\n".join(report), file=sys.stderr)
    correct = result.failed == 0 and not result.problems
    summary = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
