"""Seeded input generators for the three benchmark workloads.

Everything the program under test receives is drawn here from the
``--seed`` argument: stored vectors, query streams, the open-loop
arrival schedule and the writes.  Nothing here imports the program, so
the generators (and their self-tests) stay independent of the code
they feed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List

import numpy as np

#: Workload configurations.  The benchmark's behaviour is fully
#: determined by (workload config, seed); :func:`config_digest` stamps
#: both into every result.
CONFIGS = {
    "hdc_json": {
        "rows": 16,
        "dims": 512,
        "bits": 1,
        "metric": "hamming",
        "k": 3,
        "read_limit_ms": 50.0,
        "write_probe_ops": 20,
        "recall_queries": 64,
    },
    "knn_batch": {
        "rows": 4096,
        "dims": 512,
        "bits": 2,
        "metric": "manhattan",
        "bank_rows": 1024,
        "k": 10,
        "frame_rows": 64,
        "read_limit_ms": 250.0,
        "write_probe_ops": 4,
        "recall_queries": 64,
    },
    "routed_mixed": {
        "rows": 32768,
        "dims": 32,
        "bits": 2,
        "metric": "manhattan",
        "n_centres": 256,
        "n_clusters": 32,
        "top_p": 4,
        "k": 10,
        "rate": 100.0,
        "zipf_s": 1.1,
        "n_distinct": 8192,
        "write_every": 100,
        "read_limit_ms": 50.0,
        "cache_policy": "tinylfu",
        "cache_size": 1024,
        "recall_queries": 1024,
    },
}


#: Seed of the fixed datasets (the ``routed_mixed`` corpus and every
#: workload's recall sample).
CORPUS_SEED = 0


def config_digest(workload: str, seed: int) -> str:
    """sha256 of the workload config plus the seeds."""
    config = {
        "workload": workload,
        "seed": int(seed),
        "corpus_seed": CORPUS_SEED,
        **CONFIGS[workload],
    }
    payload = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, purpose), so adding draws to one
    stream never shifts another."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([int(seed), tag])


def uniform_rows(seed: int, stream: str, n: int, dims: int, bits: int):
    return _rng(seed, stream).integers(
        0, 1 << bits, size=(n, dims), dtype=np.int64
    )


class FreshQueries:
    """Never-repeated uniform query vectors, drawn in seeded chunks.

    The sequence depends on the seed alone; a repeat (vanishingly rare
    at these widths) is redrawn, so every query the server sees is new
    and its cache can never hit.
    """

    def __init__(
        self, seed: int, stream: str, dims: int, bits: int, chunk: int = 1024
    ):
        self._rng = _rng(seed, stream)
        self._dims = dims
        self._bits = bits
        self._chunk = chunk
        self._seen: set = set()
        self._buffer: List[np.ndarray] = []

    def take(self, n: int) -> np.ndarray:
        out = []
        while len(out) < n:
            if not self._buffer:
                block = self._rng.integers(
                    0, 1 << self._bits, size=(self._chunk, self._dims)
                )
                self._buffer = list(block[::-1])
            row = self._buffer.pop()
            key = row.tobytes()
            if key in self._seen:
                continue
            self._seen.add(key)
            out.append(row)
        return np.stack(out)


def clustered(centres: np.ndarray, rng, n: int, bits: int) -> np.ndarray:
    """Rows drawn around random centres with +-1 integer noise."""
    picks = centres[rng.integers(0, len(centres), size=n)]
    noise = rng.integers(-1, 2, size=picks.shape)
    return np.clip(picks + noise, 0, (1 << bits) - 1)


@dataclass
class RoutedInputs:
    stored: np.ndarray
    distinct: np.ndarray  # (n_distinct, dims) read queries
    write_rows: np.ndarray  # rows for the 1-row adds, in order
    warm: np.ndarray  # warm-up queries (touch every cluster)
    recall: np.ndarray  # fixed recall sample


def routed_inputs(seed: int) -> RoutedInputs:
    """The stored corpus (and the set-up and recall queries drawn from
    it) is one fixed dataset, like a benchmark corpus: how its rows fall
    into clusters sets bank counts and probe costs, which would
    otherwise move every metric with the seed.  The traffic -- which
    queries are asked and which rows are written -- comes from
    ``seed``."""
    cfg = CONFIGS["routed_mixed"]
    corpus = _rng(CORPUS_SEED, "routed-corpus")
    traffic = _rng(seed, "routed-traffic")
    dims, bits = cfg["dims"], cfg["bits"]
    centres = corpus.integers(0, 1 << bits, size=(cfg["n_centres"], dims))
    return RoutedInputs(
        stored=clustered(centres, corpus, cfg["rows"], bits),
        warm=clustered(centres, corpus, 1024, bits),
        recall=clustered(centres, corpus, cfg["recall_queries"], bits),
        distinct=clustered(centres, traffic, cfg["n_distinct"], bits),
        write_rows=clustered(centres, traffic, 4096, bits),
    )


@dataclass
class Op:
    due: float  # seconds after the schedule starts
    kind: str  # "read", "add" or "remove"
    arg: int  # read: distinct-query rank; add: write row; remove: add no.


def zipf_ranks(rng, n: int, n_distinct: int, s: float) -> np.ndarray:
    """``n`` ranks in ``[0, n_distinct)`` with P(rank r) ~ 1/(r+1)**s."""
    weights = 1.0 / np.arange(1, n_distinct + 1, dtype=float) ** s
    return rng.choice(n_distinct, size=n, p=weights / weights.sum())


def open_loop_schedule(seed: int, seconds: float) -> List[Op]:
    """Poisson arrivals at the configured rate over ``seconds``.

    The arrival count is fixed at ``rate * seconds`` (a Poisson process
    conditioned on its count: sorted uniform arrival times), so every
    seed offers the same load.  Every ``write_every``-th op is a write,
    alternating a 1-row add and the remove of the row the previous add
    stored; every other op is a Zipf-ranked read.
    """
    cfg = CONFIGS["routed_mixed"]
    rng = _rng(seed, "routed-schedule")
    n = int(round(cfg["rate"] * seconds))
    due = np.sort(rng.uniform(0.0, seconds, size=n))
    ranks = zipf_ranks(rng, n, cfg["n_distinct"], cfg["zipf_s"])
    ops: List[Op] = []
    n_writes = 0
    for i in range(n):
        if (i + 1) % cfg["write_every"] == 0:
            if n_writes % 2 == 0:
                ops.append(Op(float(due[i]), "add", n_writes // 2))
            else:
                ops.append(Op(float(due[i]), "remove", n_writes // 2))
            n_writes += 1
        else:
            ops.append(Op(float(due[i]), "read", int(ranks[i])))
    return ops
