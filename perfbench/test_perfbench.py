"""Self-tests of the benchmark: generators, schedule, self-time
arithmetic and failure counting.  Fast and free of timing."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import gen
import tracing
import workloads
from repro.index import FerexIndex, SearchOutcome
from repro.serve.net.protocol import pack_result_frame


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_uniform_rows_are_seeded():
    a = gen.uniform_rows(3, "s", 8, 16, 2)
    assert a.tobytes() == gen.uniform_rows(3, "s", 8, 16, 2).tobytes()
    assert a.tobytes() != gen.uniform_rows(4, "s", 8, 16, 2).tobytes()
    assert a.tobytes() != gen.uniform_rows(3, "t", 8, 16, 2).tobytes()
    assert a.min() >= 0 and a.max() < 4


def test_fresh_queries_are_seeded_and_never_repeat():
    first = gen.FreshQueries(5, "q", 4, 1, chunk=8).take(16)
    again = gen.FreshQueries(5, "q", 4, 1, chunk=8).take(16)
    other = gen.FreshQueries(6, "q", 4, 1, chunk=8).take(16)
    assert first.tobytes() == again.tobytes()
    assert first.tobytes() != other.tobytes()
    # 4 one-bit dims hold exactly 16 distinct vectors: all of them.
    assert len({row.tobytes() for row in first}) == 16


def test_routed_inputs_are_seeded():
    a, b, c = (gen.routed_inputs(s) for s in (1, 1, 2))
    for field in ("stored", "distinct", "write_rows", "warm", "recall"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    # The traffic follows the seed; the corpus is one fixed dataset.
    for field in ("distinct", "write_rows"):
        assert getattr(a, field).tobytes() != getattr(c, field).tobytes()
    for field in ("stored", "warm", "recall"):
        assert getattr(a, field).tobytes() == getattr(c, field).tobytes()
    cfg = gen.CONFIGS["routed_mixed"]
    assert a.stored.shape == (cfg["rows"], cfg["dims"])
    assert a.distinct.shape == (cfg["n_distinct"], cfg["dims"])


def test_config_digest_covers_seed_and_workload():
    digest = gen.config_digest("hdc_json", 1)
    assert digest == gen.config_digest("hdc_json", 1)
    assert digest != gen.config_digest("hdc_json", 2)
    assert digest != gen.config_digest("knn_batch", 1)


# ----------------------------------------------------------------------
# Open-loop schedule
# ----------------------------------------------------------------------
def test_schedule_is_seeded():
    a = gen.open_loop_schedule(1, 5.0)
    assert a == gen.open_loop_schedule(1, 5.0)
    assert a != gen.open_loop_schedule(2, 5.0)


def test_schedule_poisson_arrivals():
    cfg = gen.CONFIGS["routed_mixed"]
    ops = gen.open_loop_schedule(7, 50.0)
    due = np.array([op.due for op in ops])
    assert np.all(np.diff(due) > 0) and 0 < due[0] and due[-1] < 50.0
    gaps = np.diff(due)
    # Exponential gaps: mean 1/rate, coefficient of variation ~1.
    assert gaps.mean() == pytest.approx(1 / cfg["rate"], rel=0.05)
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)


def test_schedule_writes_alternate_add_and_remove():
    cfg = gen.CONFIGS["routed_mixed"]
    ops = gen.open_loop_schedule(3, 20.0)
    writes = [(i, op) for i, op in enumerate(ops) if op.kind != "read"]
    assert [i % cfg["write_every"] for i, _ in writes] == [
        cfg["write_every"] - 1
    ] * len(writes)
    kinds = [op.kind for _, op in writes]
    assert kinds == ["add", "remove"] * (len(kinds) // 2) + (
        ["add"] if len(kinds) % 2 else []
    )
    # Each remove names the add just before it.
    assert [op.arg for _, op in writes] == [n // 2 for n in range(len(kinds))]


def test_zipf_ranks_follow_the_power_law():
    rng = np.random.default_rng(0)
    ranks = gen.zipf_ranks(rng, 200_000, 1000, 1.1)
    assert ranks.min() >= 0 and ranks.max() < 1000
    counts = np.bincount(ranks, minlength=1000)
    # P(r=0) / P(r=1) = 2 ** 1.1
    assert counts[0] / counts[1] == pytest.approx(2**1.1, rel=0.05)
    assert counts[0] == counts.max()


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_exclusive_charges_the_deepest_stage():
    spans = [
        ("frontend", 1.0, 9.0),
        ("server", 2.0, 8.0),
        ("coalescer", 3.0, 7.0),
        ("kernel.scores", 4.0, 5.0),
    ]
    out = tracing.exclusive(0.0, 10.0, spans)
    assert out == {
        "untraced": 2.0,
        "frontend": 2.0,
        "server": 2.0,
        "coalescer": 3.0,
        "kernel.scores": 1.0,
    }
    assert sum(out.values()) == 10.0


def test_exclusive_unions_overlaps_and_clips():
    spans = [
        ("cache", -5.0, 1.0),  # clipped to [0, 1]
        ("cache", 0.5, 2.0),  # overlaps the first: counted once
        ("server", 0.0, 4.0),
        ("not-a-stage", 0.0, 4.0),  # ignored
        ("kernel.scores", 20.0, 30.0),  # outside
    ]
    out = tracing.exclusive(0.0, 4.0, spans)
    assert out == {"cache": 2.0, "server": 2.0}


def test_group_spans_fans_batches_out():
    spans = [
        (1, "server", 0.0, 1.0, 1),
        ((1, 2), "index.search", 0.2, 0.8, 2),
        (None, "cache", 0.0, 0.1, 0),
    ]
    grouped = tracing.group_spans(spans)
    assert grouped[1] == [("server", 0.0, 1.0), ("index.search", 0.2, 0.8)]
    assert grouped[2] == [("index.search", 0.2, 0.8)]
    assert None not in grouped


def test_add_transport_covers_both_wire_legs():
    spans = [("net.head", 2.0, 2.0), ("frontend", 2.5, 7.0)]
    out = tracing.add_transport((1.0, 8.0), spans)
    assert ("net.transport", 1.0, 2.0) in out
    assert ("net.transport", 7.0, 8.0) in out
    assert tracing.exclusive(1.0, 8.0, out)["net.transport"] == 2.0


def test_pool_children_leave_the_overhead_as_self_time():
    replay = {"index.search": 0.001, "crossbar": 0.002, "kernel.scores": 0.003}
    spans = [(7, "pool.search", 0.0, 1.0, 100)]
    out = tracing.synthesize_pool_children(spans, replay)
    named = [(n, t0, t1) for _, n, t0, t1, _ in out]
    got = tracing.exclusive(0.0, 1.0, named)
    assert got["kernel.scores"] == pytest.approx(0.3)
    assert got["crossbar"] == pytest.approx(0.2)
    assert got["index.search"] == pytest.approx(0.1)
    assert got["pool.search"] == pytest.approx(0.4)


def test_tracer_records_only_while_on():
    tracer = tracing.Tracer()
    tracer.record("server", 0.0, 1.0)
    tracer.add("kernel.calls")
    assert tracer.spans == [] and not tracer.counts
    tracer.on = True
    token = tracing.TRACE.set(42)
    try:
        tracer.record("server", 0.0, 1.0, rows=3)
        tracer.add("kernel.calls", 2)
    finally:
        tracing.TRACE.reset(token)
    assert tracer.spans == [(42, "server", 0.0, 1.0, 3)]
    assert tracer.counts["kernel.calls"] == 2


# ----------------------------------------------------------------------
# Answer checks and failure counting
# ----------------------------------------------------------------------
def _hdc_index(seed=1):
    return workloads.build_hdc_index(seed)


def test_check_wire_counts_a_wrong_row_as_failed():
    spec = workloads.WireSpec("knn_batch", 1)
    cfg = gen.CONFIGS["hdc_json"]
    reference = _hdc_index()
    stored = gen.uniform_rows(
        1, "hdc_json-stored", cfg["rows"], cfg["dims"], cfg["bits"]
    )
    queries = gen.uniform_rows(1, "t", 12, cfg["dims"], cfg["bits"])
    good = reference.search(queries[:6], 3)
    bad = reference.search(queries[6:], 3)
    wrong_ids = bad.ids.copy()
    wrong_ids[2] = wrong_ids[2][::-1]  # one wrong row
    recall_q = queries[:4]
    recall = reference.search(recall_q, 10)

    def frame(ids, distances):
        return pack_result_frame(ids, distances)

    session = workloads.Session(
        reads=[
            (1, queries[:6], 200, frame(good.ids, good.distances), 0.0, 0.1),
            (2, queries[6:], 200, frame(wrong_ids, bad.distances), 0.0, 0.1),
            (3, queries[:1], 429, b"", 0.0, 0.1),  # shed: failed
        ],
        writes=[],
        recall=(recall_q, 200, frame(recall.ids, recall.distances)),
        start=0.0,
        end=1.0,
    )
    spec.cfg = dict(cfg, frame_rows=6)
    run = workloads.Run()
    workloads.check_wire(run, spec, reference, stored, session)
    # Only the wrong row of the second frame fails, plus the shed read.
    assert run.phases["timed"] == [13, 2]
    assert run.phases["recall"] == [4, 0]
    assert run.failed == 2
    assert run.metrics["recall_at_10"] == 1.0


def test_check_routed_matches_reads_to_their_generations():
    """A read may see any generation between the writes completed when
    it was issued and the writes started when it returned."""
    cfg = dict(gen.CONFIGS["routed_mixed"], k=3)
    stored = gen.uniform_rows(2, "stored", 32, 8, 2)
    added = gen.uniform_rows(2, "added", 1, 8, 2)
    inputs = gen.RoutedInputs(
        stored=stored,
        # Every read asks for the row the write adds, so the write
        # changes every answer.
        distinct=np.repeat(added, 4, axis=0),
        write_rows=added,
        warm=stored[:0],
        recall=gen.uniform_rows(2, "recall", 4, 8, 2),
    )

    def index():
        built = FerexIndex(dims=8, metric="manhattan", bits=2)
        built.add(stored)
        return built

    server = index()
    before = server.search(inputs.distinct, 3)
    new_id = int(server.add(inputs.write_rows[:1])[0])
    after = server.search(inputs.distinct, 3)
    recall = server.search(inputs.recall, 10)

    class Loop:
        write_order = [("add", 0)]
        writes = [(5, "add", 0.0, 0.0, 0.01, new_id, True)]
        reads = [
            # (op no, rank, due, issued, done, gen lo, gen hi, ids, dist)
            (0, 0, 0.0, 0.0, 0.001, 0, 0, before.ids[0], before.distances[0]),
            (1, 1, 0.0, 0.0, 0.001, 0, 1, after.ids[1], after.distances[1]),
            (2, 2, 0.0, 0.0, 0.001, 1, 1, before.ids[2], before.distances[2]),
            (3, 3, 0.0, 0.0, 0.001, 0, 1, None, None),  # raised
        ]

    assert not np.array_equal(before.ids, after.ids)
    run = workloads.Run()
    session = {"loop": Loop, "recall": recall}
    workloads.check_routed(run, inputs, session, cfg, mirror=index())
    # Read 2 saw generation 0 but could only have seen generation 1.
    assert run.phases["timed"] == [4, 2]
    assert run.phases["writes"] == [1, 0]
    assert run.phases["recall"] == [4, 0]


def test_answers_equal_is_bit_exact():
    outcome = SearchOutcome(
        ids=np.array([[1, 2]]), distances=np.array([[0.5, 1.0]])
    )
    assert workloads.answers_equal(outcome, [[1, 2]], [[0.5, 1.0]])
    assert not workloads.answers_equal(
        outcome, [[1, 2]], [[0.5, np.nextafter(1.0, 2.0)]]
    )
    assert not workloads.answers_equal(outcome, [[2, 1]], [[0.5, 1.0]])


def test_recall_is_tie_tolerant():
    stored = np.array([[0, 0], [1, 0], [0, 1], [3, 3]])
    queries = np.array([[0, 0]])
    ids = np.array([0, 1, 2, 3])
    # Rows 1 and 2 tie at distance 1: either one completes a top-2.
    for served in ([[0, 1]], [[0, 2]], [[1, 0]]):
        assert workloads.recall_at_k(
            "manhattan", queries, ids, stored, served, 2
        ) == 1.0
    assert workloads.recall_at_k(
        "manhattan", queries, ids, stored, [[0, 3]], 2
    ) == 0.5


def test_open_loop_counts_generation_windows():
    """Reads issued around a write record the window of generations
    they may observe; the write path runs through a real server."""
    from repro.serve import FerexServer

    stored = gen.uniform_rows(4, "stored", 16, 8, 2)
    inputs = gen.RoutedInputs(
        stored=stored,
        distinct=stored[:4],
        write_rows=stored[:2],
        warm=stored[:0],
        recall=stored[:2],
    )
    ops = [
        gen.Op(0.000, "read", 0),
        gen.Op(0.001, "add", 0),
        gen.Op(0.002, "remove", 0),
        gen.Op(0.003, "read", 1),
    ]

    async def main():
        index = FerexIndex(dims=8, metric="manhattan", bits=2)
        index.add(stored)
        server = FerexServer(index, max_wait_ms=0.0)
        loop_ = workloads.OpenLoop(server, inputs)
        loop_.k = 3
        await loop_.run(ops, 0)
        await server.close()
        return loop_

    loop_ = asyncio.run(main())
    assert loop_.write_order == [("add", 0), ("remove", 0)]
    assert [w[1] for w in loop_.writes] == ["add", "remove"]
    assert all(w[6] for w in loop_.writes)
    for read in loop_.reads:
        assert 0 <= read[5] <= read[6] <= 2
