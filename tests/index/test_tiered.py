"""Tiered coarse-to-fine search: the low-bit shortlist + full-precision
rescore path, both as `search(mode="tiered")` and as the `"tiered"`
backend kind."""

import numpy as np
import pytest

from repro.core.distance import get_metric
from repro.index import FerexIndex, TieredBackend
from repro.index.backends import rank_candidates

DIMS = 8
BITS = 3


@pytest.fixture
def stored(rng):
    return rng.integers(0, 1 << BITS, size=(40, DIMS))


@pytest.fixture
def queries(rng):
    return rng.integers(0, 1 << BITS, size=(12, DIMS))


def build(stored, backend="ferex", **kwargs):
    index = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=BITS,
        backend=backend,
        bank_rows=16,
        **kwargs,
    )
    index.add(stored)
    return index


def exact_rank_distances(queries, stored, ids, metric="manhattan"):
    """True distance of each returned id, for distance-parity checks
    that tolerate legitimate tie reordering."""
    table = get_metric(metric).pairwise(queries, stored, BITS)
    return np.take_along_axis(table, ids, axis=1)


class TestTieredMode:
    def test_full_refine_matches_exact_distances(self, stored, queries):
        """With a shortlist covering every row the rescore is a full
        exact search: distance-at-rank must equal the exact backend's
        at every rank (ids may swap only within ties)."""
        index = build(stored)
        exact = build(stored, backend="exact")
        tiered = index.search(queries, k=5, mode="tiered",
                              refine_factor=1000)
        reference = exact.search(queries, k=5)
        np.testing.assert_array_equal(
            tiered.distances, reference.distances
        )
        np.testing.assert_array_equal(
            exact_rank_distances(queries, stored, tiered.ids),
            reference.distances,
        )

    def test_distances_are_exact_integers(self, stored, queries):
        index = build(stored)
        result = index.search(queries, k=3, mode="tiered")
        assert np.array_equal(result.distances, result.distances.round())
        np.testing.assert_array_equal(
            exact_rank_distances(queries, stored, result.ids),
            result.distances,
        )

    def test_tombstones_never_returned(self, stored, queries):
        index = build(stored)
        dead = [1, 7, 20, 33]
        index.remove(dead)
        result = index.search(queries, k=10, mode="tiered")
        assert not np.isin(result.ids, dead).any()

    def test_shadow_resyncs_after_mutation(self, stored, queries, rng):
        index = build(stored[:20])
        first = index.search(queries, k=3, mode="tiered")
        index.add(stored[20:])
        second = index.search(queries, k=3, mode="tiered")
        # The shadow saw the new rows (some query must now prefer one).
        assert first.ids.max() < 20
        assert second.ids.max() >= 20

    def test_padding_matches_flat(self, stored, queries):
        index = build(stored[:3])
        result = index.search(queries, k=5, mode="tiered")
        assert result.ids.shape == (len(queries), 5)
        assert (result.ids[:, 3:] == -1).all()
        assert np.isinf(result.distances[:, 3:]).all()

    def test_unknown_mode_rejected(self, stored, queries):
        index = build(stored)
        with pytest.raises(ValueError, match="unknown search mode"):
            index.search(queries, k=1, mode="fuzzy")

    def test_tiered_knobs_rejected_on_flat_mode(self, stored, queries):
        index = build(stored)
        with pytest.raises(ValueError, match="mode='tiered'"):
            index.search(queries, k=1, refine_factor=4)
        with pytest.raises(ValueError, match="mode='tiered'"):
            index.search(queries, k=1, coarse_bits=1)

    def test_recall_reasonable_on_clustered_data(self):
        """On clustered data (the regime tiered search targets) the
        1-bit shortlist keeps the true neighbors."""
        rng = np.random.default_rng(42)
        centers = rng.integers(0, 1 << BITS, size=(8, DIMS))
        noise = rng.integers(-1, 2, size=(160, DIMS))
        stored = np.clip(
            centers[rng.integers(0, 8, size=160)] + noise,
            0,
            (1 << BITS) - 1,
        )
        queries = np.clip(
            centers[rng.integers(0, 8, size=24)]
            + rng.integers(-1, 2, size=(24, DIMS)),
            0,
            (1 << BITS) - 1,
        )
        index = FerexIndex(
            dims=DIMS, metric="manhattan", bits=BITS, bank_rows=32
        )
        index.add(stored)
        exact = FerexIndex(
            dims=DIMS, metric="manhattan", bits=BITS, backend="exact"
        )
        exact.add(stored)
        k = 5
        tiered = index.search(queries, k=k, mode="tiered")
        truth = exact.search(queries, k=k)
        # Tie-tolerant recall: a returned id is correct if its true
        # distance is within the true k-th distance.
        true_d = exact_rank_distances(queries, stored, tiered.ids)
        threshold = truth.distances[:, -1:]
        recall = (true_d <= threshold).mean()
        assert recall >= 0.9


class TestTieredBackend:
    def test_constructible_via_registry(self, stored, queries):
        index = build(
            stored,
            backend="tiered",
            backend_options={"coarse_bits": 1, "refine_factor": 6},
        )
        assert isinstance(index.backend, TieredBackend)
        assert index.backend.coarse_bits == 1
        assert index.backend.refine_factor == 6
        result = index.search(queries, k=3)
        assert result.ids.shape == (len(queries), 3)

    def test_save_load_round_trip(self, stored, queries, tmp_path):
        index = build(
            stored,
            backend="tiered",
            backend_options={"refine_factor": 4},
        )
        index.remove([2, 8])
        path = tmp_path / "tiered.npz"
        index.save(path)
        loaded = FerexIndex.load(path)
        assert isinstance(loaded.backend, TieredBackend)
        assert loaded.backend.refine_factor == 4
        before = index.search(queries, k=4)
        after = loaded.search(queries, k=4)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
        assert index.content_fingerprint() == loaded.content_fingerprint()

    def test_coarse_bits_clamped_to_config(self):
        backend = TieredBackend("manhattan", 2, DIMS, coarse_bits=5)
        assert backend.coarse_bits == 2

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="coarse_bits"):
            TieredBackend("hamming", 2, DIMS, coarse_bits=0)
        with pytest.raises(ValueError, match="refine_factor"):
            TieredBackend("hamming", 2, DIMS, refine_factor=0)

    def test_explicit_knobs_win_over_backend_settings(self, stored):
        """Regression: `search(mode="tiered", refine_factor=...)` on a
        tiered-backend index must honor the explicit knob (through a
        shadow), not silently use the backend's own."""
        index = build(
            stored,
            backend="tiered",
            backend_options={"refine_factor": 1},
        )
        queries = stored[:6]
        narrow = index.search(queries, k=8, mode="tiered")
        wide = index.search(
            queries, k=8, mode="tiered", refine_factor=1000
        )
        # The widened shortlist is a full exact search; the backend's
        # own refine_factor=1 shortlist of 8 cannot beat it everywhere.
        assert (wide.distances <= narrow.distances).all()
        assert (wide.distances < narrow.distances).any()

    def test_rescore_ranks_shortlist_by_distance_then_position(self, rng):
        """The search takes the coarse shortlist unordered and ranks
        its exact rescores with the stable selector.  That must equal
        ranking the ordered shortlist on (distance, position).  The
        shapes are wide enough for the selector's partition path at
        both steps."""
        stored = rng.integers(0, 1 << BITS, size=(300, DIMS))
        queries = rng.integers(0, 1 << BITS, size=(32, DIMS))
        index = build(
            stored,
            backend="tiered",
            backend_options={"coarse_bits": 1, "refine_factor": 16},
        )
        index.remove([5, 77, 150])
        backend = index.backend
        coarse_queries = backend._quantize(queries)
        ordered = backend.coarse.shortlist(coarse_queries, 80)
        np.testing.assert_array_equal(
            backend.coarse.shortlist(coarse_queries, 80, ordered=False),
            np.sort(ordered, axis=1),
        )
        rescored = get_metric("manhattan").rowwise(
            queries, stored[ordered], BITS
        )
        order = np.lexsort((ordered, rescored))[:, :5]
        result = index.search(queries, k=5)
        np.testing.assert_array_equal(
            result.ids, np.take_along_axis(ordered, order, axis=1)
        )
        np.testing.assert_array_equal(
            result.distances, np.take_along_axis(rescored, order, axis=1)
        )

    @pytest.mark.parametrize("n, m", [(4, 16), (32, 256)])
    def test_rank_candidates_is_the_distance_position_lexsort(
        self, rng, n, m
    ):
        """The shared rescore ranking equals ``lexsort((positions,
        distances))`` on tie-heavy rows with padded ``+inf`` tails
        (the routed union's shape), on both sides of the selector's
        size crossover."""
        positions = np.sort(rng.choice(10 * m, size=(n, m)), axis=1)
        distances = rng.integers(0, 4, size=(n, m)).astype(float)
        positions[:, -3:] = 2**62
        distances[:, -3:] = np.inf
        for k in (1, 5, m - 3, m):
            order = np.lexsort((positions, distances))[:, :k]
            ids, dist = rank_candidates(positions, distances, k)
            np.testing.assert_array_equal(
                ids, np.take_along_axis(positions, order, axis=1)
            )
            np.testing.assert_array_equal(
                dist, np.take_along_axis(distances, order, axis=1)
            )

    def test_compact_keeps_parity(self, stored, queries):
        index = build(stored, backend="tiered")
        index.remove([0, 1, 2, 3])
        before = index.search(queries, k=4)
        index.compact()
        after = index.search(queries, k=4)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
