"""Loser-take-all comparator: decisions, offsets, top-k, delay/energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.lta import LoserTakeAll
from repro.devices.tech import LTAParams


class TestDecision:
    def test_picks_minimum(self):
        lta = LoserTakeAll(4)
        decision = lta.decide([3e-7, 1e-7, 2e-7, 4e-7])
        assert decision.winner == 1

    def test_single_row(self):
        lta = LoserTakeAll(1)
        decision = lta.decide([5e-7])
        assert decision.winner == 0
        assert decision.margin == float("inf")

    def test_margin_is_gap_to_runner_up(self):
        lta = LoserTakeAll(3)
        decision = lta.decide([1e-7, 4e-7, 9e-7])
        assert decision.margin == pytest.approx(3e-7)

    def test_offsets_can_flip_close_decisions(self):
        offsets = np.array([0.0, -2e-8])
        lta = LoserTakeAll(2, offsets=offsets)
        # Row 0 is nominally smaller by 1e-8, but row 1's offset wins.
        decision = lta.decide([1.0e-7, 1.1e-7])
        assert decision.winner == 1

    def test_offsets_do_not_flip_wide_decisions(self):
        offsets = np.array([0.0, -2e-8])
        lta = LoserTakeAll(2, offsets=offsets)
        decision = lta.decide([1.0e-7, 3.0e-7])
        assert decision.winner == 0

    def test_wrong_input_length_rejected(self):
        lta = LoserTakeAll(3)
        with pytest.raises(ValueError):
            lta.decide([1e-7, 2e-7])

    def test_wrong_offsets_shape_rejected(self):
        with pytest.raises(ValueError):
            LoserTakeAll(3, offsets=np.zeros(2))

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            LoserTakeAll(0)

    def test_int_conversion(self):
        lta = LoserTakeAll(2)
        assert int(lta.decide([2e-7, 1e-7])) == 1


class TestDecideBatch:
    def test_matches_serial_decide_per_row(self, rng):
        offsets = rng.normal(0, 2e-8, size=5)
        lta = LoserTakeAll(5, offsets=offsets)
        matrix = rng.uniform(1e-7, 9e-7, size=(20, 5))
        batch = lta.decide_batch(matrix)
        for i, row in enumerate(matrix):
            serial = lta.decide(row)
            assert batch.winners[i] == serial.winner
            assert batch.margins[i] == serial.margin
            assert batch.delays[i] == serial.delay
            assert batch.energies[i] == serial.energy

    def test_single_row_lta(self):
        lta = LoserTakeAll(1)
        batch = lta.decide_batch(np.array([[1e-7], [2e-7]]))
        assert batch.winners.tolist() == [0, 0]
        assert np.all(np.isinf(batch.margins))

    def test_empty_batch(self):
        lta = LoserTakeAll(3)
        batch = lta.decide_batch(np.empty((0, 3)))
        assert batch.n_queries == 0
        assert batch.winners.shape == (0,)

    def test_shape_validated(self):
        lta = LoserTakeAll(3)
        with pytest.raises(ValueError):
            lta.decide_batch(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            lta.decide_batch(np.zeros(3))

    def test_stable_tie_ordering(self):
        """Exact ties resolve to the lowest row index, matching the
        serial decide()'s stable sort."""
        lta = LoserTakeAll(4)
        batch = lta.decide_batch(np.full((3, 4), 2e-7))
        assert batch.winners.tolist() == [0, 0, 0]


def _argsort_decision(effective):
    """The sort-based winner/margin formula ``decide_batch`` replaced."""
    order = np.argsort(effective, axis=1, kind="stable")
    first = np.take_along_axis(effective, order[:, 0:1], axis=1)[:, 0]
    second = np.take_along_axis(effective, order[:, 1:2], axis=1)[:, 0]
    return order[:, 0], second - first


class TestDecideBatchMatchesArgsort:
    @given(
        n_rows=st.integers(1, 9),
        n_queries=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        with_offsets=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_winners_and_margins_bit_identical(
        self, n_rows, n_queries, seed, with_offsets
    ):
        """Ties, ``+inf`` masked rows, all-``+inf`` rows (margin NaN),
        NaN currents and the one-row LTA all decide exactly as the
        stable argsort did."""
        rng = np.random.default_rng(seed)
        offsets = (
            rng.integers(-2, 3, size=n_rows).astype(float)
            if with_offsets
            else None
        )
        lta = LoserTakeAll(n_rows, offsets=offsets)
        currents = rng.integers(0, 4, size=(n_queries, n_rows)).astype(
            float
        )
        currents[rng.random(currents.shape) < 0.25] = np.inf
        currents[rng.random(currents.shape) < 0.05] = np.nan
        if n_queries:
            currents[0] = np.inf
        batch = lta.decide_batch(currents)
        if n_rows == 1:
            assert batch.winners.tolist() == [0] * n_queries
            assert np.all(np.isinf(batch.margins))
            return
        winners, margins = _argsort_decision(currents + lta.offsets)
        assert np.array_equal(batch.winners, winners)
        assert np.array_equal(batch.margins, margins, equal_nan=True)
        if n_queries:
            assert np.isnan(batch.margins[0])


class TestTopK:
    def test_orders_by_current(self):
        lta = LoserTakeAll(4)
        currents = [3e-7, 1e-7, 2e-7, 4e-7]
        winners = [d.winner for d in lta.decide_k(currents, 3)]
        assert winners == [1, 2, 0]

    def test_k_equals_rows(self):
        lta = LoserTakeAll(3)
        winners = [d.winner for d in lta.decide_k([3e-7, 1e-7, 2e-7], 3)]
        assert sorted(winners) == [0, 1, 2]

    def test_invalid_k_rejected(self):
        lta = LoserTakeAll(3)
        with pytest.raises(ValueError):
            lta.decide_k([1e-7, 2e-7, 3e-7], 0)
        with pytest.raises(ValueError):
            lta.decide_k([1e-7, 2e-7, 3e-7], 4)

    def test_input_not_mutated(self):
        lta = LoserTakeAll(3)
        currents = np.array([3e-7, 1e-7, 2e-7])
        lta.decide_k(currents, 2)
        assert np.array_equal(currents, [3e-7, 1e-7, 2e-7])


class TestDelayEnergy:
    def test_smaller_margin_slower_decision(self):
        lta = LoserTakeAll(8)
        fast = lta.decision_delay(1e-6)
        slow = lta.decision_delay(1e-8)
        assert slow > fast

    def test_delay_floor_at_resolution(self):
        lta = LoserTakeAll(8)
        at_res = lta.decision_delay(lta.resolution_current)
        below = lta.decision_delay(lta.resolution_current / 100)
        assert below == pytest.approx(at_res)

    def test_fanin_term_grows_with_rows(self):
        margin = 1e-7
        small = LoserTakeAll(4).decision_delay(margin)
        large = LoserTakeAll(1024).decision_delay(margin)
        assert large > small

    def test_energy_scales_with_rows(self):
        params = LTAParams()
        delay = 1e-9
        e_small = LoserTakeAll(8, params).decision_energy(delay)
        e_large = LoserTakeAll(512, params).decision_energy(delay)
        assert e_large > e_small

    def test_energy_has_fixed_component(self):
        params = LTAParams()
        lta = LoserTakeAll(2, params)
        assert lta.decision_energy(0.0) == pytest.approx(
            params.fixed_energy
        )
