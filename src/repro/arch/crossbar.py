"""Behavioural simulator of the 1FeFET1R crossbar array.

This is the Python stand-in for the paper's Cadence array netlist.  It
keeps per-device state (threshold voltage, series resistance — both with
sampled process variation), applies the paper's biasing schemes, and
evaluates search currents vectorised over the whole array:

* **write/erase** (paper Sec. III-A): one row selected (RL = 0 V), all
  others inhibited at ``Vwrite / 2`` so their gate stacks never see a
  switching field.  The simulator tracks disturb exposure of inhibited
  cells and drifts their threshold if the inhibited stack voltage
  approaches the coercive voltage — with the paper's scheme it never does,
  which a regression test asserts.
* **search**: search voltages on the SL gates, integer-multiple ``Vds`` on
  the DLs, every ScL clamped at the op-amp reference.  A FeFET conducts
  ``Vds / R`` when ON (clamp regime) and its subthreshold leakage when
  OFF.  Row currents aggregate along the ScL and feed the LTA.

The electrical model matches :mod:`repro.devices.cell` (the fast path)
but evaluates in numpy across the array, which is what makes Monte Carlo
over 100 array instances x thousands of queries tractable.

Batch pipeline
--------------
Three search entry points share one evaluation/decision stack so their
results are bit-identical by construction:

* :meth:`FeReXArray.search` — one query; currents through the blocked
  3-D kernel (:meth:`FeReXArray.cell_currents_block` on a one-query
  block), winner through :meth:`LoserTakeAll.decide` (which delegates
  to the vectorised ``decide_batch``).
* :meth:`FeReXArray.search_batch` / :meth:`FeReXArray.search_k_batch` —
  arbitrary bias matrices, evaluated in ``(chunk, rows, cols)`` blocks.
* :meth:`FeReXArray.search_batch_values` /
  :meth:`FeReXArray.search_k_batch_values` — the associative-memory
  fast path: per-cell currents for the small bias alphabet are
  precomputed once (cached until the next write) and each query block
  is assembled by value-select, an order of magnitude faster again.

Quantized integer kernel
------------------------
On ideal (unvaried, undrifted) arrays every search path above routes
through one more level of compilation: the programmed state collapses
to a small-integer *code* per cell and the bias alphabet to an integer
(value, code) score LUT (:class:`repro.core.kernel.QuantizedKernel`,
compiled once per write generation by
:meth:`FeReXArray.quantized_kernel`), so the hot loop is a gather +
exact blocked reduction instead of re-evaluated float device physics.
Generic bias matrices are matched back onto the registered alphabet
(:meth:`FeReXArray.set_search_alphabet`) so serial, batch and
values-path searches all hit the same kernel and stay bit-identical.
Varied / drifted arrays — the Monte Carlo setting — and foreign bias
matrices keep the float physics path unchanged; ``kernel_enabled``
switches the kernel off entirely (the benchmark baseline).

On the kernel path every comparator offset is zero, so the ``k``
winner-masking LTA rounds of a k-nearest search emit rows in exact
(current, row) order; :func:`repro.core.kernel.top_k_stable` selects
those ``k`` rows per query in one pass instead of re-running the LTA
``k`` times.  The float path keeps the round-by-round LTA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..circuits.lta import LoserTakeAll, LTADecision
from ..core.kernel import top_k_stable
from ..devices.cell import compile_current_lut, fast_cell_currents
from ..devices.tech import TechConfig, DEFAULT_TECH
from ..devices.variation import ArrayVariation, nominal_variation
from .energy import EnergyBreakdown, EnergyModel
from .parasitics import ArrayParasitics, extract
from .timing import SearchTiming, TimingModel


@dataclass
class SearchResult:
    """Everything one array search produces."""

    #: (rows,) aggregated ScL currents, amps.
    row_currents: np.ndarray
    #: (rows,) currents expressed in nominal unit currents (distance reading).
    row_units: np.ndarray
    #: LTA decision (winner row index + electrical metadata).
    decision: LTADecision
    #: Latency breakdown.
    timing: SearchTiming
    #: Energy breakdown.
    energy: EnergyBreakdown

    @property
    def winner(self) -> int:
        return self.decision.winner

    def ranked_rows(self) -> np.ndarray:
        """Row indices sorted by measured current (closest first)."""
        return np.argsort(self.row_currents, kind="stable")


@dataclass
class BatchSearchResult:
    """Vectorised outcome of a query batch."""

    #: (n_queries,) LTA winner per query.
    winners: np.ndarray
    #: (n_queries, rows) distance readings in unit currents.
    row_units: np.ndarray
    #: Latency of each search (identical across the batch).
    timing_per_query: SearchTiming
    #: Energy of each search (nominal-activity estimate).
    energy_per_query: EnergyBreakdown

    @property
    def n_queries(self) -> int:
        return len(self.winners)

    @property
    def total_time(self) -> float:
        """Wall time of the serialised batch, seconds."""
        return self.n_queries * self.timing_per_query.total

    @property
    def total_energy(self) -> float:
        """Energy of the serialised batch, joules."""
        return self.n_queries * self.energy_per_query.total


@dataclass
class BatchSearchKResult:
    """Vectorised outcome of an iterative top-k search over a batch.

    Per query, ``winners`` holds the ``k`` LTA winners in decision order
    (nearest first), matching the list :meth:`FeReXArray.search_k`
    returns for the same query.
    """

    #: (n_queries, k) LTA winners per query, nearest first.
    winners: np.ndarray
    #: (n_queries, rows) distance readings in unit currents.
    row_units: np.ndarray
    #: Latency of each underlying search (identical across the batch).
    timing_per_query: SearchTiming
    #: Energy of each underlying search (nominal-activity estimate).
    energy_per_query: EnergyBreakdown

    @property
    def n_queries(self) -> int:
        return len(self.winners)

    @property
    def k(self) -> int:
        return self.winners.shape[1]


class FeReXArray:
    """A rows x physical_cols 1FeFET1R crossbar with LTA read-out.

    ``physical_cols`` counts FeFET columns; the data-to-device fan-out
    (K FeFETs per encoded element) is handled by the mapping layer in
    :mod:`repro.core.engine`, which drives this class with per-column
    voltages.
    """

    #: Threshold drift per disturb event, volts per volt of overdrive
    #: beyond the safe stack voltage.
    DISTURB_DRIFT_PER_VOLT = 0.01
    #: Multiple of the coercive voltage a half-selected stack tolerates
    #: for one write-pulse duration without measurable switching.
    #: Ferroelectric switching is strongly field-time nonlinear
    #: (nucleation-limited switching): a full-select pulse at ~4x Vc
    #: switches in a microsecond, while a half-select stack at ~1.7x Vc
    #: needs orders of magnitude longer than the pulse [Ni, EDL 2018].
    #: The V/2 inhibition scheme is designed exactly around this margin.
    DISTURB_SAFE_FRACTION = 2.0

    def __init__(
        self,
        rows: int,
        physical_cols: int,
        tech: Optional[TechConfig] = None,
        variation: Optional[ArrayVariation] = None,
        cell_fanout: int = 1,
    ):
        if rows < 1 or physical_cols < 1:
            raise ValueError("array needs at least one row and one column")
        if cell_fanout < 1 or physical_cols % cell_fanout:
            raise ValueError(
                f"cell_fanout {cell_fanout} must divide "
                f"physical_cols {physical_cols}"
            )
        self.rows = rows
        self.physical_cols = physical_cols
        #: FeFET columns per encoded element (the mapping layer's K).
        #: Row currents aggregate per-cell partial sums first, which the
        #: bias-alphabet fast path exploits with a per-cell table.
        self.cell_fanout = cell_fanout
        #: Encoded elements per row.
        self.cells = physical_cols // cell_fanout
        self.tech = tech or DEFAULT_TECH
        if variation is None:
            variation = nominal_variation(rows, physical_cols)
        if variation.shape != (rows, physical_cols):
            raise ValueError(
                f"variation shape {variation.shape} != "
                f"({rows}, {physical_cols})"
            )
        self.variation = variation

        fefet = self.tech.fefet
        erased = fefet.vth_low + fefet.memory_window
        #: Programmed nominal threshold per cell (erased initially).
        self._vth_nominal = np.full((rows, physical_cols), erased)
        #: Disturb-induced drift accumulated per cell, volts.
        self._disturb_drift = np.zeros((rows, physical_cols))
        #: Series resistance per cell, ohms (static variation applied).
        self._resistance = (
            self.tech.cell.resistance * variation.r_factor
        )
        #: Stored MLC level per cell, -1 = erased.
        self.levels = np.full((rows, physical_cols), -1, dtype=int)

        self.parasitics: ArrayParasitics = extract(
            rows,
            physical_cols,
            wire=self.tech.wire,
            cell=self.tech.cell,
            feature_size=self.tech.feature_size,
        )
        self.energy_model = EnergyModel(
            rows, physical_cols, self.tech, self.parasitics
        )
        self.timing_model = TimingModel(
            rows, physical_cols, self.tech, self.parasitics
        )
        self._lta = LoserTakeAll(
            rows, self.tech.lta, offsets=variation.lta_offset
        )
        #: Cumulative write energy, joules.
        self.write_energy_total = 0.0
        #: Count of disturb-unsafe exposures observed (should stay 0).
        self.disturb_violations = 0
        #: Bumped on every write so cached search tables invalidate.
        self.write_generation = 0
        self._bias_table_cache: Optional[tuple] = None
        #: Master switch for the quantized integer kernel; ``False``
        #: forces the float-physics path everywhere (the benchmark
        #: baseline and an escape hatch).
        self.kernel_enabled = True
        #: Registered bias alphabet generic searches are matched onto.
        self._alphabet: Optional[tuple] = None
        self._kernel_cache: Optional[tuple] = None
        self._ideal_variation: Optional[bool] = None

    # ------------------------------------------------------------------
    # Observable device state
    # ------------------------------------------------------------------
    @property
    def vth(self) -> np.ndarray:
        """Actual per-cell thresholds: nominal + D2D offset + drift."""
        return (
            self._vth_nominal
            + self.variation.vth_offset
            + self._disturb_drift
        )

    @property
    def resistance(self) -> np.ndarray:
        """Actual per-cell series resistance, ohms."""
        return self._resistance

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def erase_row(self, row: int) -> None:
        """Block-erase one row to the highest threshold state."""
        self._check_row(row)
        self.write_generation += 1
        fefet = self.tech.fefet
        self._vth_nominal[row, :] = fefet.vth_low + fefet.memory_window
        self.levels[row, :] = -1
        self._account_write(self.physical_cols)
        self._apply_disturb(row)

    def program_row(self, row: int, levels: Sequence[int]) -> None:
        """Erase-then-program a full row of MLC levels.

        ``levels`` must contain valid level indices
        (``0 .. n_vth_levels-1``); the whole row is written in one
        erase + one program pulse per level group, with every other row
        inhibited.
        """
        self._check_row(row)
        levels = np.asarray(levels, dtype=int)
        if levels.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} levels, got {levels.shape}"
            )
        fefet = self.tech.fefet
        if levels.min() < 0 or levels.max() >= fefet.n_vth_levels:
            raise ValueError("level outside the device MLC range")

        self.erase_row(row)
        self.write_generation += 1
        nominal = np.array([fefet.vth_level(lv) for lv in levels])
        self._vth_nominal[row, :] = nominal
        self.levels[row, :] = levels
        self._account_write(self.physical_cols)
        self._apply_disturb(row)

    def program_matrix(self, levels: np.ndarray) -> None:
        """Program every row of the array from a (rows, cols) level matrix.

        Fast path equivalent to looping :meth:`program_row` over every
        row, but O(rows): delegates to :meth:`program_rows` on the full
        row span, so thresholds are written through one vectorised
        level-to-Vth lookup and the erase/program energy plus half-select
        disturb exposure are accounted in a single closed-form pass
        instead of the per-written-row loop (which re-touches every
        *other* row per write, O(rows^2) work in total).  Unlike the
        loop, validation happens up front, so an invalid level matrix
        leaves the array untouched.
        """
        levels = np.asarray(levels, dtype=int)
        if levels.shape != (self.rows, self.physical_cols):
            raise ValueError(
                f"expected shape ({self.rows}, {self.physical_cols}), "
                f"got {levels.shape}"
            )
        self.program_rows(0, levels)

    def program_rows(self, start: int, levels: np.ndarray) -> None:
        """Erase-then-program a contiguous slice of rows, vectorised.

        The row-level incremental write path: rows ``start ..
        start + n - 1`` are written from an (n, physical_cols) level
        matrix while every other row is inhibited, leaving previously
        programmed rows untouched.  This is how a deployed bank admits
        new vectors without a full re-program (see
        :class:`repro.index.FerexIndex`).  Energy and half-select
        disturb exposure are accounted in closed form, identical to the
        per-row loop summed analytically; validation happens up front so
        an invalid write leaves the array untouched.
        """
        levels = np.asarray(levels, dtype=int)
        if levels.ndim != 2 or levels.shape[1] != self.physical_cols:
            raise ValueError(
                f"expected (n, {self.physical_cols}) levels, got "
                f"{levels.shape}"
            )
        n = levels.shape[0]
        if n < 1:
            raise ValueError("need at least one row to program")
        if not 0 <= start or start + n > self.rows:
            raise ValueError(
                f"row span [{start}, {start + n}) outside [0, {self.rows})"
            )
        fefet = self.tech.fefet
        if levels.min() < 0 or levels.max() >= fefet.n_vth_levels:
            raise ValueError("level outside the device MLC range")

        self.write_generation += 1
        vth_lut = np.array(
            [fefet.vth_level(lv) for lv in range(fefet.n_vth_levels)]
        )
        self._vth_nominal[start : start + n] = vth_lut[levels]
        self.levels[start : start + n] = levels
        # Each written row costs one erase pulse + one program pulse over
        # all of its cells, exactly as in program_row.
        self._account_write(self.physical_cols, n_pulses=2 * n)
        self._apply_disturb_rows(start, n, pulses_per_row=2)

    def _apply_disturb_rows(
        self, start: int, n: int, pulses_per_row: int
    ) -> None:
        """Closed-form disturb accounting for an n-row slice write.

        Each pulse on a written row half-selects every *other* row, so a
        row outside the slice sees ``pulses_per_row * n`` events while a
        row inside it sees ``pulses_per_row * (n - 1)`` (it is fully
        selected, not inhibited, during its own write) — the same
        exposure the per-row :meth:`_apply_disturb` loop accumulates,
        summed analytically.
        """
        fefet = self.tech.fefet
        half = 0.5 * self.tech.driver.write_voltage
        safe = self.DISTURB_SAFE_FRACTION * fefet.coercive_voltage
        overdrive = half - safe
        if overdrive <= 0:
            return
        events = np.full(self.rows, pulses_per_row * n, dtype=float)
        events[start : start + n] = pulses_per_row * (n - 1)
        self._disturb_drift -= (
            self.DISTURB_DRIFT_PER_VOLT * overdrive * events[:, None]
        )
        self.disturb_violations += (
            pulses_per_row * n * (self.rows - 1) * self.physical_cols
        )

    def _account_write(self, n_cells: int, n_pulses: int = 1) -> None:
        self.write_energy_total += (
            n_pulses * self.energy_model.write_energy(n_cells).total
        )

    def _apply_disturb(self, written_row: int) -> None:
        """Model half-select stress on every *other* row.

        The inhibited stack voltage is ``Vwrite - Vwrite/2 = Vwrite/2``.
        If that exceeds the safe fraction of the coercive voltage the
        threshold of inhibited cells drifts down slightly and the event is
        counted; with the paper's inhibition scheme it never triggers.
        """
        fefet = self.tech.fefet
        half = 0.5 * self.tech.driver.write_voltage
        safe = self.DISTURB_SAFE_FRACTION * fefet.coercive_voltage
        overdrive = half - safe
        if overdrive <= 0:
            return
        mask = np.ones(self.rows, dtype=bool)
        mask[written_row] = False
        self._disturb_drift[mask, :] -= (
            self.DISTURB_DRIFT_PER_VOLT * overdrive
        )
        self.disturb_violations += int(mask.sum()) * self.physical_cols

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} outside [0, {self.rows})")

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def cell_currents(
        self,
        sl_voltages: Sequence[float],
        dl_multiples: Sequence[int],
    ) -> np.ndarray:
        """(rows, cols) per-cell currents under the given search bias.

        Vectorised fast-path model: ON cells are clamped to ``Vds / R``
        (the series resistor dominates); OFF cells leak the subthreshold
        current capped by the clamp.  One-query view of
        :meth:`cell_currents_block`, which is the shared evaluation
        kernel of :meth:`search` and :meth:`search_batch`.
        """
        sl = np.asarray(sl_voltages, dtype=float)
        dl = np.asarray(dl_multiples, dtype=int)
        if sl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} SL voltages, got {sl.shape}"
            )
        if dl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} DL levels, got {dl.shape}"
            )
        return self.cell_currents_block(sl[None, :], dl[None, :])[0]

    def cell_currents_block(
        self,
        sl_block: np.ndarray,
        dl_block: np.ndarray,
    ) -> np.ndarray:
        """(n_queries, rows, cols) per-cell currents for a query block.

        The 3-D evaluation kernel behind both the serial and the batch
        search paths: the device physics broadcasts over a leading query
        axis, so a block of queries costs one numpy pass instead of a
        Python loop.  Per-element arithmetic is identical to the
        one-query case, which keeps serial and batch results
        bit-identical.
        """
        sl = np.asarray(sl_block, dtype=float)
        dl = np.asarray(dl_block, dtype=int)
        if sl.ndim != 2 or sl.shape[1] != self.physical_cols:
            raise ValueError(
                f"expected (n, {self.physical_cols}) SL block, got "
                f"{sl.shape}"
            )
        if dl.shape != sl.shape:
            raise ValueError("SL and DL blocks must have equal shapes")
        cell = self.tech.cell
        if dl.size and (dl.min() < 0 or dl.max() > cell.max_vds_multiple):
            raise ValueError("DL multiple outside the selector's range")

        return fast_cell_currents(
            sl[:, None, :],
            dl[:, None, :],
            self.vth[None, :, :],
            self._resistance[None, :, :],
            self.tech.fefet,
            cell,
        )

    def _cell_sums(self, currents: np.ndarray) -> np.ndarray:
        """(n, rows, cells) per-cell partial sums of (n, rows, cols)
        currents: each encoded element's ``cell_fanout`` FeFET columns
        aggregate first.  Both the serial and every batch path reduce
        through this same two-stage tree, which keeps them bit-identical
        and lets the bias-alphabet fast path precompute per-cell sums.
        """
        if self.cell_fanout == 1:
            return currents
        n = currents.shape[0]
        return currents.reshape(
            n, self.rows, self.cells, self.cell_fanout
        ).sum(axis=3)

    def _row_currents_block(
        self, sl_block: np.ndarray, dl_block: np.ndarray
    ) -> np.ndarray:
        """(n_queries, rows) aggregated, gain-scaled ScL currents."""
        currents = self.cell_currents_block(sl_block, dl_block)
        # Per-row sensing gain: residual ScL clamp error scales every
        # cell's Vds in a row, hence the whole row reading.
        return (
            self._cell_sums(currents).sum(axis=2)
            * self.variation.row_gain[None, :]
        )

    def search(
        self,
        sl_voltages: Sequence[float],
        dl_multiples: Sequence[int],
        active_rows: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """One associative search: bias, aggregate, LTA-decide.

        ``active_rows`` optionally masks rows out of the competition (used
        by iterative top-k search); masked rows still conduct but their
        LTA branch is disabled.
        """
        sl = np.asarray(sl_voltages, dtype=float)
        dl = np.asarray(dl_multiples, dtype=int)
        if sl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} SL voltages, got {sl.shape}"
            )
        if dl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} DL levels, got {dl.shape}"
            )
        kernel_currents = self._generic_kernel_currents(
            sl[None, :], dl[None, :]
        )
        if kernel_currents is not None:
            row_currents = kernel_currents[0]
        else:
            row_currents = self._row_currents_block(
                sl[None, :], dl[None, :]
            )[0]

        active = self._validate_active_rows(active_rows)
        compete = self._masked_compete(row_currents[None, :], active)[0]

        decision = self._lta.decide(compete)
        timing = self.timing_model.search_timing(decision.margin)
        energy = self.energy_model.search_energy(row_currents, dl, timing)
        energy.add("lta", 0.0)  # ensure key exists even for 1-row arrays
        row_units = row_currents / self.tech.cell.unit_current
        return SearchResult(
            row_currents=row_currents,
            row_units=row_units,
            decision=decision,
            timing=timing,
            energy=energy,
        )

    def _validate_batch_bias(
        self, sl_matrix: np.ndarray, dl_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sl_matrix = np.asarray(sl_matrix, dtype=float)
        dl_matrix = np.asarray(dl_matrix, dtype=int)
        if sl_matrix.ndim != 2 or sl_matrix.shape[1] != self.physical_cols:
            raise ValueError(
                f"expected (n, {self.physical_cols}) SL matrix, got "
                f"{sl_matrix.shape}"
            )
        if dl_matrix.shape != sl_matrix.shape:
            raise ValueError("SL and DL matrices must have equal shapes")
        return sl_matrix, dl_matrix

    def _resolve_chunk(self, chunk: Optional[int]) -> int:
        """Queries per numpy block; ``None`` auto-sizes to keep the
        working tensor cache-resident (~2^18 cells per block)."""
        if chunk is None:
            chunk = (1 << 18) // max(1, self.rows * self.physical_cols)
        return max(1, chunk)

    def _batch_row_currents(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        chunk: Optional[int],
    ) -> np.ndarray:
        """(n_queries, rows) row currents, evaluated in blocked 3-D numpy."""
        n_queries = sl_matrix.shape[0]
        chunk = self._resolve_chunk(chunk)
        row_currents = np.empty((n_queries, self.rows))
        for start in range(0, n_queries, chunk):
            stop = min(start + chunk, n_queries)
            row_currents[start:stop] = self._row_currents_block(
                sl_matrix[start:stop], dl_matrix[start:stop]
            )
        return row_currents

    def _bias_current_table(
        self, sl_values: np.ndarray, dl_values: np.ndarray
    ) -> np.ndarray:
        """(n_values, rows, cells) per-cell current sums per alphabet entry.

        Cell currents for every alphabet row are evaluated through the
        shared physics kernel and pre-reduced over each cell's
        ``cell_fanout`` columns (the same within-cell tree
        :meth:`_cell_sums` applies everywhere).  Memoised against the
        write generation: re-programming any row (or a new bias
        alphabet) invalidates the table, while back-to-back searches —
        the Monte Carlo / inference hot path — reuse it.
        """
        key = (
            self.write_generation,
            sl_values.tobytes(),
            dl_values.tobytes(),
        )
        if self._bias_table_cache is not None:
            cached_key, table = self._bias_table_cache
            if cached_key == key:
                return table
        table = self._cell_sums(
            self.cell_currents_block(sl_values, dl_values)
        )
        self._bias_table_cache = (key, table)
        return table

    def _row_currents_from_table(
        self,
        table: np.ndarray,
        value_index: np.ndarray,
        chunk: Optional[int],
    ) -> np.ndarray:
        """(n_queries, rows) row currents via the bias-alphabet table.

        Per block, the (chunk, rows, cells) per-cell sum tensor is
        assembled by value-select from ``table`` — the per-cell floats
        are exactly the ones :meth:`_row_currents_block` produces, so
        the subsequent (identical) reduction keeps this path
        bit-identical to the generic kernel at a fraction of its cost.
        """
        n_queries, n_values = value_index.shape[0], table.shape[0]
        chunk = self._resolve_chunk(chunk)
        row_currents = np.empty((n_queries, self.rows))
        for start in range(0, n_queries, chunk):
            stop = min(start + chunk, n_queries)
            block_index = value_index[start:stop][:, None, :]
            if n_values > 1:
                currents = np.where(
                    block_index == 0, table[0], table[1]
                )
            else:
                currents = np.broadcast_to(
                    table[0], (stop - start, *table.shape[1:])
                )
            for v in range(2, n_values):
                np.copyto(currents, table[v], where=block_index == v)
            row_currents[start:stop] = (
                currents.sum(axis=2) * self.variation.row_gain[None, :]
            )
        return row_currents

    # ------------------------------------------------------------------
    # Quantized integer kernel
    # ------------------------------------------------------------------
    def set_search_alphabet(
        self, sl_values: np.ndarray, dl_values: np.ndarray
    ) -> None:
        """Register the bias alphabet generic searches are drawn from.

        The mapping layer (:class:`repro.core.engine.FeReX`) calls this
        with its per-value bias tables; generic :meth:`search` /
        :meth:`search_batch` / :meth:`search_k_batch` calls then try to
        match their bias matrices back onto the alphabet and route
        through the quantized kernel, keeping them bit-identical to the
        values fast path.  Unrelated bias matrices simply fail the match
        and fall back to the float physics.
        """
        sl_values, dl_values = self._validate_batch_bias(
            sl_values, dl_values
        )
        self._alphabet = (sl_values, dl_values)

    def _variation_is_ideal(self) -> bool:
        """True when every sampled device/comparator variation is
        exactly nominal — the static half of the kernel's eligibility
        gate (a shared per-symbol LUT cannot model per-device spread).
        Cached: the variation object is fixed at construction."""
        if self._ideal_variation is None:
            v = self.variation
            self._ideal_variation = bool(
                not np.any(v.vth_offset)
                and np.all(v.r_factor == 1.0)
                and not np.any(v.lta_offset)
                and np.all(v.row_gain == 1.0)
            )
        return self._ideal_variation

    def _kernel_for(self, sl_values: np.ndarray, dl_values: np.ndarray):
        """The compiled :class:`repro.core.kernel.QuantizedKernel` for a
        bias alphabet, or ``None`` when the array is ineligible.

        Memoised against the write generation exactly like the float
        bias table; ineligible combinations memoise ``None`` so the
        float path does not re-attempt compilation on every batch.
        """
        if not self.kernel_enabled:
            return None
        key = (
            self.write_generation,
            sl_values.tobytes(),
            dl_values.tobytes(),
        )
        if self._kernel_cache is not None:
            cached_key, kernel = self._kernel_cache
            if cached_key == key:
                return kernel
        kernel = self._compile_kernel(sl_values, dl_values)
        self._kernel_cache = (key, kernel)
        return kernel

    def _compile_kernel(self, sl_values: np.ndarray, dl_values: np.ndarray):
        """Compile (codes, LUT) for one write generation; ``None`` when
        ineligible (varied/drifted devices, a bias alphabet that is not
        cell-uniform, or a geometry beyond the exact-integer bound).
        """
        if not self._variation_is_ideal() or np.any(self._disturb_drift):
            return None
        k = self.cell_fanout
        n_values = sl_values.shape[0]
        sl_cells = sl_values.reshape(n_values, self.cells, k)
        dl_cells = dl_values.reshape(n_values, self.cells, k)
        # A shared (value, symbol) LUT needs every cell to see the same
        # per-value bias — the engine tiles one element alphabet across
        # all cells, so this holds on every mapped configuration.
        if self.cells > 1 and (
            np.any(sl_cells != sl_cells[:, :1, :])
            or np.any(dl_cells != dl_cells[:, :1, :])
        ):
            return None
        # Deferred import: repro.core pulls in the engine, which imports
        # this module back.
        from ..core.kernel import (
            KernelOverflowError,
            LUTKernel,
            QuantizedKernel,
            select_quantum,
        )

        state = self.levels.reshape(self.rows * self.cells, k)
        _, first, codes = np.unique(
            state, axis=0, return_index=True, return_inverse=True
        )
        codes = codes.reshape(self.rows, self.cells)
        vth_symbols = self._vth_nominal.reshape(
            self.rows * self.cells, k
        )[first]
        raw = compile_current_lut(
            sl_cells[:, 0, :], dl_cells[:, 0, :], vth_symbols, self.tech
        )
        try:
            quantum = select_quantum(
                float(np.abs(raw).max()) if raw.size else 0.0,
                self.cells,
                self.tech.cell.unit_current,
            )
            kernel = LUTKernel(
                codes, np.rint(raw / quantum).astype(np.int64)
            )
        except KernelOverflowError:
            return None
        return QuantizedKernel(
            kernel=kernel, quantum=quantum, raw_currents=raw
        )

    def quantized_kernel(self):
        """The compiled kernel for the registered search alphabet, or
        ``None`` when no alphabet is registered or the array is
        ineligible (varied devices, kernel disabled, overflow)."""
        if self._alphabet is None:
            return None
        return self._kernel_for(*self._alphabet)

    def _match_value_index(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
    ) -> Optional[np.ndarray]:
        """(n, cells) alphabet row per query cell, or ``None`` when any
        cell's bias is not an exact alphabet entry.

        Only called once the alphabet compiled (hence is cell-uniform),
        so each query cell is compared against the per-element alphabet
        slice.  Exact float equality is intentional: conforming queries
        are tiled from the very same tables, and anything else must take
        the physics path.
        """
        n = sl_matrix.shape[0]
        n_values = sl_values.shape[0]
        k = self.cell_fanout
        sl_q = sl_matrix.reshape(n, self.cells, k)
        dl_q = dl_matrix.reshape(n, self.cells, k)
        sl_a = sl_values.reshape(n_values, self.cells, k)[:, 0, :]
        dl_a = dl_values.reshape(n_values, self.cells, k)[:, 0, :]
        match = np.all(
            sl_q[:, :, None, :] == sl_a[None, None, :, :], axis=3
        ) & np.all(dl_q[:, :, None, :] == dl_a[None, None, :, :], axis=3)
        if not match.any(axis=2).all():
            return None
        return match.argmax(axis=2)

    def _generic_kernel_currents(
        self, sl_matrix: np.ndarray, dl_matrix: np.ndarray
    ) -> Optional[np.ndarray]:
        """(n, rows) kernel row currents for a generic bias matrix drawn
        from the registered alphabet; ``None`` routes the caller to the
        float physics path."""
        if self._alphabet is None or not self.kernel_enabled:
            return None
        sl_values, dl_values = self._alphabet
        kernel = self._kernel_for(sl_values, dl_values)
        if kernel is None:
            return None
        value_index = self._match_value_index(
            sl_matrix, dl_matrix, sl_values, dl_values
        )
        if value_index is None:
            return None
        return kernel.row_currents(value_index)

    def _validate_value_bias(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sl_values, dl_values = self._validate_batch_bias(
            sl_values, dl_values
        )
        value_index = np.asarray(value_index, dtype=int)
        if value_index.ndim != 2 or value_index.shape[1] != self.cells:
            raise ValueError(
                f"expected (n, {self.cells}) per-cell value index, got "
                f"{value_index.shape}"
            )
        n_values = sl_values.shape[0]
        if value_index.size and (
            value_index.min() < 0 or value_index.max() >= n_values
        ):
            raise ValueError(
                f"value index outside [0, {n_values}) bias alphabet"
            )
        return sl_values, dl_values, value_index

    def _first_query_dl(
        self, dl_values: np.ndarray, value_index: np.ndarray
    ) -> Optional[np.ndarray]:
        """(physical_cols,) drain levels of the first query, for the
        nominal-activity energy estimate; ``None`` on empty batches."""
        if not len(value_index):
            return None
        per_col = np.repeat(value_index[0], self.cell_fanout)
        return dl_values[per_col, np.arange(self.physical_cols)]

    def _nominal_batch_accounting(
        self, dl_first: Optional[np.ndarray], row_currents: np.ndarray
    ) -> tuple[SearchTiming, EnergyBreakdown]:
        """Per-query timing/energy at nominal activity (first query)."""
        n_queries = row_currents.shape[0]
        timing = self.timing_model.search_timing()
        energy = self.energy_model.search_energy(
            row_currents[0] if n_queries else np.zeros(self.rows),
            dl_first
            if dl_first is not None
            else np.zeros(self.physical_cols, int),
            timing,
        )
        energy.add("lta", 0.0)  # defensive parity with serial search()
        return timing, energy

    def _validate_active_rows(
        self, active_rows: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Normalise the optional competition mask to a (rows,) bool
        array (``None`` = all rows compete)."""
        if active_rows is None:
            return None
        active_rows = np.asarray(active_rows, dtype=bool)
        if active_rows.shape != (self.rows,):
            raise ValueError("active_rows must have one flag per row")
        if not active_rows.any():
            raise ValueError(
                "active_rows must leave at least one row competing"
            )
        return active_rows

    def _masked_compete(
        self, row_currents: np.ndarray, active: Optional[np.ndarray]
    ) -> np.ndarray:
        """Competition currents with masked rows' LTA branches disabled
        (the interface MUX disconnects their ScL, modelled as +inf)."""
        if active is None:
            return row_currents.copy()
        return np.where(active[None, :], row_currents, np.inf)

    def _finish_search_batch(
        self,
        row_currents: np.ndarray,
        dl_first: Optional[np.ndarray],
        active: Optional[np.ndarray] = None,
    ) -> "BatchSearchResult":
        decisions = self._lta.decide_batch(
            self._masked_compete(row_currents, active)
        )
        timing, energy = self._nominal_batch_accounting(
            dl_first, row_currents
        )
        return BatchSearchResult(
            winners=decisions.winners.astype(int),
            row_units=row_currents / self.tech.cell.unit_current,
            timing_per_query=timing,
            energy_per_query=energy,
        )

    def _finish_search_k_batch(
        self,
        row_currents: np.ndarray,
        dl_first: Optional[np.ndarray],
        k: int,
        active: Optional[np.ndarray] = None,
    ) -> "BatchSearchKResult":
        n_queries = row_currents.shape[0]
        compete = self._masked_compete(row_currents, active)
        winners = np.empty((n_queries, k), dtype=int)
        arange = np.arange(n_queries)
        for round_ in range(k):
            decisions = self._lta.decide_batch(compete)
            winners[:, round_] = decisions.winners
            compete[arange, decisions.winners] = np.inf
        timing, energy = self._nominal_batch_accounting(
            dl_first, row_currents
        )
        return BatchSearchKResult(
            winners=winners,
            row_units=row_currents / self.tech.cell.unit_current,
            timing_per_query=timing,
            energy_per_query=energy,
        )

    def _finish_search_k_batch_ranked(
        self,
        row_currents: np.ndarray,
        dl_first: Optional[np.ndarray],
        k: int,
        active: Optional[np.ndarray] = None,
    ) -> "BatchSearchKResult":
        """Kernel-path equivalent of :meth:`_finish_search_k_batch`.

        With every comparator offset zero — a kernel eligibility
        condition — each LTA round is a stable argmin, and masking the
        winner to ``+inf`` then re-deciding selects exactly the next
        entry in (current, row) order.  The ``k`` rounds therefore
        collapse to one stable top-k selection
        (:func:`repro.core.kernel.top_k_stable`): bit-identical winners
        without re-deciding ``k`` times or ordering the rows that lose.
        """
        compete = self._masked_compete(row_currents, active)
        winners = top_k_stable(compete, k)
        timing, energy = self._nominal_batch_accounting(
            dl_first, row_currents
        )
        return BatchSearchKResult(
            winners=winners.astype(int),
            row_units=row_currents / self.tech.cell.unit_current,
            timing_per_query=timing,
            energy_per_query=energy,
        )

    def _check_batch_k(
        self, k: int, active: Optional[np.ndarray]
    ) -> None:
        n_competing = self.rows if active is None else int(active.sum())
        if not 1 <= k <= n_competing:
            raise ValueError(f"k={k} outside [1, {n_competing}]")

    def search_batch(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        chunk: Optional[int] = None,
        active_rows: Optional[np.ndarray] = None,
    ) -> "BatchSearchResult":
        """Vectorised search over a batch of arbitrary bias vectors.

        Electrically equivalent to calling :meth:`search` per query (the
        array is time-multiplexed; nothing is shared between queries) and
        bit-identical to it by construction: cell currents are evaluated
        through the same blocked 3-D kernel
        (:meth:`cell_currents_block`, in ``(chunk, rows, cols)`` tensors)
        and winners come from the same vectorised LTA decision path
        (:meth:`LoserTakeAll.decide_batch`) that serial :meth:`search`
        delegates to — including comparator offsets and stable tie
        ordering.  Per-query timing/energy are identical across the
        batch at the nominal margin, so the models are evaluated once.

        When the batch is drawn from a small bias alphabet (every query
        picks each column's bias from a few encoded levels — the AM
        setting), :meth:`search_batch_values` is substantially faster.

        Parameters
        ----------
        sl_matrix / dl_matrix:
            (n_queries, physical_cols) search voltages and drain levels.
        chunk:
            Queries per numpy block (bounds peak memory at
            ``chunk * rows * cols`` floats); values below 1 are clamped
            to 1, ``None`` auto-sizes for cache residency.
        active_rows:
            Optional (rows,) bool mask; ``False`` rows still conduct but
            their LTA branch is disabled (used for unwritten capacity
            and tombstoned rows in a :class:`repro.index.FerexIndex`
            bank), exactly as in serial :meth:`search`.
        """
        sl_matrix, dl_matrix = self._validate_batch_bias(
            sl_matrix, dl_matrix
        )
        active = self._validate_active_rows(active_rows)
        row_currents = self._generic_kernel_currents(sl_matrix, dl_matrix)
        if row_currents is None:
            row_currents = self._batch_row_currents(
                sl_matrix, dl_matrix, chunk
            )
        dl_first = dl_matrix[0] if len(dl_matrix) else None
        return self._finish_search_batch(row_currents, dl_first, active)

    def search_batch_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
        chunk: Optional[int] = None,
        active_rows: Optional[np.ndarray] = None,
    ) -> "BatchSearchResult":
        """Vectorised batch search over a small per-column bias alphabet.

        The associative-memory fast path: every query biases column ``c``
        with one of ``n_values`` encoded levels, so per-cell currents are
        precomputed once into a ``(n_values, rows, cols)`` table (cached
        across calls until the array is re-programmed) and each query
        block is assembled by value-select instead of re-evaluating the
        device physics.  Results are bit-identical to
        :meth:`search_batch` / looped :meth:`search` on the equivalent
        expanded matrices — the summed per-cell floats are exactly the
        ones the shared physics kernel produces.

        Parameters
        ----------
        sl_values / dl_values:
            (n_values, physical_cols) bias alphabet: row ``v`` holds the
            column biases a query element with value ``v`` applies to
            its cell's ``cell_fanout`` columns.
        value_index:
            (n_queries, cells) integer alphabet row per query per
            encoded element.
        chunk / active_rows:
            As in :meth:`search_batch`.
        """
        sl_values, dl_values, value_index = self._validate_value_bias(
            sl_values, dl_values, value_index
        )
        active = self._validate_active_rows(active_rows)
        kernel = self._kernel_for(sl_values, dl_values)
        if kernel is not None:
            row_currents = kernel.row_currents(value_index)
        else:
            table = self._bias_current_table(sl_values, dl_values)
            row_currents = self._row_currents_from_table(
                table, value_index, chunk
            )
        return self._finish_search_batch(
            row_currents, self._first_query_dl(dl_values, value_index),
            active,
        )

    def readout_batch_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
        chunk: Optional[int] = None,
    ) -> np.ndarray:
        """(n_queries, rows) unit-current readings over the bias
        alphabet — :meth:`search_batch_values` without the comparator.

        The shortlist/coarse-tier primitive: a caller that ranks rows
        itself (e.g. merging readouts across banks) only needs the
        match-line currents, so the LTA decision and the per-query
        timing/energy accounting of a full search would be pure
        overhead.  The readings are exactly the ``row_units`` the full
        search returns — same kernel, same float path.
        """
        sl_values, dl_values, value_index = self._validate_value_bias(
            sl_values, dl_values, value_index
        )
        kernel = self._kernel_for(sl_values, dl_values)
        if kernel is not None:
            row_currents = kernel.row_currents(value_index)
        else:
            table = self._bias_current_table(sl_values, dl_values)
            row_currents = self._row_currents_from_table(
                table, value_index, chunk
            )
        return row_currents / self.tech.cell.unit_current

    def search_k(
        self,
        sl_voltages: Sequence[float],
        dl_multiples: Sequence[int],
        k: int,
    ) -> list[SearchResult]:
        """Iterative k-nearest search: mask each winner and re-decide."""
        if not 1 <= k <= self.rows:
            raise ValueError(f"k={k} outside [1, {self.rows}]")
        active = np.ones(self.rows, dtype=bool)
        results = []
        for _ in range(k):
            result = self.search(sl_voltages, dl_multiples, active)
            results.append(result)
            active[result.winner] = False
        return results

    def search_k_batch(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        k: int,
        chunk: Optional[int] = None,
        active_rows: Optional[np.ndarray] = None,
    ) -> "BatchSearchKResult":
        """Vectorised iterative k-nearest search over a query batch.

        Equivalent to calling :meth:`search_k` per query: row currents
        are evaluated once through the blocked 3-D kernel, then the
        vectorised LTA decides ``k`` rounds, masking each round's winner
        out of the competition (the interface MUX disconnecting the ScL,
        exactly as in the serial flow).  ``active_rows`` pre-masks rows
        out of every round (unwritten capacity / tombstones); ``k`` is
        then bounded by the number of competing rows.
        """
        sl_matrix, dl_matrix = self._validate_batch_bias(
            sl_matrix, dl_matrix
        )
        active = self._validate_active_rows(active_rows)
        self._check_batch_k(k, active)
        row_currents = self._generic_kernel_currents(sl_matrix, dl_matrix)
        if row_currents is not None:
            dl_first = dl_matrix[0] if len(dl_matrix) else None
            return self._finish_search_k_batch_ranked(
                row_currents, dl_first, k, active
            )
        row_currents = self._batch_row_currents(sl_matrix, dl_matrix, chunk)
        dl_first = dl_matrix[0] if len(dl_matrix) else None
        return self._finish_search_k_batch(row_currents, dl_first, k, active)

    def search_k_batch_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
        k: int,
        chunk: Optional[int] = None,
        active_rows: Optional[np.ndarray] = None,
    ) -> "BatchSearchKResult":
        """Bias-alphabet fast path of :meth:`search_k_batch`.

        Same value-select current assembly as
        :meth:`search_batch_values`, followed by the ``k``-round
        winner-masking LTA flow over the ``active_rows`` competition.
        """
        sl_values, dl_values, value_index = self._validate_value_bias(
            sl_values, dl_values, value_index
        )
        active = self._validate_active_rows(active_rows)
        self._check_batch_k(k, active)
        kernel = self._kernel_for(sl_values, dl_values)
        if kernel is not None:
            return self._finish_search_k_batch_ranked(
                kernel.row_currents(value_index),
                self._first_query_dl(dl_values, value_index), k, active,
            )
        table = self._bias_current_table(sl_values, dl_values)
        row_currents = self._row_currents_from_table(
            table, value_index, chunk
        )
        return self._finish_search_k_batch(
            row_currents, self._first_query_dl(dl_values, value_index), k,
            active,
        )
