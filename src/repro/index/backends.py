"""Pluggable search backends for :class:`repro.index.FerexIndex`.

A backend is a *position-space* nearest-neighbor engine: the index owns
ids and the canonical vector store; the backend answers ``search`` with
global insertion positions, and is told about every mutation through the
same three verbs the index exposes (``add`` / ``deactivate`` /
``rebuild``).  Every backend carries a :class:`repro.core.BankConfig` —
the (metric, bits) pair it is currently voltaged for — and four
implementations ship:

* :class:`FerexBackend` — sharded banks of :class:`repro.core.FeReX`
  engines.  Vectors fill a bank row by row through the crossbar's
  incremental write path (:meth:`FeReXArray.program_rows`); when a bank
  reaches ``bank_rows`` capacity the next one opens.  Searches ride the
  batched ``search_k_batch`` fast path per bank, with unoccupied
  capacity and tombstoned rows masked out of the LTA competition, and
  bank candidates merge through one vectorised lexsort on
  (analog distance, global position) — exactly how a multi-bank FeFET
  CAM deployment composes its LTA outputs.  Banks may carry
  *heterogeneous* configs: a bank re-voltaged at fewer bits stores the
  top bits of the canonical codes (:func:`repro.core.quantize_codes`)
  and quantises queries the same way, which is how a coarse
  low-precision tier shares the fleet with full-precision banks.
* :class:`ExactBackend` — the exact software reference
  (:meth:`DistanceMetric.pairwise`), the baseline hardware winners are
  validated against.
* :class:`GPUBackend` — a real compute backend: the quantized kernel's
  gather + reduce over a per-element metric LUT, executed on cupy or
  torch when installed (numpy otherwise) via :mod:`repro.core.xp`,
  with the roofline latency/energy estimate
  (:class:`repro.eval.gpu_model.GPUCostModel`) priced per search; pass
  ``estimate_only=True`` for the estimator-only legacy mode.
* :class:`TieredBackend` — coarse-to-fine search: a cheap low-bit
  :class:`FerexBackend` pass over all banks nominates the top
  ``refine_factor * k`` candidates, which are rescored at full
  precision (:meth:`DistanceMetric.rowwise`).  The classic ANN
  accelerator pattern the paper's reconfigurability enables: the same
  stored set served at two precisions, paying the wide-alphabet cell
  cost only for a shortlist.

Memory note
-----------
Backends mirror the vectors the index stores canonically (and the ferex
path additionally keeps each bank engine's ``stored`` copy): at
simulation scale this duplication is trivial next to the per-cell device
state, and it keeps the backend protocol free of callbacks into the
index.  A zero-copy view protocol is the obvious refactor if
million-row indexes ever become the target.

Variation discipline
--------------------
Under a seed, bank ``b`` samples its full-capacity variation once
(``seed + b``, the same per-bank scheme the KNN classifier used) and
every allocation slices a prefix of that sample.  Row ``r`` of a bank
therefore carries the same device instance no matter how the bank grew,
which is what makes incremental ``add`` bit-identical to one-shot
programming and ``save``/``load`` round trips exact.  Re-voltaging a
bank (:meth:`FerexBackend.reconfigure_banks`) re-samples at the new
cell geometry with the *same* per-bank seed — exactly what a fresh
index built at the target config would draw — so reconfigure keeps the
bit-identity guarantee too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..core.config import BankConfig, as_bank_config, quantize_codes
from ..core.distance import DistanceMetric
from ..core.engine import FeReX
from ..core.kernel import KernelOverflowError, LUTKernel, top_k_stable
from ..core.xp import get_array_module
from ..devices.variation import ArrayVariation, VariationSampler


@runtime_checkable
class SearchBackend(Protocol):
    """What :class:`repro.index.FerexIndex` requires of a backend.

    Positions are global insertion-order indices into the index's vector
    store (tombstoned rows keep their position until ``rebuild``).
    """

    #: Registry key used by persistence (``save`` stores it, ``load``
    #: reconstructs the backend from it).
    name: str

    #: The (metric, bits) configuration the backend is voltaged for.
    config: BankConfig

    def add(self, vectors: np.ndarray) -> None:
        """Append (n, dims) vectors at the next free positions."""
        ...

    def deactivate(self, positions: np.ndarray) -> None:
        """Tombstone the given positions: they stay physically present
        but never compete in a search again."""
        ...

    def rebuild(self, vectors: np.ndarray) -> None:
        """Drop everything and re-add ``vectors`` from position 0 (the
        ``compact`` re-program)."""
        ...

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(n, k) global positions and distances, nearest first.  ``k``
        never exceeds the number of live positions."""
        ...


class ExactBackend:
    """Exact software search over the live vector set.

    One :meth:`DistanceMetric.pairwise` call per batch; candidates order
    by (distance, position) via the stable top-k selector
    (:func:`repro.core.kernel.top_k_stable`), the same tie-break the
    multi-bank analog merge uses.
    """

    name = "exact"

    def __init__(
        self,
        metric: "str | DistanceMetric | BankConfig",
        bits: Optional[int] = None,
        dims: Optional[int] = None,
    ):
        self.config = as_bank_config(metric, bits)
        self.metric = self.config.resolved
        self.bits = self.config.bits
        if dims is None:
            raise ValueError("dims is required")
        self.dims = dims
        self._vectors = np.empty((0, dims), dtype=int)
        self._alive = np.empty(0, dtype=bool)

    def add(self, vectors: np.ndarray) -> None:
        self._vectors = np.concatenate([self._vectors, vectors])
        self._alive = np.concatenate(
            [self._alive, np.ones(len(vectors), dtype=bool)]
        )

    def deactivate(self, positions: np.ndarray) -> None:
        self._alive[positions] = False

    def rebuild(self, vectors: np.ndarray) -> None:
        self._vectors = np.array(vectors, dtype=int)
        self._alive = np.ones(len(vectors), dtype=bool)

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        live = np.flatnonzero(self._alive)
        distances = self.metric.pairwise(
            queries, self._vectors[live], self.bits
        ).astype(float)
        order = top_k_stable(distances, k)
        return (
            live[order],
            np.take_along_axis(distances, order, axis=1),
        )


def metric_element_lut(metric: DistanceMetric, bits: int) -> np.ndarray:
    """(n_values, n_values) per-element metric distance table — the
    LUT a :class:`LUTKernel` gathers from when stored codes are their
    own symbol indices.  Shared by the GPU backend's compiled search
    and the routed backend's centroid pass."""
    n_values = 1 << bits
    return np.array(
        [
            [metric.element(q, s, bits) for s in range(n_values)]
            for q in range(n_values)
        ],
        dtype=np.int64,
    )


class GPUBackend(ExactBackend):
    """GPU-style distance search: the quantized kernel's gather+reduce
    executed on an optional accelerator array module, plus a roofline
    cost estimate per search.

    Two modes:

    * **real compute** (default): the live stored codes compile into a
      :class:`repro.core.kernel.LUTKernel` whose LUT is the metric's
      per-element distance table, and every ``search`` runs the same
      exact integer reduction the crossbar kernel uses — through
      :func:`repro.core.get_array_module`, i.e. on cupy or torch when
      one is installed and on numpy otherwise.  A missing optional
      dependency is never an error: the adapter degrades to numpy
      silently (``backend.xp.name`` says which module serves).  Winners
      and distances are bit-identical to :class:`ExactBackend` — the
      arithmetic is exact on every IEEE-754 backend and the final
      ranking is the same stable top-k selector either way.
    * **estimate only** (``estimate_only=True``): no kernel and no
      array module; winners come from :class:`ExactBackend`'s pairwise
      reference, preserving the original roofline-estimator behaviour.

    Both modes price the equivalent batched GPU distance kernel on the
    configured :class:`repro.eval.gpu_model.GPUSpec` after every search
    and store it as :attr:`last_estimate`, so serving experiments read
    paper-style latency/energy baselines off the same query stream.
    """

    name = "gpu"

    def __init__(
        self,
        metric: "str | DistanceMetric | BankConfig",
        bits: Optional[int] = None,
        dims: Optional[int] = None,
        spec=None,
        batch_size: int = 256,
        estimate_only: bool = False,
        prefer=None,
    ):
        super().__init__(metric, bits, dims)
        # Imported lazily: repro.eval.__init__ pulls in the application
        # layer, which itself imports this module at class-definition
        # time — a function-level import breaks the cycle.
        from ..eval.gpu_model import GPUCostModel, GPUSpec

        self.cost_model = GPUCostModel(spec or GPUSpec())
        self.batch_size = batch_size
        #: ``True`` restricts the backend to the roofline estimator.
        self.estimate_only = estimate_only
        #: The array module real-compute searches execute on (None in
        #: estimate-only mode).  ``prefer`` narrows the resolution
        #: order, e.g. ``prefer="torch"`` or ``prefer=("cupy",)``.
        self.xp = None if estimate_only else get_array_module(prefer)
        #: Roofline estimate of the most recent search (None before the
        #: first one).
        self.last_estimate = None
        # (live positions, LUTKernel) cache; any mutation invalidates.
        self._kernel: Optional[tuple] = None

    def add(self, vectors: np.ndarray) -> None:
        super().add(vectors)
        self._kernel = None

    def deactivate(self, positions: np.ndarray) -> None:
        super().deactivate(positions)
        self._kernel = None

    def rebuild(self, vectors: np.ndarray) -> None:
        super().rebuild(vectors)
        self._kernel = None

    def _element_lut(self) -> np.ndarray:
        """(n_values, n_values) per-element metric distance table — the
        GPU kernel's LUT (stored codes are their own symbol indices)."""
        return metric_element_lut(self.metric, self.bits)

    def _live_kernel(self) -> tuple:
        """(live positions, kernel) for the current live set, rebuilt
        only after a mutation.  ``kernel`` is ``None`` when the
        geometry exceeds the exact-integer bound — the search then
        falls back to the pairwise reference."""
        if self._kernel is None:
            live = np.flatnonzero(self._alive)
            try:
                kernel = LUTKernel(
                    self._vectors[live], self._element_lut()
                )
            except KernelOverflowError:
                kernel = None
            self._kernel = (live, kernel)
        return self._kernel

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.estimate_only:
            positions, distances = super().search(queries, k)
        else:
            live, kernel = self._live_kernel()
            if kernel is None:
                positions, distances = super().search(queries, k)
            else:
                table = kernel.scores_with(
                    self.xp, np.asarray(queries, dtype=np.int64)
                )
                order = top_k_stable(table, k)
                positions = live[order]
                distances = np.take_along_axis(table, order, axis=1)
        # XOR + popcount for Hamming, subtract/abs-or-square/accumulate
        # for the L1/L2 family.
        flops = 2.0 if self.metric.name == "hamming" else 3.0
        self.last_estimate = self.cost_model.distance_search(
            n_queries=max(1, len(queries)),
            n_stored=max(1, int(self._alive.sum())),
            dims=self.dims,
            flops_per_element=flops,
            batch_size=self.batch_size,
        )
        return positions, distances


@dataclass
class _Bank:
    """One physical shard: a FeReX engine plus its occupancy state."""

    engine: FeReX
    #: The (metric, bits) this bank is currently voltaged for.  Codes
    #: and queries are quantised from the backend alphabet to this one
    #: on the way into the engine.
    config: BankConfig
    #: Maximum rows this bank ever holds (the shard height).
    capacity: int
    #: Global position of this bank's row 0.
    start: int
    #: Vectors physically written, in row order (tombstones included),
    #: kept at the *backend* alphabet — the bank re-quantises on write,
    #: so re-voltaging the bank never needs the index's help.
    vectors: np.ndarray
    #: Per written row: does it still compete?
    alive: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    #: Full-capacity variation sample the allocations slice (None =
    #: ideal devices).
    variation: Optional[ArrayVariation] = None

    @property
    def written(self) -> int:
        return len(self.vectors)

    @property
    def space(self) -> int:
        return self.capacity - self.written

    def active_rows(self) -> np.ndarray:
        """(array rows,) LTA competition mask: written, live rows only."""
        mask = np.zeros(self.engine.array.rows, dtype=bool)
        mask[: self.written] = self.alive
        return mask


def _slice_variation(
    variation: Optional[ArrayVariation], rows: int
) -> Optional[ArrayVariation]:
    """Prefix-slice a full-capacity variation sample to an allocation."""
    if variation is None:
        return None
    return ArrayVariation(
        vth_offset=variation.vth_offset[:rows],
        r_factor=variation.r_factor[:rows],
        lta_offset=variation.lta_offset[:rows],
        row_gain=variation.row_gain[:rows],
    )


class FerexBackend:
    """Sharded multi-bank FeReX search backend.

    Parameters mirror :class:`repro.core.FeReX`; ``bank_rows`` is the
    shard height (the physical array capacity of each bank).  ``seed``
    seeds device variation per bank (``seed + bank_index``); ``None``
    keeps ideal devices.  ``metric`` also accepts a ready
    :class:`BankConfig` (with ``bits`` omitted).
    """

    name = "ferex"

    def __init__(
        self,
        metric: "str | DistanceMetric | BankConfig",
        bits: Optional[int] = None,
        dims: Optional[int] = None,
        bank_rows: int = 1024,
        encoder: str = "auto",
        seed: Optional[int] = None,
    ):
        if dims is None:
            raise ValueError("dims is required")
        if bank_rows < 1:
            raise ValueError("bank_rows must be >= 1")
        self.config = as_bank_config(metric, bits)
        self.dims = dims
        self.bank_rows = bank_rows
        self.encoder = encoder
        self.seed = seed
        self._banks: List[_Bank] = []

    # ------------------------------------------------------------------
    @property
    def metric(self):
        """The backend-level metric (new banks open at this)."""
        return self.config.metric

    @property
    def bits(self) -> int:
        """The backend-level (storage alphabet) bit width."""
        return self.config.bits

    @property
    def n_banks(self) -> int:
        return len(self._banks)

    @property
    def engines(self) -> List[FeReX]:
        """The per-bank engines (read-only introspection)."""
        return [bank.engine for bank in self._banks]

    @property
    def bank_configs(self) -> Tuple[BankConfig, ...]:
        """Each bank's current (metric, bits) voltage configuration."""
        return tuple(bank.config for bank in self._banks)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _bank_engine(
        self, ordinal: int, config: BankConfig
    ) -> Tuple[FeReX, Optional[ArrayVariation]]:
        """Build bank ``ordinal``'s engine + full-capacity variation
        sample for ``config`` — the same draw a fresh index built at
        that config would make (seed depends only on the bank ordinal;
        the sample geometry follows the config's cell size)."""
        engine = FeReX(dims=self.dims, encoder=self.encoder, config=config)
        variation = None
        if self.seed is not None:
            sampler = VariationSampler(
                engine.tech.variation, seed=self.seed + ordinal
            )
            variation = sampler.sample_array(
                self.bank_rows, engine.physical_cols
            )
        return engine, variation

    def _open_bank(self) -> _Bank:
        index = len(self._banks)
        engine, variation = self._bank_engine(index, self.config)
        bank = _Bank(
            engine=engine,
            config=self.config,
            capacity=self.bank_rows,
            start=index * self.bank_rows,
            vectors=np.empty((0, self.dims), dtype=int),
            alive=np.empty(0, dtype=bool),
            variation=variation,
        )
        self._banks.append(bank)
        return bank

    def _write(self, bank: _Bank, vectors: np.ndarray) -> None:
        """Admit ``vectors`` into a bank, growing its array if needed.

        While the allocated array has spare rows the new vectors go in
        through the crossbar's row-level incremental program; when it
        does not, the array is re-allocated (geometric growth, capped at
        the bank capacity) with the *same* sliced variation sample and
        every written row re-programmed — results are identical either
        way because each row's device instance is fixed by its position.
        Codes are re-quantised to the bank's alphabet on the way in;
        ``bank.vectors`` keeps the full-precision originals.
        """
        old = bank.written
        total = old + len(vectors)
        array = bank.engine.array
        if array is None or array.rows < total:
            alloc = min(bank.capacity, max(total, 2 * old))
            bank.engine.allocate(
                alloc, variation=_slice_variation(bank.variation, alloc)
            )
            bank.vectors = np.concatenate([bank.vectors, vectors])
            bank.engine.write_rows(
                0,
                quantize_codes(
                    bank.vectors, self.config.bits, bank.config.bits
                ),
            )
        else:
            bank.vectors = np.concatenate([bank.vectors, vectors])
            bank.engine.write_rows(
                old,
                quantize_codes(
                    vectors, self.config.bits, bank.config.bits
                ),
            )
        bank.alive = np.concatenate(
            [bank.alive, np.ones(len(vectors), dtype=bool)]
        )

    def add(self, vectors: np.ndarray) -> None:
        i = 0
        while i < len(vectors):
            bank = self._banks[-1] if self._banks else None
            if bank is None or bank.space == 0:
                bank = self._open_bank()
            take = min(bank.space, len(vectors) - i)
            self._write(bank, vectors[i : i + take])
            i += take

    def deactivate(self, positions: np.ndarray) -> None:
        for position in np.asarray(positions, dtype=int):
            bank = self._banks[int(position) // self.bank_rows]
            bank.alive[int(position) - bank.start] = False

    def rebuild(self, vectors: np.ndarray) -> None:
        self._banks = []
        if len(vectors):
            self.add(np.asarray(vectors, dtype=int))

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def _rebuilt_bank(self, ordinal: int, config: BankConfig) -> _Bank:
        """A replacement for bank ``ordinal`` re-voltaged at ``config``,
        re-programmed from the retained codes (tombstones keep their
        rows, so positions — and the parity guarantees hanging off
        them — survive the re-voltage)."""
        old = self._banks[ordinal]
        engine, variation = self._bank_engine(ordinal, config)
        bank = _Bank(
            engine=engine,
            config=config,
            capacity=old.capacity,
            start=old.start,
            vectors=np.empty((0, self.dims), dtype=int),
            alive=np.empty(0, dtype=bool),
            variation=variation,
        )
        if old.written:
            self._write(bank, old.vectors)
            bank.alive = old.alive.copy()
        return bank

    def reconfigure_banks(
        self, config: BankConfig, ordinals: "Optional[List[int]]" = None
    ) -> None:
        """Re-voltage banks at ``config``, re-programming each from its
        retained stored codes.

        ``ordinals`` selects a subset (heterogeneous fleets — e.g. a
        low-bit coarse tier next to full-precision banks); ``None``
        re-voltages every bank *and* moves the backend-level config, so
        banks opened later match.  All replacement engines are built
        before any bank is swapped: a config with no feasible cell
        encoding raises without mutating anything.

        The whole-backend form (``ordinals=None``) moves the *storage*
        alphabet, so the retained codes must fit the target width —
        the same constraint a fresh build at ``config`` would enforce
        (a subset re-voltage quantises instead, because the backend
        alphabet stays put).
        """
        if ordinals is None:
            if config.bits < self.config.bits and any(
                bank.written and int(bank.vectors.max()) >= config.n_values
                for bank in self._banks
            ):
                raise ValueError(
                    f"stored codes exceed the {config.bits}-bit "
                    "alphabet; re-voltage a subset via ordinals=[...] "
                    "to quantise instead"
                )
            targets = list(range(len(self._banks)))
            # The storage alphabet moves with the fleet: swap it first
            # (restored on failure) so the re-programs — and every
            # later incremental write — re-quantise from the new
            # width, i.e. not at all.
            previous = self.config
            self.config = config
            try:
                rebuilt = {
                    o: self._rebuilt_bank(o, config) for o in targets
                }
            except Exception:
                self.config = previous
                raise
        else:
            targets = [int(o) for o in ordinals]
            if len(set(targets)) != len(targets):
                raise ValueError("duplicate bank ordinals")
            for o in targets:
                if not 0 <= o < len(self._banks):
                    raise ValueError(
                        f"bank ordinal {o} outside [0, {len(self._banks)})"
                    )
            rebuilt = {o: self._rebuilt_bank(o, config) for o in targets}
        for o, bank in rebuilt.items():
            self._banks[o] = bank

    def apply_bank_configs(self, configs: "List[BankConfig]") -> None:
        """Replay persisted per-bank configs (the ``from_state`` path):
        re-voltage every bank whose config differs from the record."""
        if len(configs) != len(self._banks):
            raise ValueError(
                f"got {len(configs)} bank configs for "
                f"{len(self._banks)} banks"
            )
        for ordinal, config in enumerate(configs):
            if config != self._banks[ordinal].config:
                self._banks[ordinal] = self._rebuilt_bank(ordinal, config)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bank batched ``search_k`` + vectorised lexsort merge.

        Each bank contributes its ``min(k, live rows)`` nearest rows per
        query from one :meth:`FeReX.search_k_batch` call (unwritten and
        tombstoned rows masked out of the LTA); candidates merge on
        (analog distance, global position) — lexsort's last key is
        primary, and the position tie-break matches the exact backend's
        stable ordering.  Queries re-quantise per bank, so a
        heterogeneous fleet competes each bank at its own precision
        (distances from narrower banks are coarse by construction —
        the tiered search's rescore is what restores full precision).
        """
        bank_idx: List[np.ndarray] = []
        bank_dist: List[np.ndarray] = []
        for bank in self._banks:
            active = bank.active_rows()
            n_live = int(active.sum())
            if n_live == 0:
                continue
            result = bank.engine.search_k_batch(
                quantize_codes(
                    queries, self.config.bits, bank.config.bits
                ),
                min(k, n_live),
                active_rows=active,
            )
            bank_idx.append(bank.start + result.winners)
            bank_dist.append(
                np.take_along_axis(result.row_units, result.winners, axis=1)
            )
        idx = np.concatenate(bank_idx, axis=1)
        dist = np.concatenate(bank_dist, axis=1)
        order = np.lexsort((idx, dist))[:, :k]
        return (
            np.take_along_axis(idx, order, axis=1),
            np.take_along_axis(dist, order, axis=1),
        )

    def shortlist(
        self,
        queries: np.ndarray,
        c: int,
        with_units: bool = False,
        ordered: bool = True,
    ):
        """(n, c) nearest global positions by *row-current readout*:
        one array evaluation per bank, candidates ordered by (unit
        current, global position).

        The coarse-tier fast path: where :meth:`search` runs ``c``
        winner-masking LTA rounds per query (each round a full
        comparator decision — the faithful model of the array emitting
        winners one at a time), a shortlist only needs the row distance
        readings once; under ideal devices the (current, position)
        ordering is exactly the sequence those ``c`` LTA rounds would
        emit, at the cost of a single evaluation.  ``c`` must not
        exceed the live row count.

        ``with_units=True`` additionally returns the (n, c) unit
        currents backing the ordering — callers merging shortlists
        across shards (the routed backend) need them.
        ``ordered=False`` returns the same candidates in ascending
        position order instead, for callers that rescore them.
        """
        live = []
        for bank in self._banks:
            active = bank.active_rows()
            if active.any():
                live.append((bank, active))
        # Each bank's readout lands straight in its column block.
        all_units = np.empty((len(queries), sum(len(a) for _, a in live)))
        positions: List[np.ndarray] = []
        col = 0
        for bank, active in live:
            block = all_units[:, col : col + len(active)]
            block[...] = bank.engine.readout_batch(
                quantize_codes(queries, self.config.bits, bank.config.bits)
            )
            block[:, ~active] = np.inf
            positions.append(bank.start + np.arange(len(active)))
            col += len(active)
        all_positions = np.concatenate(positions)
        # Columns are globally position-ascending (banks in order, rows
        # in order), so the (value, column)-stable partial selection
        # tie-breaks on position — matching the lexsort merge and the
        # exact backend.
        picks = top_k_stable(all_units, c, ordered=ordered)
        if with_units:
            return (
                all_positions[picks],
                np.take_along_axis(all_units, picks, axis=1),
            )
        return all_positions[picks]


class TieredBackend:
    """Coarse-to-fine search: a low-bit FeReX pass nominates, an exact
    full-precision rescore decides.

    The coarse tier is a :class:`FerexBackend` voltaged at
    ``coarse_bits`` (default 1) holding the top bits of every stored
    code; a search asks it for the ``max(k * refine_factor, k)``
    nearest candidates per query — a much cheaper array evaluation,
    since the low-bit cell needs fewer FeFETs per element — then
    rescores only those candidates with exact full-precision distances
    (:meth:`DistanceMetric.rowwise`) and returns the top ``k``.

    Returned distances are therefore *exact integer* distances (as
    floats) rather than analog unit currents, and results are
    approximate exactly insofar as the coarse tier's shortlist misses a
    true neighbor — ``benchmarks/bench_reconfig.py`` tracks that recall
    against the measured speedup.

    ``coarse_bits >= bits`` degenerates gracefully: the coarse pass
    runs at full precision and the rescore only re-ranks ties.
    """

    name = "tiered"

    def __init__(
        self,
        metric: "str | DistanceMetric | BankConfig",
        bits: Optional[int] = None,
        dims: Optional[int] = None,
        bank_rows: int = 1024,
        encoder: str = "auto",
        seed: Optional[int] = None,
        coarse_bits: int = 1,
        refine_factor: int = 8,
    ):
        if dims is None:
            raise ValueError("dims is required")
        if coarse_bits < 1:
            raise ValueError("coarse_bits must be >= 1")
        if refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        self.config = as_bank_config(metric, bits)
        self.dims = dims
        self.bank_rows = bank_rows
        self.encoder = encoder
        self.seed = seed
        self.coarse_bits = min(coarse_bits, self.config.bits)
        self.refine_factor = refine_factor
        #: The coarse tier: ideal devices (it only nominates; the
        #: rescore is digital), seeded variation would add cost without
        #: changing the exact rescored answer set materially.
        self.coarse = FerexBackend(
            BankConfig(self.config.metric, self.coarse_bits),
            dims=dims,
            bank_rows=bank_rows,
            encoder=encoder,
            seed=None,
        )
        #: Rescore store in int16: values are code levels (< 2**bits),
        #: and the narrow gather + narrow metric arithmetic is what the
        #: rescore hot path spends most of its time on.
        self._vectors = np.empty((0, dims), dtype=np.int16)
        self._alive = np.empty(0, dtype=bool)

    @property
    def n_banks(self) -> int:
        return self.coarse.n_banks

    def _quantize(self, codes: np.ndarray) -> np.ndarray:
        return quantize_codes(codes, self.config.bits, self.coarse_bits)

    def add(self, vectors: np.ndarray) -> None:
        self.coarse.add(self._quantize(vectors))
        self._vectors = np.concatenate(
            [self._vectors, np.asarray(vectors, dtype=np.int16)]
        )
        self._alive = np.concatenate(
            [self._alive, np.ones(len(vectors), dtype=bool)]
        )

    def deactivate(self, positions: np.ndarray) -> None:
        self.coarse.deactivate(positions)
        self._alive[positions] = False

    def rebuild(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=int)
        self.coarse.rebuild(self._quantize(vectors))
        self._vectors = np.array(vectors, dtype=np.int16)
        self._alive = np.ones(len(vectors), dtype=bool)

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        n_live = int(self._alive.sum())
        shortlist = min(n_live, max(k * self.refine_factor, k))
        # Position order, so the stable selection over the rescored
        # distances below tie-breaks on position like the flat merge.
        candidates = self.coarse.shortlist(
            self._quantize(np.asarray(queries, dtype=int)),
            shortlist,
            ordered=False,
        )
        # validate=False: the index validated the queries and the
        # candidates come from its own add-validated store — the range
        # scans would be pure overhead on the rescore hot path.
        rescored = self.config.resolved.rowwise(
            np.asarray(queries, dtype=np.int16),
            self._vectors[candidates],
            self.config.bits,
            validate=False,
        ).astype(float)
        order = top_k_stable(rescored, k)
        return (
            np.take_along_axis(candidates, order, axis=1),
            np.take_along_axis(rescored, order, axis=1),
        )


#: Backend registry used by the index facade and by persistence.
BACKENDS = {
    ExactBackend.name: ExactBackend,
    GPUBackend.name: GPUBackend,
    FerexBackend.name: FerexBackend,
    TieredBackend.name: TieredBackend,
}
