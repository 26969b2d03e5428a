"""The quantized integer search kernel: gather + blocked reduction.

FeReX search is physically a table lookup.  Device physics fixes one
current per (stored state, bias), so under ideal devices a bank search
decomposes into

1. **compile** (once per write generation): map every cell's stored
   state onto a small-integer *code* and every (query value, code) pair
   onto an integer *score* — the cell's current snapped to a
   power-of-two quantum;
2. **search** (per batch): gather the scores selected by the query's
   value indices and reduce them per row.

This module implements both halves, device-agnostically: the same
:class:`LUTKernel` runs the crossbar's current-domain search (wrapped in
:class:`QuantizedKernel` by :class:`repro.arch.crossbar.FeReXArray`) and
the GPU backend's metric-domain distance search
(:class:`repro.index.backends.GPUBackend`), on numpy or through the
optional cupy/torch adapter (:mod:`repro.core.xp`).

Exactness discipline
--------------------
Everything downstream (serial == batch bit-identity, backend parity,
reconfigure round trips) hangs on one invariant: **kernel arithmetic is
exact**, hence independent of evaluation order, blocking, and BLAS
kernel choice.  Two choices guarantee it:

* the quantum is a power of two, chosen by :func:`select_quantum` so the
  largest possible partial sum stays below ``2**53`` — every LUT entry,
  every partial sum, and every product in the reduction is an integer
  that float64 represents exactly, so a dgemm over float64 and an int64
  gather-accumulate produce the *same* scores;
* the accumulator dtype comes from :func:`select_accumulator`'s overflow
  bound on ``cells x max |entry|``; a geometry that cannot satisfy the
  bound raises :class:`KernelOverflowError` instead of wrapping.

Reconstructed currents (``score * quantum``) are exact float64 products,
so the quantization changes readings by at most half a quantum per cell
— orders of magnitude below the subthreshold-leakage distinctions that
order analog ties.

Winner selection
----------------
:func:`top_k_stable` is the one stable top-k selector behind every
search path (crossbar k-batch, shortlist, tiered rescore, exact and GPU
backends): the software model of the loser-take-all emitting the ``k``
nearest rows in (value, row) order.  It returns exactly the first ``k``
columns of a stable argsort without sorting whole rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Largest exponent ``b`` such that every integer of magnitude < ``2**b``
#: is exactly representable in float64 — the bound that makes the dgemm
#: and integer-gather formulations bit-identical.
EXACT_FLOAT_BITS = 53

#: The quantum must stay at least this many binary orders below the
#: reference current (one nominal unit current for the crossbar kernel):
#: coarser would start eroding the leakage-level tie ordering.
MIN_RESOLUTION_BITS = 24


#: Crossover between the partition selector (a fixed ~25 us per call)
#: and a full stable argsort (about n * m * log(m)).  One run on a
#: 2-core x86 box (numpy 2.4, random float64 rows, k = 10, argsort /
#: selector): below 2048 elements the argsort wins (1 x 1024: 23 / 27
#: us, 2 x 512: 22 / 29 us); from 2048 elements up the selector wins
#: (1 x 2048: 166 / 49 us, 8 x 256: 78 / 35 us, 64 x 1024: 4.9 / 0.39
#: ms) unless rows are short (64 x 32: 28 / 52 us, 64 x 48: 83 / 78
#: us, 64 x 64: 134 / 80 us).  Shapes under either constant take the
#: argsort.
TOP_K_MIN_ELEMENTS = 2048
TOP_K_MIN_COLUMNS = 64

#: The boundary partition runs over row blocks of at most this many
#: elements, so its scratch copy stays at 64 KB.  The steady cost is
#: the same (64 x 1024: 0.41 ms blocked, 0.41 ms whole), but a
#: whole-array copy of a large input is fresh memory on every call:
#: the 512 KB copy of the tiered shortlist's 64 x 1024 readout cost
#: 128 page faults per search.
TOP_K_BLOCK_ELEMENTS = 8192


def top_k_stable(
    values: np.ndarray, k: int, ordered: bool = True
) -> np.ndarray:
    """Per-row column indices of the ``k`` smallest entries in (value,
    column) order: exactly ``np.argsort(values, axis=1,
    kind="stable")[:, :k]``, NaNs last, without sorting whole rows.

    A partition finds each row's k-th smallest value (the *boundary*);
    every column strictly below it is kept, plus the lowest-column ties
    at it up to the quota — an ``argpartition`` alone would break value
    ties arbitrarily and let the selection diverge from the LTA's stable
    emission order.  The surviving ``k`` columns then get one small
    stable sort; ``ordered=False`` skips it and returns the same columns
    in ascending column order, for callers that re-rank the selection
    anyway.  Shapes under :data:`TOP_K_MIN_ELEMENTS` elements or
    :data:`TOP_K_MIN_COLUMNS` columns, and ``k >= m``, take the plain
    stable argsort instead.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got {values.shape}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, m = values.shape
    if (
        k == 0
        or k >= m
        or m < TOP_K_MIN_COLUMNS
        or values.size < TOP_K_MIN_ELEMENTS
    ):
        top = np.argsort(values, axis=1, kind="stable")[:, :k]
        return top if ordered else np.sort(top, axis=1)
    # The k-th smallest value per row, partitioned a block of rows at a
    # time so the scratch copy stays small.
    boundary = np.empty((n, 1), dtype=values.dtype)
    step = max(1, TOP_K_BLOCK_ELEMENTS // m)
    for start in range(0, n, step):
        boundary[start : start + step, 0] = np.partition(
            values[start : start + step], k - 1, axis=1
        )[:, k - 1]
    keep = values <= boundary
    # NaN is the only value unequal to itself.  Comparisons with a NaN
    # boundary are all false, so such rows keep every column here and
    # count their NaNs as the boundary ties (argsort orders NaN last).
    nan_bound = boundary != boundary
    if nan_bound.any():
        keep |= nan_bound
    kept = np.flatnonzero(keep)  # row-major: columns ascend per row
    if kept.size != n * k:
        # Boundary ties: per row keep the lowest-column ties up to the
        # quota left after the strictly smaller entries.  Works on the
        # kept entries only (row-sorted), never on whole rows.
        kept_values = np.take(values, kept)
        row = kept // m
        tie = (kept_values == boundary[row, 0]) | (kept_values != kept_values)
        # 1-based rank of each tie within its row (every row keeps at
        # least k entries, so each row's first index exists).
        tie_rank = np.cumsum(tie)
        first = np.searchsorted(row, np.arange(n))
        tie_rank -= (tie_rank - tie)[first][row]
        quota = k - np.bincount(row[~tie], minlength=n)
        kept = kept[~tie | (tie_rank <= quota[row])]
    idx = kept.reshape(n, k) - (np.arange(n) * m)[:, None]
    if not ordered:
        return idx
    order = np.argsort(
        np.take_along_axis(values, idx, axis=1), axis=1, kind="stable"
    )
    return np.take_along_axis(idx, order, axis=1)


class KernelOverflowError(OverflowError):
    """The requested geometry cannot be reduced exactly.

    Raised by :func:`select_accumulator` / :func:`select_quantum` when
    the ``cells x max_entry`` overflow bound exceeds the exact-integer
    range, instead of silently wrapping or losing low bits.
    """


def accumulator_bound(cells: int, max_entry: int) -> int:
    """Worst-case partial-sum magnitude when reducing ``cells`` LUT
    entries of magnitude ``<= max_entry``.

    The factor 2 covers the dgemm formulation's mixed-sign deltas
    (``lut[v] - lut[0]``) on top of the all-positive base row, so the
    same bound certifies both reduction strategies.
    """
    if cells < 0 or max_entry < 0:
        raise ValueError("cells and max_entry must be >= 0")
    return 2 * int(cells) * int(max_entry)


def select_accumulator(cells: int, max_entry: int) -> np.dtype:
    """Accumulator dtype for an exact ``cells``-term reduction.

    Returns ``int32`` when the overflow bound fits, ``int64`` otherwise;
    raises :class:`KernelOverflowError` when even int64/float64 exact
    range (``2**53``) cannot hold the bound.
    """
    bound = accumulator_bound(cells, max_entry)
    if bound >= 1 << EXACT_FLOAT_BITS:
        raise KernelOverflowError(
            f"reducing {cells} LUT entries of magnitude <= {max_entry} "
            f"needs {bound.bit_length()} bits, beyond the "
            f"{EXACT_FLOAT_BITS}-bit exact-integer range; shrink dims "
            "or coarsen the LUT quantum"
        )
    return np.dtype(np.int32 if bound < 1 << 31 else np.int64)


def select_quantum(
    max_value: float, cells: int, reference: float
) -> float:
    """The power-of-two quantum for a LUT whose raw entries reach
    ``max_value``, reduced over ``cells`` terms.

    The quantum is the smallest power of two that keeps the overflow
    bound strictly below ``2**53`` (so the reduction is exact in int64
    *and* float64), provided it stays at least ``2**-MIN_RESOLUTION_BITS``
    below ``reference`` (one unit current for the crossbar) — beyond
    that the geometry is too large for a faithful integer kernel and
    :class:`KernelOverflowError` is raised.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if reference <= 0:
        raise ValueError("reference must be > 0")
    ceiling = reference * 2.0**-MIN_RESOLUTION_BITS
    if max_value <= 0:
        return ceiling
    # Smallest 2**e with 2 * cells * (max_value / 2**e) < 2**53.
    needed = 2.0 * cells * max_value / (1 << EXACT_FLOAT_BITS)
    _, exponent = math.frexp(needed)  # needed <= 2**exponent, strictly <
    quantum = math.ldexp(1.0, exponent)
    if quantum > ceiling:
        raise KernelOverflowError(
            f"{cells} cells at peak value {max_value:.3e} need a "
            f"quantum of {quantum:.3e}, coarser than the "
            f"{ceiling:.3e} resolution floor ({reference:.3e} * "
            f"2**-{MIN_RESOLUTION_BITS}); the geometry exceeds the "
            "exact integer kernel's bound"
        )
    return quantum


class LUTKernel:
    """Integer gather + reduce over (codes, lut).

    Parameters
    ----------
    codes:
        (rows, cells) small-integer symbol per cell — the compiled
        stored state.
    lut:
        (n_values, n_symbols) integer score per (query value, symbol).

    ``scores(value_index)`` evaluates, for each query row of the
    (n, cells) ``value_index``, the per-row reduction
    ``sum_c lut[value_index[q, c], codes[r, c]]`` — exactly.  Two
    interchangeable strategies are provided (their equality is a
    regression test):

    * :meth:`scores` — the dgemm formulation
      ``base[r] + sum_v Q_v @ W_v`` with ``Q_v`` the one-hot query mask
      for value ``v`` and ``W_v = lut[v, codes].T - lut[0, codes].T``.
      All operands are integer-valued float64 within the overflow
      bound, so BLAS evaluates it exactly regardless of kernel/order —
      this is the numpy hot path.
    * :meth:`scores_gather` — the literal gather + blocked integer
      reduction in the accumulator dtype :func:`select_accumulator`
      picked.  The reference semantics, and the shape the kernel takes
      on gather-friendly accelerators.
    """

    def __init__(self, codes: np.ndarray, lut: np.ndarray):
        codes = np.asarray(codes)
        lut = np.asarray(lut)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got {codes.shape}")
        if lut.ndim != 2:
            raise ValueError(f"lut must be 2-D, got {lut.shape}")
        if not np.issubdtype(lut.dtype, np.integer):
            raise ValueError("lut must be an integer table")
        if codes.size and (
            codes.min() < 0 or codes.max() >= lut.shape[1]
        ):
            raise ValueError(
                f"codes outside the [0, {lut.shape[1]}) symbol range"
            )
        self.rows, self.cells = codes.shape
        self.n_values = lut.shape[0]
        self.codes = codes.astype(np.int64, copy=False)
        self.lut = lut.astype(np.int64, copy=False)
        max_entry = int(np.abs(self.lut).max()) if self.lut.size else 0
        #: Accumulator dtype certified by the overflow bound.
        self.accumulator = select_accumulator(self.cells, max_entry)
        # dgemm precompute: per-row expansion of the LUT.  Transient
        # per write generation; (n_values, rows, cells) stays small at
        # bank scale (the index shards rows).
        expanded = self.lut[:, self.codes]  # (n_values, rows, cells)
        self._base = expanded[0].sum(axis=1).astype(np.float64)
        self._weights = np.ascontiguousarray(
            (expanded[1:] - expanded[0]).transpose(0, 2, 1)
        ).astype(np.float64)  # (n_values - 1, cells, rows)

    def _validate_index(self, value_index: np.ndarray) -> np.ndarray:
        value_index = np.asarray(value_index)
        if value_index.ndim != 2 or value_index.shape[1] != self.cells:
            raise ValueError(
                f"expected (n, {self.cells}) value index, got "
                f"{value_index.shape}"
            )
        if value_index.size and (
            value_index.min() < 0 or value_index.max() >= self.n_values
        ):
            raise ValueError(
                f"value index outside [0, {self.n_values})"
            )
        return value_index

    def scores(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) reduction scores, exactly integer-valued float64."""
        value_index = self._validate_index(value_index)
        n = value_index.shape[0]
        out = np.empty((n, self.rows))
        out[:] = self._base
        for v in range(1, self.n_values):
            mask = value_index == v
            if mask.any():
                out += mask.astype(np.float64) @ self._weights[v - 1]
        return out

    def scores_gather(
        self, value_index: np.ndarray, block: Optional[int] = None
    ) -> np.ndarray:
        """(n, rows) scores via the literal gather + blocked reduction.

        Bit-identical to :meth:`scores` (both are exact); kept as the
        reference semantics and for accumulator-dtype verification.
        ``block`` bounds the gathered (block, rows, cells) tensor.
        """
        value_index = self._validate_index(value_index)
        n = value_index.shape[0]
        if block is None:
            block = max(1, (1 << 20) // max(1, self.rows * self.cells))
        block = max(1, block)
        out = np.empty((n, self.rows), dtype=np.int64)
        for start in range(0, n, block):
            stop = min(start + block, n)
            gathered = self.lut[
                value_index[start:stop, None, :], self.codes[None, :, :]
            ]
            out[start:stop] = gathered.sum(
                axis=2, dtype=self.accumulator
            )
        return out.astype(np.float64)

    def scores_with(self, xp, value_index: np.ndarray) -> np.ndarray:
        """:meth:`scores` executed through an array-module adapter
        (:mod:`repro.core.xp`); returns numpy float64.

        The operands are integer-valued within the overflow bound, so
        any IEEE-754 float64 backend (numpy BLAS, torch, cupy) returns
        the same exact scores.
        """
        value_index = self._validate_index(value_index)
        n = value_index.shape[0]
        out = np.empty((n, self.rows))
        out[:] = self._base
        for v in range(1, self.n_values):
            mask = value_index == v
            if mask.any():
                product = xp.matmul(
                    xp.asarray(mask.astype(np.float64)),
                    xp.asarray(self._weights[v - 1]),
                )
                out += xp.to_numpy(product)
        return out


@dataclass
class QuantizedKernel:
    """A :class:`LUTKernel` in the current domain: integer scores plus
    the power-of-two quantum that maps them back to amps.

    Compiled by :meth:`repro.arch.crossbar.FeReXArray.quantized_kernel`
    from the array's programmed state and a cell-uniform bias alphabet;
    valid for exactly one write generation.
    """

    kernel: LUTKernel
    #: Amps per score unit (a power of two: ``score * quantum`` is an
    #: exact float64 product).
    quantum: float
    #: The raw (n_values, n_symbols) current table the LUT quantized,
    #: kept for introspection and error analysis.
    raw_currents: np.ndarray

    @property
    def codes(self) -> np.ndarray:
        return self.kernel.codes

    @property
    def lut(self) -> np.ndarray:
        return self.kernel.lut

    def row_scores(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) integer scores (int64) — the masking/ranking
        domain."""
        return self.kernel.scores(value_index).astype(np.int64)

    def row_currents(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) row currents in amps, exact ``score * quantum``
        float64 products."""
        return self.kernel.scores(value_index) * self.quantum
