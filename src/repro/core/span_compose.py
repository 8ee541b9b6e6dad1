"""Fused composition of constant-mapping wear-leveling spans.

The packed aging engine accounts a leveled run as a sum over constant-mapping
spans: ``ones[perm_k] += span_ones_k`` for every span ``k`` the leveler's
schedule cuts the run into.  Evaluated literally that is O(spans) full passes
over the ``(rows, word_bits)`` tensor — the 11–48x leveling overhead the
bench trajectory recorded.  This module collapses the whole composition into
a constant number of NumPy passes, bit-identically, by exploiting two pieces
of structure:

* **Channel decomposition** — every policy kernel's span counts are a small
  linear combination ``span_ones_k = sum_c coeffs[c, k] * bases[c]`` of
  *fixed* basis matrices with cheap per-span scalar coefficients
  (:class:`BatchedCounts`, built by the per-policy ``counts_batch`` closed
  forms), plus — for the stochastic DNN-Life kernel, whose TRBG draws are
  fresh per span — exact-integer *inversion counts* per distinct mapping,
  reduced once from the enables of every span sharing that mapping.
  Composing the whole run then only needs the per-*mapping* totals of each
  channel's coefficients and the per-mapping inversion counts, never a
  per-span tensor.
* **Offset grouping** — schedule-driven levelers (rotation, start-gap) remap
  by per-region row rolls, so spans sharing a roll offset collapse into one
  weighted roll.  The weighted roll-sum itself is evaluated either as a few
  direct slice-adds (small offset support) or as a uniform sliding-window
  via a circular cumulative sum plus a sparse residual (long runs such as
  start-gap's drift), both O(rows * word_bits).

Feedback-driven levelers (wear-swap) contribute explicit permutation chunks
instead; those compose through one fused sparse mat-vec over a ``(row,
span)`` index matrix (SciPy's ``csr_matvecs`` when available, a per-span
gather fallback otherwise), while the per-chunk feedback signal is maintained
as ``(rows,)`` running row totals — never a full-matrix reduction.
Inversion counts roll into place with two slice-adds (offset tables) or a
row gather (permutation chunks) as soon as their mapping is complete, and
turn into ones only once, in :meth:`SpanComposer.finalize`.

Exactness: every basis entry, coefficient, and weight is an exact integer
held in float64 (far below 2**53), so products and partial sums are exact and
*any* regrouping of the summation — by channel, by offset, through a
cumulative-sum window, or via the sparse mat-vec — produces bit-identical
float64 results to the iterative span loop.  The golden-SHA and
packed-vs-explicit batteries in the test suite pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.leveling.remap import SpanTable

__all__ = ["BatchedCounts", "SpanComposer"]

try:  # SciPy is optional: the composer falls back to per-span gathers.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _CSR_MATVECS = getattr(_scipy_sparsetools, "csr_matvecs", None)
except Exception:  # pragma: no cover - exercised only without SciPy
    _CSR_MATVECS = None

#: Offset supports up to this size are composed as direct slice-roll adds;
#: larger supports go through the cumulative-sum window decomposition.
_DIRECT_ROLLS = 6


@dataclass
class BatchedCounts:
    """A policy kernel's closed form over a batch of spans.

    ``span_ones_k = sum_c coeffs[c, k] * bases[c]`` and ``span_writes_k =
    lengths[k] * writes`` reproduce the scalar ``counts(start, n)`` kernel
    exactly (same integers, hence the same float64 bits) — for a stochastic
    kernel together with ``residuals``, which adds each mapping's inversion
    counts to the channels of the spans sharing it.  ``bases`` must be
    identical objects across every ``counts_batch`` call of one kernel — the
    composer folds coefficients across chunks under that identity.
    """

    #: ``C`` fixed basis matrices, each ``(rows, word_bits)`` float64.
    bases: List[np.ndarray]
    #: ``(C, num_spans)`` float64 per-span basis coefficients.
    coeffs: np.ndarray
    #: ``(rows,)`` float64 per-inference write counts.
    writes: np.ndarray
    #: ``C`` cached ``bases[c].sum(axis=1)`` row reductions (feedback signal).
    row_bases: List[np.ndarray]
    #: Optional ``(mapping label, enables_total, crossed)`` triples, one per
    #: distinct mapping label of the batch: the mapping's spans add
    #: ``enables_total[:, None] - 2 * crossed`` ones on top of the channels
    #: (an enabled write inverts the stored word).  ``enables_total`` is a
    #: ``(rows,)`` and ``crossed`` a ``(rows, word_bits)`` array of exact
    #: integers, of any numeric dtype.  The iterator may draw randomness
    #: lazily, so it is consumed exactly once, by
    #: :meth:`SpanComposer.add_table`, before the next batch is built.
    residuals: Optional[Iterator[Tuple[int, np.ndarray, np.ndarray]]] = None


def _roll_axpy(out3: np.ndarray, base3: np.ndarray, offset: int,
               weight: float) -> None:
    """``out3[g, j] += weight * base3[g, (j - offset) % R]`` via two slices."""
    region_rows = base3.shape[1]
    offset = int(offset) % region_rows
    if offset == 0:
        out3 += base3 if weight == 1.0 else weight * base3
        return
    head, tail = base3[:, :region_rows - offset], base3[:, region_rows - offset:]
    out3[:, offset:] += head if weight == 1.0 else weight * head
    out3[:, :offset] += tail if weight == 1.0 else weight * tail


def _window_axpy(out3: np.ndarray, base3: np.ndarray, weight: float,
                 first: int, count: int) -> None:
    """Add ``weight * sum_{o in [first, first+count)} roll_o(base3)``.

    The circular sliding-window sum is a cumulative sum over the region axis
    extended by ``count - 1`` wrapped rows; partial sums stay exact integers,
    so the window difference is bitwise equal to summing the rolls directly.
    """
    regions, region_rows, width = base3.shape
    if count <= 0:
        return
    extended = (np.concatenate([base3, base3[:, :count - 1]], axis=1)
                if count > 1 else base3)
    prefix = np.concatenate(
        [np.zeros((regions, 1, width), dtype=np.float64),
         np.cumsum(extended, axis=1, dtype=np.float64)], axis=1)
    window = prefix[:, count:] - prefix[:, :-count]
    _roll_axpy(out3, window, (first + count - 1) % region_rows, weight)


def _circular_run(support: np.ndarray, region_rows: int
                  ) -> Optional[Tuple[int, int]]:
    """``(first, count)`` if ``support`` is one circularly contiguous run."""
    if support.size == region_rows:
        return 0, int(region_rows)
    internal = np.flatnonzero(np.diff(support) > 1)
    wrap_gap = int(support[0]) + region_rows - int(support[-1]) - 1
    if internal.size == 0:
        return int(support[0]), int(support.size)
    if internal.size == 1 and wrap_gap == 0:
        return int(support[int(internal[0]) + 1]), int(support.size)
    return None


def _apply_offset_weights(out: np.ndarray, base: np.ndarray,
                          weights: np.ndarray, region_rows: int) -> None:
    """``out += sum_o weights[o] * region_roll_o(base)`` in O(1) passes.

    ``out``/``base`` are ``(rows, width)`` with regions contiguous along the
    row axis; ``weights`` is the ``(region_rows,)`` exact-integer weight per
    roll offset.  Small supports use direct rolls; contiguous runs split into
    a uniform window (cumulative sum) plus a small residual of rolls; anything
    else falls back to one roll per occupied offset — always exact, the path
    choice only affects speed.
    """
    support = np.flatnonzero(weights)
    if not support.size:
        return
    regions = out.shape[0] // region_rows
    out3 = out.reshape(regions, region_rows, -1)
    base3 = base.reshape(regions, region_rows, -1)
    if support.size > _DIRECT_ROLLS:
        run = _circular_run(support, region_rows)
        if run is not None:
            uniform = float(weights[support].min())
            residual = weights.copy()
            residual[support] -= uniform
            residual_support = np.flatnonzero(residual)
            if residual_support.size <= max(_DIRECT_ROLLS, support.size // 4):
                _window_axpy(out3, base3, uniform, run[0], run[1])
                for offset in residual_support:
                    _roll_axpy(out3, base3, int(offset),
                               float(residual[offset]))
                return
    for offset in support:
        _roll_axpy(out3, base3, int(offset), float(weights[offset]))


def _weighted_perm_matvec(out: np.ndarray, base: np.ndarray,
                          indices: np.ndarray, weights: np.ndarray) -> None:
    """``out[p] += sum_k weights[k] * base[indices[p, k]]`` — one fused pass.

    ``indices`` is the ``(rows, num_spans)`` int32 matrix of inverse
    permutations (span k's logical occupant of each physical row).  With
    SciPy the whole sum is one duplicate-tolerant CSR mat-vec (row-major
    index layout, trivial indptr — no sparse constructor, no sort); without
    it, one gather-accumulate per span.
    """
    rows, num_spans = indices.shape
    width = base.shape[1]
    if _CSR_MATVECS is not None and base.flags.c_contiguous:
        indptr = np.arange(rows + 1, dtype=np.int32) * np.int32(num_spans)
        data = np.ascontiguousarray(
            np.broadcast_to(weights, (rows, num_spans)))
        _CSR_MATVECS(rows, rows, width, indptr, indices.ravel(),
                     data.ravel(), base.ravel(), out.ravel())
        return
    for k in range(num_spans):
        out += weights[k] * base[indices[:, k]]


class SpanComposer:
    """Accumulates leveled span tables and materialises physical counts.

    Drivers feed every :class:`~repro.leveling.remap.SpanTable` chunk with
    its :class:`BatchedCounts` through :meth:`add_table`; :meth:`finalize`
    then produces the composed ``(ones, writes)`` physical counts in a
    constant number of passes.  With ``track_feedback`` the composer also
    maintains ``(rows,)`` running totals of the physical ones/writes after
    each chunk (:meth:`row_totals`) — the wear-map stress signal
    feedback-driven levelers observe between chunks — at per-chunk vector
    cost instead of a full-matrix reduction.
    """

    def __init__(self, rows: int, word_bits: int, region_rows: int,
                 track_feedback: bool = False):
        self.rows = int(rows)
        self.word_bits = int(word_bits)
        self.region_rows = int(region_rows)
        self._bases: Optional[List[np.ndarray]] = None
        self._writes_base: Optional[np.ndarray] = None
        self._row_bases: Optional[List[np.ndarray]] = None
        #: Offset-form contributions: (offsets, coeffs, lengths) per table.
        self._offset_records: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Permutation-form contributions, one entry per span.
        self._perm_inverses: List[np.ndarray] = []
        self._perm_coeffs: List[np.ndarray] = []
        self._perm_lengths: List[float] = []
        #: Physical sums of every mapping's inversion counts,
        #: ``(enables per row, crossed per cell)``; allocated on first use.
        self._inversions: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._track = bool(track_feedback)
        self._row_ones = (np.zeros(self.rows, dtype=np.float64)
                          if self._track else None)
        self._row_writes = (np.zeros(self.rows, dtype=np.float64)
                            if self._track else None)
        self._identity32 = None

    def _bind(self, batched: BatchedCounts) -> None:
        if self._bases is None:
            self._bases = batched.bases
            self._writes_base = batched.writes
            self._row_bases = batched.row_bases
        elif batched.bases is not self._bases and any(
                a is not b for a, b in zip(batched.bases, self._bases)):
            raise ValueError("SpanComposer requires a single kernel: basis "
                             "matrices changed between chunks")

    def add_table(self, table: "SpanTable", batched: BatchedCounts) -> None:
        """Fold one span table's contribution into the composition."""
        if not table.num_spans:
            return
        self._bind(batched)
        if table.offsets is not None:
            if self._track:
                raise NotImplementedError(
                    "feedback tracking over offset-form tables is not "
                    "supported: feedback levelers emit permutation chunks")
            self._offset_records.append(
                (table.offsets, batched.coeffs, table.lengths))
            if batched.residuals is not None:
                shape = (self.rows // self.region_rows, self.region_rows, -1)
                enables3, crossed3 = (acc.reshape(shape)
                                      for acc in self._inversion_sums())
                for offset, enables, crossed in batched.residuals:
                    _roll_axpy(enables3, enables.reshape(shape), offset, 1.0)
                    _roll_axpy(crossed3, crossed.reshape(shape), offset, 1.0)
            return
        if self._identity32 is None:
            self._identity32 = np.arange(self.rows, dtype=np.int32)
        permutations = table.permutations()
        inverses = []
        for k in range(table.num_spans):
            inverse = np.empty(self.rows, dtype=np.int32)
            inverse[permutations[k]] = self._identity32
            inverses.append(inverse)
            self._perm_inverses.append(inverse)
            coeffs = np.asarray(batched.coeffs[:, k], dtype=np.float64)
            length = float(table.lengths[k])
            self._perm_coeffs.append(coeffs)
            self._perm_lengths.append(length)
            if self._track:
                gathered = self._row_bases[0][inverse]
                if coeffs[0] != 1.0:
                    gathered = gathered * coeffs[0]
                for channel in range(1, len(self._row_bases)):
                    if coeffs[channel] != 0.0:
                        gathered += (coeffs[channel]
                                     * self._row_bases[channel][inverse])
                self._row_ones += gathered
                self._row_writes += length * self._writes_base[inverse]
        if batched.residuals is not None:
            enables_sum, crossed_sum = self._inversion_sums()
            for span, enables, crossed in batched.residuals:
                inverse = inverses[span]
                enables_sum += np.take(enables, inverse)
                crossed_sum += np.take(crossed, inverse, axis=0)
                if self._track:
                    # Column by column: numpy reduces a short last axis
                    # several times slower.
                    row_ones = self.word_bits * enables
                    for column in crossed.T:
                        row_ones -= 2.0 * column
                    self._row_ones += np.take(row_ones, inverse)

    def _inversion_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """The physical ``(enables, crossed)`` accumulators."""
        if self._inversions is None:
            self._inversions = (np.zeros(self.rows, dtype=np.float64),
                                np.zeros((self.rows, self.word_bits),
                                         dtype=np.float64))
        return self._inversions

    def row_totals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Running physical ``(row_ones, row_writes)`` totals (feedback)."""
        if not self._track:
            raise RuntimeError("composer built without track_feedback")
        return self._row_ones, self._row_writes

    def finalize(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialise the composed physical ``(ones, writes)`` counts."""
        if self._inversions is None:
            ones = np.zeros((self.rows, self.word_bits), dtype=np.float64)
        else:
            # enables - 2 * crossed, in place on the crossed accumulator.
            enables, ones = self._inversions
            ones *= -2.0
            ones += enables[:, None]
            self._inversions = None
        writes = np.zeros(self.rows, dtype=np.float64)
        if self._bases is None:  # no spans at all
            return ones, writes
        num_channels = len(self._bases)
        if self._offset_records:
            region_rows = self.region_rows
            gamma = np.zeros((num_channels, region_rows), dtype=np.float64)
            gamma_writes = np.zeros(region_rows, dtype=np.float64)
            for offsets, coeffs, lengths in self._offset_records:
                for channel in range(num_channels):
                    gamma[channel] += np.bincount(
                        offsets, weights=coeffs[channel],
                        minlength=region_rows)
                gamma_writes += np.bincount(
                    offsets, weights=lengths.astype(np.float64),
                    minlength=region_rows)
            for channel in range(num_channels):
                _apply_offset_weights(ones, self._bases[channel],
                                      gamma[channel], region_rows)
            _apply_offset_weights(writes.reshape(-1, 1),
                                  self._writes_base.reshape(-1, 1),
                                  gamma_writes, region_rows)
        if self._perm_inverses:
            indices = np.stack(self._perm_inverses, axis=1)
            coeffs = np.stack(self._perm_coeffs, axis=1)
            for channel in range(num_channels):
                active = np.flatnonzero(coeffs[channel])
                if not active.size:
                    continue
                if active.size == indices.shape[1]:
                    _weighted_perm_matvec(ones, self._bases[channel],
                                          indices, coeffs[channel])
                else:
                    _weighted_perm_matvec(ones, self._bases[channel],
                                          np.ascontiguousarray(
                                              indices[:, active]),
                                          coeffs[channel][active])
            for inverse, length in zip(self._perm_inverses,
                                       self._perm_lengths):
                writes += length * self._writes_base[inverse]
        return ones, writes
