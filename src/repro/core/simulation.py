"""Duty-cycle / aging simulation engines.

Two engines evaluate a mitigation policy against the weight write stream of an
accelerator:

* :class:`ExplicitAgingSimulator` — replays every block write of every
  inference through the policy's ``encode_block``; exact but only practical
  for small networks/memories.  Used by tests to validate the fast engine and
  by the functional accelerator path.
* :class:`AgingSimulator` — the fast engine.  It exploits the periodic
  structure of the workload (the same stream repeats every inference) to
  account an arbitrary number of inferences in closed form per policy.  It
  operates on the :class:`~repro.accelerator.scheduler.PackedBitTensor` of
  the stream — the whole inference quantized and bit-unpacked once — so
  every kernel is a few whole-tensor NumPy reductions.  This is what makes
  simulating a 512 KB weight memory under a 61M-parameter DNN for
  100 inferences tractable on a laptop, and it matches the explicit engine
  exactly for deterministic policies (and in distribution for the stochastic
  DNN-Life policy).

Both produce an :class:`AgingResult` holding per-cell duty-cycles and the
SNM-degradation statistics derived from them.

Both engines also power the multi-phase scenario layer
(:mod:`repro.scenario`): the fast engine exposes its closed-form
``counts(start, n)`` factory through :meth:`AgingSimulator.counts_kernel`,
and the explicit per-epoch replay is factored into :func:`replay_inference`
so the scenario cross-check engine shares the exact same write accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.accelerator.scheduler import (
    PackedBitTensor,
    WeightStreamScheduler,
    as_stride_indexer,
    block_axis_sum,
)
from repro.aging.snm import (
    SnmDegradationModel,
    bin_labels,
    default_degradation_bins,
    default_snm_model,
    degradation_histogram,
)
from repro.core.policies import (
    BarrelShifterPolicy,
    DnnLifePolicy,
    MitigationPolicy,
    NoMitigationPolicy,
    PeriodicInversionPolicy,
)
from repro.core.span_compose import BatchedCounts, SpanComposer
from repro.quantization.bitops import unpack_bits
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.leveling.remap import WearLeveler

#: Closed-form counts factory: ``counts(start_inference, n)`` returns the
#: per-logical-cell ones numerator and the per-row write denominator
#: accumulated over inferences ``[start, start + n)``.
CountsKernel = Callable[[int, int], Tuple[np.ndarray, np.ndarray]]

#: ``last_bits(t)`` — the ``(rows, word_bits)`` matrix of bits the final
#: write of inference ``t`` leaves behind (NaN on unwritten rows).
LastBitsKernel = Callable[[int], np.ndarray]

#: Batched counts factory: ``batch(starts, lengths)`` returns the
#: :class:`~repro.core.span_compose.BatchedCounts` decomposition of the
#: per-span counts over a whole span table at once.
BatchedCountsBuilder = Callable[[np.ndarray, np.ndarray], BatchedCounts]


class PackedSpanKernel:
    """A policy's closed-form counts kernel, with an optional batched form.

    Instances are callable exactly like the legacy ``counts(start, n)``
    closures (:data:`CountsKernel`), which is how the scenario driver and the
    cross-check tests keep consuming them.  Kernels whose span counts
    decompose into fixed basis matrices with per-span scalar coefficients
    additionally expose :meth:`counts_batch`, the entry point of the fused
    leveling composition (:class:`~repro.core.span_compose.SpanComposer`);
    stochastic kernels (DNN-Life's TRBG draws fresh randomness per span, in
    call order) have no batched form and keep the per-span loop.
    """

    def __init__(self, counts: CountsKernel,
                 batch: Optional[BatchedCountsBuilder] = None):
        self._counts = counts
        self._batch = batch

    def __call__(self, start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._counts(start, n)

    @property
    def supports_batch(self) -> bool:
        """Whether :meth:`counts_batch` is available for this kernel."""
        return self._batch is not None

    def counts_batch(self, starts: np.ndarray,
                     lengths: np.ndarray) -> BatchedCounts:
        """Per-span counts decomposition over a whole span table."""
        if self._batch is None:
            raise NotImplementedError(
                "this kernel has no batched form (stochastic per-span "
                "draws); evaluate counts(start, n) per span instead")
        starts = np.asarray(starts, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        return self._batch(starts, lengths)


# --------------------------------------------------------------------------- #
# Result container
# --------------------------------------------------------------------------- #
@dataclass
class AgingResult:
    """Outcome of an aging simulation for one (workload, policy) pair."""

    policy_name: str
    policy_description: Dict[str, object]
    duty_cycles: np.ndarray
    num_inferences: int
    num_blocks: int
    snm_model: SnmDegradationModel = field(default_factory=default_snm_model)
    years: float = 7.0
    #: (duty_cycles, years, snm_model, read-only degradation) of the last
    #: :meth:`snm_degradation` call; reassigning any of the three misses it.
    _degradation: Optional[Tuple[np.ndarray, float, SnmDegradationModel, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.duty_cycles = np.asarray(self.duty_cycles, dtype=np.float64)

    @property
    def num_cells(self) -> int:
        """Number of 6T-SRAM cells covered by the result."""
        return int(self.duty_cycles.size)

    def snm_degradation(self) -> np.ndarray:
        """Per-cell SNM degradation (percent) after ``years`` years.

        Computed once and shared by :meth:`summary` and :meth:`histogram`;
        the returned array is read-only.
        """
        cached = self._degradation
        if (cached is None or cached[0] is not self.duty_cycles
                or cached[1] is not self.years or cached[2] is not self.snm_model):
            degradation = self.snm_model.degradation_percent(
                self.duty_cycles.reshape(-1), self.years)
            degradation.setflags(write=False)
            cached = (self.duty_cycles, self.years, self.snm_model, degradation)
            self._degradation = cached
        return cached[3]

    def histogram(self, bin_edges: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Fig. 9 / Fig. 11 style histogram: % of cells per degradation bin."""
        edges = (np.asarray(bin_edges, dtype=np.float64) if bin_edges is not None
                 else default_degradation_bins(self.snm_model))
        percentages, edges = degradation_histogram(self.snm_degradation(), edges)
        return percentages, edges, bin_labels(edges)

    def duty_cycle_statistics(self) -> Dict[str, float]:
        """Summary statistics of the per-cell duty-cycles."""
        duty = self.duty_cycles.reshape(-1)
        deviation = duty - 0.5
        np.abs(deviation, out=deviation)
        return {
            "mean": float(duty.mean()),
            "std": float(duty.std()),
            "min": float(duty.min()),
            "max": float(duty.max()),
            "mean_abs_deviation_from_half": float(deviation.mean()),
            "max_abs_deviation_from_half": float(deviation.max()),
        }

    def summary(self) -> Dict[str, object]:
        """Headline metrics used by the experiment reports."""
        degradation = self.snm_degradation()
        best = self.snm_model.best_case_percent(self.years)
        worst = self.snm_model.worst_case_percent(self.years)
        near_best = float((degradation <= best + 0.5).mean() * 100.0)
        near_worst = float((degradation >= worst - 0.5).mean() * 100.0)
        return {
            "policy": self.policy_name,
            "num_cells": self.num_cells,
            "num_blocks": self.num_blocks,
            "num_inferences": self.num_inferences,
            "mean_snm_degradation_percent": float(degradation.mean()),
            "max_snm_degradation_percent": float(degradation.max()),
            "percent_cells_near_best": near_best,
            "percent_cells_near_worst": near_worst,
            "duty_cycle": self.duty_cycle_statistics(),
        }

    # ------------------------------------------------------------------ #
    # Serialization (orchestration cache / sweep-worker transport)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe representation of the full result.

        The payload round-trips through :meth:`from_payload` without loss:
        it carries the raw duty-cycle matrix (shape preserved) and the SNM
        model's class/parameters, so a cached or worker-transported result
        supports the same derived queries (histograms, summaries) as a
        freshly computed one.
        """
        return {
            "policy_name": self.policy_name,
            "policy_description": dict(self.policy_description),
            "duty_cycles_shape": list(self.duty_cycles.shape),
            "duty_cycles": self.duty_cycles.reshape(-1).tolist(),
            "num_inferences": self.num_inferences,
            "num_blocks": self.num_blocks,
            "years": self.years,
            "snm_model": _snm_model_to_payload(self.snm_model),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AgingResult":
        """Rebuild an :class:`AgingResult` from :meth:`to_payload` output."""
        duty = np.asarray(payload["duty_cycles"], dtype=np.float64)
        duty = duty.reshape([int(dim) for dim in payload["duty_cycles_shape"]])
        return cls(
            policy_name=str(payload["policy_name"]),
            policy_description=dict(payload["policy_description"]),
            duty_cycles=duty,
            num_inferences=int(payload["num_inferences"]),
            num_blocks=int(payload["num_blocks"]),
            snm_model=_snm_model_from_payload(payload["snm_model"]),
            years=float(payload["years"]),
        )


def _snm_model_to_payload(model: SnmDegradationModel) -> Dict[str, object]:
    """Serialize an SNM model (a frozen dataclass) to class name + fields."""
    import dataclasses

    if not dataclasses.is_dataclass(model):
        raise TypeError(f"cannot serialize SNM model of type {type(model).__name__}; "
                        "expected a dataclass-based model")
    fields = {}
    for spec in dataclasses.fields(model):
        value = getattr(model, spec.name)
        fields[spec.name] = (_dataclass_fields_payload(value)
                             if dataclasses.is_dataclass(value) else value)
    return {"class": type(model).__name__, "fields": fields}


def _dataclass_fields_payload(obj: object) -> Dict[str, object]:
    import dataclasses

    return {"class": type(obj).__name__,
            "fields": {spec.name: getattr(obj, spec.name)
                       for spec in dataclasses.fields(obj)}}


def _known_snm_payload_classes() -> Dict[str, type]:
    """Every class an SNM payload may name: all shipped degradation models.

    Discovered by walking ``SnmDegradationModel``'s subclass tree (after
    importing the shipped model modules) plus the nested device dataclass, so
    a newly shipped model round-trips without touching this registry.
    """
    from repro.aging.nbti import NbtiDeviceModel
    from repro.aging.snm import SnmDegradationModel

    known: Dict[str, type] = {NbtiDeviceModel.__name__: NbtiDeviceModel}
    stack = list(SnmDegradationModel.__subclasses__())
    while stack:
        cls = stack.pop()
        known[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return known


def _snm_model_from_payload(payload: Dict[str, object]) -> SnmDegradationModel:
    """Rebuild an SNM model from its class name and field values."""
    known = _known_snm_payload_classes()
    name = payload["class"]
    if name not in known:
        raise ValueError(f"unknown SNM model class '{name}' in payload "
                         f"(known: {', '.join(sorted(known))})")
    kwargs = {}
    for key, value in dict(payload["fields"]).items():
        if isinstance(value, dict) and "class" in value and "fields" in value:
            kwargs[key] = _snm_model_from_payload(value)
        else:
            kwargs[key] = value
    return known[name](**kwargs)


# --------------------------------------------------------------------------- #
# Explicit (exact, slow) engine
# --------------------------------------------------------------------------- #
def replay_inference(stream: WeightStreamScheduler, policy: MitigationPolicy,
                     ones: np.ndarray,
                     writes: np.ndarray, remap: Optional[np.ndarray] = None,
                     stored: Optional[np.ndarray] = None) -> None:
    """Replay one inference epoch's block writes through ``policy``.

    The shared explicit-path primitive: encodes every block of ``stream``,
    verifies the decode round-trip (the mitigation hardware must be
    transparent to the computation), and accumulates the stored bits and
    write counts into ``ones``/``writes`` — through the optional
    logical→physical row ``remap`` of a wear leveler.  When ``stored`` is
    given (a ``(rows, word_bits)`` float array), every write additionally
    overwrites the target rows with the bits it leaves behind, so after the
    final epoch ``stored`` holds the exact last-written value of every
    physical cell (the retention-phase input).  Both
    :class:`ExplicitAgingSimulator` and the scenario phase-replay engine
    (:class:`repro.scenario.driver.ExplicitScenarioSimulator`) are built on
    this function, so their per-epoch accounting cannot diverge.
    """
    word_bits = stream.geometry.word_bits
    words_per_block = stream.words_per_block
    for block in stream.iter_blocks():
        start_row = block.region * words_per_block
        encoded, metadata = policy.encode_block(
            block.words, block.index, start_row=start_row)
        decoded = policy.decode_block(encoded, metadata)
        if not np.array_equal(decoded, np.asarray(block.words,
                                                  dtype=np.uint64).reshape(-1)):
            raise AssertionError(
                f"policy '{policy.name}' failed to decode block {block.index}")
        bits = unpack_bits(encoded, word_bits)
        if remap is None:
            target = slice(start_row, start_row + bits.shape[0])
        else:
            target = remap[start_row:start_row + bits.shape[0]]
        ones[target] += bits
        writes[target] += 1
        if stored is not None:
            stored[target] = bits


class ExplicitAgingSimulator:
    """Replays every write of every inference through the policy.

    An optional :class:`~repro.leveling.remap.WearLeveler` remaps each
    block's rows from logical to physical before the write lands; the policy
    keeps encoding the *logical* stream (the remap table sits between the
    encoder and the array, exactly as the hardware would place it).
    """

    def __init__(self, scheduler: WeightStreamScheduler, policy: MitigationPolicy,
                 num_inferences: int = 100,
                 snm_model: Optional[SnmDegradationModel] = None,
                 leveler: Optional["WearLeveler"] = None):
        self.scheduler = scheduler
        self.policy = policy
        self.num_inferences = check_positive_int(num_inferences, "num_inferences")
        self.snm_model = snm_model or default_snm_model()
        self.leveler = leveler
        if leveler is not None and leveler.rows != scheduler.geometry.rows:
            raise ValueError(f"leveler covers {leveler.rows} rows but the memory "
                             f"has {scheduler.geometry.rows}")

    def run(self) -> AgingResult:
        """Simulate ``num_inferences`` inferences write-by-write."""
        geometry = self.scheduler.geometry
        rows, word_bits = geometry.rows, geometry.word_bits
        ones = np.zeros((rows, word_bits), dtype=np.float64)
        writes = np.zeros(rows, dtype=np.int64)
        self.policy.reset()
        leveler = self.leveler
        if leveler is not None:
            leveler.reset()
            from repro.leveling.remap import mean_duty_per_row
        for epoch in range(self.num_inferences):
            remap = None if leveler is None else leveler.permutation(epoch)
            replay_inference(self.scheduler, self.policy, ones, writes, remap)
            if leveler is not None and leveler.uses_feedback:
                leveler.observe(epoch + 1,
                                mean_duty_per_row(ones, writes * float(word_bits)))
        duty = _duty_from_counts(ones, writes)
        return AgingResult(
            policy_name=self.policy.name,
            policy_description=_describe_with_leveling(self.policy, leveler),
            duty_cycles=duty,
            num_inferences=self.num_inferences,
            num_blocks=self.scheduler.num_blocks,
            snm_model=self.snm_model,
        )


# --------------------------------------------------------------------------- #
# Fast engine
# --------------------------------------------------------------------------- #
class AgingSimulator:
    """Vectorized aging simulator exploiting the periodic weight stream.

    The whole block stream is quantized and bit-unpacked *once* into a
    :class:`~repro.accelerator.scheduler.PackedBitTensor` (reused across
    policies when the stream is a
    :class:`~repro.accelerator.scheduler.CachedWeightStream`), and every
    policy kernel is a handful of whole-tensor NumPy reductions, closed-form
    over inferences, with no per-block Python loop.  Schedules with an
    unpadded final block are supported.

    For the deterministic policies the duty-cycles are byte-identical to
    :class:`ExplicitAgingSimulator`'s write-by-write replay; for the
    stochastic DNN-Life policy they agree in distribution (the closed form
    draws the same binomial law in a different RNG order).
    """

    def __init__(self, scheduler: WeightStreamScheduler, policy: MitigationPolicy,
                 num_inferences: int = 100, seed: SeedLike = None,
                 snm_model: Optional[SnmDegradationModel] = None,
                 leveler: Optional["WearLeveler"] = None):
        self.scheduler = scheduler
        self.policy = policy
        self.num_inferences = check_positive_int(num_inferences, "num_inferences")
        self.rng = as_rng(seed)
        self.snm_model = snm_model or default_snm_model()
        if leveler is not None and leveler.rows != scheduler.geometry.rows:
            raise ValueError(f"leveler covers {leveler.rows} rows but the memory "
                             f"has {scheduler.geometry.rows}")
        self.leveler = leveler
        self._packed_tensor: Optional[PackedBitTensor] = None

    # -- public API ------------------------------------------------------- #
    def run(self) -> AgingResult:
        """Compute per-cell duty-cycles for the configured policy."""
        duty = self._simulate_duty()
        return AgingResult(
            policy_name=self.policy.name,
            policy_description=_describe_with_leveling(self.policy, self.leveler),
            duty_cycles=duty,
            num_inferences=self.num_inferences,
            num_blocks=self.scheduler.num_blocks,
            snm_model=self.snm_model,
        )

    def counts_kernel(self) -> PackedSpanKernel:
        """The policy's closed-form counts factory (public driver entry point).

        Returns the :class:`PackedSpanKernel` described in
        :meth:`_packed_kernel` — callable as ``counts(start_inference, n) ->
        (numerator, writes)``, with :meth:`PackedSpanKernel.counts_batch` on
        top for span-table batches.  This is what the scenario driver
        (:class:`repro.scenario.driver.ScenarioAgingSimulator`) evaluates per
        phase: the heavy tensor reductions run once here, and every
        phase/leveling span afterwards is a cheap combination.
        """
        return self._packed_kernel(self.policy)

    def last_bits_kernel(self) -> Tuple[LastBitsKernel, np.ndarray]:
        """Closed-form "value left behind" factory.

        Returns ``(last_bits, written_rows)``.  ``written_rows`` is the
        boolean per-row mask of rows the stream writes at all, and
        ``last_bits(t)`` yields the ``(rows, word_bits)`` float64 matrix of
        the bits the *final* write of inference ``t`` (0-based since policy
        reset) leaves in each written logical row; unwritten rows hold NaN.
        For the deterministic policies the values are exact 0.0/1.0 and
        match the explicit write-by-write replay bit for bit; for the
        stochastic DNN-Life policy the matrix holds the per-cell
        *expectation* of the stored bit (the TRBG enable is marginalised),
        so the engines agree in distribution only.  This is the retention
        input of the scenario layer: idle phases hold exactly what the
        preceding phase's last epoch wrote.
        """
        packed = self._packed()
        rows, word_bits = packed.geometry.rows, packed.word_bits
        words_per_block = packed.words_per_block
        word_in_block = np.arange(rows, dtype=np.int64) % words_per_block
        # Per row: the last block (in stream order) covering it, i.e. the
        # write whose stored value the row still holds at the epoch's end.
        last_block = np.full(rows, -1, dtype=np.int64)
        for region in range(packed.fifo_depth_tiles):
            blocks = packed.region_blocks(region)
            if not blocks.size:
                continue
            row_slice = slice(region * words_per_block,
                              (region + 1) * words_per_block)
            coverage = (packed.valid_words[blocks][:, None]
                        > np.arange(words_per_block)[None, :])
            position = np.where(coverage,
                                np.arange(blocks.size)[:, None], -1).max(axis=0)
            covered = position >= 0
            last_block[row_slice][covered] = blocks[position[covered]]
        written = last_block >= 0
        last_raw = np.full((rows, word_bits), np.nan, dtype=np.float64)
        last_raw[written] = packed.bits[last_block[written],
                                        word_in_block[written], :]
        # Write-counter index of the row's final write within one inference.
        last_offset = np.zeros(rows, dtype=np.int64)
        last_offset[written] = (packed.word_offsets[last_block[written]]
                                + word_in_block[written])
        policy = self.policy
        total_words = packed.total_words

        if isinstance(policy, NoMitigationPolicy):
            def last_bits(t: int) -> np.ndarray:
                return last_raw.copy()
        elif isinstance(policy, PeriodicInversionPolicy):
            if policy.granularity == "write":
                # Words written before the final write since policy reset:
                # t whole inferences plus the in-inference counter index.
                def parity_of(t: int) -> np.ndarray:
                    return (last_offset + t * total_words) % 2
            else:
                writes_per_row = packed.rows_writes().astype(np.int64)

                def parity_of(t: int) -> np.ndarray:
                    prior = t * writes_per_row + (writes_per_row - 1)
                    return prior % 2

            def last_bits(t: int) -> np.ndarray:
                parity = parity_of(t)[:, None]
                return np.where(parity == 1, 1.0 - last_raw, last_raw)
        elif isinstance(policy, BarrelShifterPolicy):
            column = np.arange(word_bits, dtype=np.int64)

            def last_bits(t: int) -> np.ndarray:
                shift = np.where(written,
                                 (last_offset + t * total_words) % word_bits, 0)
                index = (column[None, :] + shift[:, None]) % word_bits
                return np.take_along_axis(last_raw, index, axis=1)
        elif isinstance(policy, DnnLifePolicy):
            bias = policy.controller.trbg.nominal_bias
            balancer = policy.controller.bias_balancer
            num_blocks = packed.num_blocks

            def last_bits(t: int) -> np.ndarray:
                if balancer is None:
                    inverted = np.full(rows, bias)
                else:
                    register = (t * num_blocks + last_block + 1) % balancer.period
                    phase_one = (register >> (balancer.num_bits - 1)) & 0x1
                    inverted = np.where(phase_one == 1, 1.0 - bias, bias)
                inverted = inverted[:, None]
                return last_raw * (1.0 - inverted) + (1.0 - last_raw) * inverted
        else:
            raise NotImplementedError(
                f"no last-bits fast path for policy type {type(policy).__name__}; "
                "use ExplicitAgingSimulator instead")
        return last_bits, written

    # -- dispatch ---------------------------------------------------------- #
    def _simulate_duty(self) -> np.ndarray:
        kernel = self._packed_kernel(self.policy)
        if self.leveler is None:
            numerator, writes = kernel(0, self.num_inferences)
            return _duty_from_counts(numerator, writes)
        return self._packed_with_leveling(kernel)

    def _packed_kernel(self, policy: MitigationPolicy) -> PackedSpanKernel:
        """Resolve the policy's closed-form counts kernel.

        A kernel is a :class:`PackedSpanKernel`: callable as
        ``counts(start_inference, n) -> (numerator, writes)`` returning the
        per-logical-cell ones numerator and per-row write denominator
        accumulated over inferences ``[start, start + n)``, and (for the
        deterministic policies) exposing the batched
        :meth:`PackedSpanKernel.counts_batch` decomposition over whole span
        tables.  The heavy tensor reductions happen once in the factory; each
        call is a cheap combination, which is what lets the leveling driver
        evaluate many constant-mapping spans without re-reducing the packed
        tensor.
        """
        if isinstance(policy, NoMitigationPolicy):
            return self._packed_no_mitigation_kernel()
        if isinstance(policy, PeriodicInversionPolicy):
            return self._packed_periodic_inversion_kernel(policy)
        if isinstance(policy, BarrelShifterPolicy):
            return self._packed_barrel_shifter_kernel(policy)
        if isinstance(policy, DnnLifePolicy):
            return self._packed_dnn_life_kernel(policy)
        raise NotImplementedError(
            f"no fast path for policy type {type(policy).__name__}; "
            "use ExplicitAgingSimulator instead")

    def _packed_with_leveling(self, kernel: PackedSpanKernel) -> np.ndarray:
        """Compose the counts kernel with the leveler's permutation spans.

        The batched fast path: the leveler's :meth:`~repro.leveling.remap.WearLeveler.span_tables`
        chunks feed a :class:`~repro.core.span_compose.SpanComposer`, which
        collapses the whole composition — per-region rotation spans and
        explicit permutation chunks alike — into a constant number of NumPy
        passes, bit-identically to the iterative span walk.  Feedback-driven
        levelers observe the accumulated physical stress between chunks, from
        the composer's ``(rows,)`` running totals.  Kernels without a batched
        form (the stochastic DNN-Life policy) keep the legacy per-span loop.
        """
        from repro.leveling.remap import mean_duty_from_row_counts

        if not kernel.supports_batch:
            return self._packed_with_leveling_loop(kernel)
        packed = self._packed()
        rows, word_bits = packed.geometry.rows, packed.word_bits
        leveler = self.leveler
        leveler.reset()
        composer = SpanComposer(rows, word_bits, leveler.region_rows,
                                track_feedback=leveler.uses_feedback)
        for table in leveler.span_tables(self.num_inferences):
            if not table.num_spans:
                continue
            composer.add_table(
                table, kernel.counts_batch(table.starts, table.lengths))
            if leveler.uses_feedback:
                row_ones, row_writes = composer.row_totals()
                leveler.observe(
                    int(table.starts[-1] + table.lengths[-1]),
                    mean_duty_from_row_counts(row_ones,
                                              row_writes * float(word_bits)))
        ones, writes = composer.finalize()
        return _duty_from_counts(ones, writes)

    def _packed_with_leveling_loop(self, kernel: PackedSpanKernel) -> np.ndarray:
        """Per-span reference composition (and the stochastic-kernel path).

        Each constant-mapping span contributes its closed-form logical counts,
        gathered into physical rows through the span's permutation — one fancy
        row-gather per span, never a per-block Python loop.  Feedback-driven
        levelers observe the accumulated physical stress at span boundaries.
        Kept verbatim as the RNG-draw-order-preserving path for DNN-Life and
        as the cross-check reference for the batched composition.
        """
        from repro.leveling.remap import mean_duty_per_row

        packed = self._packed()
        rows, word_bits = packed.geometry.rows, packed.word_bits
        leveler = self.leveler
        leveler.reset()
        ones = np.zeros((rows, word_bits), dtype=np.float64)
        writes = np.zeros(rows, dtype=np.float64)
        for start, length in leveler.spans(self.num_inferences):
            permutation = leveler.permutation(start)
            span_ones, span_writes = kernel(start, length)
            ones[permutation] += span_ones
            writes[permutation] += span_writes
            if leveler.uses_feedback:
                leveler.observe(start + length,
                                mean_duty_per_row(ones, writes * float(word_bits)))
        return _duty_from_counts(ones, writes)

    # ------------------------------------------------------------------ #
    # Packed kernels: whole-tensor reductions over the PackedBitTensor
    # ------------------------------------------------------------------ #
    def _packed(self) -> PackedBitTensor:
        """The stream's packed bit tensor (shared via the stream's cache)."""
        if self._packed_tensor is None:
            from repro.accelerator.scheduler import packed_bit_tensor

            packed = packed_bit_tensor(self.scheduler)
            rows = self.scheduler.geometry.rows
            if packed.words_per_block * packed.fifo_depth_tiles != rows:
                raise ValueError(
                    f"packed tensor covers {packed.words_per_block} words x "
                    f"{packed.fifo_depth_tiles} tiles but the memory has {rows} rows")
            self._packed_tensor = packed
        return self._packed_tensor

    def _packed_no_mitigation_kernel(self) -> PackedSpanKernel:
        packed = self._packed()
        ones = packed.rows_ones()
        writes = packed.rows_writes()

        def counts(start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
            return ones * n, writes * n

        # Batched form: one channel, coefficient = span length.
        bases = [np.ascontiguousarray(ones, dtype=np.float64)]
        row_bases = [bases[0].sum(axis=1)]
        writes_base = np.ascontiguousarray(writes, dtype=np.float64)

        def batch(starts: np.ndarray, lengths: np.ndarray) -> BatchedCounts:
            return BatchedCounts(bases, lengths.astype(np.float64)[None, :],
                                 writes_base, row_bases)

        return PackedSpanKernel(counts, batch)

    def _packed_periodic_inversion_kernel(
            self, policy: PeriodicInversionPolicy) -> PackedSpanKernel:
        packed = self._packed()
        rows, word_bits = packed.geometry.rows, packed.word_bits
        valid = packed.valid_mask()
        # Inversion parity of write (block b, word w) in inference t is
        # P(b, w) + t * d (mod 2): P is the base parity in the first inference
        # and d the per-inference drift of the policy's toggle counter(s).
        # P decomposes into a per-block parity class plus (for the "write"
        # granularity) an alternation along the word index, so the tensor is
        # reduced once, partitioned by block class — no per-word weighting.
        if policy.granularity == "write":
            # One global word-write counter: P = (block's start count + w) % 2.
            block_class = (packed.word_offsets % 2).astype(np.int64)
            alternates_within_block = True
        else:
            # One counter per memory row: P = number of earlier writes to the
            # row within the inference.  With only the stream's final block
            # allowed to be short, that is the block's ordinal in its region.
            block_class = np.zeros(packed.num_blocks, dtype=np.int64)
            for region in range(packed.fifo_depth_tiles):
                blocks = packed.region_blocks(region)
                if blocks.size and np.any(packed.valid_words[blocks[:-1]]
                                          < packed.words_per_block):
                    raise NotImplementedError(
                        "per-location inversion requires at most the final "
                        "block of the stream to be short")
                block_class[blocks] = np.arange(blocks.size) % 2
            alternates_within_block = False

        # One class sum per region is derived by subtraction from the cached
        # whole-region sums, so the policy costs a single pass over the
        # minority class — zero extra passes when a region is single-class.
        ones = packed.rows_ones()
        writes = packed.rows_writes()
        ones_by_class = np.zeros((2, rows, word_bits), dtype=np.float64)
        writes_by_class = np.zeros((2, rows), dtype=np.float64)
        for row_slice, indexer in packed.region_indexers():
            blocks = np.arange(packed.num_blocks)[indexer]
            if not blocks.size:
                continue
            classes = block_class[blocks]
            minority = 0 if np.count_nonzero(classes) * 2 >= blocks.size else 1
            selected = as_stride_indexer(blocks[classes == minority])
            view = packed.bits[selected]
            if view.shape[0]:
                ones_by_class[minority][row_slice] = block_axis_sum(view, max_value=1)
                writes_by_class[minority][row_slice] = block_axis_sum(valid[selected])
            majority = 1 - minority
            ones_by_class[majority][row_slice] = (
                ones[row_slice] - ones_by_class[minority][row_slice])
            writes_by_class[majority][row_slice] = (
                writes[row_slice] - writes_by_class[minority][row_slice])
        if alternates_within_block:
            # Word w of a class-c block has parity (c + w) % 2: odd-parity
            # writes come from the *other* class on even word offsets.
            word_parity = (np.arange(packed.words_per_block, dtype=np.int64) % 2)
            word_parity = np.tile(word_parity, packed.fifo_depth_tiles)
            odd_is_class = np.where(word_parity == 0, 1, 0)
        else:
            odd_is_class = np.ones(rows, dtype=np.int64)
        take = np.arange(rows)
        ones_odd = ones_by_class[odd_is_class, take]
        writes_odd = writes_by_class[odd_is_class, take]
        # Stored value: plain when the parity is even, inverted when odd:
        # base = (ones - ones_odd) + (writes_odd - ones_odd).
        base = ones - 2.0 * ones_odd
        base += writes_odd[:, None]

        if policy.granularity == "write":
            drift = packed.total_words % 2
            drift_per_row = None if drift == 0 else np.ones(rows, dtype=np.int64)
        else:
            drift_per_row = writes.astype(np.int64) % 2
            if not drift_per_row.any():
                drift_per_row = None
        # flipped = (writes - base): every write's stored value inverts.
        flipped = None if drift_per_row is None else writes[:, None] - base

        def counts(start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
            if drift_per_row is None:
                return base * n, writes * n
            # Inference t adds a parity offset of (t * d_r) mod 2, so a row
            # with drift sees the flipped pattern on every odd t in
            # [start, start + n).
            odd = (start + n) // 2 - start // 2
            odd_per_row = (drift_per_row * odd)[:, None]
            numerator = base * (n - odd_per_row) + flipped * odd_per_row
            return numerator, writes * n

        # Batched form.  Rewriting the span counts as
        #   base * (n - d_r * odd) + flipped * (d_r * odd)
        #     = n * base + odd * [(flipped - base) * d_r]
        # exposes two fixed channels with per-span scalar coefficients
        # (n, odd); every term is an exact integer in float64, so the
        # regrouping is bitwise-neutral.
        bases = [np.ascontiguousarray(base, dtype=np.float64)]
        if drift_per_row is not None:
            drifted = (flipped - base) * drift_per_row[:, None].astype(np.float64)
            bases.append(np.ascontiguousarray(drifted, dtype=np.float64))
        row_bases = [channel.sum(axis=1) for channel in bases]
        writes_base = np.ascontiguousarray(writes, dtype=np.float64)

        def batch(starts: np.ndarray, lengths: np.ndarray) -> BatchedCounts:
            coeff_rows = [lengths.astype(np.float64)]
            if drift_per_row is not None:
                odd = (starts + lengths) // 2 - starts // 2
                coeff_rows.append(odd.astype(np.float64))
            return BatchedCounts(bases, np.stack(coeff_rows), writes_base,
                                 row_bases)

        return PackedSpanKernel(counts, batch)

    def _packed_barrel_shifter_kernel(
            self, policy: BarrelShifterPolicy) -> PackedSpanKernel:
        packed = self._packed()
        word_bits = packed.word_bits
        words = packed.words_per_block
        # The write counter rotates every word by its cumulative index mod n;
        # one inference advances it by the total word count, so inference t
        # adds an extra rotation of (t * drift) mod n.
        drift = packed.total_words % word_bits
        # Align each block's bits to its base rotation and accumulate per row.
        # Blocks sharing (region, start-offset mod n) see identical per-word
        # rotations, so they are reduced together; a padded stream whose block
        # size is a multiple of the word width has exactly one such class.
        aligned = np.zeros((packed.geometry.rows, word_bits), dtype=np.float64)
        offset_class = (packed.word_offsets % word_bits).astype(np.int64)
        word_index = np.arange(words, dtype=np.int64)
        column = np.arange(word_bits, dtype=np.int64)
        region_ones = packed.rows_ones()
        for row_slice, indexer in packed.region_indexers():
            blocks = np.arange(packed.num_blocks)[indexer]
            if not blocks.size:
                continue
            offsets = offset_class[blocks]
            distinct = np.unique(offsets)
            # The largest class's sum is derived by subtracting the others
            # from the cached region total: zero extra passes for the common
            # single-class (padded, word-aligned) stream.
            largest = distinct[np.argmax([np.count_nonzero(offsets == o)
                                          for o in distinct])]
            class_sums = {}
            if distinct.size == 1:
                class_sums[int(largest)] = region_ones[row_slice]
            else:
                remainder = region_ones[row_slice].copy()
                for offset in distinct:
                    if offset == largest:
                        continue
                    class_sum = block_axis_sum(
                        packed.bits[as_stride_indexer(blocks[offsets == offset])],
                        max_value=1)
                    class_sums[int(offset)] = class_sum
                    remainder -= class_sum
                class_sums[int(largest)] = remainder
            for offset, class_sum in class_sums.items():
                index = (column[None, :] + offset + word_index[:, None]) % word_bits
                aligned[row_slice] += np.take_along_axis(class_sum, index, axis=1)
        writes = packed.rows_writes()

        def counts(start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
            if drift == 0:
                # Every inference repeats the same rotations — no correlation.
                return aligned * n, writes * n
            # Count how many of the span's inferences land on each extra
            # rotation k, then fold them in via a circular correlation with
            # the rotation histogram.
            extra = np.bincount(((start + np.arange(n, dtype=np.int64)) * drift)
                                % word_bits, minlength=word_bits).astype(np.float64)
            correlation = extra[(column[:, None] - column[None, :]) % word_bits]
            return aligned @ correlation, writes * n

        # Batched form.  The correlation fold is a weighted sum of the
        # word_bits column-rolls of ``aligned``: one channel per extra
        # rotation j, with coefficient |{t in span : (t * drift) % word_bits
        # == j}|.  The per-rotation counts are closed-form over the schedule's
        # period word_bits/gcd(drift, word_bits) via a prefix-count table, so
        # no per-inference work remains; integer exactness again makes the
        # regrouping (rolls vs matmul) bitwise-neutral.
        writes_base = np.ascontiguousarray(writes, dtype=np.float64)
        if drift == 0:
            bases = [np.ascontiguousarray(aligned)]
            row_bases = [bases[0].sum(axis=1)]

            def batch(starts: np.ndarray, lengths: np.ndarray) -> BatchedCounts:
                return BatchedCounts(bases, lengths.astype(np.float64)[None, :],
                                     writes_base, row_bases)
        else:
            period = word_bits // int(np.gcd(drift, word_bits))
            hits = np.zeros((period, word_bits), dtype=np.int64)
            hits[np.arange(period),
                 (np.arange(period, dtype=np.int64) * drift) % word_bits] = 1
            prefix = np.zeros((period + 1, word_bits), dtype=np.int64)
            np.cumsum(hits, axis=0, out=prefix[1:])
            rotations = np.flatnonzero(prefix[period])
            bases = [np.ascontiguousarray(np.roll(aligned, -int(j), axis=1))
                     for j in rotations]
            row_bases = [channel.sum(axis=1) for channel in bases]

            def rotation_counts(epochs: np.ndarray) -> np.ndarray:
                # F[t, j]: rotations j seen by inferences [0, t).
                full = (epochs // period)[:, None] * prefix[period][None, :]
                return full + prefix[epochs % period]

            def batch(starts: np.ndarray, lengths: np.ndarray) -> BatchedCounts:
                spans = (rotation_counts(starts + lengths)
                         - rotation_counts(starts))[:, rotations]
                return BatchedCounts(bases, spans.T.astype(np.float64),
                                     writes_base, row_bases)

        return PackedSpanKernel(counts, batch)

    def _packed_dnn_life_kernel(self, policy: DnnLifePolicy) -> PackedSpanKernel:
        packed = self._packed()
        num_blocks = packed.num_blocks
        words = packed.words_per_block
        bias = policy.controller.trbg.nominal_bias
        balancer = policy.controller.bias_balancer
        group = policy.words_per_enable
        num_groups = (words + group - 1) // group
        valid = packed.valid_mask()
        ones = packed.rows_ones()
        writes = packed.rows_writes()
        rng = self.rng

        def counts(start: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
            # Deterministic bias-balancing phase of every (inference, block)
            # pair in the span: the register ticks once per block, its MSB is
            # the inversion phase.
            if balancer is not None:
                global_index = ((start + np.arange(n))[:, None] * num_blocks
                                + np.arange(num_blocks)[None, :])
                register = (global_index + 1) % balancer.period
                phases = (register >> (balancer.num_bits - 1)) & 0x1
                inferences_in_phase_one = phases.sum(axis=0)
            else:
                inferences_in_phase_one = np.zeros(num_blocks, dtype=np.int64)
            t_one = inferences_in_phase_one

            # Number of inferences (out of the span's n) in which each group's
            # enable bit comes out as 1 — one binomial draw per (block, group).
            # An unbiased TRBG is phase-independent (B(t0, .5) + B(t1, .5) is
            # B(T, .5)), and biased ones share t_one across at most one
            # balancer period of distinct values, so all draws run through
            # numpy's scalar-n binomial fast path.
            if bias == 0.5:
                group_enables = _unbiased_binomial(rng, n, (num_blocks, num_groups))
            else:
                group_enables = np.empty((num_blocks, num_groups), dtype=np.int64)
                for phase_count in np.unique(t_one):
                    selected = t_one == phase_count
                    count = (int(selected.sum()), num_groups)
                    group_enables[selected] = (
                        rng.binomial(int(n - phase_count), bias, size=count)
                        + rng.binomial(int(phase_count), 1.0 - bias, size=count))
            if n <= 255:
                group_enables = group_enables.astype(np.uint8, copy=False)
            word_enables = np.repeat(group_enables, group, axis=1)[:, :words]
            word_enables = word_enables * valid

            enables_total = packed.rows_sum(word_enables, max_value=n)
            crossed = packed.rows_sum(packed.bits, weights=word_enables, max_value=1)
            numerator = (ones * n + enables_total[:, None] - 2.0 * crossed)
            return numerator, writes * n

        # No batched form: the TRBG draws fresh randomness per span, in call
        # order, so the leveled composition keeps the per-span loop (which
        # preserves the RNG draw sequence the golden results pin down).
        return PackedSpanKernel(counts)


def _describe_with_leveling(policy: MitigationPolicy,
                            leveler: Optional["WearLeveler"]) -> Dict[str, object]:
    """Policy description, extended with the wear leveler's when one is active."""
    description = dict(policy.describe())
    if leveler is not None:
        description["leveling"] = leveler.describe()
    return description


def _unbiased_binomial(rng: np.random.Generator, trials: int,
                       size: Tuple[int, ...]) -> np.ndarray:
    """Draw Binomial(trials, 0.5) samples through the fastest available path.

    For p = 1/2 a binomial sample is exactly the popcount of ``trials``
    uniform random bits, which numpy >= 2.0 computes ~40% faster than its
    binomial sampler; older numpy falls back to the scalar-n binomial.
    """
    if hasattr(np, "bitwise_count") and 0 < trials <= 512:
        full_words, tail_bits = divmod(trials, 64)
        draws = full_words + (1 if tail_bits else 0)
        words = rng.integers(0, np.iinfo(np.uint64).max, size=size + (draws,),
                             dtype=np.uint64, endpoint=True)
        if tail_bits:
            words[..., -1] &= np.uint64((1 << tail_bits) - 1)
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    return rng.binomial(trials, 0.5, size=size)


#: Tolerance above 1.0 (and below 0.0) past which a computed duty-cycle is
#: treated as a numerator-accounting bug rather than float round-off.
_DUTY_TOLERANCE = 1e-9


def _duty_from_counts(ones: np.ndarray, writes: np.ndarray) -> np.ndarray:
    """Duty-cycle = accumulated ones / accumulated writes; unwritten rows hold 0.

    Every closed-form kernel accounts integral (one, write) counts, so a
    ratio outside ``[0, 1]`` can only come from a numerator-accounting bug.
    Such values are reported loudly instead of being clipped away silently;
    the final clip only absorbs genuine float round-off within
    :data:`_DUTY_TOLERANCE`.
    """
    writes_matrix = np.asarray(writes, dtype=np.float64)
    if writes_matrix.ndim == 1:
        writes_matrix = writes_matrix[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        duty = np.where(writes_matrix > 0, ones / writes_matrix, 0.0)
    if duty.size:
        low, high = float(duty.min()), float(duty.max())
        if high > 1.0 + _DUTY_TOLERANCE or low < -_DUTY_TOLERANCE:
            out_of_range = int(np.count_nonzero((duty > 1.0 + _DUTY_TOLERANCE)
                                                | (duty < -_DUTY_TOLERANCE)))
            raise FloatingPointError(
                f"duty-cycle accounting produced {out_of_range} value(s) outside "
                f"[0, 1] (min {low!r}, max {high!r}); this indicates a numerator "
                "bug in a closed-form kernel, not float round-off")
    return np.clip(duty, 0.0, 1.0)
