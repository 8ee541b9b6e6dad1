"""Batched-span leveling fast path: contract, property, and golden tests.

Three layers of protection for the fused remap composition
(:mod:`repro.core.span_compose`):

* property tests that :meth:`WearLeveler.span_table` /
  :meth:`WearLeveler.span_tables` agree span-for-span with the iterative
  :meth:`WearLeveler.spans` walk for every shipped leveler across sampled
  schedules and ``[start, stop)`` windows;
* unit tests of the span window-contract validator and its debug flag;
* byte-identity regressions pinning the batched engine's ``AgingResult``
  payloads to SHAs captured on the pre-refactor per-span loop, including a
  >255-span schedule that would expose any narrow-dtype shortcut in the
  composition and DNN-Life under every leveler (which pins its TRBG draw
  order), plus live batched-vs-explicit and scipy-vs-numpy cross-checks.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.span_compose as span_compose
from repro.bench.aging_bench import BenchCase, _policy_for
from repro.core.policies import make_policy
from repro.accelerator.scheduler import WeightStreamScheduler
from repro.core.simulation import (
    AgingSimulator,
    ExplicitAgingSimulator,
    _duty_from_counts,
)
from repro.leveling import (
    make_leveler,
    set_span_validation,
    span_validation_enabled,
)
from repro.leveling.remap import _check_span_tiling, mean_duty_per_row
from repro.memory.geometry import MemoryGeometry
from repro.scenario import LifetimeScenario, Phase, ScenarioAgingSimulator
from repro.utils.units import KB

# --------------------------------------------------------------------------- #
# Shared strategies / fixtures
# --------------------------------------------------------------------------- #

#: Every shipped leveler, with a sampling of its constructor schedules.
LEVELER_SPECS = st.one_of(
    st.just(("none", {})),
    st.builds(lambda p, s: ("rotation", {"period": p, "step": s}),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=1, max_value=5)),
    st.builds(lambda i: ("start_gap", {"interval": i}),
              st.integers(min_value=1, max_value=7)),
    st.builds(lambda i, f: ("wear_swap", {"interval": i, "swap_fraction": f}),
              st.integers(min_value=1, max_value=6),
              st.sampled_from([0.1, 0.25, 0.5])),
)


@st.composite
def leveler_and_window(draw):
    """A leveler spec plus a ``[start, stop)`` window inside its horizon."""
    spec = draw(LEVELER_SPECS)
    num_inferences = draw(st.integers(min_value=1, max_value=40))
    start = draw(st.integers(min_value=0, max_value=num_inferences))
    stop = draw(st.integers(min_value=start, max_value=num_inferences))
    return spec, num_inferences, start, stop


def _build_leveler(spec, fifo_depth_tiles=4, capacity_bytes=64):
    name, options = spec
    geometry = MemoryGeometry(capacity_bytes=capacity_bytes, word_bits=8)
    return make_leveler(name, geometry, fifo_depth_tiles, **options)


class TestSpanTableProperties:
    """`span_table(s)` must reproduce the iterative `spans()` walk exactly."""

    @settings(max_examples=200, deadline=None)
    @given(leveler_and_window())
    def test_tables_concatenate_to_iterative_spans(self, case):
        spec, num_inferences, start, stop = case
        leveler = _build_leveler(spec)
        expected = list(leveler.spans(num_inferences, start=start, stop=stop))
        tables = list(_build_leveler(spec).span_tables(
            num_inferences, start=start, stop=stop))
        got = [pair for table in tables for pair in table.iter_spans()]
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(leveler_and_window())
    def test_table_permutations_match_epoch_walk(self, case):
        """Each span's table mapping equals `permutation(epoch)` at its start.

        The reference leveler walks epochs through the legacy interface; the
        tables come from an independent instance so feedback-free schedules
        cannot leak state between the two paths.
        """
        spec, num_inferences, start, stop = case
        reference = _build_leveler(spec)
        tables = _build_leveler(spec).span_tables(
            num_inferences, start=start, stop=stop)
        for table in tables:
            for index, (span_start, _) in enumerate(table.iter_spans()):
                np.testing.assert_array_equal(
                    table.permutation(index), reference.permutation(span_start))

    @settings(max_examples=150, deadline=None)
    @given(leveler_and_window())
    def test_window_split_is_seamless(self, case):
        """Walking a window in two pieces covers the same epochs with the
        same mapping as one piece — the scenario driver's phase contract."""
        spec, num_inferences, start, stop = case
        mid = (start + stop) // 2
        whole = _build_leveler(spec)
        split = _build_leveler(spec)
        mapping_whole = {}
        for table in whole.span_tables(num_inferences, start=start, stop=stop):
            for index, (span_start, length) in enumerate(table.iter_spans()):
                perm = table.permutation(index)
                for epoch in range(span_start, span_start + length):
                    mapping_whole[epoch] = perm
        mapping_split = {}
        for lo, hi in ((start, mid), (mid, stop)):
            for table in split.span_tables(num_inferences, start=lo, stop=hi):
                for index, (span_start, length) in enumerate(table.iter_spans()):
                    perm = table.permutation(index)
                    for epoch in range(span_start, span_start + length):
                        mapping_split[epoch] = perm
        assert set(mapping_whole) == set(mapping_split) == set(
            range(start, stop))
        for epoch, perm in mapping_whole.items():
            np.testing.assert_array_equal(perm, mapping_split[epoch])

    def test_schedule_driven_table_is_single_shot(self):
        leveler = _build_leveler(("rotation", {"period": 4, "step": 1}))
        tables = list(leveler.span_tables(16))
        assert len(tables) == 1
        assert tables[0].offsets is not None

    def test_feedback_driven_span_table_refuses(self):
        leveler = _build_leveler(("wear_swap", {"interval": 2}))
        with pytest.raises(NotImplementedError):
            leveler.span_table(10)

    def test_feedback_driven_tables_chunk_at_observe_boundaries(self):
        leveler = _build_leveler(("wear_swap", {"interval": 3}))
        tables = list(leveler.span_tables(10))
        assert [t.num_spans for t in tables] == [1, 1, 1, 1]
        assert [next(t.iter_spans()) for t in tables] == [
            (0, 3), (3, 3), (6, 3), (9, 1)]


class TestSpanValidation:
    """The debug window-contract check behind ``set_span_validation``."""

    def test_toggle_returns_previous_setting(self):
        initial = span_validation_enabled()
        try:
            assert set_span_validation(True) == initial
            assert span_validation_enabled()
            assert set_span_validation(False) is True
            assert not span_validation_enabled()
        finally:
            set_span_validation(initial)

    def test_shipped_levelers_pass_validation(self):
        previous = set_span_validation(True)
        try:
            for spec in (("none", {}), ("rotation", {"period": 3, "step": 2}),
                         ("start_gap", {"interval": 2}),
                         ("wear_swap", {"interval": 4})):
                leveler = _build_leveler(spec)
                for start, stop in ((0, 17), (5, 11), (3, 3), (0, 1)):
                    list(leveler.spans(17, start=start, stop=stop))
        finally:
            set_span_validation(previous)

    def test_tiling_check_accepts_exact_cover(self):
        _check_span_tiling(np.asarray([2, 5, 9]), np.asarray([3, 4, 1]),
                           2, 10, "unit")

    @pytest.mark.parametrize("starts,lengths,start,stop", [
        ([0, 4], [3, 4], 0, 8),          # gap: epoch 3 uncovered
        ([0, 2], [3, 6], 0, 8),          # overlap at epoch 2
        ([1, 4], [3, 4], 0, 8),          # first span misses window start
        ([0, 4], [4, 3], 0, 8),          # last span misses window stop
        ([0], [0], 0, 8),                # non-positive length
        ([], [], 0, 8),                  # no spans for a non-empty window
        ([0], [1], 5, 5),                # spans emitted for an empty window
    ])
    def test_tiling_check_rejects_broken_tables(self, starts, lengths,
                                                start, stop):
        with pytest.raises(AssertionError):
            _check_span_tiling(np.asarray(starts, dtype=np.int64),
                               np.asarray(lengths, dtype=np.int64),
                               start, stop, "unit")


# --------------------------------------------------------------------------- #
# Byte-identity regressions
# --------------------------------------------------------------------------- #

#: Leveler schedules pinned by the golden battery (the bench suite's set).
GOLDEN_LEVELERS = (
    ("rotation", {"period": 8, "step": 1}),
    ("start_gap", {"interval": 2}),
    ("wear_swap", {"interval": 5, "swap_fraction": 0.25}),
)

#: sha256 of the sorted-key JSON payload of each leveled packed run, captured
#: on the pre-refactor per-span loop engine.  The batched composition must
#: reproduce these byte-for-byte.
GOLDEN_8KB_SHAS = {
    ("none", "rotation"):
        "cf02205a6949c7ea738fba2ee44779a80c697e51e90bdbaa0ea85f5c682c8d87",
    ("inversion", "rotation"):
        "3b8af059df3339a67971462c7d9d39973497fbfe07baad12063e637124816a02",
    ("none", "start_gap"):
        "bd75c44920a365c9df630e4f3eab29ec8fbfb569143f21499fcc1470e1acf2a8",
    ("inversion", "start_gap"):
        "c76d7a13f2e0365a4416c3b8e57f5c5536b62abdebe306bd459fcfef96721c32",
    ("none", "wear_swap"):
        "8dc69c71584626113edca1a11e3de4fde893745718198ab62519ac9cb8a467a4",
    ("inversion", "wear_swap"):
        "a3712b6f344d5d7d90b4659d1240d4cc15d7d6880c183dd37d191c06f9fd7258",
}

#: Pre-refactor SHA of a 300-span rotation schedule (period 8, step 1): more
#: than 255 spans, so any uint8-shaped narrowing in the fused composition's
#: span indexing or coefficient handling would change the payload.
GOLDEN_300SPAN_SHA = \
    "b16239ce36e41360083e4dd4ca2c7ac74a5ec79d69f8dad474b8f10126bd2774"


#: sha256 of the leveled packed payload of each DNN-Life run on the 8 KB
#: golden case, captured on the per-span loop engine: the TRBG draws come
#: out of the simulator's RNG span by span in call order, so these pin the
#: draw sequence as well as the composition.  ``dnn_life`` is the registry
#: default (bias 0.5, balancing on); ``dnn_life_0.7`` a biased TRBG with
#: bias balancing, which takes the per-phase-count binomial branch.
GOLDEN_DNN_LIFE_8KB_SHAS = {
    ("dnn_life", "rotation"):
        "0410001e6493a5c7f7872dfa58bcbc1ba415a0be65407fb9ad3270af50c67776",
    ("dnn_life", "start_gap"):
        "df703541eec583b39e982c27f7b0cc0470c05a4add161c62529873f2b3581236",
    ("dnn_life", "wear_swap"):
        "92a3c0b19964de0df1a344ba90e6b2e41f99dfa52a41aaa3a39f9ca90c7d913c",
    ("dnn_life_0.7", "rotation"):
        "d6cd2b9ab80a66338da121594182808e1574e3c75c9a54aab47dd35bb9fe19ef",
    ("dnn_life_0.7", "start_gap"):
        "dd75617d98f51877c1bc30206d72afa545df8f937a8b9e6cfd39abcc9252cf7c",
    ("dnn_life_0.7", "wear_swap"):
        "3533269d40fc629defb18a691895c7780071b25d6911f780769939dba7f810ce",
}

#: DNN-Life policy options of the golden battery, by label.
DNN_LIFE_GOLDEN_POLICIES = {
    "dnn_life": {},
    "dnn_life_0.7": {"trbg_bias": 0.7, "bias_balancing": True},
}

#: sha256 of the sorted-key JSON ``ScenarioResult`` payload of a DNN-Life
#: timeline under wear-swap whose idle phase reports retention from the
#: held bits of the preceding leveled phase, captured on the per-span loop.
GOLDEN_DNN_LIFE_SCENARIO_SHA = \
    "73c5a378786bd3e18c7a5b2be249af4bcb87d1ec8d8b31f188881185590f556c"


def _golden_8kb_case() -> BenchCase:
    return BenchCase(name="golden_8kb", description="golden leveling case",
                     memory_kb=8, word_bits=8, num_blocks=12,
                     fifo_depth_tiles=4, num_inferences=12,
                     policies=("none", "inversion"))


def _golden_300span_case() -> BenchCase:
    return BenchCase(name="golden_300span", description="300-span schedule",
                     memory_kb=4, word_bits=8, num_blocks=6,
                     fifo_depth_tiles=4, num_inferences=300,
                     policies=("none",))


def _payload_sha(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _leveled_payload_sha(case: BenchCase, policy_name: str,
                         leveler_name: str, options: dict,
                         policy=None) -> str:
    stream = case.build_stream(seed=0)
    leveler = make_leveler(leveler_name, stream.geometry,
                           case.fifo_depth_tiles, **options)
    if policy is None:
        policy = _policy_for(case, policy_name, 0)
    result = AgingSimulator(stream, policy,
                            num_inferences=case.num_inferences, seed=0,
                            leveler=leveler).run()
    return _payload_sha(result.to_payload())


def _dnn_life_scenario() -> LifetimeScenario:
    """Leveled DNN-Life phases around a low-voltage idle retention window."""
    return LifetimeScenario(phases=(
        Phase.active("custom_mnist", "int8", "dnn_life", 7, 85.0),
        Phase.idle(3, 45.0, voltage_v=0.62, frequency_ghz=0.1),
        Phase.active("custom_mnist", "int8", "dnn_life", 6, 45.0,
                     policy_options=DNN_LIFE_GOLDEN_POLICIES["dnn_life_0.7"]),
        Phase.idle(2, 25.0),
    ))


class TestGoldenPayloads:
    """The batched path must reproduce the pre-refactor loop byte-for-byte."""

    @pytest.mark.parametrize("policy_name", ["none", "inversion"])
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_golden_8kb(self, policy_name, leveler_name, options):
        sha = _leveled_payload_sha(_golden_8kb_case(), policy_name,
                                   leveler_name, options)
        assert sha == GOLDEN_8KB_SHAS[(policy_name, leveler_name)]

    def test_golden_300_span_schedule(self):
        """Overflow-shaped case: the schedule emits >255 constant spans."""
        case = _golden_300span_case()
        leveler = make_leveler("rotation",
                               MemoryGeometry(capacity_bytes=case.memory_kb * KB,
                                              word_bits=case.word_bits),
                               case.fifo_depth_tiles, period=8, step=1)
        table = leveler.span_table(case.num_inferences)
        assert table.num_spans > 255
        sha = _leveled_payload_sha(case, "none", "rotation",
                                   {"period": 8, "step": 1})
        assert sha == GOLDEN_300SPAN_SHA

    @pytest.mark.parametrize("label", sorted(DNN_LIFE_GOLDEN_POLICIES))
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_golden_dnn_life_8kb(self, label, leveler_name, options):
        case = _golden_8kb_case()
        policy = make_policy("dnn_life", case.word_bits, seed=0,
                             **DNN_LIFE_GOLDEN_POLICIES[label])
        sha = _leveled_payload_sha(case, "dnn_life", leveler_name, options,
                                   policy=policy)
        assert sha == GOLDEN_DNN_LIFE_8KB_SHAS[(label, leveler_name)]

    def test_golden_dnn_life_scenario_under_wear_swap(self):
        stream = _golden_8kb_case().build_stream(seed=0)
        leveler = make_leveler("wear_swap", stream.geometry, 4, interval=2,
                               swap_fraction=0.25)
        result = ScenarioAgingSimulator(
            _dnn_life_scenario(), stream_factory=lambda phase: stream,
            seed=0, leveler=leveler).run()
        assert any(entry is not None for entry in result.phase_retention)
        assert _payload_sha(result.to_payload()) == GOLDEN_DNN_LIFE_SCENARIO_SHA


def _per_span_walk(stream, policy, num_inferences, leveler, seed):
    """The per-span composition the batched engine replaced, as an oracle.

    One ``counts(start, n)`` call per constant-mapping span, in span order
    (so the TRBG draws come out of the same RNG stream), scattered into the
    span's physical rows; feedback levelers observe the full count matrix.
    """
    kernel = AgingSimulator(stream, policy, num_inferences=num_inferences,
                            seed=seed).counts_kernel()
    rows, word_bits = stream.geometry.rows, stream.geometry.word_bits
    ones = np.zeros((rows, word_bits))
    writes = np.zeros(rows)
    leveler.reset()
    for start, length in leveler.spans(num_inferences):
        permutation = leveler.permutation(start)
        span_ones, span_writes = kernel(start, length)
        ones[permutation] += span_ones
        writes[permutation] += span_writes
        if leveler.uses_feedback:
            leveler.observe(start + length,
                            mean_duty_per_row(ones, writes * float(word_bits)))
    return _duty_from_counts(ones, writes)


class TestBatchedDnnLifeMatchesPerSpanWalk:
    """Batched DNN-Life == the per-span walk, on every stream shape.

    Whole padded blocks tiled by whole enable groups take the group-weighted
    reduction; a short final block, or groups that do not tile a block,
    take the word-level one.
    """

    @staticmethod
    def _stream(kind, tiny_network):
        if kind == "synthetic":
            return _golden_8kb_case().build_stream(seed=0)
        return WeightStreamScheduler(
            tiny_network, "int8_symmetric",
            MemoryGeometry(capacity_bytes=512, word_bits=8),
            parallel_filters=4, fifo_depth_tiles=2, pad_final_block=False)

    @pytest.mark.parametrize("kind,options", [
        ("synthetic", {}),
        ("synthetic", {"trbg_bias": 0.7, "bias_balancing": True}),
        ("synthetic", {"words_per_enable": 3}),
        ("unpadded", {}),
        ("unpadded", {"trbg_bias": 0.7, "bias_balancing": True}),
    ])
    @pytest.mark.parametrize("leveler_name,leveler_options", [
        ("rotation", {"period": 3, "step": 5}),
        ("start_gap", {"interval": 2}),
        ("wear_swap", {"interval": 2, "swap_fraction": 0.25}),
    ], ids=lambda v: str(v))
    def test_bitwise_equal(self, tiny_network, kind, options, leveler_name,
                           leveler_options):
        stream = self._stream(kind, tiny_network)
        if kind == "unpadded":
            blocks = list(stream.iter_blocks())
            assert blocks[-1].num_words < stream.words_per_block
        tiles = stream.fifo_depth_tiles

        def build():
            return make_leveler(leveler_name, stream.geometry, tiles,
                                **leveler_options)

        def policy():
            return make_policy("dnn_life", 8, seed=0, **options)

        batched = AgingSimulator(stream, policy(), num_inferences=11, seed=3,
                                 leveler=build()).run()
        walked = _per_span_walk(stream, policy(), 11, build(), seed=3)
        assert np.array_equal(batched.duty_cycles, walked)

    @pytest.mark.parametrize("kind", ["synthetic", "unpadded"])
    def test_mapping_totals_above_a_byte(self, tiny_network, kind):
        """Single-inference spans draw byte-wide enables; each mapping of
        rotation(2) sums ~600 of them (~300 per group) and must not wrap."""
        stream = self._stream(kind, tiny_network)
        tiles = stream.fifo_depth_tiles

        def build():
            return make_leveler("rotation", stream.geometry, tiles,
                                period=2, step=1)

        def policy():
            return make_policy("dnn_life", 8, seed=0)

        batched = AgingSimulator(stream, policy(), num_inferences=1200, seed=3,
                                 leveler=build()).run()
        walked = _per_span_walk(stream, policy(), 1200, build(), seed=3)
        assert np.array_equal(batched.duty_cycles, walked)


class TestBatchedMatchesExplicit:
    """Live cross-check: fused composition vs the write-by-write replay.

    :class:`ExplicitAgingSimulator` routes every block write through the
    leveler's permutation, so for the deterministic policies it is the
    bit-exact reference of the composed span counts.
    """

    def _run(self, case, policy_name, leveler_name, options,
             engine=AgingSimulator):
        stream = case.build_stream(seed=0)
        leveler = make_leveler(leveler_name, stream.geometry,
                               case.fifo_depth_tiles, **options)
        return engine(stream, _policy_for(case, policy_name, 0),
                      num_inferences=case.num_inferences,
                      leveler=leveler).run()

    @pytest.mark.parametrize("policy_name",
                             ["none", "inversion", "barrel_shifter"])
    @pytest.mark.parametrize("leveler_name,options",
                             GOLDEN_LEVELERS, ids=lambda v: str(v))
    def test_bitwise_equal_results(self, policy_name, leveler_name, options):
        case = _golden_8kb_case()
        batched = self._run(case, policy_name, leveler_name, options)
        explicit = self._run(case, policy_name, leveler_name, options,
                             engine=ExplicitAgingSimulator)
        assert np.array_equal(batched.duty_cycles, explicit.duty_cycles)

    def test_300_span_schedule_bitwise_equal(self):
        case = _golden_300span_case()
        batched = self._run(case, "inversion", "rotation",
                            {"period": 8, "step": 1})
        explicit = self._run(case, "inversion", "rotation",
                             {"period": 8, "step": 1},
                             engine=ExplicitAgingSimulator)
        assert np.array_equal(batched.duty_cycles, explicit.duty_cycles)

    def test_permutation_matvec_fallback_is_bitwise_equal(self, monkeypatch):
        """The numpy gather fallback must match the scipy csr_matvecs path."""
        if span_compose._CSR_MATVECS is None:
            pytest.skip("scipy csr_matvecs unavailable; fallback already "
                        "exercised by the other tests")
        case = _golden_8kb_case()
        scipy_result = self._run(case, "inversion", "wear_swap",
                                 {"interval": 2, "swap_fraction": 0.25})
        monkeypatch.setattr(span_compose, "_CSR_MATVECS", None)
        numpy_result = self._run(case, "inversion", "wear_swap",
                                 {"interval": 2, "swap_fraction": 0.25})
        assert np.array_equal(scipy_result.duty_cycles,
                              numpy_result.duty_cycles)
