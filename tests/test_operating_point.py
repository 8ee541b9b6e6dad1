"""Tests for the DVFS operating-point layer (``repro.scenario.operating_point``).

Covers the :class:`OperatingPoint` container and its ``@V:F`` spec suffix,
the voltage-acceleration term of :class:`ArrheniusTimeScaling`, the
:class:`RetentionModel` idle-failure physics, hypothesis round-trip property
tests of the extended phase-spec mini-language (``parse(format(x)) == x``),
parse-error message snapshots, and the ``--grid`` alternate-separator
escaping convention.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.nbti import ReactionDiffusionSnmModel
from repro.aging.snm import default_snm_model
from repro.aging.stress import (
    DEFAULT_REFERENCE_FREQUENCY_GHZ,
    DEFAULT_REFERENCE_TEMPERATURE_C,
    DEFAULT_REFERENCE_VOLTAGE_V,
    ArrheniusTimeScaling,
    PhaseStress,
    aggregate_stress,
)
from repro.orchestration.sweep import split_grid_values
from repro.scenario import (
    LifetimeScenario,
    OperatingPoint,
    Phase,
    RetentionModel,
    parse_scenario_spec,
    reference_operating_point,
)
from repro.scenario.operating_point import (
    format_point_suffix,
    parse_point_suffix,
)


# --------------------------------------------------------------------------- #
# OperatingPoint container
# --------------------------------------------------------------------------- #
class TestOperatingPoint:
    def test_reference_point_is_reference(self):
        point = reference_operating_point()
        assert point.is_reference
        assert point.relative_frequency == 1.0
        assert point.voltage_v == DEFAULT_REFERENCE_VOLTAGE_V
        assert point.frequency_ghz == DEFAULT_REFERENCE_FREQUENCY_GHZ
        assert point.temperature_c == DEFAULT_REFERENCE_TEMPERATURE_C

    def test_relative_frequency_is_exactly_one_at_reference(self):
        # exact 1.0, not merely close: the wall-clock mapping divides by it
        assert OperatingPoint(frequency_ghz=1.0).relative_frequency == 1.0
        assert OperatingPoint(frequency_ghz=0.5).relative_frequency == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"voltage_v": 0.0}, {"voltage_v": -1.0}, {"voltage_v": float("nan")},
        {"frequency_ghz": 0.0}, {"frequency_ghz": float("inf")},
        {"temperature_c": float("nan")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OperatingPoint(**kwargs)

    def test_describe_round_trip(self):
        point = OperatingPoint(voltage_v=0.72, frequency_ghz=0.5,
                               temperature_c=45.0)
        assert OperatingPoint.from_description(point.describe()) == point

    def test_phase_resolves_omitted_point_to_reference(self):
        phase = Phase.active("lenet5", "int8", "none", 5)
        assert not phase.has_explicit_point
        assert phase.operating_point == OperatingPoint(
            temperature_c=phase.temperature_c)

    def test_naming_either_value_pins_both(self):
        phase = Phase.active("lenet5", "int8", "none", 5, voltage_v=0.8)
        assert phase.has_explicit_point
        assert phase.voltage_v == 0.8
        assert phase.frequency_ghz == DEFAULT_REFERENCE_FREQUENCY_GHZ


# --------------------------------------------------------------------------- #
# The ``@V:F`` suffix
# --------------------------------------------------------------------------- #
class TestPointSuffix:
    @pytest.mark.parametrize("text,expected", [
        ("0.72V:0.5GHz", (0.72, 0.5)),
        ("0.72:0.5", (0.72, 0.5)),
        ("0.72v:500MHz", (0.72, 0.5)),
        ("0.9V:1GHz", (0.9, 1.0)),
        ("1:2ghz", (1.0, 2.0)),
    ])
    def test_accepted_spellings(self, text, expected):
        assert parse_point_suffix(text, "token") == expected

    def test_format_is_parseable(self):
        suffix = format_point_suffix(0.72, 0.5)
        assert suffix == "@0.72V:0.5GHz"
        assert parse_point_suffix(suffix[1:], "token") == (0.72, 0.5)

    @pytest.mark.parametrize("text", ["0.72", "0.72V", ":0.5", "0.72:",
                                      "a:b", "0.72:fast", "-0.7:1", "0.7:-1"])
    def test_rejected_spellings(self, text):
        with pytest.raises(ValueError) as excinfo:
            parse_point_suffix(text, "token")
        assert "\n" not in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Voltage acceleration in the stress aggregation
# --------------------------------------------------------------------------- #
class TestVoltageScaling:
    def test_reference_voltage_factor_is_exactly_one(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.voltage_factor(scaling.reference_voltage_v) == 1.0
        assert scaling.time_factor(85.0, scaling.reference_voltage_v) == 1.0

    def test_none_voltage_matches_legacy_thermal_factor_bitwise(self):
        scaling = ArrheniusTimeScaling()
        for temperature in (25.0, 45.0, 85.0, 105.0):
            assert (scaling.time_factor(temperature)
                    == scaling.time_factor(temperature,
                                           scaling.reference_voltage_v))

    def test_overdrive_accelerates_undervolt_decelerates(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.voltage_factor(1.0) > 1.0
        assert scaling.voltage_factor(0.72) < 1.0

    def test_voltage_and_temperature_compose_multiplicatively(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.time_factor(45.0, 0.72) == pytest.approx(
            scaling.time_factor(45.0) * scaling.voltage_factor(0.72))

    def test_invalid_voltage_rejected(self):
        scaling = ArrheniusTimeScaling()
        with pytest.raises(ValueError):
            scaling.voltage_factor(0.0)
        with pytest.raises(ValueError):
            scaling.voltage_factor(float("nan"))

    def test_describe_round_trips_through_constructor(self):
        scaling = ArrheniusTimeScaling(voltage_acceleration_per_v=4.0,
                                       reference_voltage_v=0.8)
        assert ArrheniusTimeScaling(**scaling.describe()) == scaling

    def test_legacy_payload_without_voltage_keys_still_loads(self):
        legacy = {"activation_energy_ev": 0.1, "time_exponent": 1.0 / 6.0,
                  "reference_temperature_c": 85.0}
        scaling = ArrheniusTimeScaling(**legacy)
        assert scaling.reference_voltage_v == DEFAULT_REFERENCE_VOLTAGE_V

    def test_aggregate_stress_weights_voltage(self):
        duty = np.full(8, 0.7)
        low = [PhaseStress(duty, years=7.0, voltage_v=0.72)]
        ref = [PhaseStress(duty, years=7.0)]
        high = [PhaseStress(duty, years=7.0, voltage_v=1.0)]
        _, low_years = aggregate_stress(low)
        _, ref_years = aggregate_stress(ref)
        _, high_years = aggregate_stress(high)
        assert low_years < ref_years < high_years
        assert ref_years == 7.0  # bit-exact at the reference corner

    def test_phase_stress_rejects_bad_voltage(self):
        with pytest.raises(ValueError, match="voltage_v"):
            PhaseStress(np.zeros(4), years=1.0, voltage_v=-0.9)


# --------------------------------------------------------------------------- #
# Retention model
# --------------------------------------------------------------------------- #
class TestRetentionModel:
    MODEL = RetentionModel()
    SNM = default_snm_model()

    def probability(self, held=1.0, duty=0.9, voltage=0.72, years=5.0,
                    temperature=45.0, idle=1.0):
        return self.MODEL.failure_probability(
            np.asarray([held]), np.asarray([duty]), self.SNM, years,
            voltage, temperature, idle)[0]

    def test_lower_voltage_raises_failure_probability(self):
        probabilities = [self.probability(voltage=v)
                         for v in (0.9, 0.8, 0.72, 0.65)]
        assert all(a < b for a, b in zip(probabilities, probabilities[1:]))

    def test_nominal_supply_is_negligible(self):
        assert self.probability(voltage=DEFAULT_REFERENCE_VOLTAGE_V) < 1e-3

    def test_held_value_selects_the_worn_side(self):
        # A cell that spent its life at duty 0.95 is much riskier holding a
        # '1' (its worn side) than a '0' (the fresh side).
        worn = self.probability(held=1.0, duty=0.95)
        fresh = self.probability(held=0.0, duty=0.95)
        assert worn > 10 * fresh

    def test_expectation_interpolates_between_sides(self):
        worn = self.probability(held=1.0, duty=0.95)
        fresh = self.probability(held=0.0, duty=0.95)
        mixed = self.probability(held=0.5, duty=0.95)
        assert mixed == pytest.approx(0.5 * worn + 0.5 * fresh)

    def test_longer_idle_and_more_aging_raise_probability(self):
        assert self.probability(idle=2.0) > self.probability(idle=1.0)
        assert self.probability(years=7.0) > self.probability(years=0.5)

    def test_hotter_idle_raises_probability(self):
        assert (self.probability(temperature=85.0)
                > self.probability(temperature=25.0))

    def test_nan_held_cells_propagate(self):
        result = self.MODEL.failure_probability(
            np.asarray([np.nan, 1.0]), np.asarray([0.5, 0.5]), self.SNM,
            5.0, 0.72, 45.0, 1.0)
        assert np.isnan(result[0]) and np.isfinite(result[1])

    def test_probability_is_clipped_to_unit_interval(self):
        value = self.probability(voltage=0.51, duty=1.0, years=7.0, idle=10.0)
        assert value == 1.0

    def test_describe_is_json_safe(self):
        import json

        json.dumps(self.MODEL.describe())


@st.composite
def retention_grids(draw):
    """A ``(devices, cells)`` retention call: held values in {0, 1, p, NaN}."""
    devices = draw(st.integers(1, 4))
    cells = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0)
    held = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, np.nan]), unit),
                         min_size=cells, max_size=cells))
    duty = draw(st.lists(unit, min_size=devices * cells,
                         max_size=devices * cells))

    def per_device(low, high):
        return np.asarray(draw(st.lists(st.floats(low, high), min_size=devices,
                                        max_size=devices)))

    return {
        "held": np.asarray(held),
        "duty": np.asarray(duty).reshape(devices, cells),
        "snm": draw(st.sampled_from([default_snm_model(),
                                     ReactionDiffusionSnmModel()])),
        "stressed": per_device(0.01, 20.0),
        "voltage": per_device(0.5, 1.0),
        "temperature": per_device(-40.0, 125.0),
        "idle": per_device(0.001, 5.0),
    }


def _batched_probability(grid, **overrides):
    args = dict(grid, **overrides)
    return RetentionModel().failure_probability(
        args["held"], args["duty"], args["snm"], args["stressed"],
        args["voltage"], args["temperature"], args["idle"])


class TestBatchedRetentionProperties:
    """The device-batched call is the one-device call, row by row."""

    @settings(max_examples=60, deadline=None)
    @given(retention_grids())
    def test_rows_are_bitwise_scalar_calls(self, grid):
        batched = _batched_probability(grid)
        assert batched.shape == grid["duty"].shape
        for row in range(batched.shape[0]):
            scalar = RetentionModel().failure_probability(
                grid["held"], grid["duty"][row], grid["snm"],
                float(grid["stressed"][row]), float(grid["voltage"][row]),
                float(grid["temperature"][row]), float(grid["idle"][row]))
            assert batched[row].tobytes() == scalar.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(retention_grids())
    def test_nan_exactly_at_never_written_cells_and_unit_range(self, grid):
        batched = _batched_probability(grid)
        never_written = np.broadcast_to(np.isnan(grid["held"]), batched.shape)
        assert np.array_equal(np.isnan(batched), never_written)
        finite = batched[~never_written]
        assert np.all((finite >= 0.0) & (finite <= 1.0))

    @settings(max_examples=30, deadline=None)
    @given(retention_grids(),
           st.sampled_from([("voltage", 0.0), ("voltage", -0.7),
                            ("voltage", np.nan), ("voltage", np.inf),
                            ("temperature", -300.0), ("temperature", np.nan),
                            ("idle", 0.0), ("idle", -1.0), ("idle", np.nan)]),
           st.data())
    def test_bad_array_entries_raise_one_line_errors(self, grid, bad, data):
        name, value = bad
        column = grid[name].copy()
        column[data.draw(st.integers(0, column.size - 1))] = value
        with pytest.raises(ValueError) as excinfo:
            _batched_probability(grid, **{name: column})
        assert "\n" not in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Hypothesis round-trips of the spec mini-language
# --------------------------------------------------------------------------- #
def _g_float(minimum, maximum):
    """Floats that survive the ``:g`` token formatting round trip exactly."""
    return st.floats(min_value=minimum, max_value=maximum,
                     allow_nan=False, allow_infinity=False).map(
                         lambda value: float(f"{value:g}"))


_NETWORKS = st.sampled_from(["custom_mnist", "lenet5", "alexnet", "vgg16"])
_FORMATS = st.sampled_from(["int8", "int8_symmetric", "fp32", "float32"])
_POLICIES = st.sampled_from(["none", "inversion", "inversion_per_location",
                             "barrel_shifter", "dnn_life"])
_TEMPERATURES = _g_float(-100.0, 300.0)
_POINTS = st.one_of(
    st.none(),
    st.tuples(_g_float(0.3, 1.4), _g_float(0.05, 4.0)))


@st.composite
def phases(draw, formats=_FORMATS):
    duration = draw(st.integers(min_value=1, max_value=10_000))
    temperature = draw(_TEMPERATURES)
    point = draw(_POINTS)
    voltage, frequency = point if point is not None else (None, None)
    if draw(st.booleans()):
        return Phase.idle(duration, temperature, voltage_v=voltage,
                          frequency_ghz=frequency)
    return Phase.active(draw(_NETWORKS), draw(formats), draw(_POLICIES),
                        duration, temperature, voltage_v=voltage,
                        frequency_ghz=frequency)


class TestSpecRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(phases(), min_size=1, max_size=5))
    def test_parse_format_round_trip(self, phase_list):
        spec = ",".join(phase.to_token() for phase in phase_list)
        assert parse_scenario_spec(spec) == tuple(phase_list)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(phases(formats=st.just("int8")), min_size=1, max_size=4))
    def test_describe_round_trip(self, phase_list):
        # one word width per scenario (the geometry is scenario-wide), and a
        # scenario cannot open idle
        if phase_list[0].is_idle:
            phase_list[0] = Phase.active("lenet5", "int8", "none",
                                         phase_list[0].duration)
        scenario = LifetimeScenario(tuple(phase_list))
        rebuilt = LifetimeScenario.from_description(scenario.describe())
        assert rebuilt.phases == scenario.phases

    @settings(max_examples=100, deadline=None)
    @given(phases())
    def test_token_parses_alone(self, phase):
        (parsed,) = parse_scenario_spec(phase.to_token())
        assert parsed == phase

    @settings(max_examples=100, deadline=None)
    @given(phases())
    def test_reference_point_phases_format_without_suffix(self, phase):
        token = phase.to_token()
        assert ("V:" in token) == phase.has_explicit_point


class TestGridEscapingProperties:
    _PLAIN = st.text(
        alphabet=st.characters(whitelist_categories=("L", "N"),
                               whitelist_characters=":@._-"),
        min_size=1, max_size=20)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PLAIN, min_size=1, max_size=6))
    def test_comma_join_round_trip(self, values):
        assert split_grid_values(",".join(values)) == values

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.text(alphabet=st.characters(whitelist_categories=("L", "N"),
                                       whitelist_characters=":@,._-"),
                min_size=1, max_size=24).filter(lambda s: s[0] not in ";|/"),
        min_size=1, max_size=4))
    def test_alternate_separator_round_trip(self, values):
        # comma-bearing values survive when the axis declares ';'
        assert split_grid_values(";" + ";".join(values)) == values

    def test_declared_separator_with_no_values_is_empty(self):
        assert split_grid_values(";") == []
        assert split_grid_values("|  |") == []

    def test_multi_phase_spec_rides_an_axis(self):
        axis = (";custom_mnist:int8:none:3,idle:2"
                ";custom_mnist:int8:inversion:3@45C@0.72V:0.5GHz")
        values = split_grid_values(axis)
        assert len(values) == 2
        for value in values:
            parse_scenario_spec(value)  # every axis value is a valid spec


# --------------------------------------------------------------------------- #
# Parse-error message snapshots
# --------------------------------------------------------------------------- #
class TestParseErrorSnapshots:
    SNAPSHOTS = {
        "lenet5:int8:none:5@":
            "phase 'lenet5:int8:none:5@': '@' must be followed by a "
            "temperature (e.g. '@85C') or an operating point "
            "(e.g. '@0.72V:0.5GHz')",
        "lenet5:int8:none:5@85C@45C":
            "phase 'lenet5:int8:none:5@85C@45C': multiple temperature "
            "suffixes (at most one '@TEMP' is allowed)",
        "lenet5:int8:none:5@0.7V:1GHz@0.8V:1GHz":
            "phase 'lenet5:int8:none:5@0.7V:1GHz@0.8V:1GHz': multiple "
            "operating-point suffixes (at most one '@V:F' is allowed)",
        "lenet5:int8:none:5@0.7V:":
            "phase 'lenet5:int8:none:5@0.7V:': invalid operating point "
            "'0.7V:' (expected 'V:F', e.g. '0.72V:0.5GHz')",
        "lenet5:int8:none:5@volts:1GHz":
            "phase 'lenet5:int8:none:5@volts:1GHz': invalid voltage 'volts' "
            "(expected volts, e.g. '0.72V')",
        "lenet5:int8:none:5@0.7V:fast":
            "phase 'lenet5:int8:none:5@0.7V:fast': invalid frequency 'fast' "
            "(expected GHz, e.g. '0.5GHz' or '500MHz')",
        "lenet5:int8:none:5@cold":
            "phase 'lenet5:int8:none:5@cold': invalid temperature 'cold' "
            "(expected degrees Celsius, e.g. '85C')",
        "idle:5:5":
            "phase 'idle:5:5': expected 'idle:DURATION[@TEMP][@V:F]'",
        "lenet5:int8:none":
            "phase 'lenet5:int8:none': expected "
            "'NETWORK:FORMAT:POLICY:DURATION[@TEMP][@V:F]' or "
            "'idle:DURATION[@TEMP][@V:F]'",
    }

    @pytest.mark.parametrize("spec", sorted(SNAPSHOTS))
    def test_error_message_snapshot(self, spec):
        with pytest.raises(ValueError) as excinfo:
            parse_scenario_spec(spec)
        message = str(excinfo.value)
        assert message == self.SNAPSHOTS[spec]
        assert "\n" not in message
