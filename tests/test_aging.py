"""Tests for repro.aging (SNM model, NBTI device model, Eq. 1/2, lifetime)."""

import numpy as np
import pytest

from repro.aging.lifetime import LifetimeEstimator, frequency_guardband_percent
from repro.aging.nbti import NbtiDeviceModel, ReactionDiffusionSnmModel
from repro.aging.probabilistic import (
    analytic_duty_cycle_histogram,
    duty_cycle_tail_probability,
    effective_num_blocks_with_shifts,
    empirical_tail_probability,
    expected_cells_at_tail,
    fig7_sweep,
    probability_at_least_n_cells,
)
from repro.aging.snm import (
    BEST_SNM_DEGRADATION_PERCENT,
    WORST_SNM_DEGRADATION_PERCENT,
    CalibratedSnmModel,
    bin_labels,
    default_degradation_bins,
    default_snm_model,
    degradation_histogram,
)


class TestCalibratedSnmModel:
    def test_anchor_points(self):
        model = default_snm_model()
        assert model.best_case_percent() == pytest.approx(BEST_SNM_DEGRADATION_PERCENT)
        assert model.worst_case_percent() == pytest.approx(WORST_SNM_DEGRADATION_PERCENT)
        assert model.degradation_percent(np.array([0.0]))[0] == pytest.approx(
            WORST_SNM_DEGRADATION_PERCENT)

    def test_symmetric_around_half(self):
        model = default_snm_model()
        duty = np.array([0.2, 0.8])
        degradation = model.degradation_percent(duty)
        assert degradation[0] == pytest.approx(degradation[1])

    def test_monotonic_in_stress(self):
        model = default_snm_model()
        duty = np.linspace(0.5, 1.0, 50)
        degradation = model.degradation_percent(duty)
        assert np.all(np.diff(degradation) >= 0)

    def test_minimum_at_half(self):
        model = default_snm_model()
        duty = np.linspace(0.0, 1.0, 101)
        degradation = model.degradation_percent(duty)
        assert degradation.argmin() == 50

    def test_time_scaling_follows_sixth_root(self):
        model = default_snm_model()
        at_7 = model.degradation_percent(np.array([1.0]), years=7.0)[0]
        at_14 = model.degradation_percent(np.array([1.0]), years=14.0)[0]
        assert at_14 / at_7 == pytest.approx(2 ** (1 / 6))

    def test_inverse(self):
        model = default_snm_model()
        stress = model.stress_fraction_for_degradation(BEST_SNM_DEGRADATION_PERCENT)
        assert stress == pytest.approx(0.5)

    def test_out_of_range_duty_rejected(self):
        with pytest.raises(ValueError):
            default_snm_model().degradation_percent(np.array([1.2]))

    def test_matches_elementwise_formula_bit_for_bit(self):
        model = default_snm_model()
        duty = np.concatenate([np.random.default_rng(0).random(4096),
                               [0.0, 0.5, 1.0, 0.5 - 2**-54, -1e-10, 1.0 + 1e-10]])
        before = duty.copy()
        clipped = np.clip(duty, 0.0, 1.0)
        stress = np.maximum(clipped, 1.0 - clipped)
        expected = (model.worst_percent * np.power(stress, model.gamma)
                    * (3.0 / model.reference_years) ** model.time_exponent)
        assert np.array_equal(model.degradation_percent(duty, 3.0), expected)
        assert np.array_equal(duty, before)

    def test_empty_duty(self):
        assert default_snm_model().degradation_percent(np.empty(0)).shape == (0,)

    def test_invalid_calibration_rejected(self):
        with pytest.raises(ValueError):
            CalibratedSnmModel(best_percent=20.0, worst_percent=10.0)

    def test_histogram_helpers(self):
        model = default_snm_model()
        edges = default_degradation_bins(model, num_bins=4)
        assert edges.size == 5
        values = np.array([10.82, 26.12, 18.0])
        percentages, _ = degradation_histogram(values, edges)
        assert percentages.sum() == pytest.approx(100.0)
        labels = bin_labels(edges)
        assert len(labels) == 4 and "%" in labels[0]

    def test_histogram_empty_input(self):
        percentages, _ = degradation_histogram(np.array([]), [0, 1, 2])
        assert np.allclose(percentages, 0.0)


class TestNbtiDeviceModel:
    def test_reference_point_calibration(self):
        model = NbtiDeviceModel()
        dvth = model.delta_vth(np.array([1.0]), years=model.reference_years)[0]
        assert dvth == pytest.approx(model.reference_dvth_volts)

    def test_monotonic_in_stress_and_time(self):
        model = NbtiDeviceModel()
        assert model.delta_vth(np.array([0.9]), 7)[0] > model.delta_vth(np.array([0.1]), 7)[0]
        assert model.delta_vth(np.array([0.5]), 10)[0] > model.delta_vth(np.array([0.5]), 1)[0]

    def test_zero_stress_is_zero_shift(self):
        assert NbtiDeviceModel().delta_vth(np.array([0.0]), 7)[0] == 0.0

    def test_temperature_acceleration(self):
        model = NbtiDeviceModel()
        hot = model.delta_vth(np.array([1.0]), 7, temperature_kelvin=400.0)[0]
        cold = model.delta_vth(np.array([1.0]), 7, temperature_kelvin=300.0)[0]
        assert hot > cold

    def test_cell_worst_case_symmetric(self):
        model = NbtiDeviceModel()
        assert model.cell_worst_delta_vth(np.array([0.3]), 7)[0] == pytest.approx(
            model.cell_worst_delta_vth(np.array([0.7]), 7)[0])

    def test_invalid_stress_rejected(self):
        with pytest.raises(ValueError):
            NbtiDeviceModel().delta_vth(np.array([1.5]), 7)

    def test_reaction_diffusion_snm_model(self):
        model = ReactionDiffusionSnmModel()
        # Worst-case anchor is matched by construction; best case is better
        # than worst case and the curve is minimal at 50% duty-cycle.
        assert model.worst_case_percent() == pytest.approx(WORST_SNM_DEGRADATION_PERCENT)
        assert model.best_case_percent() < model.worst_case_percent()
        duty = np.linspace(0, 1, 21)
        degradation = model.degradation_percent(duty)
        assert degradation.argmin() == 10


class TestProbabilisticModel:
    def test_half_point_probability_is_one(self):
        assert duty_cycle_tail_probability(20, 0.5, 10) == 1.0

    def test_paper_case_study_k20(self):
        # Paper: "even for b/K = 0.3, the probability is over 0.1".
        assert duty_cycle_tail_probability(20, 0.5, 6) > 0.1

    def test_paper_case_study_k160_drops(self):
        p_k20 = duty_cycle_tail_probability(20, 0.5, 6)
        p_k160 = duty_cycle_tail_probability(160, 0.5, 48)
        assert p_k160 < p_k20 / 100

    def test_b_zero_matches_direct_formula(self):
        # P(all zeros or all ones) = 2 * 0.5^K for rho = 0.5.
        assert duty_cycle_tail_probability(10, 0.5, 0) == pytest.approx(2 * 0.5**10)

    def test_monotonic_in_b(self):
        probabilities = [duty_cycle_tail_probability(21, 0.5, b) for b in range(11)]
        assert all(a <= b + 1e-12 for a, b in zip(probabilities, probabilities[1:]))

    def test_biased_rho_increases_tail(self):
        assert (duty_cycle_tail_probability(20, 0.9, 4)
                > duty_cycle_tail_probability(20, 0.5, 4))

    def test_invalid_b_rejected(self):
        with pytest.raises(ValueError):
            duty_cycle_tail_probability(20, 0.5, 11)

    def test_eq2_limits(self):
        assert probability_at_least_n_cells(100, 0.5, 0) == 1.0
        assert probability_at_least_n_cells(100, 1.0, 100) == pytest.approx(1.0)
        assert probability_at_least_n_cells(100, 0.0, 1) == pytest.approx(0.0)

    def test_eq2_monotonic_in_n(self):
        values = [probability_at_least_n_cells(1000, 0.1, n) for n in (50, 100, 150, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_expected_cells(self):
        assert expected_cells_at_tail(8192, 0.1) == pytest.approx(819.2)

    def test_fig7_sweep_shapes_and_endpoint(self):
        x, p = fig7_sweep(20, 0.5)
        assert x.size == 11 and p.size == 11
        assert p[-1] == 1.0
        assert np.all((p >= 0) & (p <= 1))

    def test_effective_k_with_shifts(self):
        # The paper's example: 7 shifts turn K=20 into K=160.
        assert effective_num_blocks_with_shifts(20, 7) == 160

    def test_empirical_tail_matches_analytic(self, rng):
        num_blocks = 20
        bits = rng.random((num_blocks, 20000)) < 0.5
        duty = bits.mean(axis=0)
        empirical = empirical_tail_probability(duty, 0.3)
        analytic = duty_cycle_tail_probability(num_blocks, 0.5, 6)
        assert empirical == pytest.approx(analytic, rel=0.1)

    def test_analytic_histogram_sums_to_one(self):
        masses = analytic_duty_cycle_histogram(20, 0.5, np.linspace(0, 1, 11))
        assert masses.sum() == pytest.approx(1.0)


class TestLifetime:
    def test_balanced_cells_live_longer(self):
        estimator = LifetimeEstimator(max_degradation_percent=15.0)
        balanced = estimator.memory_lifetime_years(np.array([0.5, 0.5]))
        stressed = estimator.memory_lifetime_years(np.array([0.0, 1.0]))
        assert balanced > stressed

    def test_lifetime_threshold_consistency(self):
        # A cell at 100% duty reaches 26.12% at 7 years, so with a threshold
        # equal to that value its lifetime is exactly 7 years.
        estimator = LifetimeEstimator(max_degradation_percent=26.12)
        assert estimator.memory_lifetime_years(np.array([1.0])) == pytest.approx(7.0, rel=1e-3)

    def test_improvement_factor(self):
        estimator = LifetimeEstimator()
        improvement = estimator.lifetime_improvement(np.array([1.0]), np.array([0.5]))
        assert improvement > 1.0

    def test_guardband_monotonic(self):
        guardbands = frequency_guardband_percent(np.array([10.0, 20.0, 26.0]))
        assert np.all(np.diff(guardbands) > 0)
