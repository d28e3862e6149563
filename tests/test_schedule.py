import math

import numpy as np
import pytest

from specdiff import (
    Schedule,
    ddim_subsequence,
    denoiser_coeffs,
    linear_ddpm_schedule,
    make_synthetic_prior,
    step_coeffs,
    step_coeffs_scalar,
)

from oracles import prior_optimal_denoise


class TestLinearSchedule:
    def test_single_step_product(self):
        np.testing.assert_allclose(linear_ddpm_schedule(1), [0.9999])

    def test_long_schedule_decays(self):
        ab = linear_ddpm_schedule(1000)
        assert np.all(np.diff(ab) < 0)
        assert ab[-1] < 1e-4

    def test_values_stay_in_open_unit_interval(self):
        for T in (1, 2, 10, 500):
            ab = linear_ddpm_schedule(T)
            assert np.all((ab > 0) & (ab < 1))


class TestDdimSubsequence:
    def test_identity_subsequence(self):
        full = linear_ddpm_schedule(50)
        sched = ddim_subsequence(full, 50)
        np.testing.assert_array_equal(sched.alpha_bar, full)

    def test_uniform_stride_indices(self):
        full = linear_ddpm_schedule(1000)
        sched = ddim_subsequence(full, 5)
        np.testing.assert_array_equal(sched.alpha_bar, full[[199, 399, 599, 799, 999]])

    def test_last_element_is_noisiest(self):
        full = linear_ddpm_schedule(321)
        for S in (1, 2, 7, 321):
            assert ddim_subsequence(full, S).alpha_bar[-1] == full[-1]

    def test_strictly_decreasing_for_random_sizes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            T = int(rng.integers(1, 400))
            S = int(rng.integers(1, T + 1))
            sched = ddim_subsequence(linear_ddpm_schedule(T), S)
            assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_oversized_subsequence_rejected(self):
        with pytest.raises(ValueError):
            ddim_subsequence(linear_ddpm_schedule(10), 11)


class TestStepCoeffs:
    def test_no_op_step(self):
        sched = Schedule(alpha_bar=np.array([0.5, 0.5 - 1e-12]), T_full=2)
        a, b = step_coeffs_scalar(sched, 2)
        assert np.isclose(a, 1.0, atol=1e-9) and np.isclose(b, 0.0, atol=1e-9)

    def test_frozen_scalar_example(self):
        sched = Schedule(alpha_bar=np.array([0.9, 0.5]), T_full=2)
        a, b = step_coeffs_scalar(sched, 2)
        assert np.isclose(a, 0.4472135954999579, atol=1e-12)
        assert np.isclose(b, 0.6324555320336759, atol=1e-12)

    def test_terminal_step_outputs_denoised_estimate(self):
        sched = Schedule(alpha_bar=np.array([0.7, 0.3]), T_full=2)
        a, b = step_coeffs_scalar(sched, 1)
        assert a == 0.0 and b == 1.0

    def test_denoiser_coeffs_frozen_example(self):
        prior = make_synthetic_prior(2, 1.0)  # lambda0 sorted is {0, 4}
        sched = Schedule(alpha_bar=np.array([0.5]), T_full=1)
        c, d = denoiser_coeffs(sched, 1, prior)
        lam2 = prior.lambda0 == 4.0
        np.testing.assert_allclose(c[lam2], np.sqrt(0.5) * 4 / 2.5)
        # A dead frequency returns the mean: c = 0, d scaled accordingly.
        dead = prior.lambda0 == 0.0
        np.testing.assert_allclose(c[dead], 0.0)
        np.testing.assert_allclose(d[dead], 1.0)

    def test_scalar_identity_relations(self):
        # (ab*lam + 1 - ab) * c == sqrt(ab) * lam and likewise for d, exactly.
        rng = np.random.default_rng(4)
        for _ in range(50):
            d_bins = int(rng.integers(2, 20))
            prior = make_synthetic_prior(d_bins, float(rng.uniform(0.05, 2.0)))
            ab = float(rng.uniform(0.01, 0.999))
            sched = Schedule(alpha_bar=np.array([ab]), T_full=1)
            c, dd = denoiser_coeffs(sched, 1, prior)
            den = ab * prior.lambda0 + (1 - ab)
            np.testing.assert_allclose(den * c, np.sqrt(ab) * prior.lambda0, atol=1e-14)
            np.testing.assert_allclose(den * dd, np.full(d_bins, 1 - ab), atol=1e-14)

    def test_denoiser_matches_coefficient_form(self):
        rng = np.random.default_rng(5)
        prior = make_synthetic_prior(16, 0.2, mu_const=0.7)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 10)
        x_f = np.fft.fft(rng.standard_normal(16))
        for s in (1, 5, 10):
            coeffs = step_coeffs(sched, s, prior)
            expect = coeffs.c_s * x_f + coeffs.d_s * prior.mu_f
            got = prior_optimal_denoise(prior, x_f, sched.at(s))
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_saturated_step_rejected(self):
        sched = Schedule(alpha_bar=np.array([1.0, 0.5]), T_full=2)
        with pytest.raises(ValueError, match="division by zero noise"):
            step_coeffs_scalar(sched, 1)

    @pytest.mark.parametrize("S", [1, 2, 20, 1000])
    def test_vectorized_coeffs_equal_per_step_formulas_bit_for_bit(self, S):
        # One call over every step, in a step table's sampling order, gives
        # each step's rows with the bits of the per-step formulas, including
        # s = 1, where the level before the step is 1.
        prior = make_synthetic_prior(12, 0.3)
        sched = ddim_subsequence(linear_ddpm_schedule(1000), S)
        steps = np.arange(S, 0, -1)
        got = step_coeffs(sched, steps, prior)
        a_vec, b_vec = step_coeffs_scalar(sched, steps)
        assert got.a_s.shape == got.b_s.shape == (S,)
        assert got.c_s.shape == got.d_s.shape == (S, 12)
        assert a_vec.tobytes() == got.a_s.tobytes() and b_vec.tobytes() == got.b_s.tobytes()
        for j, s in enumerate(steps):
            ab = float(sched.alpha_bar[s - 1])
            ab_prev = 1.0 if s == 1 else float(sched.alpha_bar[s - 2])
            a = math.sqrt((1.0 - ab_prev) / (1.0 - ab))
            b = math.sqrt(ab_prev) - math.sqrt(ab) * a
            den = ab * prior.lambda0 + (1.0 - ab)
            assert (got.a_s[j], got.b_s[j]) == (a, b)
            assert got.c_s[j].tobytes() == (math.sqrt(ab) * prior.lambda0 / den).tobytes()
            assert got.d_s[j].tobytes() == ((1.0 - ab) / den).tobytes()
            one = step_coeffs(sched, int(s), prior)
            assert (one.a_s, one.b_s) == (a, b)
            assert one.c_s.tobytes() == got.c_s[j].tobytes()
        assert (got.a_s[-1], got.b_s[-1]) == (0.0, 1.0)

    def test_vectorized_saturated_step_rejected(self):
        sched = Schedule(alpha_bar=np.array([1.0, 0.5]), T_full=2)
        prior = make_synthetic_prior(4, 0.3)
        with pytest.raises(ValueError, match="division by zero noise"):
            step_coeffs_scalar(sched, np.array([2, 1]))
        with pytest.raises(ValueError, match="division by zero noise"):
            step_coeffs(sched, np.array([2, 1]), prior)
        a, b = step_coeffs_scalar(sched, np.array([2]))
        assert np.isfinite(a).all() and np.isfinite(b).all()

    def test_vectorized_step_out_of_range_rejected(self):
        sched = ddim_subsequence(linear_ddpm_schedule(100), 5)
        for steps in (np.array([5, 0]), np.array([6, 1])):
            with pytest.raises(ValueError, match="out of range"):
                step_coeffs_scalar(sched, steps)
