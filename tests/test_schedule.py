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

    def test_indices_strictly_increase_to_T(self):
        # Indices floor(k T / S + 1/2), k = 1..S: before rounding they step by
        # T / S >= 1, so none repeats, the first is at least 1 and the last is T.
        for T in range(1, 201):
            full = np.arange(T, 0, -1) / (T + 1)  # index i holds (T + 1 - i) / (T + 1)
            for S in range(1, T + 1):
                idx = T + 1 - np.rint(ddim_subsequence(full, S).alpha_bar * (T + 1)).astype(int)
                assert len(idx) == S and idx[0] >= 1 and idx[-1] == T, (T, S)
                assert np.all(np.diff(idx) > 0), (T, S)

    def test_oversized_subsequence_rejected(self):
        with pytest.raises(ValueError):
            ddim_subsequence(linear_ddpm_schedule(10), 11)


class TestSchedule:
    def test_full_is_alpha_bar_when_built_directly(self):
        sched = Schedule(alpha_bar=np.linspace(0.99, 0.05, 5))
        assert sched.full is sched.alpha_bar

    def test_subsequence_keeps_the_table_it_was_cut_from(self):
        full = linear_ddpm_schedule(40)
        sched = ddim_subsequence(full, 4)
        np.testing.assert_array_equal(sched.full, full)
        assert sched.full.tobytes() == full.tobytes()

    def test_leaves_the_callers_arrays_writable(self):
        # The schedule freezes copies: the caller may still write its arrays,
        # and the schedule does not see the writes.
        ab = np.linspace(0.99, 0.05, 5)
        sched = Schedule(alpha_bar=ab)
        ab[0] = 0.5
        assert sched.alpha_bar[0] == 0.99
        full = linear_ddpm_schedule(20)
        cut = Schedule(alpha_bar=full[[9, 19]], full=full)
        full[0] = 0.5
        assert cut.full[0] == linear_ddpm_schedule(20)[0]
        for frozen in (sched.alpha_bar, cut.alpha_bar, cut.full):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0.5

    @pytest.mark.parametrize(
        "levels",
        [[], [[0.5]], [0.5, 0.0], [0.5, -0.1], [0.5, 0.6], [0.5, 0.5], [1.5, 0.5], [0.5, np.nan]],
    )
    def test_bad_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="alpha_bar"):
            Schedule(alpha_bar=np.array(levels))


class TestStepCoeffs:
    def test_no_op_step(self):
        sched = Schedule(alpha_bar=np.array([0.5, 0.5 - 1e-12]))
        a, b = step_coeffs_scalar(sched)
        assert np.isclose(a[1], 1.0, atol=1e-9) and np.isclose(b[1], 0.0, atol=1e-9)

    def test_frozen_scalar_example(self):
        sched = Schedule(alpha_bar=np.array([0.9, 0.5]))
        a, b = step_coeffs_scalar(sched)
        assert np.isclose(a[1], 0.4472135954999579, atol=1e-12)
        assert np.isclose(b[1], 0.6324555320336759, atol=1e-12)

    def test_terminal_step_outputs_denoised_estimate(self):
        sched = Schedule(alpha_bar=np.array([0.7, 0.3]))
        a, b = step_coeffs_scalar(sched)
        assert a[0] == 0.0 and b[0] == 1.0

    def test_denoiser_coeffs_frozen_example(self):
        prior = make_synthetic_prior(2, 1.0)  # lambda0 sorted is {0, 4}
        sched = Schedule(alpha_bar=np.array([0.5]))
        (c,), (d,) = denoiser_coeffs(sched, prior)
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
            sched = Schedule(alpha_bar=np.array([ab]))
            (c,), (dd,) = denoiser_coeffs(sched, prior)
            den = ab * prior.lambda0 + (1 - ab)
            np.testing.assert_allclose(den * c, np.sqrt(ab) * prior.lambda0, atol=1e-14)
            np.testing.assert_allclose(den * dd, np.full(d_bins, 1 - ab), atol=1e-14)

    def test_denoiser_matches_coefficient_form(self):
        rng = np.random.default_rng(5)
        prior = make_synthetic_prior(16, 0.2, mu_const=0.7)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 10)
        x_f = np.fft.fft(rng.standard_normal(16))
        _, _, c, dd = step_coeffs(sched, prior)
        for s in (1, 5, 10):
            expect = c[s - 1] * x_f + dd[s - 1] * prior.mu_f
            got = prior_optimal_denoise(prior, x_f, sched.alpha_bar[s - 1])
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_saturated_step_rejected(self):
        # A step at level 1 has no noise to remove: the schedule refuses it
        # when it is built, before any coefficient divides by 1 - alpha_bar.
        with pytest.raises(ValueError, match=r"alpha_bar values must lie in \(0, 1\)"):
            Schedule(alpha_bar=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("S", [1, 2, 20, 1000])
    def test_vectorized_coeffs_equal_per_step_formulas_bit_for_bit(self, S):
        # One call gives every step's row, in step order s = 1..S, with the
        # bits of the per-step formulas, including s = 1, where the level
        # before the step is 1.
        prior = make_synthetic_prior(12, 0.3)
        sched = ddim_subsequence(linear_ddpm_schedule(1000), S)
        a_s, b_s, c_s, d_s = step_coeffs(sched, prior)
        a_vec, b_vec = step_coeffs_scalar(sched)
        c_vec, d_vec = denoiser_coeffs(sched, prior)
        assert a_s.shape == b_s.shape == (S, 1)
        assert c_s.shape == d_s.shape == (S, 12)
        assert a_vec.tobytes() == a_s.tobytes() and b_vec.tobytes() == b_s.tobytes()
        assert c_vec.tobytes() == c_s.tobytes() and d_vec.tobytes() == d_s.tobytes()
        for s in range(1, S + 1):
            ab = float(sched.alpha_bar[s - 1])
            ab_prev = 1.0 if s == 1 else float(sched.alpha_bar[s - 2])
            a = math.sqrt((1.0 - ab_prev) / (1.0 - ab))
            b = math.sqrt(ab_prev) - math.sqrt(ab) * a
            den = ab * prior.lambda0 + (1.0 - ab)
            assert (a_s[s - 1, 0], b_s[s - 1, 0]) == (a, b)
            assert c_s[s - 1].tobytes() == (math.sqrt(ab) * prior.lambda0 / den).tobytes()
            assert d_s[s - 1].tobytes() == ((1.0 - ab) / den).tobytes()
        assert (a_s[0, 0], b_s[0, 0]) == (0.0, 1.0)

    def test_vectorized_saturated_step_rejected(self):
        # The constructor refuses a level of 1 anywhere in the steps, and so
        # in every subsequence that takes it; one ulp below 1 every
        # coefficient is finite.
        with pytest.raises(ValueError, match=r"alpha_bar values must lie in \(0, 1\)"):
            Schedule(alpha_bar=np.array([0.9, 0.5, 1.0]))
        with pytest.raises(ValueError, match=r"alpha_bar values must lie in \(0, 1\)"):
            ddim_subsequence(np.array([1.0, 0.5]), 2)
        sched = Schedule(alpha_bar=np.array([np.nextafter(1.0, 0.0), 0.5]))
        for table in step_coeffs(sched, make_synthetic_prior(4, 0.3)):
            assert np.isfinite(table).all()
