import numpy as np
import pytest

from specdiff import (
    DegradationSpec,
    Observation,
    SpectralPrior,
    circulant_eigenvalues,
    degrade,
    estimate_spectral_prior,
    hermitian_mismatch,
    make_lpf,
    make_synthetic_prior,
    sample_prior,
)

from oracles import (
    circulant_eigs_of_dense,
    dense_circulant_from_row,
    dense_gaussian_condition,
    dense_operator_from_multiplier,
    true_posterior,
)


class TestCirculantEigenvalues:
    def test_identity_circulant(self):
        np.testing.assert_allclose(circulant_eigenvalues([1, 0, 0, 0]), np.ones(4))

    def test_shift_matrix_gives_roots_of_unity(self):
        eigs = circulant_eigenvalues([0, 1, 0, 0])
        np.testing.assert_allclose(eigs, [1, -1j, -1, 1j], atol=1e-14)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(7)
        row = rng.standard_normal(6)
        ours = circulant_eigenvalues(row)
        dense = np.linalg.eigvals(dense_circulant_from_row(row))
        np.testing.assert_allclose(
            sorted(ours, key=np.angle), sorted(dense, key=np.angle), atol=1e-10
        )

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="empty row"):
            circulant_eigenvalues([])


class TestSyntheticPrior:
    def test_matches_dense_gram_matrix_d50(self):
        prior = make_synthetic_prior(50, 0.05)
        A = dense_circulant_from_row(np.linspace(-0.05, 0.05, 50))
        dense_eigs = np.linalg.eigvalsh(A.T @ A)
        np.testing.assert_allclose(np.sort(prior.lambda0), dense_eigs, atol=1e-9)

    def test_two_point_case_by_hand(self):
        # a = [-1, 1]; A^T A = [[2, -2], [-2, 2]] has eigenvalues {0, 4}.
        prior = make_synthetic_prior(2, 1.0)
        np.testing.assert_allclose(np.sort(prior.lambda0), [0.0, 4.0], atol=1e-12)

    def test_zero_mean_constant(self):
        prior = make_synthetic_prior(8, 0.1, mu_const=0.0)
        np.testing.assert_array_equal(prior.mu_f, np.zeros(8))

    def test_dc_bin_carries_scaled_mean(self):
        prior = make_synthetic_prior(8, 0.1, mu_const=0.5)
        assert prior.mu_f[0] == 8 * 0.5
        np.testing.assert_allclose(prior.mu_time(), np.full(8, 0.5), atol=1e-12)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_prior(1, 0.1)

    def test_hermitian_symmetry(self):
        prior = make_synthetic_prior(17, 0.3, mu_const=1.2)
        assert hermitian_mismatch(prior.mu_f) <= 1e-12
        assert hermitian_mismatch(prior.lambda0.astype(complex)) <= 1e-12


class TestMakeLpf:
    def test_full_band_is_identity(self):
        spec = make_lpf(6, 1.0)
        np.testing.assert_array_equal(spec.lambda_h, np.ones(6))

    def test_d50_half_band_layout(self):
        # k = 25 bins: DC plus the 12 complete symmetric pairs (1,49)..(12,38).
        spec = make_lpf(50, 0.5)
        mask = spec.lambda_h.real
        assert mask.sum() == 25
        expected = {0} | {i for i in range(1, 13)} | {50 - i for i in range(1, 13)}
        assert set(np.flatnonzero(mask)) == expected

    def test_d4_half_band_regression(self):
        # A budget that breaks a conjugate pair is rejected, naming the pair:
        # keeping one bin without its mirror gives no real operator.
        for d, V, pair in ((4, 0.5, (1, 3)), (8, 0.5, (2, 6)), (50, 0.12, (3, 47))):
            with pytest.raises(ValueError, match=rf"conjugate pair \({pair[0]}, {pair[1]}\)"):
                make_lpf(d, V)

    def test_mask_is_symmetric_when_pairs_complete(self):
        spec = make_lpf(9, 5 / 9)
        assert hermitian_mismatch(spec.lambda_h) == 0.0

    def test_invalid_fraction_rejected(self):
        for V in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                make_lpf(8, V)


class TestSamplePrior:
    def test_degenerate_prior_returns_mean(self):
        prior = SpectralPrior(mu_f=np.fft.fft(np.arange(6.0)), lambda0=np.zeros(6))
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(sample_prior(prior, rng), np.arange(6.0), atol=1e-12)

    def test_spectral_moments_converge(self):
        prior = make_synthetic_prior(8, 0.2, mu_const=0.3)
        rng = np.random.default_rng(42)
        n = 100_000
        samples = np.stack([sample_prior(prior, rng) for _ in range(n)])
        est = estimate_spectral_prior(samples)
        live = prior.lambda0 > 1e-12
        np.testing.assert_allclose(est.lambda0[live], prior.lambda0[live], rtol=0.05)
        assert np.all(est.lambda0[~live] < 1e-6)

    def test_seed_determinism(self):
        prior = make_synthetic_prior(8, 0.2)
        a = sample_prior(prior, np.random.default_rng(5))
        b = sample_prior(prior, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestDegrade:
    def test_noiseless_identity_passthrough(self):
        spec = DegradationSpec(lambda_h=np.ones(8, complex), sigma_y=0.0)
        x = np.random.default_rng(1).standard_normal(8)
        obs = degrade(x, spec, np.random.default_rng(2))
        np.testing.assert_allclose(obs.y_f, np.fft.fft(x), atol=1e-12)

    def test_blocked_bins_are_exactly_zero_without_noise(self):
        spec = make_lpf(8, 0.375)
        x = np.random.default_rng(3).standard_normal(8)
        obs = degrade(x, spec, np.random.default_rng(4))
        blocked = spec.lambda_h == 0
        assert np.all(obs.y_f[blocked] == 0)

    def test_noise_variance_per_bin(self):
        spec = DegradationSpec(lambda_h=np.zeros(8, complex), sigma_y=0.1)
        rng = np.random.default_rng(11)
        x = np.zeros(8)
        ys = np.stack([degrade(x, spec, rng).y_f for _ in range(100_000)])
        # Spectral noise power per bin is d * sigma^2 under the unnormalized DFT.
        per_bin = np.mean(np.abs(ys) ** 2, axis=0) / 8
        np.testing.assert_allclose(per_bin, np.full(8, 0.01), rtol=0.05)

    def test_dimension_mismatch_rejected(self):
        spec = make_lpf(8, 0.375)
        with pytest.raises(ValueError):
            degrade(np.zeros(7), spec, np.random.default_rng(0))


class TestTruePosterior:
    def test_noiseless_invertible_limit(self):
        prior = make_synthetic_prior(8, 0.2, mu_const=0.1)
        spec = DegradationSpec(lambda_h=np.ones(8, complex), sigma_y=1e-12)
        x = sample_prior(prior, np.random.default_rng(0))
        obs = degrade(x, spec, np.random.default_rng(1))
        post = true_posterior(prior, spec, obs)
        live = prior.lambda0 > 1e-9
        np.testing.assert_allclose(post.mean[live], obs.y_f[live], rtol=1e-6)
        assert np.all(post.var < 1e-8)

    def test_unobserved_bins_keep_the_prior(self):
        prior = make_synthetic_prior(8, 0.2, mu_const=0.4)
        spec = make_lpf(8, 0.375, sigma_y=0.1)
        obs = degrade(sample_prior(prior, np.random.default_rng(2)), spec, np.random.default_rng(3))
        post = true_posterior(prior, spec, obs)
        blocked = spec.lambda_h == 0
        np.testing.assert_allclose(post.mean[blocked], prior.mu_f[blocked], atol=1e-12)
        np.testing.assert_allclose(post.var[blocked], prior.lambda0[blocked], atol=1e-12)

    def test_matches_dense_conditioning(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            d = int(rng.integers(2, 17))
            mu_f = np.fft.fft(rng.standard_normal(d))
            lam = np.abs(np.fft.fft(rng.standard_normal(d))) ** 2
            prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
            lam_h = np.fft.fft(rng.standard_normal(d))
            sigma = float(rng.uniform(0.05, 1.0))
            spec = DegradationSpec(lambda_h=lam_h, sigma_y=sigma)
            x0 = sample_prior(prior, rng)
            obs = degrade(x0, spec, rng)
            post = true_posterior(prior, spec, obs)

            Sigma0 = dense_operator_from_multiplier(lam).real
            H = dense_operator_from_multiplier(lam_h).real
            mu_post, Sigma_post = dense_gaussian_condition(
                prior.mu_time(), Sigma0, H, sigma, obs.y_time()
            )
            np.testing.assert_allclose(post.mean, np.fft.fft(mu_post), atol=1e-10)
            np.testing.assert_allclose(
                post.var, circulant_eigs_of_dense(Sigma_post).real, atol=1e-10
            )

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = 12
            prior = SpectralPrior(
                mu_f=np.fft.fft(rng.standard_normal(d)),
                lambda0=np.abs(np.fft.fft(rng.standard_normal(d))) ** 2,
            )
            spec = DegradationSpec(
                lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=0.3
            )
            obs = degrade(sample_prior(prior, rng), spec, rng)
            post = true_posterior(prior, spec, obs)
            assert np.all(post.var >= 0)
            assert np.all(post.var <= prior.lambda0 + 1e-12)

    def test_fully_degenerate_bins_fall_back_to_prior(self):
        prior = SpectralPrior(mu_f=np.zeros(4, complex), lambda0=np.zeros(4))
        spec = DegradationSpec(lambda_h=np.zeros(4, complex), sigma_y=0.0)
        obs = Observation(y_f=np.zeros(4, complex))
        post = true_posterior(prior, spec, obs)
        np.testing.assert_array_equal(post.var, np.zeros(4))
        np.testing.assert_array_equal(post.mean, np.zeros(4))


class TestEstimateSpectralPrior:
    def test_identical_samples_give_zero_spectrum(self):
        samples = np.tile(np.arange(6.0), (5, 1))
        est = estimate_spectral_prior(samples)
        np.testing.assert_array_equal(est.lambda0, np.zeros(6))

    def test_consistency_on_synthetic_prior(self):
        prior = make_synthetic_prior(16, 0.1)
        rng = np.random.default_rng(21)
        samples = np.stack([sample_prior(prior, rng) for _ in range(100_000)])
        est = estimate_spectral_prior(samples)
        live = prior.lambda0 > 1e-12
        np.testing.assert_allclose(est.lambda0[live], prior.lambda0[live], rtol=0.05)

    def test_dc_only_variation(self):
        rng = np.random.default_rng(2)
        offsets = rng.standard_normal(64)
        samples = np.outer(offsets, np.ones(8))
        est = estimate_spectral_prior(samples)
        assert est.lambda0[0] > 0
        np.testing.assert_allclose(est.lambda0[1:], np.zeros(7), atol=1e-20)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            estimate_spectral_prior(np.ones((1, 8)))


class TestConventionAndTypes:
    def test_parseval_pins_dft_convention(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 7, 16):
            x = rng.standard_normal(d)
            assert np.isclose(np.sum(np.abs(np.fft.fft(x)) ** 2) / d, np.sum(x**2))

    def test_constructor_outputs_are_hermitian_symmetric(self):
        prior = make_synthetic_prior(12, 0.7, mu_const=2.0)
        assert hermitian_mismatch(prior.mu_f) <= 1e-12
        assert hermitian_mismatch(prior.lambda0.astype(complex)) <= 1e-12
        spec = make_lpf(12, 0.4)
        assert hermitian_mismatch(spec.lambda_h) <= 1e-12

    def test_negative_eigenvalues_rejected(self):
        with pytest.raises(ValueError):
            SpectralPrior(mu_f=np.zeros(2, complex), lambda0=np.array([1.0, -0.1]))

    @pytest.mark.parametrize(
        "build, match",
        [
            # Each non-finite value used to construct: NaN passes a "< 0" test.
            pytest.param(
                lambda: SpectralPrior(mu_f=np.zeros(2), lambda0=[np.nan, 1.0]),
                "lambda0 must be a finite, nonempty 1-D array", id="lambda0-nan",
            ),
            pytest.param(
                lambda: SpectralPrior(mu_f=np.zeros(2), lambda0=[np.inf, 1.0]),
                "lambda0 must be a finite, nonempty 1-D array", id="lambda0-inf",
            ),
            pytest.param(
                lambda: SpectralPrior(mu_f=[np.nan, 0.0], lambda0=np.ones(2)),
                "mu_f must be a finite, nonempty 1-D array", id="mu_f-nan",
            ),
            pytest.param(
                lambda: SpectralPrior(mu_f=np.zeros(2), lambda0=np.ones(3)),
                "mu_f and lambda0 must have the same length", id="prior-length",
            ),
            pytest.param(
                lambda: DegradationSpec(lambda_h=np.ones(2), sigma_y=np.nan),
                "sigma_y must be finite and nonnegative", id="sigma_y-nan",
            ),
            pytest.param(
                lambda: DegradationSpec(lambda_h=np.ones(2), sigma_y=np.inf),
                "sigma_y must be finite and nonnegative", id="sigma_y-inf",
            ),
            pytest.param(
                lambda: DegradationSpec(lambda_h=np.ones(2), sigma_y=-0.1),
                "sigma_y must be finite and nonnegative", id="sigma_y-negative",
            ),
            pytest.param(
                lambda: DegradationSpec(lambda_h=[1.0, np.nan], sigma_y=0.1),
                "lambda_h must be a finite, nonempty 1-D array", id="lambda_h-nan",
            ),
            # A measurement used to take NaN and inf, which then scored as nan.
            pytest.param(
                lambda: Observation(y_f=[np.nan, 0.0]),
                "y_f must be a finite, nonempty 1-D array", id="y_f-nan",
            ),
            pytest.param(
                lambda: Observation(y_f=[1.0, np.inf]),
                "y_f must be a finite, nonempty 1-D array", id="y_f-inf",
            ),
            pytest.param(
                lambda: Observation(y_f=[]),
                "y_f must be a finite, nonempty 1-D array", id="y_f-empty",
            ),
            pytest.param(
                lambda: make_synthetic_prior(4, np.inf), "l must be positive and finite", id="l-inf"
            ),
            pytest.param(
                lambda: make_synthetic_prior(4, 0.1, mu_const=np.nan), "mu_const must be finite",
                id="mu_const-nan",
            ),
        ],
    )
    def test_model_out_of_range_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_prior_arrays_read_only(self):
        prior = make_synthetic_prior(8, 0.1)
        with pytest.raises(ValueError):
            prior.lambda0[0] = 1.0

    def test_prior_leaves_the_callers_arrays_writable(self):
        # The prior freezes its own copies, not the float64 and complex arrays passed in.
        mu_f, lam = np.zeros(4, complex), np.ones(4)
        prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
        mu_f[0], lam[0] = 1.0, 2.0
        assert prior.mu_f[0] == 0.0 and prior.lambda0[0] == 1.0
        assert not prior.lambda0.flags.writeable and not prior.mu_f.flags.writeable

    def test_degradation_leaves_the_callers_array_writable(self):
        lambda_h = np.ones(4, complex)
        spec = DegradationSpec(lambda_h=lambda_h, sigma_y=0.1)
        lambda_h[0] = 2.0
        assert spec.lambda_h[0] == 1.0 and not spec.lambda_h.flags.writeable

    def test_observation_leaves_the_callers_array_writable(self):
        y_f = np.ones(4, complex)
        obs = Observation(y_f=y_f)
        y_f[0] = 2.0
        assert obs.y_f[0] == 1.0 and not obs.y_f.flags.writeable
