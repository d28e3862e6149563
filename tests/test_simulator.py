import math
import warnings
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from specdiff import (
    DegradationSpec,
    Guidance,
    LossContext,
    Observation,
    Schedule,
    SimConfig,
    SpectralPrior,
    WeightSchedule,
    ddim_subsequence,
    degrade,
    heuristic_weight_profile,
    heuristic_zeta,
    ideal_triple,
    linear_ddpm_schedule,
    make_lpf,
    make_synthetic_prior,
    monte_carlo,
    sample_prior,
    transfer_triple,
)

from specdiff import simulator
from specdiff.simulator import _run_spectrum

from oracles import (
    dense_map_denoiser,
    dense_operator_from_multiplier,
    dense_prior_denoiser,
    output_distribution,
    random_prior_arrays,
    tweedie_pigdm_weights,
)


def _run_batch(cfg, obs, x_start):
    """_run_spectrum with time-domain (n, d) final states."""
    Xf, realized = _run_spectrum(cfg, obs, x_start)
    return np.fft.irfft(Xf.T, n=cfg.prior.dim, axis=-1), realized


def _setup(rng, d=8, S=6, sigma=0.2, lam_floor=0.0):
    mu_f, lam = random_prior_arrays(d, rng, lam_floor=lam_floor)
    prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
    spec = DegradationSpec(lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=sigma)
    sched = ddim_subsequence(linear_ddpm_schedule(200), S)
    obs = degrade(sample_prior(prior, rng), spec, rng)
    return prior, spec, sched, obs


def _restricted_setups(rng, S, lam_floor=0.0):
    """Labelled setups whose h is zero on some of the d // 2 + 1 half-spectrum bins.

    For odd and even d: an LPF, an h that is nonzero on bins 0 and 2 only (an
    interior zero at bin 1 and a zero tail), and h = 0; each with mu = 0 and
    with a random mu.
    """
    for d in (7, 8):
        base, spec, sched, _ = _setup(rng, d=d, S=S, lam_floor=lam_floor)
        dist = np.minimum(np.arange(d), d - np.arange(d))
        gapped = np.where((dist == 0) | (dist == 2), spec.lambda_h, 0.0)
        operators = {"lpf": make_lpf(d, 3 / d).lambda_h, "interior-zero": gapped, "zero": np.zeros(d)}
        for name, h in operators.items():
            op = replace(spec, lambda_h=h)
            for mean, mu_f in [("mu=0", np.zeros(d)), ("mu!=0", base.mu_f)]:
                prior = SpectralPrior(mu_f=mu_f, lambda0=base.lambda0)
                obs = degrade(sample_prior(prior, rng), op, rng)
                yield f"d={d} {name} {mean}", prior, op, sched, obs


def _every_guidance(rng, S):
    """One Guidance of each kind, with random weights where it takes them."""
    return [
        Guidance.none(),
        Guidance.fixed(WeightSchedule.dps(rng.uniform(-0.5, 0.5, S))),
        Guidance.fixed(WeightSchedule.pigdm(rng.uniform(-0.5, 0.5, S), rng.uniform(0.0, 1.0, S))),
        Guidance.optimal(),
        Guidance.dps_heuristic(0.7, cap=1e6),
    ]


def _dense_steps(cfg, obs, x):
    """Run every step with dense matrices: x <- a x + b x0hat + w J^T H^T E (y - H x0hat).

    Returns the final states and the (S, n) weights in sampling order, from
    s = S down: w / 2 for DPS, w for PiGDM.
    """
    prior, spec, sched, guide = cfg.prior, cfg.spec, cfg.schedule, cfg.guidance
    d = prior.dim
    mu0, y = prior.mu_time(), obs.y_time()
    Sigma0 = dense_operator_from_multiplier(prior.lambda0).real
    H = dense_operator_from_multiplier(spec.lambda_h).real
    sig2 = spec.sigma_y**2
    x = np.array(x, dtype=float)
    realized = np.zeros((sched.S, len(x)))
    pigdm = guide.kind == "fixed" and guide.weights.kind == "pigdm"
    prev = np.concatenate(([1.0], sched.alpha_bar[:-1]))
    for i, s in enumerate(range(sched.S, 0, -1)):
        ab, ab_prev = sched.alpha_bar[s - 1], prev[s - 1]
        a = np.sqrt((1 - ab_prev) / (1 - ab))
        b = np.sqrt(ab_prev) - np.sqrt(ab) * a
        J = np.sqrt(ab) * Sigma0 @ np.linalg.inv(ab * Sigma0 + (1 - ab) * np.eye(d))
        if pigdm:
            r = guide.weights.r[s - 1]
            E = np.linalg.inv(r**2 * H @ H.T + sig2 * np.eye(d))
        else:
            E = np.eye(d)
        for n, x_s in enumerate(x):
            if guide.kind == "optimal":
                x0 = dense_map_denoiser(mu0, Sigma0, H, spec.sigma_y, y, x_s, ab)
            else:
                x0 = dense_prior_denoiser(mu0, Sigma0, x_s, ab)
            residual = y - H @ x0
            if guide.kind == "dps-heuristic":
                realized[i, n] = guide.zeta_prime / np.linalg.norm(residual)
            elif guide.kind == "fixed":
                realized[i, n] = (guide.weights.g if pigdm else guide.weights.zeta)[s - 1]
            w = realized[i, n] if pigdm else 2 * realized[i, n]
            x[n] = a * x_s + b * x0 + w * J.T @ H.T @ E @ residual
    return x, realized


def _first_nonfinite_step(cfg, obs, x):
    """Per-step-checked reference: the first step whose states are not all finite, or None.

    Each trajectory's full spectrum takes the guided step
    X <- a X + b x0hat + w (J conj(h) E R), R = y - h x0hat, as written out per
    bin, and every step is checked.  Non-finite values only arise here past
    overflow, so the order of the finite arithmetic does not move the step.
    """
    prior, spec, sched, guide = cfg.prior, cfg.spec, cfg.schedule, cfg.guidance
    lam, h, mu, y = prior.lambda0, spec.lambda_h, prior.mu_f, obs.y_f
    weights = guide.weights
    X = np.fft.fft(np.atleast_2d(x), axis=-1)
    prev = np.concatenate(([1.0], sched.alpha_bar[:-1]))
    with np.errstate(all="ignore"):
        for s in range(sched.S, 0, -1):
            ab, ab_prev = sched.alpha_bar[s - 1], prev[s - 1]
            a = np.sqrt((1.0 - ab_prev) / (1.0 - ab))
            b = np.sqrt(ab_prev) - np.sqrt(ab) * a
            reg = ab * lam + 1.0 - ab
            J = np.sqrt(ab) * lam / reg
            x0hat = J * X + (1.0 - ab) * mu / reg
            R = y - h * x0hat
            E = 1.0
            if guide.kind == "dps-heuristic":
                norms = np.sqrt(np.sum(R.real**2 + R.imag**2, axis=-1) / prior.dim)
                w = 2.0 * heuristic_zeta(guide.zeta_prime, norms, guide.cap)[:, None]
            elif weights.kind == "pigdm":
                w = weights.g[s - 1]
                E = 1.0 / (weights.r[s - 1] ** 2 * np.abs(h) ** 2 + spec.sigma_y**2)
            else:
                w = 2.0 * weights.zeta[s - 1]
            X = a * X + b * x0hat + w * (J * np.conj(h) * E * R)
            if not np.isfinite(X).all():
                return s
    return None


def _near_fit_start(cfg, obs, rel=1e-12):
    """A start whose first-step residual y - H x0hat is rel times y - H offset.

    Its DPS heuristic norm is tiny, so a huge zeta' overflows its weight.
    """
    prior, spec, ab = cfg.prior, cfg.spec, cfg.schedule.alpha_bar[-1]
    reg = ab * prior.lambda0 + 1.0 - ab
    J = np.sqrt(ab) * prior.lambda0 / reg
    C = obs.y_f - spec.lambda_h * (1.0 - ab) * prior.mu_f / reg
    return np.fft.ifft(C / (spec.lambda_h * J) * (1.0 - rel)).real


class TestSimulateOne:
    def test_prior_sampler_matches_zero_weight_transfer(self):
        rng = np.random.default_rng(0)
        prior, spec, sched, obs = _setup(rng)
        x_start = rng.standard_normal(8)
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())
        X, realized = _run_batch(cfg, obs, x_start[None])
        D1, _, D3 = transfer_triple(WeightSchedule.dps(np.zeros(sched.S)), prior, spec, sched)
        want = D1 * np.fft.fft(x_start) + D3 * prior.mu_f
        np.testing.assert_allclose(np.fft.fft(X[0]), want, atol=1e-10 * max(1, np.max(np.abs(want))))
        assert realized is None

    def test_fixed_weight_trajectory_matches_composed_triple(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            prior, spec, sched, obs = _setup(rng, d=int(rng.integers(2, 12)), S=int(rng.integers(1, 12)))
            zeta = rng.uniform(-0.5, 0.5, sched.S)
            x_start = rng.standard_normal(prior.dim)
            cfg = SimConfig(
                prior=prior,
                spec=spec,
                schedule=sched,
                guidance=Guidance.fixed(WeightSchedule.dps(zeta)),
            )
            X, realized = _run_batch(cfg, obs, x_start[None])
            D1, D2, D3 = transfer_triple(WeightSchedule.dps(zeta), prior, spec, sched)
            want = D1 * np.fft.fft(x_start) + D2 * obs.y_f + D3 * prior.mu_f
            np.testing.assert_allclose(
                np.fft.fft(X[0]), want, atol=1e-10 * max(1, np.max(np.abs(want)))
            )
            assert realized is None

    def test_pigdm_trajectory_matches_composed_triple(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prior, spec, sched, obs = _setup(rng, d=int(rng.integers(2, 12)), S=int(rng.integers(1, 12)))
            g = rng.uniform(-0.5, 0.5, sched.S)
            r = rng.uniform(0.0, 1.0, sched.S)
            x_start = rng.standard_normal(prior.dim)
            guide = Guidance.fixed(WeightSchedule.pigdm(g, r))
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
            X, realized = _run_batch(cfg, obs, x_start[None])
            D1, D2, D3 = transfer_triple(WeightSchedule.pigdm(g, r), prior, spec, sched)
            want = D1 * np.fft.fft(x_start) + D2 * obs.y_f + D3 * prior.mu_f
            np.testing.assert_allclose(
                np.fft.fft(X[0]), want, atol=1e-10 * max(1, np.max(np.abs(want)))
            )
            assert realized is None

    def test_optimal_guidance_with_huge_noise_follows_prior_trajectory(self):
        rng = np.random.default_rng(3)
        prior, spec, sched, obs = _setup(rng)
        big = replace(spec, sigma_y=1e7)
        x_start = rng.standard_normal(8)
        x_opt, _ = _run_batch(
            SimConfig(prior=prior, spec=big, schedule=sched, guidance=Guidance.optimal()),
            obs,
            x_start[None],
        )
        x_none, _ = _run_batch(
            SimConfig(prior=prior, spec=big, schedule=sched, guidance=Guidance.none()),
            obs,
            x_start[None],
        )
        np.testing.assert_allclose(x_opt, x_none, atol=1e-6 * max(1, np.max(np.abs(x_none))))

    def test_divergence_reports_step(self):
        cases = [
            (WeightSchedule.dps([1e300] * 4), 3),
            (WeightSchedule.pigdm([1e150] * 4, [1.0] * 4), 2),
        ]
        for weights, step in cases:
            rng = np.random.default_rng(4)
            prior, spec, sched, obs = _setup(rng, S=4)
            guide = Guidance.fixed(weights)
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
            with pytest.raises(ValueError, match=f"diverged at step {step}$"):
                _run_batch(cfg, obs, rng.standard_normal(8)[None])

    def test_unvaried_weights_are_not_allocated(self):
        # Only the DPS heuristic realizes weights that differ between runs;
        # the other kinds return none, since their weights are the schedule's.
        rng = np.random.default_rng(13)
        prior, spec, sched, obs = _setup(rng, S=5)
        for guide in _every_guidance(rng, sched.S):
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
            _, realized = _run_batch(cfg, obs, rng.standard_normal((4, prior.dim)))
            if guide.kind == "dps-heuristic":
                assert realized.shape == (sched.S, 4) and realized.flags.c_contiguous
            else:
                assert realized is None, guide.kind

    def test_steps_match_dense_time_domain_loop(self):
        # The state stays on the half spectrum between steps; check it there
        # against dense matrices applied in the time domain, step by step.
        # The random h have full support; the restricted setups make the
        # guidance and the offset skip bins where they are zero.
        rng = np.random.default_rng(15)
        setups = (("full", *_setup(rng, d=d, S=6, lam_floor=0.1)) for d in (4, 5))
        for label, prior, spec, sched, obs in chain(setups, _restricted_setups(rng, 6, 0.1)):
            for guide in _every_guidance(rng, sched.S):
                cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
                x_s = rng.standard_normal((4, prior.dim))
                got, realized = _run_batch(cfg, obs, x_s)
                want, want_w = _dense_steps(cfg, obs, x_s)
                scale = max(1.0, np.max(np.abs(want)))
                msg = f"{label} {guide.kind}"
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale, err_msg=msg)
                if guide.kind == "dps-heuristic":
                    np.testing.assert_allclose(realized[::-1], want_w, rtol=1e-10, err_msg=msg)

    def test_one_real_fft_and_no_inverse_per_batch(self, monkeypatch):
        # monte_carlo once took an inverse real FFT of the final states and
        # then a full FFT of them back for the moments.
        rng = np.random.default_rng(16)
        prior, spec, sched, obs = _setup(rng, S=5)
        calls = {"rfft": 0, "irfft": 0, "fft": 0}
        for name in calls:
            def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                calls[_name] += 1
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        for guide in _every_guidance(rng, sched.S):
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide, n_runs=3)
            x_s = rng.standard_normal((3, prior.dim))
            runs = [lambda: _run_spectrum(cfg, obs, x_s), lambda: monte_carlo(cfg, obs)]
            if guide.kind == "dps-heuristic":
                runs.append(lambda: heuristic_weight_profile(guide.zeta_prime, cfg, obs))
            for run in runs:
                calls.update(rfft=0, irfft=0, fft=0)
                run()
                assert calls == {"rfft": 1, "irfft": 0, "fft": 0}, guide.kind

    def test_dc_and_nyquist_round_off_does_not_feed_back(self):
        # SimConfig accepts imaginary parts of up to 1e-12 relative on the
        # bins that are their own mirror, and the state keeps its imaginary
        # parts on them from step to step until the final inverse FFT.
        rng = np.random.default_rng(18)
        for d in (7, 8):
            prior, spec, sched, obs = _setup(rng, d=d, S=20)
            own_mirror = [0, d // 2] if d % 2 == 0 else [0]

            def nudged(v):
                out = np.array(v)
                out[own_mirror] += 1e-13j * max(1.0, np.max(np.abs(v)))
                return out

            bent_prior = SpectralPrior(mu_f=nudged(prior.mu_f), lambda0=prior.lambda0)
            bent_spec = replace(spec, lambda_h=nudged(spec.lambda_h))
            bent_obs = Observation(y_f=nudged(obs.y_f))
            x_s = rng.standard_normal((4, d))
            for guide in _every_guidance(rng, sched.S):
                cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
                bent = replace(cfg, prior=bent_prior, spec=bent_spec)
                want, want_w = _run_batch(cfg, obs, x_s)
                got, got_w = _run_batch(bent, bent_obs, x_s)
                scale = max(1.0, np.max(np.abs(want)))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * scale, err_msg=guide.kind)
                if guide.kind == "dps-heuristic":
                    np.testing.assert_allclose(got_w, want_w, rtol=1e-10)

    def test_batch_takes_every_step_coefficient_from_one_call(self):
        # A batch tabulates its steps' (a, b) from one call over the whole
        # schedule, whose rows equal the per-step DDIM formulas bit for bit.
        rng = np.random.default_rng(31)
        prior, spec, sched, obs = _setup(rng, S=9)
        scalars, calls = simulator.step_coeffs_scalar, []

        def counted(sched_arg):
            calls.append(sched_arg is sched)
            return scalars(sched_arg)

        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())
        x_s = rng.standard_normal((3, prior.dim))
        want, _ = _run_batch(cfg, obs, x_s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "step_coeffs_scalar", counted)
            got, _ = _run_batch(cfg, obs, x_s)
        assert calls == [True]
        assert got.tobytes() == want.tobytes()
        a, b = scalars(sched)
        for s in range(1, sched.S + 1):
            ab = float(sched.alpha_bar[s - 1])
            ab_prev = 1.0 if s == 1 else float(sched.alpha_bar[s - 2])
            a_s = math.sqrt((1.0 - ab_prev) / (1.0 - ab))
            assert (a[s - 1], b[s - 1]) == (a_s, math.sqrt(ab_prev) - math.sqrt(ab) * a_s)


class TestDivergence:
    """A batch checks its final states once and replays a diverged batch step by step."""

    S = 6

    def _cases(self):
        """(label, cfg, obs, starts, step): the batch diverges first at step."""
        S = self.S
        rng = np.random.default_rng(41)
        prior, spec, sched, obs = _setup(rng, S=S)
        d = prior.dim
        last_only = np.zeros(S)
        last_only[0] = 1e30
        fixed = {
            "dps": lambda z: WeightSchedule.dps(z),
            "pigdm": lambda z: WeightSchedule.pigdm(z, np.ones(S)),
        }
        for kind, weights in fixed.items():
            every = Guidance.fixed(weights(np.full(S, 1e30)))
            # Each step scales a state by about 1e30: an unscaled one stays finite.
            for label, guide, scale, step in [
                ("first step", every, 1e300, S),
                ("later step", every, 1e250, S - 1),
                ("last step", Guidance.fixed(weights(last_only)), 1e290, 1),
            ]:
                starts = rng.standard_normal((4, d))
                starts[2] *= scale
                cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
                yield f"{kind} {label}", cfg, obs, starts, step
        # The heuristic steps a trajectory by about zeta' whatever its
        # residual, unless the norm is so small that 2 zeta overflows.
        guide = Guidance.dps_heuristic(1e300, cap=1e300)
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
        starts = rng.standard_normal((4, d))
        starts[1] = _near_fit_start(cfg, obs)
        yield "heuristic", cfg, obs, starts, S

    def test_reports_the_first_diverging_step_without_warnings(self):
        for label, cfg, obs, starts, step in self._cases():
            assert _first_nonfinite_step(cfg, obs, starts) == step, label
            # Only the scaled or fitted trajectory diverges.
            alone = [_first_nonfinite_step(cfg, obs, x) for x in starts]
            assert sum(s is not None for s in alone) == 1, (label, alone)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^diverged at step {step}$"):
                    _run_batch(cfg, obs, starts)

    def test_huge_fixed_weight_at_one_step_raises_without_warnings(self):
        # Fixed weights fold into the step tables, so a weight this large
        # overflows a table (1e308: DPS's 2 zeta is inf) or leaves final
        # states near 1e300 whose variance overflows (1e300).  All but the
        # PiGDM 1e308 batch used to warn, and the 1e300 ones returned
        # infinite variances.
        rng = np.random.default_rng(44)
        prior, spec, sched, obs = _setup(rng, S=4)
        step = 2
        fixed = {
            "dps": lambda w: WeightSchedule.dps(w),
            "pigdm": lambda w: WeightSchedule.pigdm(w, np.ones(sched.S)),
        }
        causes = {1e300: "^output moments overflow", 1e308: f"^diverged at step {step}$"}
        for kind, weights in fixed.items():
            for weight, cause in causes.items():
                w = np.zeros(sched.S)
                w[step - 1] = weight
                guide = Guidance.fixed(weights(w))
                cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide, n_runs=8)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=cause):
                        monte_carlo(cfg, obs)

    def test_batch_restores_numpy_error_state_and_buffer_size(self):
        before = (np.geterr(), np.getbufsize())
        rng = np.random.default_rng(43)
        prior, spec, sched, obs = _setup(rng, S=self.S)
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())
        _run_batch(cfg, obs, rng.standard_normal((40, prior.dim)))
        assert (np.geterr(), np.getbufsize()) == before
        label, cfg, obs, starts, step = next(self._cases())
        with pytest.raises(ValueError):
            _run_batch(cfg, obs, starts)
        assert (np.geterr(), np.getbufsize()) == before

    def test_one_finiteness_check_per_batch_and_one_replay(self, monkeypatch):
        calls = {"isfinite": 0, "rfft": 0, "irfft": 0}
        for module, name in [(np, "isfinite"), (np.fft, "rfft"), (np.fft, "irfft")]:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(42)
        prior, spec, sched, obs = _setup(rng, S=self.S)
        for guide in _every_guidance(rng, sched.S):
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
            calls.update(isfinite=0, rfft=0, irfft=0)
            _run_batch(cfg, obs, rng.standard_normal((3, prior.dim)))
            assert calls == {"isfinite": 1, "rfft": 1, "irfft": 1}, guide.kind
        # A diverged batch replays once, checking each step up to the first
        # non-finite one, and returns no states.
        for label, cfg, obs, starts, step in self._cases():
            calls.update(isfinite=0, rfft=0, irfft=0)
            with pytest.raises(ValueError):
                _run_batch(cfg, obs, starts)
            assert calls == {"isfinite": 1 + self.S - step + 1, "rfft": 2, "irfft": 0}, label


class TestGuidance:
    def test_malformed_guidance_rejected_at_construction(self):
        # Each used to construct, then fail mid-loop with a TypeError.
        with pytest.raises(ValueError, match="unknown guidance kind"):
            Guidance(kind="dps")
        with pytest.raises(ValueError, match="requires weights"):
            Guidance(kind="fixed")
        with pytest.raises(ValueError, match="requires zeta_prime"):
            Guidance(kind="dps-heuristic")
        with pytest.raises(ValueError, match="must be positive"):
            Guidance.dps_heuristic(0.0)
        # A NaN zeta' used to pass "<= 0" and end as "diverged at step 3".
        for zeta_prime in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be positive and finite"):
                Guidance.dps_heuristic(zeta_prime)

    def test_malformed_config_rejected(self):
        prior, spec, sched, _ = _setup(np.random.default_rng(19), S=4)
        short = Guidance.fixed(WeightSchedule.dps(np.zeros(3)))
        with pytest.raises(ValueError, match="must match the schedule length"):
            SimConfig(prior, spec, sched, short)
        with pytest.raises(ValueError, match="n_runs must be positive"):
            SimConfig(prior, spec, sched, Guidance.none(), n_runs=0)

    def test_degradation_of_another_length_rejected(self):
        # SimConfig used to accept a length-1 operator next to a d = 8 prior.
        prior = make_synthetic_prior(8, 0.2)
        spec = DegradationSpec(lambda_h=np.ones(1, complex), sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        with pytest.raises(ValueError, match="degradation has length 1 but the prior has length 8"):
            SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())


    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("S", [3, 20])
    def test_map_step_is_pigdm_at_tweedie_weights(self, d, S):
        # The simulator keeps its own MAP step; on a white prior PiGDM at
        # g = b (1 - ab) / sqrt(ab), r^2 = 1 - ab runs the same trajectories.
        rng = np.random.default_rng(10 * d + S)
        prior = SpectralPrior(mu_f=np.fft.fft(rng.standard_normal(d)), lambda0=np.ones(d))
        spec = DegradationSpec(lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=0.3)
        sched = ddim_subsequence(linear_ddpm_schedule(1000), S)
        obs = degrade(sample_prior(prior, rng), spec, rng)
        x_start = rng.standard_normal((16, d))
        exact = Guidance.fixed(WeightSchedule.pigdm(*tweedie_pigdm_weights(sched.alpha_bar)))
        runs = [
            _run_spectrum(SimConfig(prior, spec, sched, guide), obs, x_start)[0]
            for guide in (exact, Guidance.optimal())
        ]
        np.testing.assert_allclose(*runs, rtol=1e-12, atol=1e-12 * np.max(np.abs(runs[1])))


class TestRealOperators:
    def test_lpf_with_a_broken_conjugate_pair_rejected(self):
        # DC, the pairs (1, 49) and (2, 48), and bin 3 without its mirror 47:
        # the mask make_lpf(50, 0.12) used to build.  Keeping the real part of
        # each matvec moved a simulated trajectory off the composed triple by
        # 0.41 on outputs of size 7.4 (S=20, constant zeta=0.1).
        prior = make_synthetic_prior(50, 0.05)
        mask = np.zeros(50, complex)
        mask[[0, 1, 2, 3, 48, 49]] = 1.0
        spec = DegradationSpec(lambda_h=mask, sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 5)
        with pytest.raises(ValueError, match="lambda_h is not Hermitian"):
            SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())

    def test_complex_prior_mean_and_measurement_rejected(self):
        rng = np.random.default_rng(12)
        prior, spec, sched, obs = _setup(rng)
        mu_f = prior.mu_f.copy()
        mu_f[1] += 1e-6j
        bad = SpectralPrior(mu_f=mu_f, lambda0=prior.lambda0)
        with pytest.raises(ValueError, match="mu_f is not Hermitian"):
            SimConfig(prior=bad, spec=spec, schedule=sched, guidance=Guidance.none())
        with pytest.raises(ValueError, match="y_f is not Hermitian"):
            Observation(y_f=obs.y_f + 1e-6j).y_time()


class TestMonteCarlo:
    def test_ideal_sampler_moments_match_closed_form(self):
        rng = np.random.default_rng(5)
        prior, spec, sched, obs = _setup(rng, d=8, S=30, sigma=0.1, lam_floor=0.2)
        n = 100_000
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.optimal(), n_runs=n, seed=99
        )
        stats = monte_carlo(cfg, obs)
        triple = ideal_triple(prior, spec, sched)
        dist = output_distribution(triple, obs, prior)
        stderr = np.sqrt(prior.dim * dist.var / n)
        assert np.all(np.abs(stats.emp_mean - dist.mean) <= 3 * stderr + 1e-12)
        np.testing.assert_allclose(stats.emp_var, dist.var, rtol=0.05)

    def test_fully_denoised_single_step_has_zero_variance(self):
        # One bin, one step: pick zeta so the composed D1 vanishes and the
        # output no longer depends on the starting noise.
        lam = np.array([2.0])
        prior = SpectralPrior(mu_f=np.zeros(1, complex), lambda0=lam)
        spec = DegradationSpec(lambda_h=np.ones(1, complex), sigma_y=0.3)
        sched = Schedule(alpha_bar=np.array([0.5]))
        ab = 0.5
        c = np.sqrt(ab) * lam[0] / (ab * lam[0] + 1 - ab)
        zeta_kill = 1.0 / (2.0 * c)
        D1, _, _ = transfer_triple(WeightSchedule.dps([zeta_kill]), prior, spec, sched)
        assert abs(D1[0]) < 1e-15
        obs = Observation(y_f=np.array([0.7 + 0j]))
        cfg = SimConfig(
            prior=prior,
            spec=spec,
            schedule=sched,
            guidance=Guidance.fixed(WeightSchedule.dps([zeta_kill])),
            n_runs=64,
            seed=3,
        )
        stats = monte_carlo(cfg, obs)
        np.testing.assert_allclose(stats.emp_var, np.zeros(1), atol=1e-25)

    def test_moments_match_the_full_spectrum_of_the_final_states(self):
        # The moments come from the final half spectrum, mirrored.  They must
        # match those of the full FFT of the time-domain states, whose DC and
        # Nyquist bins are real even where round-off left the half-spectrum
        # state an imaginary part there.
        rng = np.random.default_rng(41)
        for d in (1, 2, 7, 8):
            prior, spec, sched, obs = _setup(rng, d=d, S=6)
            own_mirror = [0, d // 2] if d % 2 == 0 else [0]
            mu_f = prior.mu_f.copy()
            mu_f[own_mirror] += 1e-13j * max(1.0, np.max(np.abs(mu_f)))
            bent = SpectralPrior(mu_f=mu_f, lambda0=prior.lambda0)
            for guide in _every_guidance(rng, sched.S):
                cfg = SimConfig(prior=bent, spec=spec, schedule=sched, guidance=guide, n_runs=5, seed=3)
                stats = monte_carlo(cfg, obs)
                spectra = np.fft.fft(_run_batch(cfg, obs, simulator._start_states(cfg))[0], axis=-1)
                mean = spectra.mean(axis=0)
                var = np.mean(np.abs(spectra - mean) ** 2, axis=0) / d
                for got, want in ((stats.emp_mean, mean), (stats.emp_var, var)):
                    atol = 1e-14 * np.max(np.abs(want))
                    np.testing.assert_allclose(got, want, rtol=0, atol=atol, err_msg=f"{d} {guide.kind}")
                assert np.all(stats.emp_mean[own_mirror].imag == 0)

    def test_same_seed_reproduces_stats(self):
        rng = np.random.default_rng(6)
        prior, spec, sched, obs = _setup(rng)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=50, seed=11
        )
        a = monte_carlo(cfg, obs)
        b = monte_carlo(cfg, obs)
        np.testing.assert_array_equal(a.emp_mean, b.emp_mean)
        np.testing.assert_array_equal(a.emp_var, b.emp_var)

    def test_prior_only_long_run_recovers_prior_spectrum(self):
        prior = make_synthetic_prior(8, 0.2, mu_const=0.4)
        T = 1000
        sched = ddim_subsequence(linear_ddpm_schedule(T), T)
        spec = make_lpf(8, 1.0, sigma_y=0.1)
        obs = Observation(y_f=np.zeros(8, complex))
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=100_000, seed=7
        )
        stats = monte_carlo(cfg, obs)
        live = prior.lambda0 > 1e-12
        np.testing.assert_allclose(stats.emp_var[live], prior.lambda0[live], rtol=0.05)
        assert np.all(stats.emp_var[~live] < 1e-10)

    def test_single_run_rejected(self):
        rng = np.random.default_rng(7)
        prior, spec, sched, obs = _setup(rng)
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=1)
        with pytest.raises(ValueError):
            monte_carlo(cfg, obs)

    def test_noiseless_optimal_guidance_rejects_zeroed_bins(self):
        # Without noise the MAP denoiser divides 0 / 0 on the bins the
        # operator zeroes.  The batch used to warn twice and then fail as
        # "diverged at step 3"; it now refuses the bins before any step, as
        # the ideal sampler's step table does.
        prior = make_synthetic_prior(8, 0.1)
        spec = make_lpf(8, 0.4, sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(50), 3)
        obs = Observation(y_f=np.zeros(8, complex))
        cfg = SimConfig(prior, spec, sched, Guidance.optimal(), n_runs=8)
        with pytest.raises(ValueError, match="zero denominator bin"):
            monte_carlo(cfg, obs)
        with pytest.raises(ValueError, match="zero denominator bin"):
            ideal_triple(prior, spec, sched)

    def test_noiseless_pigdm_rejects_singular_likelihood_covariance(self):
        # At sigma_y = 0 and r = 0, PiGDM's r^2 H H^T + sigma^2 I is singular.
        # The batch used to warn twice (divide by zero, then an invalid
        # multiply) and then fail as "diverged at step 3"; it now refuses the
        # covariance before any step, with the closed form's message.
        prior = make_synthetic_prior(8, 0.1)
        spec = make_lpf(8, 0.4, sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(50), 3)
        weights = WeightSchedule.pigdm(np.ones(3), np.zeros(3))
        cfg = SimConfig(prior, spec, sched, Guidance.fixed(weights), n_runs=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="zero likelihood-covariance bin"):
                monte_carlo(cfg, Observation(y_f=np.zeros(8, complex)))
        with pytest.raises(ValueError, match="zero likelihood-covariance bin"):
            transfer_triple(weights, prior, spec, sched)


class TestHeuristicProfile:
    def test_noiseless_profile_increases_toward_the_end(self):
        # With a perfect denoiser and shrinking residual, the realized weights
        # grow as sampling proceeds (later steps sit at lower s).
        prior = make_synthetic_prior(16, 0.2)
        spec = make_lpf(16, 0.45, sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(500), 40)
        rng = np.random.default_rng(8)
        obs = degrade(sample_prior(prior, rng), spec, rng)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=64, seed=5
        )
        profile = heuristic_weight_profile(0.3, cfg, obs).mean(axis=1)
        process_order = profile[::-1]  # s = S first
        late = process_order[-8:]
        early = process_order[:8]
        assert late.mean() > early.mean()

    def test_zero_constant_gives_zero_weights(self):
        rng = np.random.default_rng(9)
        prior, spec, sched, obs = _setup(rng)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=8, seed=1
        )
        with pytest.raises(ValueError):
            heuristic_weight_profile(0.0, cfg, obs)
        # Fixed zero weights realize as zero.
        cfg0 = SimConfig(
            prior=prior,
            spec=spec,
            schedule=sched,
            guidance=Guidance.fixed(WeightSchedule.dps(np.zeros(sched.S))),
            n_runs=8,
            seed=1,
        )
        stats = monte_carlo(cfg0, obs)
        assert stats.per_step_zeta is None

    def test_heuristic_norm_matches_dense_residual(self):
        # The norm comes from the half spectrum by Parseval, where DC and, for
        # even d, Nyquist count once and every other bin twice.
        # Past the last bin where h is nonzero the residual is y, whose part
        # of the norm comes from a table built before the loop.
        rng = np.random.default_rng(14)
        setups = ((f"full d={d}", *_setup(rng, d=d, S=3)) for d in range(2, 12))
        for label, prior, spec, sched, obs in chain(setups, _restricted_setups(rng, 3)):
            d = prior.dim
            guide = Guidance.dps_heuristic(0.7, cap=1e6)
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
            x_s = rng.standard_normal((4, d))
            _, realized = _run_batch(cfg, obs, x_s)
            Sigma0 = dense_operator_from_multiplier(prior.lambda0).real
            H = dense_operator_from_multiplier(spec.lambda_h).real
            y = obs.y_time()
            ab = sched.alpha_bar[-1]
            x0 = [dense_prior_denoiser(prior.mu_time(), Sigma0, x, ab) for x in x_s]
            norms = np.array([np.linalg.norm(y - H @ x) for x in x0])
            np.testing.assert_allclose(realized[-1], 0.7 / norms, rtol=1e-10, err_msg=label)

    def test_replay_is_exactly_linear_in_the_constant(self):
        # The heuristic replayed on frozen residual norms scales with zeta'.
        norms = np.random.default_rng(10).uniform(0.1, 3.0, (10, 16))
        once = heuristic_zeta(0.3, norms, cap=5.0)
        np.testing.assert_allclose(once, 0.3 / norms, rtol=1e-15)
        np.testing.assert_allclose(heuristic_zeta(0.6, norms, cap=5.0), 2.0 * once, rtol=1e-15)

    def test_out_is_filled_and_returned_bit_for_bit(self):
        # Only the exact zeros are capped: a tiny norm gives a huge weight
        # and a nan norm stays nan.
        norms = np.array([0.0, 1e-300, 0.7, 2.0, -0.0, np.inf, np.nan])
        capped = [5.0, 0.3 / 1e-300, 0.3 / 0.7, 0.15, 5.0, 0.0, np.nan]
        for picked in (norms, norms[1:4]):  # with and without zeros
            want = heuristic_zeta(0.3, picked, cap=5.0)
            out = np.full(picked.shape, -1.0)
            got = heuristic_zeta(0.3, picked, cap=5.0, out=out)
            assert got is out
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(heuristic_zeta(0.3, norms, cap=5.0), capped)

    def test_zero_residual_caps_at_bound(self):
        norms = np.array([[0.0, 2.0]])
        out = heuristic_zeta(1.0, norms, cap=5.0)
        np.testing.assert_allclose(out, [[5.0, 0.5]])

    def test_profile_shapes_and_determinism(self):
        rng = np.random.default_rng(11)
        prior, spec, sched, obs = _setup(rng, S=7)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=12, seed=4
        )
        p1 = heuristic_weight_profile(0.5, cfg, obs)
        p2 = heuristic_weight_profile(0.5, cfg, obs)
        assert p1.shape == (7, 12)
        np.testing.assert_array_equal(p1, p2)
