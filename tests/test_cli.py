import numpy as np
import pytest
from click.testing import CliRunner

from specdiff import SpectralPrior, make_synthetic_prior
from specdiff.cli import main
from specdiff.config import ConfigError, load_config
from specdiff.serialize import (
    prior_from_file,
    prior_to_file,
    read_samples_csv,
    write_csv,
)

BASE_CONFIG = """\
[experiment]
name = smoke
seed = 7
out = {out}

[prior]
d = 12
l = 0.1

[degradation]
# 5 of 12 bins, DC and two conjugate pairs, so the operator is real.
V = 0.42
sigma_y = 0.1

[schedule]
T = 200
S = 5

[sampler]
kind = dps
weight_source = optimize-k1
zeta_prime = 0.1, 0.3
max_iters = 60

[run]
n_realizations = 2
n_runs = 16
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(tmp_path, text=None, **extra):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text if text is not None else BASE_CONFIG.format(out=tmp_path / "out"))
    return cfg


class TestSerialize:
    def test_samples_roundtrip(self, tmp_path):
        path = tmp_path / "samples.csv"
        rows = [(k, i, float(k * 10 + i)) for k in range(3) for i in range(4)]
        write_csv(path, ["sample", "index", "value"], rows)
        mat = read_samples_csv(path)
        assert mat.shape == (3, 4)
        assert mat[2, 3] == 23.0

    def test_prior_file_roundtrip_mu_const(self, tmp_path):
        # prior_to_file writes mu_f inline; a hand-written file may give the
        # constant time-domain mean instead.
        prior = make_synthetic_prior(10, 0.2, mu_const=0.7)
        path = tmp_path / "prior.txt"
        lam = " ".join(repr(float(v)) for v in prior.lambda0)
        path.write_text(f"dim = 10\nmu_const = 0.7\nlambda0 = {lam}\n")
        back = prior_from_file(path)
        assert back.dim == 10
        np.testing.assert_allclose(back.lambda0, prior.lambda0)
        np.testing.assert_allclose(back.mu_f, prior.mu_f)

    def test_prior_file_roundtrip_inline_mu(self, tmp_path):
        rng = np.random.default_rng(0)
        mu_f = np.fft.fft(rng.standard_normal(6))
        prior = SpectralPrior(dim=6, mu_f=mu_f, lambda0=np.abs(mu_f))
        path = tmp_path / "prior.txt"
        prior_to_file(prior, path)
        back = prior_from_file(path)
        np.testing.assert_allclose(back.mu_f, prior.mu_f, atol=1e-15)
        np.testing.assert_allclose(back.lambda0, prior.lambda0, atol=1e-15)


class TestConfig:
    def test_load_valid_config(self, tmp_path):
        cfg = load_config(_write_config(tmp_path))
        assert cfg.prior_d == 12 and cfg.S_list == (5,)
        assert cfg.zeta_primes == (0.1, 0.3)
        assert cfg.config_hash

    def test_unknown_key_named_in_error(self, tmp_path):
        bad = BASE_CONFIG.format(out=tmp_path).replace(
            "[sampler]\nkind", "[sampler]\nwat = 3\nkind", 1
        )
        path = tmp_path / "bad.cfg"
        path.write_text(bad)
        with pytest.raises(ConfigError, match="sampler.wat"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_invalid_source_rejected(self, tmp_path):
        text = BASE_CONFIG.format(out=tmp_path).replace("optimize-k1", "banana")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="weight_source"):
            load_config(path)


class TestCliCommands:
    def test_optimize_writes_weights_and_losses(self, tmp_path, runner):
        cfg = _write_config(tmp_path)
        result = runner.invoke(main, ["optimize", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        weights = (out / "weights_S5.csv").read_text()
        assert "zeta_r0" in weights and "zeta_r1" in weights and "mean" in weights
        losses = (out / "losses.csv").read_text().splitlines()
        assert losses[3] == "sampler,S,K,loss,seed"
        assert "# tool_version:" in (out / "losses.csv").read_text()

    def test_optimize_reruns_byte_identical(self, tmp_path, runner):
        cfg = _write_config(tmp_path)
        assert runner.invoke(main, ["optimize", "--config", str(cfg)]).exit_code == 0
        first = (tmp_path / "out" / "weights_S5.csv").read_bytes()
        assert runner.invoke(main, ["optimize", "--config", str(cfg)]).exit_code == 0
        second = (tmp_path / "out" / "weights_S5.csv").read_bytes()
        assert first == second

    def test_optimize_averaged_mode_single_solution(self, tmp_path, runner):
        text = BASE_CONFIG.format(out=tmp_path / "avg").replace(
            "optimize-k1", "optimize-averaged"
        )
        cfg = tmp_path / "avg.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["optimize", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        weights = (tmp_path / "avg" / "weights_S5.csv").read_text().splitlines()
        data_header = [l for l in weights if not l.startswith("#")][0]
        assert data_header == "s,zeta_r0"

    def test_unknown_key_exits_2(self, tmp_path, runner):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nnom = x\n")
        result = runner.invoke(main, ["optimize", "--config", str(path)])
        assert result.exit_code == 2
        assert "experiment.nom" in result.output

    def test_numerical_failure_exits_3(self, tmp_path, runner):
        # sigma_y = 0 with a low-pass operator leaves degenerate Wiener bins.
        text = BASE_CONFIG.format(out=tmp_path / "o3").replace("sigma_y = 0.1", "sigma_y = 0.0")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        result = runner.invoke(main, ["optimize", "--config", str(path)])
        assert result.exit_code == 3
        assert "numerical failure" in result.output

    def test_simulate_writes_stats(self, tmp_path, runner):
        cfg = _write_config(tmp_path)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        stats = (tmp_path / "out" / "stats_S5.csv").read_text().splitlines()
        assert stats[3] == "bin,emp_mean_re,emp_mean_im,emp_var"
        assert len(stats) == 4 + 12

    def test_simulate_heuristic_writes_profiles(self, tmp_path, runner):
        text = BASE_CONFIG.format(out=tmp_path / "sim").replace(
            "n_runs = 16", "n_runs = 16\nguidance = heuristic"
        )
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "sim"
        for zp in ("0.1", "0.3"):
            prof = (out / f"profile_S5_zp{zp}.csv").read_text().splitlines()
            assert prof[3] == "step,mean_zeta,std_zeta"
            assert (out / f"stats_S5_zp{zp}.csv").exists()

    def test_simulate_profile_matches_heuristic_weight_profile(self, tmp_path, runner):
        # The profile and the statistics come from one Monte-Carlo batch; the
        # profile must equal a separate heuristic_weight_profile run on the
        # same seed, cap and observation.
        from specdiff import Guidance, SimConfig, heuristic_weight_profile
        from specdiff.cli import _Runtime

        text = BASE_CONFIG.format(out=tmp_path / "sim").replace(
            "n_runs = 16", "n_runs = 16\nguidance = heuristic"
        ).replace("max_iters = 60", "max_iters = 60\nbounds = -3, 2")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        rt = _Runtime(load_config(cfg), None, None)
        obs = rt.observations()[0]
        for zi, zp in enumerate((0.1, 0.3)):
            sim = SimConfig(
                prior=rt.prior,
                spec=rt.spec,
                schedule=rt.schedules[5],
                guidance=Guidance.dps_heuristic(zp, cap=3.0),
                n_runs=16,
                seed=int(np.random.SeedSequence([7, 202, 5 * 10 + zi]).generate_state(1)[0]),
            )
            zetas = heuristic_weight_profile(zp, sim, obs)
            rows = (tmp_path / "sim" / f"profile_S5_zp{zp:g}.csv").read_text().splitlines()[4:]
            got = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
            np.testing.assert_array_equal(got[:, 0], zetas.mean(axis=1))
            np.testing.assert_array_equal(got[:, 1], zetas.std(axis=1))

    def test_optimize_rejects_weight_sources_it_does_not_optimize(self, tmp_path, runner):
        for source in ("heuristic", "pigdm-heuristic", "ideal"):
            text = BASE_CONFIG.format(out=tmp_path / source).replace("optimize-k1", source)
            cfg = tmp_path / f"{source}.cfg"
            cfg.write_text(text)
            result = runner.invoke(main, ["optimize", "--config", str(cfg)])
            assert result.exit_code == 2, (source, result.output)
            assert "sampler.weight_source" in result.output
            assert not (tmp_path / source / "losses.csv").exists()

    def test_eval_loss_rejects_optimize_averaged(self, tmp_path, runner):
        text = BASE_CONFIG.format(out=tmp_path / "ev").replace("optimize-k1", "optimize-averaged")
        cfg = tmp_path / "ev.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["eval-loss", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "sampler.weight_source" in result.output
        assert not (tmp_path / "ev" / "eval_loss.csv").exists()

    def test_split_conjugate_pair_exits_2(self, tmp_path, runner):
        # V = 0.5 keeps 6 of 12 bins: DC, two conjugate pairs and bin 3
        # without its mirror 9, which no real operator has.  Every command
        # that builds the operator rejects the config before writing output.
        text = BASE_CONFIG.format(out=tmp_path / "nh").replace("V = 0.42", "V = 0.5").replace(
            "n_runs = 16", "n_runs = 16\nguidance = heuristic"
        )
        cfg = tmp_path / "nh.cfg"
        cfg.write_text(text)
        for command in ("optimize", "eval-loss", "simulate", "sweep-wasserstein"):
            result = runner.invoke(main, [command, "--config", str(cfg)])
            assert result.exit_code == 2, (command, result.output)
            assert "degradation.V" in result.output and "(3, 9)" in result.output
        assert not (tmp_path / "nh").exists()

    @pytest.mark.parametrize(
        "command, old, new, args, key",
        [
            pytest.param("optimize", "", "", ["--seed", "-1"], "experiment.seed", id="seed"),
            pytest.param("optimize", "S = 5", "S = 80", [], "schedule.S", id="S"),
            pytest.param("optimize", "T = 50", "T = 0", [], "schedule.T", id="T"),
            pytest.param(
                "optimize", "max_iters = 60", "max_iters = 0", [], "sampler.max_iters", id="max_iters"
            ),
            pytest.param(
                "optimize", "max_iters = 60", "max_iters = 60\nbounds = 1, -1", [], "sampler.bounds",
                id="bounds",
            ),
            pytest.param("simulate", "n_runs = 16", "n_runs = 1", [], "run.n_runs", id="n_runs"),
            pytest.param(
                "simulate", "n_realizations = 2", "n_realizations = 0", [], "run.n_realizations",
                id="n_realizations-simulate",
            ),
            pytest.param(
                "sweep-wasserstein", "n_realizations = 2", "n_realizations = 0", [],
                "run.n_realizations", id="n_realizations-sweep",
            ),
        ],
    )
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, runner, command, old, new, args, key):
        # These values used to fail as numerical failures (exit 3), crash, or
        # (n_realizations = 0 in the sweep) exit 0 with an empty table.
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("T = 200", "T = 50")
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text.replace(old, new) if old else text)
        result = runner.invoke(main, [command, "--config", str(cfg), *args])
        assert result.exit_code == 2, result.output
        assert f"config error: {key}" in result.output
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_nonpositive_zeta_prime_exits_3(self, tmp_path, runner):
        text = BASE_CONFIG.format(out=tmp_path / "zp").replace(
            "zeta_prime = 0.1, 0.3", "zeta_prime = 0.1, 0"
        ).replace("n_runs = 16", "n_runs = 16\nguidance = heuristic")
        cfg = tmp_path / "zp.cfg"
        cfg.write_text(text)
        for command in ("simulate", "sweep-wasserstein"):
            result = runner.invoke(main, [command, "--config", str(cfg)])
            assert result.exit_code == 3, (command, result.output)
            assert "zeta_prime must be positive" in result.output

    def test_estimate_prior_roundtrip(self, tmp_path, runner):
        rng = np.random.default_rng(0)
        prior = make_synthetic_prior(8, 0.3)
        from specdiff import sample_prior

        rows = []
        for k in range(4000):
            x = sample_prior(prior, rng)
            rows += [(k, i, float(x[i])) for i in range(8)]
        write_csv(tmp_path / "samples.csv", ["sample", "index", "value"], rows)
        text = BASE_CONFIG.format(out=tmp_path / "est") + f"\n[estimate]\nsamples = {tmp_path / 'samples.csv'}\n"
        cfg = tmp_path / "est.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["estimate-prior", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        est = prior_from_file(tmp_path / "est" / "smoke_prior.txt")
        assert est.dim == 8
        live = prior.lambda0 > 1e-9
        np.testing.assert_allclose(est.lambda0[live], prior.lambda0[live], rtol=0.25)

    def test_eval_loss_ideal_rows(self, tmp_path, runner):
        text = BASE_CONFIG.format(out=tmp_path / "ev").replace("optimize-k1", "ideal")
        cfg = tmp_path / "ev.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["eval-loss", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "ev" / "eval_loss.csv").read_text().splitlines()
        assert rows[3] == "sampler,S,K,loss,seed"
        data = [r for r in rows[4:] if r]
        assert len(data) == 2  # one S, two realizations
        assert all(r.startswith("ideal,5,1,") for r in data)

    def test_seed_override_changes_outputs(self, tmp_path, runner):
        cfg = _write_config(tmp_path)
        assert runner.invoke(main, ["simulate", "--config", str(cfg)]).exit_code == 0
        first = (tmp_path / "out" / "stats_S5.csv").read_text()
        assert (
            runner.invoke(
                main, ["simulate", "--config", str(cfg), "--seed", "99"]
            ).exit_code
            == 0
        )
        second = (tmp_path / "out" / "stats_S5.csv").read_text()
        assert first != second
        assert "# seed: 99" in second

    def test_threads_only_where_read(self, tmp_path, runner):
        # No command runs work concurrently, so none takes --threads.
        cfg = _write_config(tmp_path)
        for command in ("optimize", "sweep-wasserstein", "simulate", "estimate-prior", "eval-loss"):
            result = runner.invoke(main, [command, "--config", str(cfg), "--threads", "2"])
            assert result.exit_code == 2, (command, result.output)
            assert "--threads" in result.output

    def test_sweep_small_grid(self, tmp_path, runner):
        text = BASE_CONFIG.format(out=tmp_path / "sw").replace("S = 5", "S = 4, 6")
        cfg = tmp_path / "sw.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["sweep-wasserstein", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        rows = [
            r
            for r in (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[4:]
            if r
        ]
        # methods: 2 heuristics + dps-opt + pigdm-opt + ideal = 5 per (S, realization)
        assert len(rows) == 5 * 2 * 2
        methods = {r.split(",")[0] for r in rows}
        assert methods == {
            "dps-heuristic-0.1",
            "dps-heuristic-0.3",
            "dps-optimized",
            "pigdm-optimized",
            "ideal",
        }
