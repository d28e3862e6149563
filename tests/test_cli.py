import ast
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from specdiff import (
    SpectralPrior,
    WeightSchedule,
    cli,
    config,
    ddim_subsequence,
    iterative_ladder,
    linear_ddpm_schedule,
    make_synthetic_prior,
    optimize_weights,
    optimizer,
    transfer_triple,
)
from specdiff.cli import main
from specdiff.config import ConfigError, load_config
from specdiff.serialize import (
    prior_from_file,
    prior_to_file,
    read_samples_csv,
    write_csv,
)

from oracles import output_distribution, true_posterior, w2_diag

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
        path.write_text(f"# written by hand\ndim = 10\nmu_const = 0.7\nlambda0 = {lam}\n")
        back = prior_from_file(path)
        assert back.dim == 10
        np.testing.assert_allclose(back.lambda0, prior.lambda0)
        np.testing.assert_allclose(back.mu_f, prior.mu_f)

    def test_prior_file_roundtrip_inline_mu(self, tmp_path):
        rng = np.random.default_rng(0)
        mu_f = np.fft.fft(rng.standard_normal(6))
        prior = SpectralPrior(mu_f=mu_f, lambda0=np.abs(mu_f))
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

    def test_sampler_kinds_are_the_family_table(self):
        # config.py lists the kinds itself, so that it imports no numpy: the
        # list must stay the family table's keys.
        from specdiff.config import ExperimentConfig
        from specdiff.transfer import FAMILIES

        (kind,) = [f for f in fields(ExperimentConfig) if f.metadata.get("key") == "sampler.kind"]
        assert set(kind.metadata["parse"].choices) == set(FAMILIES)
        for node in ast.walk(ast.parse(Path(config.__file__).read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("numpy", ""), f"config.py imports {module}"

    def test_default_bounds_are_the_family_box(self):
        # config.py writes the default box itself, for the same reason: it
        # must parse to the one constant the solves and the heuristic's cap use.
        from specdiff.config import ExperimentConfig
        from specdiff.transfer import DEFAULT_BOUNDS

        (box,) = [f for f in fields(ExperimentConfig) if f.metadata.get("key") == "sampler.bounds"]
        assert box.metadata["parse"]("sampler.bounds", box.metadata["default"]) == DEFAULT_BOUNDS

    def test_default_solver_limits_are_the_optimizer_defaults(self):
        # config.py writes these defaults itself too; they must parse to the
        # values OptimizeOptions holds, or the CLI and the API solve apart.
        from specdiff.config import ExperimentConfig
        from specdiff.optimizer import OptimizeOptions

        keys = {f.metadata.get("key"): f for f in fields(ExperimentConfig)}
        for key, name in [("sampler.max_iters", "max_iters"), ("sampler.f_tol", "f_tol")]:
            meta = keys[key].metadata
            value = meta["parse"](key, meta["default"])
            assert value == getattr(OptimizeOptions(), name), key
            assert type(value) is type(getattr(OptimizeOptions(), name)), key

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

    @pytest.mark.parametrize(
        "kind, header",
        [
            ("dps", "s,zeta_r0,zeta_r1,mean,std"),
            ("pigdm", "s,g_r0,r_r0,g_r1,r_r1,g_mean,g_std,r_mean,r_std"),
        ],
    )
    def test_optimize_weights_header(self, tmp_path, runner, kind, header):
        # Two realizations: each field per realization, then each field's mean
        # and std, unprefixed for DPS's single field.
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("kind = dps", f"kind = {kind}")
        result = runner.invoke(main, ["optimize", "--config", str(_write_config(tmp_path, text))])
        assert result.exit_code == 0, result.output
        weights = (tmp_path / "out" / "weights_S5.csv").read_text().splitlines()
        assert [l for l in weights if not l.startswith("#")][0] == header

    def test_unknown_key_exits_2(self, tmp_path, runner):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nnom = x\n")
        result = runner.invoke(main, ["optimize", "--config", str(path)])
        assert result.exit_code == 2
        assert "experiment.nom" in result.output

    def test_diverging_simulation_exits_3_naming_the_step(self, tmp_path, runner):
        # zeta' = 1e308 overflows the heuristic weight at the first step; the
        # run reports that step and nothing else, no numpy warning.
        text = (
            BASE_CONFIG.format(out=tmp_path / "div")
            .replace("zeta_prime = 0.1, 0.3", "zeta_prime = 1e308\nbounds = -1e308, 1e308")
            .replace("n_runs = 16", "n_runs = 16\nguidance = heuristic")
        )
        cfg = tmp_path / "div.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 3, result.output
        assert result.output == "numerical failure: diverged at step 5\n"

    def test_overflowing_simulation_moments_exit_3(self, tmp_path, runner):
        # zeta' = 1e300 leaves some final states finite but near 1e300, so
        # their variance overflows.  The run used to warn and write
        # emp_var = inf and std_zeta = inf with exit 0.
        text = (
            BASE_CONFIG.format(out=tmp_path / "mom")
            .replace("T = 200", "T = 50")
            .replace("S = 5", "S = 4")
            .replace("zeta_prime = 0.1, 0.3", "zeta_prime = 1e300\nbounds = -1e300, 1e300")
            .replace("n_runs = 16", "n_runs = 50\nguidance = heuristic")
        )
        cfg = tmp_path / "mom.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--seed", "0"])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("numerical failure: output moments overflow")
        assert not (tmp_path / "mom").exists()

    def test_overflowing_trial_point_is_a_failed_solve(self, tmp_path, runner):
        # At seed 4 the PiGDM solve from the default start tries a point whose
        # loss overflows.  That used to print numpy warnings and exit 3 with
        # "non-finite loss or gradient", writing nothing.  It is now one
        # failed solve, and the sweep writes every row.
        text = (
            BASE_CONFIG.format(out=tmp_path / "out")
            .replace("l = 0.1", "l = 0.2")
            .replace("S = 5", "S = 100")
            .replace("max_iters = 60", "max_iters = 60\nbounds = -50 50")
            .replace("n_realizations = 2", "n_realizations = 1")
        )
        cfg = tmp_path / "trial.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["sweep-wasserstein", "--config", str(cfg), "--seed", "4"])
        assert result.exit_code == 0, result.output
        failed = "ABNORMAL: NON-FINITE LOSS OR GRADIENT AT A TRIAL POINT"
        assert result.stderr.splitlines() == [f"solve failed: pigdm S=100 realization=0: {failed}"]
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [row[0] for row in rows] == [
            "dps-heuristic-0.1", "dps-heuristic-0.3", "dps-optimized", "ideal", "pigdm-optimized"
        ]
        assert all(np.isfinite(float(row[3])) for row in rows)

    @pytest.mark.parametrize(
        "command, guidance",
        [
            pytest.param("optimize", "none", id="optimize"),
            pytest.param("eval-loss", "none", id="eval-loss"),
            pytest.param("sweep-wasserstein", "none", id="sweep-wasserstein"),
            pytest.param("simulate", "optimal", id="simulate-optimal"),
        ],
    )
    def test_noiseless_lowpass_exits_2_naming_the_bins(self, tmp_path, runner, command, guidance):
        # Without noise the posterior divides by lambda |h|^2 = 0 on the bins
        # the operator zeroes, which every loss and the MAP denoiser need.
        # Each command used to fail mid-run with exit 3, naming the cause as
        # "degenerate bin" (optimize, eval-loss) or "zero denominator bin"
        # (sweep-wasserstein, simulate with optimal guidance).
        text = (
            BASE_CONFIG.format(out=tmp_path / "out")
            .replace("sigma_y = 0.1", "sigma_y = 0.0")
            .replace("n_runs = 16", f"n_runs = 16\nguidance = {guidance}")
        )
        cfg = tmp_path / "noiseless.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "config error: degradation.sigma_y = 0 leaves the posterior undefined "
            "on bins 3, 4, 5, 6, 7, 8, 9, where lambda |h|^2 = 0\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, V, guidance",
        [
            ("simulate", "0.42", "none"),
            ("simulate", "0.42", "heuristic"),
            ("simulate", "1.0", "optimal"),
            ("optimize", "1.0", "none"),
            ("eval-loss", "1.0", "none"),
        ],
    )
    def test_noiseless_model_runs_where_defined(self, tmp_path, runner, command, V, guidance):
        # The posterior check refuses only what needs the posterior on a bin
        # where it is undefined: simulating without it, or a model whose
        # operator keeps every bin, still runs.
        text = (
            BASE_CONFIG.format(out=tmp_path / "out")
            .replace("sigma_y = 0.1", "sigma_y = 0.0")
            .replace("V = 0.42", f"V = {V}")
            .replace("n_runs = 16", f"n_runs = 16\nguidance = {guidance}")
        )
        cfg = tmp_path / "noiseless.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "command, kind",
        [
            pytest.param("optimize", "pigdm", id="optimize"),
            pytest.param("eval-loss", "pigdm", id="eval-loss"),
            pytest.param("sweep-wasserstein", "dps", id="sweep-wasserstein"),
        ],
    )
    def test_noiseless_pigdm_exits_2_naming_sigma_y(self, tmp_path, runner, command, kind):
        # On a full-band noiseless model the posterior is defined, but PiGDM's
        # likelihood covariance r^2 |h|^2 + sigma^2 is singular at r = 0,
        # which the box holds.  Each command used to exit 3 with "zero
        # likelihood-covariance bin" once a PiGDM solve reached r = 0; the
        # sweep did so after its DPS rows were done.
        text = (
            BASE_CONFIG.format(out=tmp_path / "out")
            .replace("sigma_y = 0.1", "sigma_y = 0.0")
            .replace("V = 0.42", "V = 1.0")
            .replace("kind = dps", f"kind = {kind}")
            .replace("T = 200", "T = 50")
            .replace("S = 5", "S = 3 6")
        )
        cfg = tmp_path / "noiseless.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "config error: degradation.sigma_y = 0 makes PiGDM's likelihood covariance "
            "r^2 |h|^2 + sigma^2 singular at r = 0, which sampler.bounds allows\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, kind, code",
        [
            pytest.param("optimize", "pigdm", 2, id="optimize-pigdm"),
            pytest.param("eval-loss", "pigdm", 2, id="eval-loss-pigdm"),
            pytest.param("sweep-wasserstein", "dps", 2, id="sweep-wasserstein"),
            pytest.param("optimize", "dps", 0, id="optimize-dps"),
            pytest.param("eval-loss", "dps", 0, id="eval-loss-dps"),
        ],
    )
    def test_pigdm_box_below_zero_exits_2_naming_bounds(self, tmp_path, runner, command, kind, code):
        # PiGDM's r >= 0 has no room below an upper bound of -1.  Every
        # command that solves PiGDM used to exit 3 with "An upper bound is
        # less than the corresponding lower bound."; DPS alone still solves.
        text = (
            BASE_CONFIG.format(out=tmp_path / "out")
            .replace("kind = dps", f"kind = {kind}")
            .replace("max_iters = 60", "max_iters = 60\nbounds = -5, -1")
            .replace("T = 200", "T = 50")
            .replace("S = 5", "S = 3 6")
        )
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == code, result.output
        if code == 2:
            assert result.output == (
                "config error: sampler.bounds: upper end -1 is below 0, where PiGDM's r >= 0 starts\n"
            )
            assert not (tmp_path / "out").exists()

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

    def test_monte_carlo_seeds_do_not_collide(self, tmp_path, runner, monkeypatch):
        # Seed tags once packed the zeta' index in one decimal digit and the
        # realization in three, so at S = 4 and 5 the eleventh zeta' of S = 4
        # drew the starting states of the first zeta' of S = 5.
        import specdiff.cli as cli

        seeds = []

        def recorded(original, pos):
            def call(*args, **kwargs):
                seeds.append(args[pos].seed)
                return original(*args, **kwargs)

            return call

        monkeypatch.setattr(cli, "monte_carlo", recorded(cli.monte_carlo, 0))
        monkeypatch.setattr(cli, "heuristic_weight_profile", recorded(cli.heuristic_weight_profile, 1))
        zeta_primes = ", ".join(f"{0.1 * (k + 1):.1f}" for k in range(11))
        text = (
            BASE_CONFIG.format(out=tmp_path / "sim")
            .replace("d = 12", "d = 13")
            .replace("T = 200", "T = 50")
            .replace("S = 5", "S = 4 5")
            .replace("zeta_prime = 0.1, 0.3", f"zeta_prime = {zeta_primes}")
            .replace("n_runs = 16", "n_runs = 16\nguidance = heuristic")
        )
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert len(seeds) == 22 and len(set(seeds)) == 22
        # The realization slot: realization 1000 at S = 4 against realization 0 at S = 5.
        rt = cli._Runtime(load_config(cfg), None, None)
        rt.cfg = replace(rt.cfg, n_realizations=1001, zeta_primes=(0.1, 0.3))
        obs = rt.observations()[0]
        seeds.clear()
        rt.losses(4, 1000, obs, {"heuristic"})
        rt.losses(5, 0, obs, {"heuristic"})
        assert len(set(seeds)) == 4

    def test_monte_carlo_seeds_of_small_configs_unchanged(self, tmp_path, monkeypatch):
        # Configs with at most ten zeta' values and fewer than 1000
        # realizations keep the seeds of the fixed decimal slots.
        import specdiff.cli as cli

        seeds = []

        def recorded(zp, sim, obs):
            seeds.append(sim.seed)
            return np.zeros((sim.schedule.S, sim.n_runs))

        monkeypatch.setattr(cli, "heuristic_weight_profile", recorded)
        rt = cli._Runtime(load_config(_write_config(tmp_path)), None, None)
        obs = rt.observations()
        for r in range(2):
            rt.losses(5, r, obs[r], {"heuristic"})
        tags = [(5 * 1000 + r) * 10 + zi for r in range(2) for zi in range(2)]
        assert seeds == [rt.sim_seed(tag) for tag in tags]

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

    @pytest.mark.parametrize(
        "command, edits",
        [
            pytest.param("optimize", {"optimize-k1": "heuristic"}, id="optimize-heuristic"),
            pytest.param("simulate", {"n_runs = 16": "n_runs = 1"}, id="simulate-n_runs"),
            pytest.param("estimate-prior", {}, id="estimate-prior-without-samples"),
            pytest.param("eval-loss", {"optimize-k1": "optimize-averaged"}, id="eval-loss-averaged"),
            pytest.param("optimize", {"sigma_y = 0.1": "sigma_y = 0.0"}, id="require-posterior"),
        ],
    )
    def test_refused_config_leaves_no_output_directory(self, tmp_path, runner, command, edits):
        # Each of these checks runs inside its command, after the output
        # directory used to be made, so the refusal left it behind, empty.
        text = BASE_CONFIG.format(out=tmp_path / "out")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "refused.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("config error: ")
        assert not (tmp_path / "out").exists()

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
            pytest.param("optimize", "d = 12", "d = 1", [], "prior.d", id="d"),
            pytest.param("optimize", "l = 0.1", "l = 0", [], "prior.l", id="l"),
            pytest.param(
                "optimize", "sigma_y = 0.1", "sigma_y = -0.1", [], "degradation.sigma_y",
                id="sigma_y",
            ),
            # NaN and inf used to pass "< 0": simulate then wrote noiseless
            # stats with exit 0, and the prior's l and mean exited 3.
            pytest.param(
                "simulate", "sigma_y = 0.1", "sigma_y = nan", [], "degradation.sigma_y",
                id="sigma_y-nan",
            ),
            pytest.param(
                "simulate", "sigma_y = 0.1", "sigma_y = inf", [], "degradation.sigma_y",
                id="sigma_y-inf",
            ),
            pytest.param("optimize", "l = 0.1", "l = inf", [], "prior.l", id="l-inf"),
            pytest.param(
                "optimize", "l = 0.1", "l = 0.1\nmu_const = nan", [], "prior.mu_const",
                id="mu_const-nan",
            ),
        ],
    )
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, runner, command, old, new, args, key):
        # These values used to fail as numerical failures (exit 3), crash,
        # (n_realizations = 0 in the sweep) exit 0 with an empty table, or
        # (sigma_y < 0) exit 2 naming degradation.V.
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("T = 200", "T = 50")
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text.replace(old, new) if old else text)
        result = runner.invoke(main, [command, "--config", str(cfg), *args])
        assert result.exit_code == 2, result.output
        assert f"config error: {key}" in result.output
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize(
        "command, edits, key",
        [
            pytest.param(
                "sweep-wasserstein", {"n_runs = 16": "n_runs = 0"}, "run.n_runs", id="n_runs-sweep"
            ),
            pytest.param(
                "eval-loss",
                {"n_runs = 16": "n_runs = 0", "optimize-k1": "heuristic"},
                "run.n_runs",
                id="n_runs-eval-loss",
            ),
            pytest.param(
                "optimize", {"max_iters = 60": "max_iters = 60\nladder = 0 5"}, "sampler.ladder",
                id="ladder",
            ),
            pytest.param(
                "optimize", {"max_iters = 60": "max_iters = 60\nladder = 4 2"}, "sampler.ladder",
                id="ladder-decreasing",
            ),
            pytest.param(
                "optimize", {"max_iters = 60": "max_iters = 60\nladder = 2 2"}, "sampler.ladder",
                id="ladder-repeated",
            ),
            pytest.param(
                "optimize",
                {"max_iters = 60": "max_iters = 60\nkeep_dims = 0"},
                "sampler.keep_dims",
                id="keep_dims",
            ),
            pytest.param(
                "simulate",
                {"0.1, 0.3": "0.1, 0", "n_runs = 16": "n_runs = 16\nguidance = heuristic"},
                "sampler.zeta_prime",
                id="zeta_prime-simulate",
            ),
            pytest.param(
                "sweep-wasserstein", {"0.1, 0.3": "0.1, 0"}, "sampler.zeta_prime",
                id="zeta_prime-sweep",
            ),
            pytest.param(
                "eval-loss",
                {"0.1, 0.3": "0.1, -0.3", "optimize-k1": "heuristic"},
                "sampler.zeta_prime",
                id="zeta_prime-eval-loss",
            ),
            pytest.param(
                "simulate",
                {"0.1, 0.3": "", "n_runs = 16": "n_runs = 16\nguidance = heuristic"},
                "sampler.zeta_prime",
                id="zeta_prime-empty-simulate",
            ),
            pytest.param(
                "sweep-wasserstein", {"0.1, 0.3": ""}, "sampler.zeta_prime",
                id="zeta_prime-empty-sweep",
            ),
            pytest.param(
                "sweep-wasserstein", {"0.1, 0.3": "0.3, 0.3"}, "sampler.zeta_prime",
                id="zeta_prime-repeated",
            ),
            pytest.param(
                "simulate",
                {"0.1, 0.3": "0.1, 0.1000001", "n_runs = 16": "n_runs = 16\nguidance = heuristic"},
                "sampler.zeta_prime",
                id="zeta_prime-same-name",
            ),
            pytest.param("sweep-wasserstein", {"S = 5": "S = 3 3"}, "schedule.S", id="S-repeated"),
            pytest.param(
                "optimize",
                {"n_realizations = 2": "n_realizations = 0", "optimize-k1": "optimize-averaged"},
                "run.n_realizations",
                id="n_realizations-optimize-averaged",
            ),
            pytest.param(
                "optimize", {"max_iters = 60": "max_iters = 60\nf_tol = nan"}, "sampler.f_tol",
                id="f_tol-nan",
            ),
            pytest.param(
                "optimize", {"max_iters = 60": "max_iters = 60\nf_tol = inf"}, "sampler.f_tol",
                id="f_tol-inf",
            ),
            pytest.param(
                "sweep-wasserstein", {"0.1, 0.3": "0.1, nan"}, "sampler.zeta_prime",
                id="zeta_prime-nan",
            ),
            # The config's own errors, which name no key.
            pytest.param(
                "optimize", {"[experiment]": "stray line\n[experiment]"}, "unreadable config",
                id="unreadable",
            ),
            pytest.param(
                "optimize", {"[run]": "[bogus]\nx = 1\n\n[run]"}, "unknown section: [bogus]",
                id="unknown-section",
            ),
            pytest.param("optimize", {"d = 12": "d = twelve"}, "invalid config value", id="invalid-value"),
        ],
    )
    def test_value_rejected_when_config_loads(self, tmp_path, runner, command, edits, key):
        # These values used to pass the config checks and fail mid-run as
        # numerical failures (exit 3): n_runs = 0 in the heuristic profiles, a
        # ladder rung of 0 in its rung schedule, a ladder out of order in the
        # ladder solve, keep_dims = 0 in the eigen-truncation and a zeta' <= 0
        # in the heuristic guidance, after simulate had written the outputs of
        # the zeta' before it.  An empty zeta' list used to pass: simulate
        # exited 0 without writing a file and the sweep dropped its heuristic
        # rows.  A repeated S or zeta' used to write sweep rows whose
        # (method, S, realization) keys repeat, with different values.
        # n_realizations = 0 was checked only where measurements were drawn,
        # so the averaged optimize, which draws none, exited 0.  Two zeta'
        # that print alike under {:g}, such as 0.1 and 0.1000001, used to
        # share output names: simulate's second batch overwrote the first's
        # files and the sweep wrote two dps-heuristic-0.1 rows.  f_tol = nan
        # turned off L-BFGS-B's relative-reduction test and f_tol = inf
        # stopped every solve after its first iteration, both with exit 0.
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("T = 200", "T = 50")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"config error: {key}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key, contents",
        [
            pytest.param("optimize", "prior.file", None, id="prior-missing"),
            pytest.param("optimize", "prior.file", "dim = 12\n", id="prior-without-lambda0"),
            # A NaN eigenvalue or sample used to load: the prior file's then
            # exited 3 and the sample's wrote lambda0 = nan nan with exit 0.
            pytest.param("optimize", "prior.file", "dim = 2\nlambda0 = nan 1.0\n", id="prior-nan"),
            # Each of these used to load with exit 0: a misspelt key was
            # ignored, a repeated one silently won and a line without "="
            # was skipped.  dim = 0 with no values ended in an IndexError.
            pytest.param(
                "optimize", "prior.file", "dim = 2\nmuf = 5+0j 0j\nlambda0 = 1.0 2.0\n",
                id="prior-unknown-key",
            ),
            pytest.param(
                "optimize", "prior.file", "dim = 2\nlambda0 = 1.0 2.0\nlambda0 = 3.0 4.0\n",
                id="prior-repeated-key",
            ),
            pytest.param(
                "optimize", "prior.file", "dim = 2\nlambda0 1.0 2.0\nlambda0 = 1.0 2.0\n",
                id="prior-line-without-equals",
            ),
            # Both means used to load, mu_f winning and mu_const ignored.
            pytest.param(
                "optimize", "prior.file",
                "dim = 2\nmu_f = 1+0j 0j\nmu_const = 7\nlambda0 = 1.0 2.0\n",
                id="prior-mu_f-and-mu_const",
            ),
            pytest.param(
                "optimize", "prior.file", "dim = 3\nlambda0 = 1.0 2.0\n", id="prior-dim-mismatch"
            ),
            pytest.param("optimize", "prior.file", "dim = 0\nlambda0 =\n", id="prior-empty"),
            pytest.param(
                "estimate-prior", "estimate.samples", "sample,index,value\n0,0,1.0\n1,0,nan\n",
                id="samples-nan",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples", "sample,index,value\n", id="samples-no-rows"
            ),
            # Six samples of four indices under a swapped header used to load
            # as four samples of six and write a six-bin prior with exit 0;
            # a headerless file lost its first row and read "cell ... is missing".
            pytest.param(
                "estimate-prior", "estimate.samples",
                "index,sample,value\n"
                + "".join(f"{i},{k},{k + i}.0\n" for k in range(6) for i in range(4)),
                id="samples-swapped-header",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples", "0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,4.0\n",
                id="samples-no-header",
            ),
            pytest.param("estimate-prior", "estimate.samples", "", id="samples-empty"),
            pytest.param("estimate-prior", "estimate.samples", None, id="samples-missing"),
            pytest.param(
                "estimate-prior", "estimate.samples", "sample,index,value\n0,0,1.0\n1,0,abc\n",
                id="samples-not-numeric",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples", "sample,index,value\n0,0,1.0\n",
                id="samples-one-row",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples",
                "sample,index,value\n0,0,1.0\n1,1,2.0\n2,0,3.0\n",
                id="samples-missing-cell",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples",
                "sample,index,value\n0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,4.0\n1,1,5.0\n",
                id="samples-repeated-cell",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples",
                "sample,index,value\n0,0,1.0\n1,0,2.0\n-1,0,3.0\n",
                id="samples-negative-sample",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples",
                "sample,index,value\n0,0,1.0\n1,0,2.0\n0,-1,3.0\n1,-1,4.0\n",
                id="samples-negative-index",
            ),
            # A short row used to end in an IndexError traceback (exit 1), and
            # a long one was read with its extra field ignored.
            pytest.param(
                "estimate-prior", "estimate.samples", "sample,index,value\n0,0,1.0\n1,0\n",
                id="samples-short-row",
            ),
            pytest.param(
                "estimate-prior", "estimate.samples",
                "sample,index,value\n0,0,1.0\n1,0,2.0,9\n",
                id="samples-long-row",
            ),
        ],
    )
    def test_bad_input_file_exits_2_naming_key(self, tmp_path, runner, command, key, contents):
        # A missing file used to end in a FileNotFoundError traceback (exit 1),
        # and an unreadable one, or a single sample, in a numerical failure
        # (exit 3).  A missing cell used to read as 0.0, a repeated one as its
        # last value and a negative one from the other end of its row or
        # column, each with exit 0.
        data = tmp_path / "input.txt"
        if contents is not None:
            data.write_text(contents)
        text = BASE_CONFIG.format(out=tmp_path / "out")
        if key == "prior.file":
            text = text.replace("l = 0.1", f"l = 0.1\nfile = {data}")
        else:
            text += f"\n[estimate]\nsamples = {data}\n"
        cfg = tmp_path / "in.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"config error: {key}" in result.output

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

    def test_eval_loss_pigdm_heuristic_rows_match_the_oracle(self, tmp_path, runner):
        # The published PiGDM weighting is g = 1 and r = sqrt(1 - ab) at every step.
        text = BASE_CONFIG.format(out=tmp_path / "ev").replace("optimize-k1", "pigdm-heuristic")
        cfg = tmp_path / "ev.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["eval-loss", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        rt = cli._Runtime(load_config(cfg), None, None)
        sched = rt.schedules[5]
        weights = WeightSchedule.pigdm(np.ones(5), np.sqrt(1.0 - sched.alpha_bar))
        triple = transfer_triple(weights, rt.prior, rt.spec, sched)
        rows = [r for r in (tmp_path / "ev" / "eval_loss.csv").read_text().splitlines()[4:] if r]
        observations = rt.observations()
        assert len(rows) == len(observations) == 2
        for row, obs in zip(rows, observations):
            name, S, K, loss, seed = row.split(",")
            assert (name, S, K, seed) == ("pigdm-heuristic", "5", "1", "7")
            out, post = output_distribution(triple, obs, rt.prior), true_posterior(rt.prior, rt.spec, obs)
            assert float(loss) == pytest.approx(w2_diag(out, post) ** 2, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "command, summary",
        [
            ("optimize", "Optimize weight schedules for each configured step count."),
            ("sweep-wasserstein", "Wasserstein-2 sweep: heuristics, optimized weights, and the ideal sampler."),
            ("simulate", "Monte-Carlo output statistics and realized heuristic weight profiles."),
            ("estimate-prior", "Estimate a stationary prior from a CSV of time-domain samples."),
            ("eval-loss", "Evaluate configured weight schedules against the exact posterior."),
        ],
    )
    def test_help_text(self, runner, command, summary):
        result = runner.invoke(main, [command, "--help"], prog_name="specdiff")
        assert result.exit_code == 0, result.output
        assert result.output == (
            f"Usage: specdiff {command} [OPTIONS]\n\n  {summary}\n\nOptions:\n"
            "  --out PATH      Output directory.\n"
            "  --seed INTEGER  Overrides the config seed.\n"
            "  --config PATH   [required]\n"
            "  --help          Show this message and exit.\n"
        )

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

    def test_eval_loss_reports_the_square_of_each_sweep_row(self, tmp_path, runner):
        # eval-loss once solved PiGDM from its default start only, while the
        # sweep also solved from the mapped DPS optimum: here eval-loss wrote
        # 0.0557 where the sweep's row squares to 0.0343.
        text = """\
[experiment]
seed = 0
[prior]
d = 18
l = 0.05
[degradation]
V = 0.5
sigma_y = 0.1
[schedule]
T = 200
S = 12
[sampler]
kind = pigdm
weight_source = optimize-k1
zeta_prime = 0.5
[run]
n_realizations = 1
n_runs = 50
"""

        def data_rows(path):
            return [line.split(",") for line in path.read_text().splitlines()[4:]]

        (tmp_path / "sweep.ini").write_text(text)
        args = ["--config", str(tmp_path / "sweep.ini"), "--out", str(tmp_path / "sweep")]
        result = runner.invoke(main, ["sweep-wasserstein", *args])
        assert result.exit_code == 0, result.output
        w2 = {method: float(v) for method, _, _, v in data_rows(tmp_path / "sweep" / "sweep.csv")}
        scored = set()
        sources = [("pigdm", "optimize-k1"), ("dps", "optimize-k1")]
        for kind, source in sources + [("pigdm", "heuristic"), ("pigdm", "ideal")]:
            cfg = tmp_path / f"{kind}-{source}.ini"
            cfg.write_text(text.replace("kind = pigdm", f"kind = {kind}").replace("optimize-k1", source))
            out = tmp_path / f"{kind}-{source}"
            result = runner.invoke(main, ["eval-loss", "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            rows = data_rows(out / "eval_loss.csv")
            assert len(rows) == 1, (kind, source)
            for method, S, K, loss, seed in rows:
                assert (S, K, seed) == ("12", "1", "0")
                np.testing.assert_allclose(float(loss), w2[method] ** 2, rtol=1e-15, err_msg=method)
                scored.add(method)
        assert scored == set(w2) == {"dps-heuristic-0.5", "dps-optimized", "pigdm-optimized", "ideal"}

    @pytest.mark.parametrize(
        "command, source, expected",
        [
            pytest.param(
                "optimize", "optimize-k1", ["dps S=5 realization=0", "dps S=5 realization=1"],
                id="optimize",
            ),
            pytest.param(
                "optimize", "optimize-averaged", ["dps S=5 realization=averaged"], id="optimize-averaged"
            ),
            pytest.param(
                "sweep-wasserstein", "optimize-k1",
                # DPS, then PiGDM from its default start and from the mapped DPS optimum.
                [f"{kind} S=5 realization={r}" for r in (0, 1) for kind in ("dps", "pigdm", "pigdm")],
                id="sweep",
            ),
            pytest.param(
                "eval-loss", "optimize-k1", ["dps S=5 realization=0", "dps S=5 realization=1"],
                id="eval-loss",
            ),
        ],
    )
    def test_failed_solves_reported_on_stderr(self, tmp_path, runner, command, source, expected):
        # Every solve stops at max_iters = 1, which L-BFGS-B reports as a
        # failure.  Such solves used to pass without a word.
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("max_iters = 60", "max_iters = 1")
        cfg = tmp_path / "stop.cfg"
        cfg.write_text(text.replace("optimize-k1", source).replace("T = 200", "T = 50"))
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        reached = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        assert result.stderr.splitlines() == [f"solve failed: {where}: {reached}" for where in expected]
        for path in (tmp_path / "out").glob("*.csv"):
            assert "solve failed" not in path.read_text()

    def test_failed_ladder_rungs_reported_on_stderr(self, tmp_path, runner):
        # A ladder once reported only the best solve of its final rung, so a
        # coarse rung that stopped at max_iters, or a losing start, passed
        # without a word.  The coarse rung solves from the default start; the
        # final rung from it and from the interpolated coarse solution.
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("S = 5", "S = 6").replace("T = 200", "T = 50")
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(text.replace("max_iters = 60", "max_iters = 1\nladder = 3 6"))
        result = runner.invoke(main, ["optimize", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        reached = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        expected = [f"dps S={S} realization={r}" for r in (0, 1) for S in (3, 6, 6)]
        assert result.stderr.splitlines() == [f"solve failed: {where}: {reached}" for where in expected]

    def test_ladder_rungs_are_cut_from_the_linear_table_bit_for_bit(self, tmp_path, runner, monkeypatch):
        # The command line cuts its schedules from the linear-beta table of
        # schedule.T, and every ladder rung is cut from that same table.
        rungs, solve = [], optimizer.optimize_weights

        def recorded(ctx, init, opts):
            rungs.append(ctx.schedule)
            return solve(ctx, init, opts)

        monkeypatch.setattr(optimizer, "optimize_weights", recorded)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("S = 5", "S = 9")
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(text.replace("max_iters = 60", "max_iters = 5\nladder = 3 6"))
        result = runner.invoke(main, ["optimize", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert [r.S for r in rungs] == [3, 6, 6, 9, 9] * 2
        full = linear_ddpm_schedule(200)
        for rung in rungs:
            assert rung.alpha_bar.tobytes() == ddim_subsequence(full, rung.S).alpha_bar.tobytes()
            assert rung.full.tobytes() == full.tobytes()

    def test_sweep_solves_both_samplers_on_the_ladder(self, tmp_path, runner, monkeypatch):
        # The sweep used to run the ladder for DPS only, and cold solves from
        # the default start for PiGDM.
        ladders, solves = [], []

        def ladder(ctx, opts, **kwargs):
            ladders.append((ctx.sampler_kind, opts.ladder))
            return iterative_ladder(ctx, opts, **kwargs)

        def solve(ctx, init, opts):
            solves.append((ctx.sampler_kind, init))
            return optimize_weights(ctx, init, opts)

        monkeypatch.setattr(cli, "iterative_ladder", ladder)
        monkeypatch.setattr(cli, "optimize_weights", solve)
        text = BASE_CONFIG.format(out=tmp_path / "out").replace("S = 5", "S = 6").replace("T = 200", "T = 50")
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(text.replace("max_iters = 60", "max_iters = 60\nladder = 3 6"))
        result = runner.invoke(main, ["sweep-wasserstein", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert ladders == [("dps", (3, 6)), ("pigdm", (3, 6))] * 2
        # Outside the ladder, PiGDM solves once more, from the mapped DPS optimum (r = 0).
        assert [kind for kind, _ in solves] == ["pigdm"] * 2
        assert all(np.all(init.r == 0) for _, init in solves)
        rows = [line.split(",") for line in (tmp_path / "out" / "sweep.csv").read_text().splitlines()[4:]]
        w2 = {(method, r): float(v) for method, _, r, v in rows}
        for r in ("0", "1"):
            assert w2[("pigdm-optimized", r)] <= w2[("dps-optimized", r)] * (1 + 1e-12)
