"""Experiment driver: reproducible runs writing CSV artifacts.

Every command maps (config, seed) deterministically to bytes on disk; each
output carries a comment header with the tool version, the config hash, and
the seed.  Exit codes: 0 on success, 2 for configuration errors, 3 for
numerical failures.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .objective import LossContext, triple_realization_loss
from .optimizer import (
    OptimizeOptions,
    default_init,
    iterative_ladder,
    optimize_weights,
    pigdm_from_dps,
)
from .schedule import ddim_subsequence, linear_ddpm_schedule
from .serialize import (
    prior_from_file,
    prior_to_file,
    profile_to_csv,
    read_samples_csv,
    runstats_to_csv,
    write_csv,
)
from .simulator import (
    Guidance,
    SimConfig,
    _require_stat_runs,
    heuristic_weight_profile,
    monte_carlo,
)
from .spectral import (
    Observation,
    degrade,
    estimate_spectral_prior,
    make_lpf,
    make_synthetic_prior,
    sample_prior,
)
from .transfer import (
    PIGDM,
    WeightSchedule,
    ideal_triple,
    pigdm_heuristic_weights,
    transfer_triple,
)

_OBS_TAG = 101
_SIM_TAG = 202


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _config_value(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError re-raised as a ConfigError naming key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


class _Runtime:
    """Resolved configuration plus the derived model objects."""

    def __init__(self, cfg: ExperimentConfig, seed: int | None, out: str | None):
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        _config_value("experiment.seed", np.random.SeedSequence, self.seed)
        self.out = Path(out if out is not None else cfg.out)
        if cfg.prior_file:
            self.prior = prior_from_file(cfg.prior_file)
        else:
            self.prior = make_synthetic_prior(cfg.prior_d, cfg.prior_l, cfg.prior_mu_const)
        self.spec = _config_value("degradation.V", make_lpf, self.prior.dim, cfg.V, cfg.sigma_y)
        full = _config_value("schedule.T", linear_ddpm_schedule, cfg.T)
        self.schedules = {
            S: _config_value("schedule.S", ddim_subsequence, full, S) for S in cfg.S_list
        }
        try:
            self.opts = OptimizeOptions(
                bounds=cfg.bounds,
                max_iters=cfg.max_iters,
                f_tol=cfg.f_tol,
                ladder=cfg.ladder,
                keep_dims=cfg.keep_dims,
            )
        except ValueError as exc:
            # Each message opens with the option's name, which is its sampler key.
            raise ConfigError(f"sampler.{exc}") from exc

    def header(self) -> dict:
        return {
            "tool_version": __version__,
            "config_hash": self.cfg.config_hash,
            "seed": self.seed,
        }

    def observations(self) -> list[Observation]:
        if self.cfg.n_realizations < 1:
            raise ConfigError("run.n_realizations: must be at least 1")
        obs = []
        for r in range(self.cfg.n_realizations):
            rng = _rng(self.seed, _OBS_TAG, r)
            x0 = sample_prior(self.prior, rng)
            obs.append(degrade(x0, self.spec, rng))
        return obs

    def solve(self, ctx: LossContext):
        opts = self.opts
        if opts.ladder:
            ladder = tuple(r for r in opts.ladder if r < ctx.schedule.S) + (ctx.schedule.S,)
            return iterative_ladder(ctx, replace(opts, ladder=ladder))
        return optimize_weights(ctx, default_init(ctx), opts)

    def sim_seed(self, tag: int) -> int:
        """Monte-Carlo seed of the batch with the given tag."""
        return int(np.random.SeedSequence([self.seed, _SIM_TAG, tag]).generate_state(1)[0])

    def sim_config(self, S: int, guidance: Guidance, tag: int) -> SimConfig:
        return SimConfig(
            prior=self.prior,
            spec=self.spec,
            schedule=self.schedules[S],
            guidance=guidance,
            n_runs=self.cfg.n_runs,
            seed=self.sim_seed(tag),
        )

    def heuristic_guidance(self, zeta_prime: float) -> Guidance:
        return Guidance.dps_heuristic(zeta_prime, cap=max(abs(b) for b in self.cfg.bounds))

    def weights_loss(self, weights: WeightSchedule, sched, obs: Observation) -> float:
        """Squared W2 of a fixed weight schedule on one observation."""
        triple = transfer_triple(weights, self.prior, self.spec, sched)
        return triple_realization_loss(triple, self.prior, self.spec, obs)

    def heuristic_losses(self, S: int, r: int, obs: Observation) -> list[tuple[str, float]]:
        """(method, squared W2) of each zeta' heuristic on observation r.

        The realized weights of a Monte-Carlo batch, averaged per step, give
        the DPS schedule that is then scored in closed form.
        """
        out = []
        for zi, zp in enumerate(self.cfg.zeta_primes):
            sim = self.sim_config(S, self.heuristic_guidance(zp), (S * 1000 + r) * 10 + zi)
            zetas = heuristic_weight_profile(zp, sim, obs)
            loss = self.weights_loss(WeightSchedule.dps(zetas.mean(axis=1)), sim.schedule, obs)
            out.append((f"dps-heuristic-{zp:g}", loss))
        return out

    def ideal_loss(self, sched, obs: Observation) -> float:
        """Squared W2 of the MAP-denoiser sampler on one observation."""
        triple = ideal_triple(self.prior, self.spec, sched)
        return triple_realization_loss(triple, self.prior, self.spec, obs)


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path())(fn)
    fn = click.option("--seed", type=int, default=None, help="Overrides the config seed.")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output directory.")(fn)
    return fn


def _load_runtime(config_path, seed, out) -> _Runtime:
    cfg = load_config(config_path)
    rt = _Runtime(cfg, seed, out)
    rt.out.mkdir(parents=True, exist_ok=True)
    return rt


@click.group()
@click.version_option(__version__)
def main():
    """Spectral analysis and weight optimization for guided DDIM samplers."""


def _cli_command(fn):
    """Shared error handling: config errors exit 2, numerical failures exit 3."""

    def wrapper(config_path, seed, out, **kwargs):
        try:
            fn(_load_runtime(config_path, seed, out), **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@main.command("optimize")
@_common_options
@_cli_command
def cmd_optimize(rt: _Runtime):
    """Optimize weight schedules for each configured step count."""
    cfg = rt.cfg
    if cfg.weight_source not in ("optimize-k1", "optimize-averaged"):
        raise ConfigError(
            f"optimize needs sampler.weight_source = optimize-k1 or optimize-averaged, "
            f"not {cfg.weight_source}"
        )
    averaged = cfg.weight_source == "optimize-averaged"
    observations = None if averaged else rt.observations()
    loss_rows = []

    for S in sorted(cfg.S_list):
        sched = rt.schedules[S]
        sols = [
            rt.solve(LossContext(rt.prior, rt.spec, sched, cfg.sampler_kind, obs))
            for obs in ([None] if averaged else [(o,) for o in observations])
        ]
        fields = ("g", "r") if cfg.sampler_kind == PIGDM else ("zeta",)
        stacks = [
            (f"{f}_r{k}", getattr(sol.weights, f)) for k, sol in enumerate(sols) for f in fields
        ]
        if len(sols) > 1:
            for f in fields:
                vecs = np.stack([getattr(sol.weights, f) for sol in sols])
                prefix = "" if f == "zeta" else f"{f}_"
                stacks += [(f"{prefix}mean", vecs.mean(0)), (f"{prefix}std", vecs.std(0))]
        cols = ["s"] + [name for name, _ in stacks]
        rows = [
            tuple([s + 1] + [float(vec[s]) for _, vec in stacks])
            for s in range(sched.S)
        ]
        write_csv(rt.out / f"weights_S{S}.csv", cols, rows, rt.header())
        for k, sol in enumerate(sols):
            loss_rows.append(
                (cfg.sampler_kind, S, 0 if averaged else 1, sol.final_loss, rt.seed)
            )
    write_csv(rt.out / "losses.csv", ["sampler", "S", "K", "loss", "seed"], loss_rows, rt.header())
    click.echo(f"wrote {len(cfg.S_list)} weight files to {rt.out}")


@main.command("sweep-wasserstein")
@_common_options
@_cli_command
def cmd_sweep_wasserstein(rt: _Runtime):
    """Wasserstein-2 sweep: heuristics, optimized weights, and the ideal sampler."""
    cfg = rt.cfg
    observations = rt.observations()

    def rows_for(S: int, r: int):
        sched = rt.schedules[S]
        obs = observations[r]
        rows = [
            (method, S, r, float(np.sqrt(loss))) for method, loss in rt.heuristic_losses(S, r, obs)
        ]
        dps_ctx = LossContext(rt.prior, rt.spec, sched, "dps", (obs,))
        dps_sol = rt.solve(dps_ctx)
        rows.append(("dps-optimized", S, r, float(np.sqrt(dps_sol.final_loss))))
        # The PiGDM family contains every DPS schedule (g = 2 sigma^2 zeta,
        # r = 0), so the mapped DPS optimum is a second warm start the PiGDM
        # solve can only improve on; keep the better of the two basins.
        pig_ctx = LossContext(rt.prior, rt.spec, sched, "pigdm", (obs,))
        pig_inits = [default_init(pig_ctx)]
        if rt.spec.sigma_y > 0:
            pig_inits.append(pigdm_from_dps(dps_sol.weights.zeta, rt.spec.sigma_y))
        pig_sol = min(
            (optimize_weights(pig_ctx, init, rt.opts) for init in pig_inits),
            key=lambda sol: sol.final_loss,
        )
        rows.append(("pigdm-optimized", S, r, float(np.sqrt(pig_sol.final_loss))))
        rows.append(("ideal", S, r, float(np.sqrt(rt.ideal_loss(sched, obs)))))
        return rows

    all_rows = [row for S in cfg.S_list for r in range(cfg.n_realizations) for row in rows_for(S, r)]
    all_rows.sort(key=lambda row: (row[1], row[2], row[0]))
    write_csv(rt.out / "sweep.csv", ["method", "S", "realization", "w2"], all_rows, rt.header())
    click.echo(f"wrote {len(all_rows)} sweep rows to {rt.out / 'sweep.csv'}")


@main.command("simulate")
@_common_options
@_cli_command
def cmd_simulate(rt: _Runtime):
    """Monte-Carlo output statistics and realized heuristic weight profiles."""
    cfg = rt.cfg
    obs = rt.observations()[0]
    _config_value("run.n_runs", _require_stat_runs, cfg.n_runs)
    for S in cfg.S_list:
        if cfg.guidance == "heuristic":
            # One batch gives both outputs: the realized weights for the
            # profile and the output moments for the statistics.
            for zi, zp in enumerate(cfg.zeta_primes):
                stats = monte_carlo(rt.sim_config(S, rt.heuristic_guidance(zp), S * 10 + zi), obs)
                profile_path = rt.out / f"profile_S{S}_zp{zp:g}.csv"
                profile_to_csv(stats.per_step_zeta, profile_path, rt.header())
                runstats_to_csv(stats, rt.out / f"stats_S{S}_zp{zp:g}.csv", rt.header())
        else:
            guide = Guidance.optimal() if cfg.guidance == "optimal" else Guidance.none()
            stats = monte_carlo(rt.sim_config(S, guide, S), obs)
            runstats_to_csv(stats, rt.out / f"stats_S{S}.csv", rt.header())
    click.echo(f"wrote simulation outputs to {rt.out}")


@main.command("estimate-prior")
@_common_options
@_cli_command
def cmd_estimate_prior(rt: _Runtime):
    """Estimate a stationary prior from a CSV of time-domain samples."""
    if not rt.cfg.samples_file:
        raise ConfigError("estimate.samples must point to a sample CSV")
    samples = read_samples_csv(rt.cfg.samples_file)
    prior = estimate_spectral_prior(samples)
    out_path = rt.out / f"{rt.cfg.name}_prior.txt"
    prior_to_file(prior, out_path)
    click.echo(f"wrote estimated prior ({prior.dim} bins) to {out_path}")


@main.command("eval-loss")
@_common_options
@_cli_command
def cmd_eval_loss(rt: _Runtime):
    """Evaluate configured weight schedules against the exact posterior."""
    cfg = rt.cfg
    if cfg.weight_source == "optimize-averaged":
        raise ConfigError(
            "eval-loss scores each realization on its own; "
            "sampler.weight_source = optimize-averaged is only supported by optimize"
        )
    observations = rt.observations()
    rows = []
    for S in cfg.S_list:
        sched = rt.schedules[S]
        for r, obs in enumerate(observations):
            if cfg.weight_source == "ideal":
                rows.append(("ideal", S, 1, rt.ideal_loss(sched, obs), rt.seed))
            elif cfg.weight_source == "pigdm-heuristic":
                loss = rt.weights_loss(pigdm_heuristic_weights(sched), sched, obs)
                rows.append(("pigdm-heuristic", S, 1, loss, rt.seed))
            elif cfg.weight_source == "heuristic":
                losses = rt.heuristic_losses(S, r, obs)
                rows += [(method, S, 1, loss, rt.seed) for method, loss in losses]
            else:
                ctx = LossContext(rt.prior, rt.spec, sched, cfg.sampler_kind, (obs,))
                sol = rt.solve(ctx)
                rows.append((f"{cfg.sampler_kind}-optimized", S, 1, sol.final_loss, rt.seed))
    write_csv(rt.out / "eval_loss.csv", ["sampler", "S", "K", "loss", "seed"], rows, rt.header())
    click.echo(f"wrote {len(rows)} loss rows to {rt.out / 'eval_loss.csv'}")


if __name__ == "__main__":
    main()
