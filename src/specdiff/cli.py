"""Experiment driver: reproducible runs writing CSV artifacts.

Every command maps (config, seed) deterministically to bytes on disk; each
output carries a comment header with the tool version, the config hash, and
the seed.  Exit codes: 0 on success, 2 for configuration errors, 3 for
numerical failures.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .objective import LossContext, triple_realization_loss
from .optimizer import (
    OptimizeOptions,
    WeightSolution,
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
    DPS,
    FAMILIES,
    PIGDM,
    WeightSchedule,
    ideal_triple,
    pigdm_heuristic_weights,
    transfer_triple,
)

_OBS_TAG = 101
_SIM_TAG = 202
_SWEEP_METHODS = ("heuristic", "dps-optimized", "pigdm-optimized", "ideal")


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _config_value(key: str, build, *args, **kwargs):
    """build(*args, **kwargs); its ValueError or OSError becomes a ConfigError naming key."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


class _Runtime:
    """Resolved configuration plus the derived model objects."""

    def __init__(self, cfg: ExperimentConfig, seed: int | None, out: str | None):
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        _config_value("experiment.seed", np.random.SeedSequence, self.seed)
        self.out = Path(out if out is not None else cfg.out)
        named = {}
        for zp in cfg.zeta_primes:
            _config_value("sampler.zeta_prime", Guidance.dps_heuristic, zp)
            # Outputs name a zeta' by {zp:g}, so two values must not share it.
            other = named.setdefault(f"{zp:g}", zp)
            if other != zp:
                raise ConfigError(
                    f"sampler.zeta_prime: {other!r} and {zp!r} share the output name {zp:g}"
                )
        if cfg.prior_file:
            self.prior = _config_value("prior.file", prior_from_file, cfg.prior_file)
        else:
            try:
                self.prior = make_synthetic_prior(cfg.prior_d, cfg.prior_l, cfg.prior_mu_const)
            except ValueError as exc:
                # Each message opens with the argument's name, which is its prior key.
                raise ConfigError(f"prior.{exc}") from exc
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
                # An empty ladder (sampler.ladder = ,) is the cold start.
                ladder=cfg.ladder or None,
                keep_dims=cfg.keep_dims,
            )
        except ValueError as exc:
            # Each message opens with the option's name, which is its sampler key.
            raise ConfigError(f"sampler.{exc}") from exc

    def require_posterior(self, kind: str | None = None) -> None:
        """Refuse a model, or the box of a solve of kind, on which the losses are undefined.

        Every loss and the ideal sampler divide by lambda |h|^2 + sigma^2,
        which a noiseless model zeroes on each bin where the operator or the
        prior does.  A solve of kind needs room in its family's box (PiGDM's r >= 0),
        and PiGDM divides by r^2 |h|^2 + sigma^2, which then only r = 0 zeroes.
        """
        sigma_y = self.spec.sigma_y
        lam_h2 = self.prior.lambda0 * np.abs(self.spec.lambda_h) ** 2
        zeroed = np.flatnonzero(lam_h2 + sigma_y**2 == 0)
        if zeroed.size:
            raise ConfigError(
                f"degradation.sigma_y = {sigma_y:g} leaves the posterior undefined "
                f"on bins {', '.join(map(str, zeroed))}, where lambda |h|^2 = 0"
            )
        if kind is not None:
            lower, _ = _config_value("sampler.bounds", FAMILIES[kind].box, 1, self.opts.bounds)
            if kind == PIGDM and sigma_y == 0 and lower[-1] == 0:  # the least r
                raise ConfigError(
                    "degradation.sigma_y = 0 makes PiGDM's likelihood covariance "
                    "r^2 |h|^2 + sigma^2 singular at r = 0, which sampler.bounds allows"
                )

    def header(self) -> dict:
        return {
            "tool_version": __version__,
            "config_hash": self.cfg.config_hash,
            "seed": self.seed,
        }

    def observations(self) -> list[Observation]:
        obs = []
        for r in range(self.cfg.n_realizations):
            rng = _rng(self.seed, _OBS_TAG, r)
            x0 = sample_prior(self.prior, rng)
            obs.append(degrade(x0, self.spec, rng))
        return obs

    def solve(self, ctx: LossContext, *extra_starts: WeightSchedule, realization: int) -> WeightSolution:
        """The best of the configured route and one solve from each extra start.

        The configured route is ``iterative_ladder``'s: up the config's
        ladder, or without one a solve from the default start.  Each solve
        that L-BFGS-B reports as failed, ladder rungs included, prints one
        line to stderr naming its S and the context's realization, or
        "averaged" for the loss averaged over the measurement law.
        """
        label = realization if ctx.observations else "averaged"

        def report(S: int, sol: WeightSolution) -> WeightSolution:
            if not sol.success:
                where = f"{ctx.sampler_kind} S={S} realization={label}"
                click.echo(f"solve failed: {where}: {sol.message}", err=True)
            return sol

        sols = [iterative_ladder(ctx, self.opts, on_solve=report)]
        sols += [report(ctx.schedule.S, optimize_weights(ctx, x, self.opts)) for x in extra_starts]
        return min(sols, key=lambda sol: sol.final_loss)

    def sim_seed(self, tag: int) -> int:
        """Monte-Carlo seed of the batch with the given tag."""
        return int(np.random.SeedSequence([self.seed, _SIM_TAG, tag]).generate_state(1)[0])

    def zeta_tag(self, group: int, zi: int) -> int:
        """Seed tag of the batch of zeta' number zi in the batch group tagged group.

        Mixed radix: the zeta' digit is as wide as the config's zeta' list,
        so distinct (group, zi) never share a tag.  It is at least 10 wide,
        the fixed decimal digit it once was, so every config with at most ten
        zeta' values keeps its seeds.
        """
        return group * max(10, len(self.cfg.zeta_primes)) + zi

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

    def losses(self, S: int, r: int, obs: Observation, methods) -> list[tuple[str, float]]:
        """(method, squared W2) on observation r at S of each method asked for.

        Methods are named as weight sources: "heuristic" (a row
        "dps-heuristic-<zeta'>" per zeta', scoring the per-step mean of the
        weights its Monte-Carlo batch realizes), "pigdm-heuristic",
        "dps-optimized", "pigdm-optimized" and "ideal".  PiGDM also solves from
        the mapped DPS optimum, since its family holds every DPS schedule
        (g = 2 sigma^2 zeta, r = 0).
        """
        prior, spec, sched = self.prior, self.spec, self.schedules[S]
        weights = []
        if "heuristic" in methods:
            # The realization digit is at least 1000 wide, as the zeta' digit is 10.
            group = S * max(1000, self.cfg.n_realizations) + r
            for zi, zp in enumerate(self.cfg.zeta_primes):
                sim = self.sim_config(S, self.heuristic_guidance(zp), self.zeta_tag(group, zi))
                zeta = heuristic_weight_profile(zp, sim, obs).mean(axis=1)
                weights.append((f"dps-heuristic-{zp:g}", WeightSchedule.dps(zeta)))
        if "pigdm-heuristic" in methods:
            weights.append(("pigdm-heuristic", pigdm_heuristic_weights(sched)))
        triples = [(method, transfer_triple(w, prior, spec, sched)) for method, w in weights]
        if "ideal" in methods:
            triples.append(("ideal", ideal_triple(prior, spec, sched)))
        rows = [(method, triple_realization_loss(t, prior, spec, obs)) for method, t in triples]
        mapped = []
        if "dps-optimized" in methods or ("pigdm-optimized" in methods and spec.sigma_y > 0):
            dps = self.solve(LossContext(prior, spec, sched, DPS, (obs,)), realization=r)
            if "dps-optimized" in methods:
                rows.append(("dps-optimized", dps.final_loss))
            if spec.sigma_y > 0:
                mapped = [pigdm_from_dps(dps.weights.zeta, spec.sigma_y)]
        if "pigdm-optimized" in methods:
            pig = self.solve(LossContext(prior, spec, sched, PIGDM, (obs,)), *mapped, realization=r)
            rows.append(("pigdm-optimized", pig.final_loss))
        return rows


@click.group()
@click.version_option(__version__)
def main():
    """Spectral analysis and weight optimization for guided DDIM samplers."""


def _command(name: str):
    """Register fn(rt) as the command name, which takes --config, --seed and --out.

    The command runs fn on the ``_Runtime`` of the loaded config; config
    errors exit 2 and numerical failures exit 3.
    """

    def register(fn):
        @main.command(name, help=fn.__doc__)
        @click.option("--out", type=click.Path(), default=None, help="Output directory.")
        @click.option("--seed", type=int, default=None, help="Overrides the config seed.")
        @click.option("--config", "config_path", required=True, type=click.Path())
        def command(config_path, seed, out):
            try:
                fn(_Runtime(load_config(config_path), seed, out))
            except ConfigError as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(2)
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(3)

        return command

    return register


@_command("optimize")
def cmd_optimize(rt: _Runtime):
    """Optimize weight schedules for each configured step count."""
    cfg = rt.cfg
    if cfg.weight_source not in ("optimize-k1", "optimize-averaged"):
        raise ConfigError(
            f"optimize needs sampler.weight_source = optimize-k1 or optimize-averaged, "
            f"not {cfg.weight_source}"
        )
    rt.require_posterior(cfg.sampler_kind)
    averaged = cfg.weight_source == "optimize-averaged"
    observations = None if averaged else rt.observations()
    loss_rows = []

    for S in sorted(cfg.S_list):
        sched = rt.schedules[S]
        sols = [
            rt.solve(LossContext(rt.prior, rt.spec, sched, cfg.sampler_kind, obs), realization=k)
            for k, obs in enumerate([None] if averaged else [(o,) for o in observations])
        ]
        fields = FAMILIES[cfg.sampler_kind].fields
        stacks = [
            (f"{f}_r{k}", getattr(sol.weights, f)) for k, sol in enumerate(sols) for f in fields
        ]
        if len(sols) > 1:
            for f in fields:
                vecs = np.stack([getattr(sol.weights, f) for sol in sols])
                prefix = f"{f}_" if len(fields) > 1 else ""
                stacks += [(f"{prefix}mean", vecs.mean(0)), (f"{prefix}std", vecs.std(0))]
        cols = ["s"] + [name for name, _ in stacks]
        rows = [
            tuple([s + 1] + [float(vec[s]) for _, vec in stacks])
            for s in range(sched.S)
        ]
        write_csv(rt.out / f"weights_S{S}.csv", cols, rows, rt.header())
        loss_rows += [(cfg.sampler_kind, S, 0 if averaged else 1, sol.final_loss, rt.seed) for sol in sols]
    write_csv(rt.out / "losses.csv", ["sampler", "S", "K", "loss", "seed"], loss_rows, rt.header())
    click.echo(f"wrote {len(cfg.S_list)} weight files to {rt.out}")


@_command("sweep-wasserstein")
def cmd_sweep_wasserstein(rt: _Runtime):
    """Wasserstein-2 sweep: heuristics, optimized weights, and the ideal sampler."""
    rt.require_posterior(PIGDM)
    observations = rt.observations()
    all_rows = [
        (method, S, r, float(np.sqrt(loss)))
        for S in rt.cfg.S_list
        for r, obs in enumerate(observations)
        for method, loss in rt.losses(S, r, obs, _SWEEP_METHODS)
    ]
    all_rows.sort(key=lambda row: (row[1], row[2], row[0]))
    write_csv(rt.out / "sweep.csv", ["method", "S", "realization", "w2"], all_rows, rt.header())
    click.echo(f"wrote {len(all_rows)} sweep rows to {rt.out / 'sweep.csv'}")


@_command("simulate")
def cmd_simulate(rt: _Runtime):
    """Monte-Carlo output statistics and realized heuristic weight profiles."""
    cfg = rt.cfg
    obs = rt.observations()[0]
    _config_value("run.n_runs", _require_stat_runs, cfg.n_runs)
    if cfg.guidance == "optimal":
        rt.require_posterior()
    for S in cfg.S_list:
        if cfg.guidance == "heuristic":
            # One batch gives both outputs: the realized weights for the
            # profile and the output moments for the statistics.
            for zi, zp in enumerate(cfg.zeta_primes):
                sim = rt.sim_config(S, rt.heuristic_guidance(zp), rt.zeta_tag(S, zi))
                stats = monte_carlo(sim, obs)
                profile_path = rt.out / f"profile_S{S}_zp{zp:g}.csv"
                profile_to_csv(stats.per_step_zeta, profile_path, rt.header())
                runstats_to_csv(stats, rt.out / f"stats_S{S}_zp{zp:g}.csv", rt.header())
        else:
            guide = Guidance.optimal() if cfg.guidance == "optimal" else Guidance.none()
            stats = monte_carlo(rt.sim_config(S, guide, S), obs)
            runstats_to_csv(stats, rt.out / f"stats_S{S}.csv", rt.header())
    click.echo(f"wrote simulation outputs to {rt.out}")


@_command("estimate-prior")
def cmd_estimate_prior(rt: _Runtime):
    """Estimate a stationary prior from a CSV of time-domain samples."""
    if not rt.cfg.samples_file:
        raise ConfigError("estimate.samples must point to a sample CSV")
    samples = _config_value("estimate.samples", read_samples_csv, rt.cfg.samples_file)
    prior = _config_value("estimate.samples", estimate_spectral_prior, samples)
    out_path = rt.out / f"{rt.cfg.name}_prior.txt"
    prior_to_file(prior, out_path)
    click.echo(f"wrote estimated prior ({prior.dim} bins) to {out_path}")


@_command("eval-loss")
def cmd_eval_loss(rt: _Runtime):
    """Evaluate configured weight schedules against the exact posterior."""
    cfg = rt.cfg
    if cfg.weight_source == "optimize-averaged":
        raise ConfigError(
            "eval-loss scores each realization on its own; "
            "sampler.weight_source = optimize-averaged is only supported by optimize"
        )
    method = f"{cfg.sampler_kind}-optimized" if cfg.weight_source == "optimize-k1" else cfg.weight_source
    rt.require_posterior(cfg.sampler_kind if cfg.weight_source == "optimize-k1" else None)
    observations = rt.observations()
    rows = [
        (name, S, 1, loss, rt.seed)
        for S in cfg.S_list
        for r, obs in enumerate(observations)
        for name, loss in rt.losses(S, r, obs, {method})
    ]
    write_csv(rt.out / "eval_loss.csv", ["sampler", "S", "K", "loss", "seed"], rows, rt.header())
    click.echo(f"wrote {len(rows)} loss rows to {rt.out / 'eval_loss.csv'}")


if __name__ == "__main__":
    main()
