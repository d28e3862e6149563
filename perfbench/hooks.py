"""Hooks around the calls between specdiff's modules.

A hook replaces a module attribute that one module uses to call another
(``specdiff.optimizer.batch_loss`` is objective's loss as the optimizer sees
it), records a span or a count, and calls through.  ``installed`` restores
every attribute on exit.  A hook whose target attribute no longer exists
fails the run and names it, so a refactor cannot silently drop a layer.

Two sets of hooks exist:

* ``Counters`` counts operations and failures: one record per L-BFGS-B solve
  and per Monte-Carlo batch.  It also keeps every weight solution the CLI
  gets back, so the scorer can rescore it.  Timed runs install only these.
* ``Tracer`` adds spans (name, start, end, parent) at every site below and is
  installed for the traced run only.  Spans stay in memory until the run
  writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class HookError(Exception):
    """A hook target is missing from the package."""


@contextlib.contextmanager
def installed(replacements):
    """Install {(module, attribute): factory(original)} and restore on exit."""
    saved = []
    try:
        for (module_name, attr), factory in replacements.items():
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise HookError(f"hook target {module_name}.{attr} no longer exists")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _rows(thetas) -> int:
    return np.atleast_2d(np.asarray(thetas)).shape[0]


class Counters:
    """Operations attempted and failed: solves and Monte-Carlo batches."""

    def __init__(self):
        self.solves = 0
        self.failed_solves = 0
        self.batches = 0
        self.failed_batches = 0
        # (sampler kind, S, first observation's y_f or None, WeightSolution)
        self.solutions: list = []

    def capture(self, original):
        @functools.wraps(original)
        def hook(ctx, *args, **kwargs):
            solution = original(ctx, *args, **kwargs)
            y_f = ctx.observations[0].y_f if ctx.observations else None
            self.solutions.append((ctx.sampler_kind, ctx.schedule.S, y_f, solution))
            return solution

        return hook

    def minimize(self, original):
        @functools.wraps(original)
        def hook(*args, **kwargs):
            self.solves += 1
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.failed_solves += 1
                raise
            if not result.success:
                self.failed_solves += 1
            return result

        return hook

    def batch(self, original):
        @functools.wraps(original)
        def hook(*args, **kwargs):
            self.batches += 1
            try:
                return original(*args, **kwargs)
            except Exception:
                self.failed_batches += 1
                raise

        return hook

    def replacements(self) -> dict:
        return {
            ("specdiff.optimizer", "minimize"): self.minimize,
            ("specdiff.cli", "optimize_weights"): self.capture,
            ("specdiff.cli", "iterative_ladder"): self.capture,
            ("specdiff.cli", "monte_carlo"): self.batch,
            ("specdiff.cli", "heuristic_weight_profile"): self.batch,
        }


# Sites the Tracer wraps with a plain span: {(module, attribute): span name}.
# The span name's first part is the layer that does the work.
PLAIN_SPANS = {
    ("specdiff.cli", "load_config"): "config.load",
    ("specdiff.cli", "make_synthetic_prior"): "spectral.build",
    ("specdiff.cli", "make_lpf"): "spectral.build",
    ("specdiff.cli", "transfer_triple"): "transfer.triple",
    ("specdiff.cli", "ideal_triple"): "transfer.triple",
    ("specdiff.cli", "triple_realization_loss"): "objective.scalar_loss",
    ("specdiff.objective", "step_coeffs_scalar"): "schedule.coeff",
    ("specdiff.objective", "denoiser_coeffs"): "schedule.coeff",
    ("specdiff.simulator", "step_coeffs_scalar"): "schedule.coeff",
    ("specdiff.transfer", "step_coeffs"): "schedule.coeff",
}

# Serialize writers the CLI calls, with the position of their path argument.
WRITERS = {"write_csv": 0, "profile_to_csv": 1, "runstats_to_csv": 1}


class Tracer(Counters):
    """Counters plus spans and per-layer work counts."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.count = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, original, before=None, after=None):
        """Span around original.

        before(args, kwargs) runs ahead of the span and returns a state that
        after(state, args) receives once the call has returned or raised.
        """
        nid = self._id(name)

        @functools.wraps(original)
        def hook(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            idx = self._open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)
                if after is not None:
                    after(state, args)

        return hook

    def batch_loss(self, original):
        def before(args, kwargs):
            rows = _rows(args[1] if len(args) > 1 else kwargs["thetas"])
            self.count["loss_rows"] += rows
            if rows == 1:
                self.count["single_row_losses"] += 1

        return self.wrap("objective.loss", original, before)

    def batch_triples(self, original):
        def before(args, kwargs):
            names = ("kind", "thetas", "prior", "spec", "sched")
            bound = {**dict(zip(names, args)), **kwargs}
            self.count["compose_bin_steps"] += _rows(bound["thetas"]) * bound["sched"].S * bound["prior"].dim

        return self.wrap("objective.compose", original, before)

    def minimize(self, original):
        counted = Counters.minimize(self, original)

        def rows_before(args, kwargs):
            return self.count["loss_rows"]

        def rows_after(rows0, args):
            self.count["grad_rows"] += self.count["loss_rows"] - rows0

        @functools.wraps(original)
        def hook(fun, x0, *args, **kwargs):
            if callable(kwargs.get("jac")):
                kwargs["jac"] = self.wrap("optimizer.grad", kwargs["jac"], rows_before, rows_after)
            if kwargs.get("callback") is not None:
                kwargs["callback"] = self.wrap("optimizer.callback", kwargs["callback"])
            with self.span("optimizer.solve"):
                result = counted(self.wrap("optimizer.fun", fun), x0, *args, **kwargs)
            self.count["iterations"] += int(result.nit)
            return result

        return hook

    def sim_batch(self, name: str, cfg_pos: int):
        """Monte-Carlo batch hook, split by the batch's guidance kind."""

        def before(args, kwargs):
            cfg = args[cfg_pos]
            kind = {"none": "none", "dps-heuristic": "heuristic"}.get(cfg.guidance.kind, cfg.guidance.kind)
            self.count[f"traj_steps.{kind}"] += cfg.n_runs * cfg.schedule.S
            return kind, time.perf_counter()

        def after(state, args):
            kind, start = state
            self.count[f"sim_s.{kind}"] += time.perf_counter() - start

        return lambda original: self.wrap(name, Counters.batch(self, original), before, after)

    def writer(self, path_pos: int):
        def after(state, args):
            self.count["bytes_written"] += os.path.getsize(args[path_pos])

        return lambda original: self.wrap("serialize.write", original, after=after)

    def replacements(self) -> dict:
        out = {key: functools.partial(self.wrap, name) for key, name in PLAIN_SPANS.items()}
        out[("specdiff.optimizer", "batch_loss")] = self.batch_loss
        out[("specdiff.optimizer", "minimize")] = self.minimize
        out[("specdiff.objective", "batch_triples")] = self.batch_triples
        out[("specdiff.cli", "optimize_weights")] = self.capture
        out[("specdiff.cli", "iterative_ladder")] = lambda original: self.wrap("optimizer.ladder", self.capture(original))
        out[("specdiff.cli", "monte_carlo")] = self.sim_batch("simulator.stats", 0)
        out[("specdiff.cli", "heuristic_weight_profile")] = self.sim_batch("simulator.profile", 1)
        for attr, pos in WRITERS.items():
            out[("specdiff.cli", attr)] = self.writer(pos)
        return out

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Span count and summed duration per span name; 0 for names never seen."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        n = len(self.names)
        counts = np.bincount(ids, minlength=n)
        secs = np.bincount(ids, weights=dur, minlength=n)
        calls, busy = defaultdict(int), defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name], busy[name] = int(counts[i]), float(secs[i])
        return calls, busy

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_passes: int, overhead_frac: float) -> dict:
    """Per-layer metric values, per pass, from the spans and counts of n_passes."""
    c, s = tracer.totals()
    k = tracer.count
    sim_steps = sum(v for key, v in k.items() if key.startswith("traj_steps."))
    total = {
        "schedule.coeff_calls": c["schedule.coeff"],
        "schedule.coeff_s": s["schedule.coeff"],
        "transfer.triple_calls": c["transfer.triple"],
        "transfer.triple_s": s["transfer.triple"],
        "objective.loss_calls": c["objective.loss"],
        "objective.loss_rows": k["loss_rows"],
        "objective.loss_s": s["objective.loss"],
        "objective.compose_calls": c["objective.compose"],
        "objective.compose_bin_steps": k["compose_bin_steps"],
        "objective.compose_s": s["objective.compose"],
        "objective.scalar_loss_calls": c["objective.scalar_loss"],
        "objective.scalar_loss_s": s["objective.scalar_loss"],
        "optimizer.solves": c["optimizer.solve"],
        "optimizer.failed_solves": tracer.failed_solves,
        "optimizer.iterations": k["iterations"],
        "optimizer.fun_calls": c["optimizer.fun"],
        "optimizer.grad_calls": c["optimizer.grad"],
        "optimizer.callback_calls": c["optimizer.callback"],
        "optimizer.solve_s": s["optimizer.solve"],
        "optimizer.fun_s": s["optimizer.fun"],
        "optimizer.grad_s": s["optimizer.grad"],
        "optimizer.callback_s": s["optimizer.callback"],
        "optimizer.lbfgs_self_s": s["optimizer.solve"] - s["optimizer.fun"] - s["optimizer.grad"] - s["optimizer.callback"],
        "optimizer.ladder_s": s["optimizer.ladder"],
        "simulator.batches": c["simulator.profile"] + c["simulator.stats"],
        "simulator.failed_batches": tracer.failed_batches,
        "simulator.traj_steps": sim_steps,
        "simulator.s": s["simulator.profile"] + s["simulator.stats"],
        "simulator.profile_s": s["simulator.profile"],
        "simulator.stats_s": s["simulator.stats"],
        "serialize.writes": c["serialize.write"],
        "serialize.bytes": k["bytes_written"],
        "serialize.s": s["serialize.write"],
        "cli.sweep-wasserstein.s": s["cli.sweep-wasserstein"],
        "cli.optimize.s": s["cli.optimize"],
        "cli.simulate.s": s["cli.simulate"],
        "config.load_s": s["config.load"],
        "spectral.build_s": s["spectral.build"],
    }
    out = {name: value / n_passes for name, value in total.items()}
    out["objective.compose_ns_per_bin_step"] = _ratio(s["objective.compose"], k["compose_bin_steps"], 1e9)
    out["optimizer.grad_rows_per_call"] = _ratio(k["grad_rows"], c["optimizer.grad"])
    # Loss evaluations L-BFGS-B asked for, over every single-row evaluation
    # (the trace callback and the starting point evaluate the loss again).
    out["optimizer.useful_eval_frac"] = _ratio(c["optimizer.fun"], k["single_row_losses"])
    for kind in ("none", "heuristic"):
        out[f"simulator.{kind}.ns_per_traj_step"] = _ratio(k[f"sim_s.{kind}"], k[f"traj_steps.{kind}"], 1e9)
    out["trace.overhead_frac"] = overhead_frac
    return {name: float(value) for name, value in out.items()}
