"""Run one benchmark workload against the specdiff CLI and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The run first times SETUP_PROBES fresh-interpreter set-ups (import the CLI,
parse the workload's first config, build the prior, LPF and schedules).  It
then runs the workload's CLI commands in this process, back to back, as one
pass, and repeats passes while another one fits in --seconds (at least one).
Every pass is scored by ``score.py`` and must write the same bytes as the
first.  With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 each unit of work is an untraced pass
followed by a traced pass of the same inputs, and the JSON holds the
per-layer metrics of the traced passes.  Outputs and the run record go to
.perfbench/<workload>/ in the checkout.

Exit status: 0 with a result line (``correct`` false if an output check
failed), 2 without one when the checkout holds no specdiff sources, a hook
target is gone, or the metrics differ from those BENCHMARK.json names.
"""

from __future__ import annotations

import os

# BLAS and OpenMP thread pools are fixed to one thread before numpy loads, in
# this process and the set-up probes.  OpenBLAS otherwise starts one thread
# per core, which adds user time and run-to-run noise but no speed here.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, config_paths  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size configs, for the smoke check")
    return parser.parse_args(argv)


def time_setup(config: Path) -> list[float]:
    """Seconds each fresh interpreter took to import the CLI and build the model."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs passes of one workload and keeps what they did."""

    def __init__(self, workload, configs, cli_seed: int, out: Path):
        import click

        import specdiff.cli
        from score import SCORERS

        self.click = click
        self.cli = specdiff.cli
        self.scorer = SCORERS[workload.name]
        self.workload = workload
        self.configs = configs
        self.cli_seed = cli_seed
        self.out = out
        self.commands = 0
        self.failed_commands = 0
        self.errors: list[str] = []
        self.reference_digest = None
        self.w2 = []

    def invoke(self, args: list[str]) -> int:
        """One CLI command in this process; returns its exit status."""
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                self.cli.main(args, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except self.click.ClickException as exc:
                code = exc.exit_code
            except Exception:  # a crash fails the command, not the benchmark
                traceback.print_exc(file=log)
                code = 1
        if code != 0:
            self.errors.append(f"{' '.join(args)} exited {code}: {log.getvalue().strip()[-400:]}")
        return code

    def run_pass(self, index: int, tally, tracer=None) -> float:
        """Run the workload's commands once; returns the pass wall time.

        tally is the installed Counters (or Tracer); the weight solutions it
        captures during the pass go to the scorer.
        """
        pass_dir = self.out / f"pass{index}"
        steps = []
        tally.solutions.clear()
        start = time.perf_counter()
        for i, (step, config) in enumerate(zip(self.workload.steps, self.configs)):
            step_out = pass_dir / f"step{i}"
            args = [step.command, "--config", str(config), "--seed", str(self.cli_seed), "--out", str(step_out)]
            with tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext():
                code = self.invoke(args)
            self.commands += 1
            self.failed_commands += code != 0
            steps.append((config, step_out))
        wall = time.perf_counter() - start
        self.check(index, steps, tally.solutions)
        return wall

    def check(self, index: int, steps, solutions) -> None:
        """Score a pass and require the same output bytes as the first pass."""
        try:
            self.w2.append(self.scorer(steps, self.cli_seed, solutions))
        except Exception as exc:  # any malformed output fails the check, not the run
            self.errors.append(f"pass {index}: {type(exc).__name__}: {exc}")
        pass_dir = self.out / f"pass{index}"
        digest = hashlib.sha256()
        for path in sorted(p for p in pass_dir.rglob("*") if p.is_file()):
            digest.update(path.relative_to(pass_dir).as_posix().encode() + b"\0" + path.read_bytes())
        if self.reference_digest is None:
            self.reference_digest = digest.hexdigest()
            return
        if digest.hexdigest() != self.reference_digest:
            self.errors.append(f"pass {index}: outputs differ from pass 0")
        shutil.rmtree(pass_dir)


def with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json; the names must match it."""
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(values) != set(units):
        raise ValueError(f"metrics differ from BENCHMARK.json {section} on {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def read_first_line(path: str, prefix: str) -> str | None:
    with contextlib.suppress(OSError):
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    return None


def machine_info() -> dict:
    """Hardware and software the numbers were measured on."""
    import numpy
    import scipy

    caches = {}
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(cache_root.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV,
    }


def source_identity() -> dict:
    """Git commit when there is one, and a hash of the package sources."""
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "specdiff").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specdiff" / "cli.py").is_file():
        print(f"perfbench: no specdiff package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hooks import Counters, HookError, Tracer, installed, layer_metrics
    from specdiff.config import config_hash

    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs = config_paths(workload, out / "toy" if args.toy else None)
    cli_seed = workload.cli_seed(args.seed)

    setup_times = time_setup(configs[0])
    runner = Runner(workload, configs, cli_seed, out)
    counters = Counters()
    tracer = Tracer() if args.trace else None
    walls, traced_walls = [], []
    started = time.perf_counter()
    try:
        while True:
            with installed(counters.replacements()):
                walls.append(runner.run_pass(len(walls) + len(traced_walls), counters))
            if tracer is not None:
                with installed(tracer.replacements()):
                    traced_walls.append(runner.run_pass(len(walls) + len(traced_walls), tracer, tracer))
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 1 / len(walls)) > args.seconds:
                break
    except HookError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tallies = [counters] + ([tracer] if tracer else [])
    operations = sum(t.solves + t.batches for t in tallies) + runner.commands
    failed_ops = sum(t.failed_solves + t.failed_batches for t in tallies) + runner.failed_commands
    correct = not runner.errors and len(runner.w2) == len(walls) + len(traced_walls)
    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (operations - failed_ops) / operations,
            "w2_opt": statistics.median(runner.w2) if runner.w2 else 0.0,
        }
    else:
        overhead = (statistics.median(traced_walls) - statistics.median(walls)) / statistics.median(walls)
        values = layer_metrics(tracer, len(traced_walls), overhead)
        tracer.save(out / "spans.npz")
    try:
        metrics = with_units(values, "per_layer" if tracer else "end_to_end")
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "cli_seed": cli_seed,
        "trace": args.trace,
        "toy": args.toy,
        "config_hashes": {path.name: config_hash(path.read_bytes()) for path in configs},
        "setup_s": setup_times,
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "operations": operations,
        "failed_operations": failed_ops,
        "failed_solves": sum(t.failed_solves for t in tallies),
        "errors": runner.errors,
        "machine": machine_info(),
        "source": source_identity(),
        "metrics": metrics,
    }
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} cli_seed={cli_seed} trace={args.trace} passes={len(walls)}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if tracer is None:
        print(f"  {'fail_frac':40s} {failed_ops / operations:.6g} ratio ({failed_ops} of {operations} operations failed)")
    for error in runner.errors:
        print(f"  error: {error}")
    result = {"correct": correct, "attempted": runner.commands, "failed": runner.failed_commands, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
