"""Package-level contracts: the exported names and the benchmark's hook sites."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import specdiff
from specdiff.cli import main

ROOT = Path(__file__).resolve().parent.parent
INIT = Path(specdiff.__file__)
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# Names only tests use, kept out of the package: the per-bin reference
# formulas live in tests/oracles.py, and the tests that ran one trajectory
# through simulate_one call simulator._run_spectrum with a batch of one.
TEST_ONLY_NAMES = (
    "DiagGaussian",
    "true_posterior",
    "wiener_gain",
    "w2_diag",
    "prior_optimal_denoise",
    "posterior_optimal_denoise",
    "output_distribution",
    "simulate_one",
)


TOY_CONFIG = """\
[experiment]
out = {out}

[prior]
d = 8
l = 0.1

[degradation]
V = 0.4
sigma_y = 0.1

[schedule]
T = 50
S = 3

[sampler]
zeta_prime = 0.1, 0.3
max_iters = 5

[run]
n_realizations = 1
n_runs = 4
guidance = heuristic
"""


LADDER_CONFIG = """\
[experiment]
out = {out}

[prior]
d = 8
l = 0.1

[degradation]
V = 0.4
sigma_y = 0.1

[schedule]
T = 50
S = 6

[sampler]
kind = dps
weight_source = optimize-averaged
ladder = 3 6
keep_dims = 5
max_iters = 20
"""


def _package_imports() -> list[str]:
    """Submodules __init__ re-exports, in import order; each by ``from .x import *``."""
    out = []
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert [a.name for a in node.names] == ["*"], f"from .{node.module} names its imports"
            out.append(node.module)
    return out


def _load_hooks():
    """perfbench/hooks.py, loaded by file path (perfbench is not a package)."""
    path = ROOT / "perfbench" / "hooks.py"
    spec = importlib.util.spec_from_file_location("perfbench_hooks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExports:
    def test_package_exports_exactly_each_submodules_all(self):
        # specdiff.__all__ is the union of the re-exported submodules' __all__,
        # in import order; no name is exported by two submodules, so no star
        # import shadows another, and each is the submodule's own object.
        modules = _package_imports()
        assert modules, "no star imports found in specdiff/__init__.py"
        expected = []
        for name in modules:
            module = importlib.import_module(f"specdiff.{name}")
            expected += module.__all__
            for attr in module.__all__:
                assert getattr(specdiff, attr) is getattr(module, attr), f"specdiff.{attr}"
        assert specdiff.__all__ == expected
        assert len(set(specdiff.__all__)) == len(specdiff.__all__)

    def test_every_all_name_exists(self):
        for name in _package_imports():
            module = importlib.import_module(f"specdiff.{name}")
            assert len(set(module.__all__)) == len(module.__all__), name
            for attr in module.__all__:
                assert hasattr(module, attr), f"specdiff.{name}.{attr}"
                assert hasattr(specdiff, attr), attr


class TestOracles:
    def test_oracles_import_nothing_from_the_package(self):
        # An oracle that calls package code checks that code against itself.
        for node in ast.walk(ast.parse(ORACLES.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("specdiff", ""), f"oracles.py imports {module}"

    def test_test_only_names_stay_out_of_the_package(self):
        for name in TEST_ONLY_NAMES:
            assert not hasattr(specdiff, name), name
            for module in _package_imports():
                assert not hasattr(importlib.import_module(f"specdiff.{module}"), name), (module, name)


def _fresh_python(*args: str, **env: str) -> str:
    """Stdout of a fresh interpreter that imports this checkout's package, with env added."""
    src = str(INIT.parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True, text=True).stdout


# The rerun toys.  The second solves PiGDM up a ladder, the route every solve
# takes, on the 5 of its 8 bins with the largest prior eigenvalues
# (keep_dims).  The third runs the ideal sampler: its step table through
# eval-loss and the simulator's MAP step through simulate; optimize refuses it.
RERUN_TOY = """\
[prior]
d = 8
l = 0.1
[degradation]
V = 0.4
[schedule]
T = 50
S = 3 6
[sampler]
zeta_prime = 0.1 0.3
max_iters = 50
{sampler}
[run]
n_realizations = 2
n_runs = 8
guidance = {guidance}
"""
RERUN_TOYS = {
    "toy": ("", "heuristic", ("optimize", "eval-loss", "simulate", "sweep-wasserstein")),
    "toy-pigdm": (
        "kind = pigdm\nladder = 3 6\nkeep_dims = 5",
        "heuristic",
        ("optimize", "eval-loss", "simulate", "sweep-wasserstein"),
    ),
    "toy-ideal": ("weight_source = ideal", "optimal", ("eval-loss", "simulate")),
}


class TestStartUp:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # A solve loads only scipy's compiled L-BFGS-B step, and only when it
        # runs, so a command that never solves does not even pay for that.
        _fresh_python("-c", "import sys, specdiff.cli; assert 'scipy.optimize' not in sys.modules")

    def test_runtime_leaves_numpy_ma_and_scipy_optimize_unloaded(self, tmp_path):
        # Building a runtime subsequences its schedules, where np.unique used
        # to import numpy.ma.
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG.format(out=tmp_path / "out"))
        code = (
            "import sys\n"
            "from specdiff.cli import _Runtime\n"
            "from specdiff.config import load_config\n"
            "_Runtime(load_config(sys.argv[1]), None, None)\n"
            "print(sorted({'numpy.ma', 'scipy.optimize'} & set(sys.modules)))\n"
        )
        assert _fresh_python("-c", code, str(cfg)) == "[]\n"

    def test_solving_commands_leave_scipy_optimize_unloaded(self, tmp_path):
        # A solve loads scipy's L-BFGS-B extension from its file.  Importing
        # scipy.optimize to reach it added about 44 MiB and 0.4 s to every
        # optimize, eval-loss and sweep-wasserstein run.
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG.format(out=tmp_path / "out"))
        code = (
            "import sys\n"
            "from specdiff.cli import main\n"
            "for command in ('optimize', 'sweep-wasserstein'):\n"
            "    try:\n"
            "        main([command, '--config', sys.argv[1]])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (command, exc.code)\n"
            "print('scipy.optimize' in sys.modules, 'scipy.optimize._lbfgsb' in sys.modules)\n"
        )
        assert _fresh_python("-c", code, str(cfg)).splitlines()[-1] == "False True"


class TestReruns:
    def test_commands_write_identical_bytes_under_two_hash_seeds(self, tmp_path):
        # Two fresh interpreters, with PYTHONHASHSEED 1 and 2, run every
        # command on the same toys; every output byte must agree.
        code = (
            "import sys\n"
            "from specdiff.cli import main\n"
            "args = sys.argv[1:]\n"
            "for command, config, out in zip(args[0::3], args[1::3], args[2::3]):\n"
            "    try:\n"
            "        main([command, '--config', config, '--out', out])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (command, config, exc.code)\n"
        )
        runs = [tmp_path / f"run{seed}" for seed in (1, 2)]
        for seed, run in zip((1, 2), runs):
            args = []
            for name, (sampler, guidance, commands) in RERUN_TOYS.items():
                config = tmp_path / f"{name}.ini"
                config.write_text(RERUN_TOY.format(sampler=sampler, guidance=guidance))
                for command in commands:
                    args += [command, str(config), str(run / name)]
            _fresh_python("-c", code, *args, PYTHONHASHSEED=str(seed))
        files = [sorted(p.relative_to(run) for p in run.rglob("*") if p.is_file()) for run in runs]
        assert files[0] == files[1]
        assert {p.parts[0] for p in files[0]} == set(RERUN_TOYS)
        for rel in files[0]:
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel


class TestBenchmarkHooks:
    def test_every_hook_target_resolves(self):
        hooks = _load_hooks()
        targets = set(hooks.Counters().replacements()) | set(hooks.Tracer().replacements())
        assert targets
        for module_name, attr in sorted(targets):
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), f"hook target {module_name}.{attr} is missing"

    def test_traced_commands_record_simulator_spans(self, tmp_path):
        # The traced benchmark reads the SimConfig out of the hooked calls'
        # arguments, so a signature change must fail here, not only there.
        hooks = _load_hooks()
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(TOY_CONFIG.format(out=tmp_path / "out"))
        tracer = hooks.Tracer()
        runner = CliRunner()
        with hooks.installed(tracer.replacements()):
            for command in ("sweep-wasserstein", "simulate"):
                result = runner.invoke(main, [command, "--config", str(cfg)])
                assert result.exit_code == 0, (command, result.output)
        calls, _ = tracer.totals()
        assert calls["simulator.profile"] == 2  # one per zeta' in the sweep
        assert calls["simulator.stats"] == 2  # one per zeta' in simulate
        assert tracer.failed_batches == 0
        metrics = hooks.layer_metrics(tracer, 1, 0.0)
        assert metrics["simulator.heuristic.ns_per_traj_step"] > 0
        assert metrics["serialize.writes"] > 0

    def test_traced_optimize_records_loss_path_spans(self, tmp_path):
        # A truncated (keep_dims < d) ladder solve scores its weights through
        # the hooked optimizer.batch_loss -> objective.batch_triples path, one
        # weight vector per call.
        hooks = _load_hooks()
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text(LADDER_CONFIG.format(out=tmp_path / "out"))
        tracer = hooks.Tracer()
        with hooks.installed(tracer.replacements()):
            result = CliRunner().invoke(main, ["optimize", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        calls, _ = tracer.totals()
        assert calls["optimizer.solve"] == 3  # one start on rung 1, two on rung 2
        assert calls["objective.loss"] == 3
        assert calls["objective.compose"] == 3
        assert tracer.failed_solves == 0
        metrics = hooks.layer_metrics(tracer, 1, 0.0)
        assert metrics["objective.loss_rows"] == metrics["objective.loss_calls"] == 3
        # S x d per call: rung 1 (S = 3) once, rung 2 (S = 6) twice.
        assert metrics["objective.compose_bin_steps"] == (3 + 6 + 6) * 8


class TestImports:
    def test_no_module_imports_a_name_it_never_uses(self):
        # A stand-in for a linter's unused-import check (F401).  A name kept
        # for another tool's sake carries "# noqa: F401" on its import.
        for path in sorted(INIT.parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            source = path.read_text()
            lines = source.splitlines()
            tree = ast.parse(source)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
            for node in imports:
                if getattr(node, "module", None) == "__future__":
                    continue
                if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    assert name in used, f"{path.name}:{node.lineno} imports {name} and never uses it"
