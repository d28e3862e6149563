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


def _package_imports() -> dict[str, set[str]]:
    """{submodule: names} for every ``from .submodule import ...`` in __init__."""
    out: dict[str, set[str]] = {}
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
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
        imports = _package_imports()
        assert imports, "no relative imports found in specdiff/__init__.py"
        for name, names in imports.items():
            module = importlib.import_module(f"specdiff.{name}")
            assert set(module.__all__) == names, name

    def test_every_all_name_exists(self):
        for name in _package_imports():
            module = importlib.import_module(f"specdiff.{name}")
            assert len(set(module.__all__)) == len(module.__all__), name
            for attr in module.__all__:
                assert hasattr(module, attr), f"specdiff.{name}.{attr}"
                assert hasattr(specdiff, attr), attr


class TestStartUp:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # optimizer.minimize imports it on the first solve, so a command that
        # never solves does not pay its start-up time and memory.
        src = str(INIT.parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, specdiff.cli; assert 'scipy.optimize' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
