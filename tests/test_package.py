"""Package-level contracts: the exported names and the benchmark's hook sites."""

import ast
import importlib
import importlib.util
from pathlib import Path

import specdiff

ROOT = Path(__file__).resolve().parent.parent
INIT = Path(specdiff.__file__)


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


class TestBenchmarkHooks:
    def test_every_hook_target_resolves(self):
        hooks = _load_hooks()
        targets = set(hooks.Counters().replacements()) | set(hooks.Tracer().replacements())
        assert targets
        for module_name, attr in sorted(targets):
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), f"hook target {module_name}.{attr} is missing"
