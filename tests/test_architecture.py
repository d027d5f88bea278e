"""Architecture guards over the source tree.

Process pools have one owner: only :mod:`repro.runner.pool` constructs a
``ProcessPoolExecutor``, and no module outside :mod:`repro.runner` imports
a ``_``-prefixed name from it, so the pool policy cannot be re-grown or
reached into from the side.

The package has no third-party runtime dependencies (``dependencies = []``
in ``pyproject.toml``): importing its public surface pulls in no NumPy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield path, ".".join(parts), ast.parse(path.read_text(), str(path))


def _imported_module(node: ast.ImportFrom, module: str, path: Path) -> str:
    """The absolute module an ``ImportFrom`` names."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def test_only_the_runner_pool_constructs_process_pools():
    constructors = set()
    for path, module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "ProcessPoolExecutor":
                    constructors.add(module)
    assert constructors == {"repro.runner.pool"}


def test_no_private_runner_imports_from_outside():
    leaks = []
    for path, module, tree in _modules():
        if module == "repro.runner" or module.startswith("repro.runner."):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = _imported_module(node, module, path)
            if target != "repro.runner" and not target.startswith(
                "repro.runner."
            ):
                continue
            leaks += [
                f"{module}: {alias.name} from {target}"
                for alias in node.names if alias.name.startswith("_")
            ]
    assert leaks == []


def test_public_surface_imports_no_third_party_numerics():
    snippet = (
        "import sys\n"
        "import repro.api, repro.flows, repro.sim, repro.runner,"
        " repro.fuzz, repro.serve\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
