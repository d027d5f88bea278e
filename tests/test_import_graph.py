"""Each entry point imports only the modules its work runs.

Every case runs in a fresh interpreter and reports ``sys.modules`` when
its work is done.  Compiling with one flow loads that flow alone, and
neither the FSMD engines, the modulo scheduler, the ILP analysis, the
timing checker, the level-3 narrowing pass and its interval domain, the runner's engine,
pool and cache, nor the workload generator; reading
``repro.runner.cells`` or asking the CLI for ``--help`` loads no process
machinery.  The process pool is the exception: it loads every flow and
engine before it forks, so its workers start warm.  The package
re-exports lazily (:mod:`repro._exports`), so the
same tests pin that every exported name still resolves, to the same
object whichever modules were imported first.  And every module under
``src/repro`` is run by some entry point, not only by the tests.
"""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

TABLE1_ORDER = [
    "cones", "hardwarec", "transmogrifier", "systemc", "ocapi",
    "c2verilog", "cyber", "handelc", "specc", "bachc", "cash",
]

NEVER_LOADED = (
    "repro.sim.compiled",
    "repro.sim.fsmd_sim",
    "repro.scheduling.modulo",
    "repro.runner.engine",
    "repro.runner.pool",
    "repro.runner.cache",
    "repro.analysis.ilp",
    "repro.analysis.timing",
    "repro.analysis.timing.checker",
    "repro.analysis.timing.harness",
    "repro.analysis.timing.obligations",
    "repro.analysis.timing.occupancy",
    "repro.analysis.timing.rules",
    "repro.ir.intervals",
    "repro.ir.passes.narrow",
    "repro.workloads.generator",
    "multiprocessing",
    "concurrent.futures",
)

COMPILE_C2VERILOG = """
from repro.api import synthesize, SynthesisOptions
result = synthesize("int main(int n) { return n + 1; }",
                    SynthesisOptions(flow="c2verilog"))
result.cost()
result.verilog()
"""

CLI_HELP = """
import runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""


def _run(snippet: str) -> object:
    """Run ``snippet`` in a fresh interpreter; the value it leaves in
    ``out`` (by default, the loaded module names) comes back as JSON."""
    program = (
        "import json, sys\nout = None\n" + snippet
        + "\nif out is None:\n    out = sorted(sys.modules)\n"
        "print('\\n' + json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _flow_modules(modules):
    return {m.rsplit(".", 1)[1] for m in modules
            if m.startswith("repro.flows.") and m.rsplit(".", 1)[1]
            in TABLE1_ORDER}


@pytest.mark.parametrize("snippet, flows", [
    (COMPILE_C2VERILOG, {"c2verilog"}),
    ("import repro.runner.cells", set()),
    (CLI_HELP, set()),
], ids=["compile-c2verilog", "runner-cells", "cli-help"])
def test_entry_point_loads_only_what_it_runs(snippet, flows):
    modules = set(_run(snippet))
    assert sorted(modules.intersection(NEVER_LOADED)) == []
    assert _flow_modules(modules) == flows


def test_runner_cells_and_cli_help_load_no_signal_handling_or_compiler():
    for snippet in ("import repro.runner.cells", CLI_HELP):
        modules = set(_run(snippet))
        assert "signal" not in modules
        assert not {"repro.lang", "repro.ir", "repro.flows.base"} & modules


def test_registry_is_every_flow_in_table1_order():
    out = _run(
        "from repro.flows import REGISTRY, COMPILABLE\n"
        "from repro.flows.registry import FLOW_TABLE\n"
        "out = [type(REGISTRY) is dict, list(REGISTRY), COMPILABLE,\n"
        "       [[k, f.metadata.key, type(f).__name__, type(f).__module__]\n"
        "        for k, f in REGISTRY.items()],\n"
        "       [list(row) for row in FLOW_TABLE]]\n"
    )
    is_dict, keys, compilable, flows, table = out
    assert is_dict
    assert keys == TABLE1_ORDER
    assert compilable == [key for key in TABLE1_ORDER if key != "ocapi"]
    for (key, meta_key, cls, module), row in zip(flows, table):
        assert key == meta_key
        assert row == [key, f".{module.rsplit('.', 1)[1]}", cls]


def test_get_flow_and_registry_share_instances():
    from repro.flows import REGISTRY, get_flow

    assert all(get_flow(key) is flow for key, flow in REGISTRY.items())
    with pytest.raises(KeyError, match="known flows: bachc, c2verilog"):
        get_flow("vhdl")


WARM = ["repro.flows.cones", "repro.flows.cash", "repro.sim.fsmd_sim",
        "repro.sim.compiled"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers inherit the parent's modules only by fork")
def test_pool_workers_start_with_every_flow_and_engine_loaded():
    out = _run(
        "from repro.runner.pool import WorkerPool\n"
        "def loaded(names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        "def crash(payload, failure):\n"
        "    return repr(failure)\n"
        f"before = loaded({WARM!r})\n"
        f"out = [before, WorkerPool(loaded, crash).map([{WARM!r}])[0]]\n"
    )
    assert out == [[], WARM]


# Resolves every ``__all__`` name of every package to a description of
# the object it names.
DESCRIBE_EXPORTS = """
import importlib, pkgutil, types
import repro

def describe(obj):
    if isinstance(obj, types.ModuleType):
        return "module " + obj.__name__
    if callable(obj):
        return f"{obj.__module__}.{obj.__qualname__}"
    return type(obj).__name__

packages = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg)
if PRELOAD:
    for m in pkgutil.walk_packages(repro.__path__, "repro."):
        if m.name != "repro.__main__":
            importlib.import_module(m.name)
out = {}
for name in packages:
    package = importlib.import_module(name)
    out[name] = {n: describe(getattr(package, n)) for n in package.__all__}
"""


def test_every_export_resolves_the_same_whatever_was_imported_first():
    lazily = _run("PRELOAD = False\n" + DESCRIBE_EXPORTS)
    preloaded = _run("PRELOAD = True\n" + DESCRIBE_EXPORTS)
    assert lazily == preloaded
    assert lazily["repro.analysis"]["ilp"] == "repro.analysis.ilp.ilp"
    assert lazily["repro.analysis"]["lint"] == "module repro.analysis.lint"
    assert lazily["repro.sim"]["simulate_interp"] == (
        "repro.sim.fsmd_sim.simulate")


@pytest.mark.parametrize("first", [
    "import repro.analysis.ilp",
    "from repro.analysis.ilp import ilp_profile",
    "import repro.analysis",
], ids=["submodule", "from-submodule", "package"])
def test_analysis_ilp_is_the_function_whatever_was_imported_before(first):
    out = _run(
        first + "\n"
        "import types\n"
        "from repro.analysis import ilp\n"
        "import repro.analysis\n"
        "module = sys.modules['repro.analysis.ilp']\n"
        "out = [isinstance(ilp, types.FunctionType), ilp is module.ilp,\n"
        "       repro.analysis.ilp is module.ilp]\n"
    )
    assert out == [True, True, True]


def test_opt_pipelines_cover_exactly_the_option_levels():
    from repro.api import OPT_LEVELS
    from repro.ir.passes import fixpoint

    assert tuple(fixpoint.OPT_PIPELINES) == OPT_LEVELS
    assert fixpoint.OPT_LEVELS is OPT_LEVELS


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _runtime_nodes(node):
    """Every AST node under ``node`` except those of ``if TYPE_CHECKING:``
    bodies, which never run."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.If)
                and ast.unparse(child.test).endswith("TYPE_CHECKING")):
            for branch in child.orelse:
                yield branch
                yield from _runtime_nodes(branch)
            continue
        yield child
        yield from _runtime_nodes(child)


def _lazy_table(tree: ast.Module) -> dict:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    return {}


def _resolve(name: str, package: str) -> str:
    """The absolute module name of ``name``, which may be relative
    (``..api``) to ``package``."""
    rest = name.lstrip(".")
    level = len(name) - len(rest)
    if not level:
        return name
    base = package.rsplit(".", level - 1)[0]
    return f"{base}.{rest}" if rest else base


class _ImportGraph:
    """Which ``repro`` modules a file imports, read from its source.

    ``from P import name`` reaches ``P``, ``P.name`` if that is a module,
    and, if ``name`` is in ``P``'s lazy-export table, the module that
    defines it.  Importing a module reaches its parent packages too."""

    def __init__(self):
        self.files = {_module_name(p): p for p in SRC.rglob("*.py")}
        self.trees = {m: ast.parse(p.read_text())
                      for m, p in self.files.items()}
        self.tables = {m: _lazy_table(t) for m, t in self.trees.items()
                       if self.files[m].name == "__init__.py"}

    def imports(self, tree: ast.Module, package: str) -> set:
        named = set()
        for node in _runtime_nodes(tree):
            if isinstance(node, ast.Import):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve("." * node.level + (node.module or ""),
                                package)
                named.add(base)
                for alias in node.names:
                    named.add(f"{base}.{alias.name}")
                    source = self.tables.get(base, {}).get(alias.name)
                    if source is not None:
                        named.add(_resolve(source, base))
        reached = set()
        for name in named:
            while name:
                if name in self.files:
                    reached.add(name)
                name = name.rpartition(".")[0]
        return reached

    def of_module(self, module: str) -> set:
        package = (module if module in self.tables
                   else module.rpartition(".")[0])
        return self.imports(self.trees[module], package) - {module}


def test_every_src_module_is_run_by_an_entry_point():
    """Entry points are ``python -m repro``, every flow of ``FLOW_TABLE``,
    and the scripts under ``benchmarks/``, ``perfbench/`` and
    ``examples/``; a module is kept if one of them reaches it through
    imports.  A package's lazy-export table is not an import: a module
    only the tests (or only that table) name belongs in ``tests/``."""
    from repro.flows.registry import FLOW_TABLE

    graph = _ImportGraph()
    roots = {"repro.__main__"}
    roots |= {_resolve(module, "repro.flows") for _, module, _ in FLOW_TABLE}
    for directory in ("benchmarks", "perfbench", "examples"):
        for path in (REPO / directory).rglob("*.py"):
            roots |= graph.imports(ast.parse(path.read_text()), "")
    reached, todo = set(), sorted(roots)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(graph.of_module(module))
    assert sorted(set(graph.files) - reached) == []
