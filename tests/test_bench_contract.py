"""The package names the traced benchmark run relies on.

``perfbench/spans.py`` rebinds functions by (module, attribute) and the run
calls ``cli.load_config`` and ``cli.psi_full`` directly, so a rename there
breaks the benchmark without failing any other test; likewise a stricter
config parser that refused the frozen ``perfbench/inputs``, or a traced
module that the run's imports no longer load.  The benchmark files are only
read here (parsed, not imported).
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import biphoton_sim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
SRC = Path(biphoton_sim.__file__).resolve().parents[1]


def traced_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_traced_functions_exist():
    targets = [pair for pairs in traced_targets().values() for pair in pairs]
    assert targets
    for module, attr in targets:
        mod = importlib.import_module(f"biphoton_sim.{module}")
        assert callable(getattr(mod, attr, None)), f"biphoton_sim.{module}.{attr}"


def run_imports():
    """The package modules ``perfbench/run.py``'s ``import_package`` imports."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "import_package")
    return [f"biphoton_sim.{alias.name}" for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.module == "biphoton_sim"
            for alias in node.names]


def test_run_imports_load_every_traced_module():
    # Tracer.install looks each TRACED module up in sys.modules, so a module
    # the CLI imported lazily would fail every traced run with a KeyError
    imports = run_imports()
    assert "biphoton_sim.cli" in imports
    traced = sorted({f"biphoton_sim.{module}"
                     for pairs in traced_targets().values() for module, _ in pairs})
    code = (f"import sys, {', '.join(imports)}; "
            f"print(*(m for m in {traced!r} if m not in sys.modules))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_cli_binds_what_the_run_calls():
    from biphoton_sim import biphoton, cli, config

    assert callable(cli.main)
    assert cli.load_config is config.load_config
    assert cli.psi_full is biphoton.psi_full


def test_psi_full_parameters_bound_by_name():
    from biphoton_sim.biphoton import psi_full

    params = inspect.signature(psi_full).parameters
    # Tracer.count_cells binds grid and z_panels; the run passes scale and threads
    for name in ("grid", "z_panels", "scale", "threads"):
        assert name in params


def test_benchmark_inputs_parse_strictly():
    from biphoton_sim.config import load_preset, parse_config

    inputs = sorted((PERFBENCH / "inputs").glob("*.json"))
    assert len(inputs) == 10
    for path in inputs:
        # the frozen inputs still carry the keys the presets dropped
        assert parse_config(path.read_text(encoding="utf-8")) == load_preset(path.stem)
