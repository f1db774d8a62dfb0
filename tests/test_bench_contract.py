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
import json
import os
import subprocess
import sys
from collections import Counter
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


def test_tracer_sees_every_engine_call(tmp_path, monkeypatch):
    # Tracer.install's rule, with a counter: every attribute of a loaded package
    # module that is a traced function is rebound, so an engine reached another
    # way (a table holding the function itself) goes uncounted.
    from biphoton_sim.cli import main
    from biphoton_sim.config import dump_config, load_preset

    calls = Counter()

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    targets = [pair for pairs in traced_targets().values() for pair in pairs]
    fns = [getattr(importlib.import_module(f"biphoton_sim.{module}"), attr)
           for module, attr in targets]
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "biphoton_sim"]
    for (_, attr), fn in zip(targets, fns):
        for mod in modules:
            for name in [name for name, value in vars(mod).items() if value is fn]:
                monkeypatch.setattr(mod, name, counted(attr, fn))

    names = ("psi_full", "psi_uniform_spectrum", "psi_analytic_rect", "psi_analytic_exp",
             "spectrum_to_waveform", "coincidence_counts")
    for line, expected in [("waveform fig3d --engine full", (1, 0, 0, 0, 1, 1)),
                           ("waveform fig3d --engine uniform", (0, 1, 0, 0, 1, 1)),
                           ("waveform fig3d --engine analytic", (0, 0, 1, 0, 0, 1)),
                           ("waveform fig2d --engine full", (1, 0, 0, 0, 1, 1)),
                           ("waveform fig2d --engine uniform", (0, 1, 0, 0, 1, 1)),
                           ("waveform fig2d --engine analytic", (0, 0, 0, 1, 0, 1)),
                           ("beat fig4b", (1, 0, 0, 0, 1, 0)),
                           ("scan fig5 --full --powers=2.5,1.5", (2, 0, 0, 0, 2, 2))]:
        command, preset, *flags = line.split()
        numerics = {"n_omega": 1024, "z_panels": 64, "tau_span_ns": 5000.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**dump_config(load_preset(preset)), "numerics": numerics}))
        calls.clear()
        assert main([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "x.csv")]) == 0
        assert tuple(calls[name] for name in names) == expected, line
