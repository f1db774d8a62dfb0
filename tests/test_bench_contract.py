"""The package names the traced benchmark run relies on.

``perfbench/spans.py`` rebinds functions by (module, attribute) and the run
calls ``cli.load_config`` and ``cli.psi_full`` directly, so a rename there
breaks the benchmark without failing any other test; likewise a stricter
config parser that refused the frozen ``perfbench/inputs``.  The benchmark
files are only read here (parsed, not imported).
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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
