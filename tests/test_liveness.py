"""Every configuration field reaches some output byte; the ignored ones reach none.

Each field is changed on its own, on a small grid, and the commands are run
in-process: a field is live if some byte of some command's CSV or sidecar
moves, on a degenerate or a nondegenerate preset (fig4b for the
interferometer, which only ``beat`` reads).  The presets omit the keys of
``config.IGNORED``, so the small configurations carry each of them.
"""

import copy
import json
import tempfile
from pathlib import Path

from biphoton_sim import dump_config, load_preset
from biphoton_sim.cli import main
from biphoton_sim import config
from biphoton_sim.config import SECTIONS

# accepted for older files, but read by no output (README "Configuration format")
IGNORED = {f"{section}.{key}" for section, keys in config.IGNORED.items() for key in keys}

COMMANDS = (
    ["eit-spectrum"],
    ["scan"],
    ["waveform", "--engine", "analytic"],
    ["waveform", "--engine", "uniform"],
    ["waveform", "--engine", "full"],
    ["scan", "--full"],
)
RUN_SECTIONS = ("medium", "pump", "coupling", "detection", "numerics")
CASES = (
    ("fig5", RUN_SECTIONS, COMMANDS),
    ("fig2d", RUN_SECTIONS, COMMANDS),
    ("fig4b", ("interferometer",), (["beat"],)),
)

# the new value of each field that a 5% increase would leave unmoved or invalid;
# the floor must stay below a fifth of the counts' peak, which with
# kappa_scale 1 is about 3e-51 for fig5's analytic rectangle
CHANGED = {
    "numerics.n_omega": 2048,
    "numerics.z_panels": 66,
    "coupling.detuning_mhz": 1.0,
    "detection.accidental_floor": 1e-60,
    "interferometer.noise_counts": 100.0,
}


def small_config(name):
    data = dump_config(load_preset(name))
    # 1024 points over 40 us resolve beats below 12.8 MHz, fig4b's 11 MHz shift among them
    data["numerics"] = {"n_omega": 1024, "z_panels": 64, "tau_span_ns": 40000.0}
    data.setdefault("scan", {"powers_mw": [data["coupling"]["power_mw"], 1.0]})
    for field in IGNORED:
        section, key = field.split(".")
        data[section][key] = 795.0
    return data


def changed(data, field):
    data = copy.deepcopy(data)
    if field == "kappa_scale":
        data["kappa_scale"] *= 1.05
    elif field == "scan.powers_mw":
        data["scan"]["powers_mw"] = [1.05 * p for p in data["scan"]["powers_mw"]]
    else:
        section, key = field.split(".")
        data[section][key] = CHANGED.get(field, 1.05 * data[section][key])
    return data


def run(tmp_path, data, argv):
    """The CSV and sidecar bytes of one command on ``data``.

    Each run writes into a fresh directory: on ext4, renaming over an
    existing file first forces that file's data out, about 50 ms a file.
    """
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg = run_dir / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = run_dir / "out.csv"
    assert main([*argv, "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    return out.read_bytes(), out.with_suffix(".json").read_bytes()


def test_every_field_moves_an_output_and_ignored_ones_none(tmp_path):
    moves = {}  # field -> the (preset, command) pairs whose output it moved
    for preset, sections, commands in CASES:
        data = small_config(preset)
        before = [run(tmp_path, data, argv) for argv in commands]
        names = [f"{section}.{key}" for section in sections for key, _, _ in SECTIONS[section][1]]
        names += sorted(field for field in IGNORED if field.split(".")[0] in sections)
        if "medium" in sections:
            names += ["kappa_scale", "scan.powers_mw"]
        for field in names:
            moved = moves.setdefault(field, [])
            if moved and field not in IGNORED:
                continue
            new = changed(data, field)
            for argv, old in zip(commands, before):
                if run(tmp_path, new, argv) != old:
                    moved.append((preset, " ".join(argv)))
                    if field not in IGNORED:
                        break
    assert len(moves) == sum(len(fields) for _, fields in SECTIONS.values()) + len(IGNORED) + 2
    assert {field: moved for field, moved in moves.items() if field in IGNORED and moved} == {}
    assert [field for field, moved in moves.items() if field not in IGNORED and not moved] == []
