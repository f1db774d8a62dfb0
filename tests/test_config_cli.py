import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import biphoton_sim
from biphoton_sim import (
    ConfigError,
    biphoton,
    cli,
    coherence_scan,
    dump_config,
    eit_absorption_loss,
    grids,
    group_delay_estimate,
    load_preset,
    parse_config,
)
from biphoton_sim.cli import _write_all, main
from biphoton_sim.config import IGNORED, PRESET_NAMES, SECTIONS
from biphoton_sim.grids import csv_text
from biphoton_sim.params import MAX_Z_PANELS

from conftest import MHZ

SRC = Path(biphoton_sim.__file__).resolve().parents[1]


def approx_equal_configs(a, b, rel=1e-12):
    assert a.mode == b.mode
    for field in ("od", "length", "gamma12", "gamma13", "gamma14", "theta", "lambda0"):
        assert getattr(a.medium, field) == pytest.approx(getattr(b.medium, field),
                                                         rel=rel)
    for beam in ("pump", "coupling"):
        for field in (f.name for f in dataclasses.fields(getattr(a, beam))):
            assert getattr(getattr(a, beam), field) == pytest.approx(
                getattr(getattr(b, beam), field), rel=rel)
    assert a.numerics == b.numerics
    assert (a.interferometer is None) == (b.interferometer is None)


class TestConfig:
    def test_presets_all_load(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert cfg.medium.od in (88.0, 150.0)

    def test_preset_units(self):
        cfg = load_preset("fig3d")
        assert cfg.medium.length == pytest.approx(0.017)
        assert cfg.medium.gamma13 == pytest.approx(3.0 * MHZ)
        assert cfg.medium.theta == pytest.approx(math.radians(3.0))
        assert cfg.coupling.peak_rabi == pytest.approx(14.5 * MHZ)
        assert cfg.pump.detuning == pytest.approx(6800.0 * MHZ)
        assert cfg.detection.bin_width == pytest.approx(10e-9)
        assert cfg.detection.collection_time == pytest.approx(1200.0)

    def test_preset_absorption_anchors(self):
        good = load_preset("fig3c")
        bad = load_preset("fig3e")
        assert eit_absorption_loss(good.medium, good.coupling.peak_rabi) == \
            pytest.approx(0.017, rel=1e-6)
        assert eit_absorption_loss(bad.medium, bad.coupling.peak_rabi) == \
            pytest.approx(0.85, rel=1e-6)

    def test_round_trip_identity(self):
        cfg = load_preset("fig4b")
        text = json.dumps(dump_config(cfg))
        again = parse_config(text)
        approx_equal_configs(cfg, again)
        # a second pass is an exact fixed point
        third = parse_config(json.dumps(dump_config(again)))
        assert dump_config(third) == dump_config(again)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{not valid json")

    def test_missing_field_names_the_path(self):
        data = dump_config(load_preset("fig2c"))
        del data["medium"]["od"]
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(data))
        assert str(info.value) == "medium.od: missing required field"

    def test_unknown_field_names_the_path(self):
        data = dump_config(load_preset("fig2c"))
        data["medium"]["odd"] = 150.0
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(data))
        assert str(info.value) == "medium.odd: unknown field"

    @pytest.mark.parametrize("preset, section, key, value, message", [
        ("fig2c", "medium", "od", -5.0, "must be >= 0, got -5.0"),
        ("fig2c", "medium", "length_mm", -5, "must be > 0, got -5"),
        ("fig2c", "medium", "theta_deg", 90, "must be >= 0 and below a right angle, got 90"),
        ("fig2c", "coupling", "waist_mm", 0.0, "must be > 0, got 0.0"),
        ("fig2c", "detection", "duty_cycle", 1.5, "must be in (0, 1], got 1.5"),
        ("fig4b", "interferometer", "reflectance", -0.1, "must be in [0, 1], got -0.1"),
    ], ids=["od", "length", "theta", "waist", "duty-cycle", "reflectance"])
    def test_invalid_value_names_the_field(self, preset, section, key, value, message):
        # the field as the file names it, with the value as written, not in SI units
        data = dump_config(load_preset(preset))
        data[section][key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(data))
        assert str(info.value) == f"{section}.{key}: {message}"

    def test_z_panels_bounds_name_the_field(self):
        data = dump_config(load_preset("fig3d"))
        data["numerics"]["z_panels"] = MAX_Z_PANELS
        assert parse_config(json.dumps(data)).numerics.z_panels == 2 ** 16
        for m in (62, 65, MAX_Z_PANELS + 2):
            data["numerics"]["z_panels"] = m
            with pytest.raises(ConfigError) as info:
                parse_config(json.dumps(data))
            assert str(info.value) == (
                f"numerics.z_panels: must be an even count in [64, 2^16], got {m}")

    def test_coupling_scales_checked_at_parse_time(self):
        data = dump_config(load_preset("fig3d"))
        data["coupling"]["peak_rabi_mhz"] = 1e-200
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(data))
        assert info.value.field == "coupling.peak_rabi_mhz"
        # zero coupling is the two-level medium of eit-spectrum, not an error
        data["coupling"]["peak_rabi_mhz"] = 0.0
        assert parse_config(json.dumps(data)).coupling.peak_rabi == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig9z")


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def small_numerics(data, n_omega=4096, tau_span_ns=20000.0, z_panels=128):
    data["numerics"] = {"n_omega": n_omega, "z_panels": z_panels,
                        "tau_span_ns": tau_span_ns}
    return data


def suggested_span_ns(err):
    """The tau_span_ns a numerics error's last clause suggests."""
    return float(err.split("set numerics.tau_span_ns to ")[1].split()[0])


class TestCli:
    def test_eit_spectrum_sidecar_good_eit(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["eit-spectrum", "--config", "fig2c", "--out", str(out)]) == 0
        side = json.loads((tmp_path / "spec.json").read_text())
        assert side["resonance_transmission"] == pytest.approx(0.97, abs=0.02)
        header = out.read_text().splitlines()[0]
        assert header == "omega_mhz,transmission"

    def test_eit_spectrum_bad_eit_alpha(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["eit-spectrum", "--config", "fig3e", "--out", str(out)]) == 0
        side = json.loads((tmp_path / "spec.json").read_text())
        assert side["alpha_l"] == pytest.approx(0.85, abs=0.05)

    def test_eit_spectrum_transparent_medium(self, tmp_path):
        data = dump_config(load_preset("fig2c"))
        data["medium"]["od"] = 0.0
        cfg = write_config(tmp_path, data)
        out = tmp_path / "flat.csv"
        assert main(["eit-spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        trans = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(trans == 1.0)

    def test_eit_spectrum_zero_coupling_is_two_level(self, tmp_path):
        data = dump_config(load_preset("fig2c"))
        data["coupling"]["peak_rabi_mhz"] = 0.0
        cfg = write_config(tmp_path, data)
        out = tmp_path / "two-level.csv"
        assert main(["eit-spectrum", "--config", cfg, "--out", str(out)]) == 0
        side = json.loads((tmp_path / "two-level.json").read_text())
        assert side["group_delay_ns"] is None
        # chi(0) = i beta / gamma13 without coupling: alpha L = OD / 2
        assert side["alpha_l"] == pytest.approx(data["medium"]["od"] / 2.0, rel=1e-12)

    def test_waveform_analytic_lossless_rectangle(self, tmp_path):
        data = dump_config(load_preset("fig3d"))
        data["medium"]["gamma12_mhz"] = 0.0
        cfg = write_config(tmp_path, small_numerics(data))
        out = tmp_path / "wave.csv"
        assert main(["waveform", "--config", cfg, "--out", str(out),
                     "--engine", "analytic"]) == 0
        rows = out.read_text().splitlines()[1:]
        tau_ns = np.array([float(r.split(",")[0]) for r in rows])
        abs2 = np.array([float(r.split(",")[3]) for r in rows])
        width_ns = tau_ns[abs2 > 0].max() - tau_ns[abs2 > 0].min()
        side = json.loads((tmp_path / "wave.json").read_text())
        assert width_ns == pytest.approx(side["coherence_formula_ns"],
                                         rel=0.01)

    def test_waveform_uniform_engine_runs(self, tmp_path):
        data = small_numerics(dump_config(load_preset("fig3d")))
        cfg = write_config(tmp_path, data)
        out = tmp_path / "wave.csv"
        assert main(["waveform", "--config", cfg, "--out", str(out),
                     "--engine", "uniform"]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "tau_ns,re_psi,im_psi,abs2_psi,cc_counts"

    def test_waveform_sidecar_reports_coherence(self, tmp_path):
        data = small_numerics(dump_config(load_preset("fig3d")))
        cfg = write_config(tmp_path, data)
        out = tmp_path / "wave.csv"
        assert main(["waveform", "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 0
        side = json.loads((tmp_path / "wave.json").read_text())
        assert side["engine"] == "full"
        assert side["e_inverse_width_ns"] == pytest.approx(1250.0, rel=0.10)
        assert side["coherence_formula_ns"] == pytest.approx(1362.6, rel=1e-3)

    @pytest.mark.parametrize("preset, engine, method", [
        ("fig2f", "full", "exp_fit"),         # lossy nondegenerate: a fitted tail
        ("fig2d", "analytic", "width_only"),  # good EIT: no decade of decay in the window
    ])
    def test_waveform_sidecar_method(self, tmp_path, preset, engine, method):
        cfg = write_config(tmp_path, small_numerics(dump_config(load_preset(preset))))
        out = tmp_path / "wave.csv"
        assert main(["waveform", "--config", cfg, "--out", str(out), "--engine", engine]) == 0
        text = (tmp_path / "wave.json").read_text()
        assert f'  "method": "{method}"\n' in text
        assert (json.loads(text)["exp_tau_ns"] is None) == (method == "width_only")

    def test_waveform_deterministic_across_threads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(biphoton, "_usable_cpus", lambda: 3)  # three workers on any host
        data = small_numerics(dump_config(load_preset("fig3d")))
        cfg = write_config(tmp_path, data)
        outs = []
        for threads, name in (("1", "a.csv"), ("3", "b.csv"), ("1", "c.csv")):
            out = tmp_path / name
            assert main(["waveform", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_scan_full_on_two_threads_imports_no_executor(self, tmp_path):
        # the workers are plain threads: concurrent.futures, with the logging
        # it pulls in, and queue cost a multi-worker command 6-7 ms of imports
        cfg = write_config(tmp_path, small_numerics(dump_config(load_preset("fig5")),
                                                    z_panels=64))
        argv = ["scan", "--full", "--config", cfg, "--out", str(tmp_path / "scan.csv"),
                "--threads", "2"]
        code = ("import sys\nfrom biphoton_sim.cli import main\n"
                f"print(main({argv!r}), *(name for name in "
                "('concurrent.futures', 'logging', 'queue') if name in sys.modules))")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0"]

    def test_beat_outputs_and_sidecar(self, tmp_path):
        data = small_numerics(dump_config(load_preset("fig4b")))
        cfg = write_config(tmp_path, data)
        out = tmp_path / "beat.csv"
        assert main(["beat", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "tau_ns,g34,envelope"
        side = json.loads((tmp_path / "beat.json").read_text())
        assert abs(side["beat_frequency_mhz"] - 11.0) <= side["fft_bin_mhz"]
        assert side["v0"] == pytest.approx(21.0 / 29.0, rel=1e-9)
        assert side["hom_residual_factor"] == pytest.approx(0.16, rel=1e-9)

    def test_beat_perfect_hom(self, tmp_path):
        data = small_numerics(dump_config(load_preset("fig4b")))
        data["interferometer"] = {"reflectance": 0.5, "shift_mhz": 0.0,
                                  "noise_counts": 0.0}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "hom.csv"
        assert main(["beat", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        g34 = np.array([float(r.split(",")[1]) for r in rows])
        env = np.array([float(r.split(",")[2]) for r in rows])
        assert np.all(np.abs(g34) <= 1e-12 * env.max())

    def test_beat_residual_ratio(self, tmp_path):
        data = small_numerics(dump_config(load_preset("fig4b")))
        data["interferometer"] = {"reflectance": 0.7, "shift_mhz": 0.0,
                                  "noise_counts": 0.0}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "res.csv"
        assert main(["beat", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        g34 = np.array([float(r.split(",")[1]) for r in rows])
        env = np.array([float(r.split(",")[2]) for r in rows])
        support = env > 1e-3 * env.max()
        assert np.allclose(g34[support] / env[support], 0.16, rtol=1e-6)

    def test_beat_requires_interferometer(self, tmp_path):
        cfg = write_config(tmp_path, small_numerics(dump_config(load_preset("fig3d"))))
        assert main(["beat", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_scan_schema_and_determinism(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--config", "fig5", "--out", str(out),
                     "--powers", "1.0,1.0"])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x_gamma13sq_over_omegac_sq,t_coh_formula_ns,t_coh_full_ns"
        assert rows[1] == rows[2]

    def test_scan_uses_preset_powers(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", "fig5", "--out", str(out)]) == 0
        side = json.loads((tmp_path / "scan.json").read_text())
        assert side["t_coh_formula_first_us"] == pytest.approx(1.25, rel=1e-4)
        assert side["t_coh_formula_last_us"] == pytest.approx(6.85, rel=1e-4)

    def test_scan_full_width_tracks_formula_low_loss(self, tmp_path):
        cfg = write_config(tmp_path, small_numerics(dump_config(load_preset("fig5")),
                                                    n_omega=8192, tau_span_ns=40000.0))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--full", "--powers", "2.3,1.0",
                     "--threads", "2", "--out", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            _, formula_ns, full_ns = map(float, row.split(","))
            assert full_ns == pytest.approx(formula_ns, rel=0.10)

    def test_scan_full_widths_are_the_waveform_widths(self, tmp_path):
        # each power's t_coh_full_ns is waveform's e_inverse_width_ns at that
        # power's coupling, written as '%.9g' writes it
        data = small_numerics(dump_config(load_preset("fig5")), tau_span_ns=40000.0,
                              z_panels=64)
        cfg = parse_config(json.dumps(data))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", write_config(tmp_path, data), "--full",
                     "--powers", "2.3,1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        points = coherence_scan([2.3e-3, 1e-3], cfg.medium, cfg.coupling)
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            at_power = dump_config(dataclasses.replace(cfg, coupling=point.coupling))
            assert parse_config(json.dumps(at_power)).coupling == point.coupling
            wave_out = tmp_path / "wave.csv"
            assert main(["waveform", "--config", write_config(tmp_path, at_power, "at-power.json"),
                         "--engine", "full", "--out", str(wave_out)]) == 0
            side = json.loads((tmp_path / "wave.json").read_text())
            assert row.split(",")[2] == "%.9g" % side["e_inverse_width_ns"]

    def test_scan_rejects_single_point(self, tmp_path):
        code = main(["scan", "--config", "fig5", "--out",
                     str(tmp_path / "s.csv"), "--powers", "1.0"])
        assert code == 2

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{broken")
        assert main(["eit-spectrum", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_unreadable_config_exits_3(self, tmp_path):
        assert main(["eit-spectrum", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_unwritable_output_exits_3(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["eit-spectrum", "--config", "fig2c", "--out", str(out)]) == 3

    def test_failed_sidecar_write_leaves_no_csv(self, tmp_path, capsys):
        # the sidecar path is taken by a directory: the CSV that was already
        # written must not survive, nor any temporary file
        (tmp_path / "x.json").mkdir()
        assert main(["eit-spectrum", "--config", "fig2c",
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
        assert not any((tmp_path / "x.json").iterdir())

    def test_block_that_fails_to_format_leaves_no_file(self, tmp_path, monkeypatch):
        # the CSV is formatted while it is written: a failure after its first
        # block leaves no CSV, no sidecar and no temporary file
        format_rows = grids.format_rows

        def failing(columns):
            blocks = format_rows(columns)
            yield next(blocks)
            raise RuntimeError("formatter failed after one block")

        monkeypatch.setattr(grids, "format_rows", failing)
        with pytest.raises(RuntimeError, match="after one block"):
            main(["waveform", "--engine", "uniform", "--config", "fig3d",
                  "--out", str(tmp_path / "x.csv")])
        assert not any(tmp_path.iterdir())

    def test_write_that_fails_partway_exits_3_leaving_no_file(self, tmp_path):
        # a 100 kB file size limit fails the CSV's write (EFBIG) after its
        # first block; a child process, because the limit is the process's
        script = (
            "import resource, signal, sys\n"
            "from biphoton_sim.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script, "waveform", "--engine", "uniform",
                              "--config", "fig3d", "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 3
        assert run.stderr.startswith("i/o error: ")
        assert len(run.stderr.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    def test_writer_holds_a_block_not_the_text(self, tmp_path):
        # 2^16 rows of five columns are 4.1 MB of text, which the writer used
        # to hold at least twice over (as blocks and joined, then as the
        # joined string and its UTF-8 bytes): a tracemalloc peak of 8.3 MB,
        # where a block's formatting now peaks at 0.8 MB
        rng = np.random.default_rng(5)
        columns = [rng.standard_normal(2 ** 16) * 10.0 ** k for k in range(-2, 3)]
        path = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            _write_all({path: csv_text("a,b,c,d,e", *columns)})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4e6
        assert peak < 1e6

    def test_nyquist_violation_exits_4(self, tmp_path):
        data = dump_config(load_preset("fig3d"))
        data["numerics"] = {"n_omega": 1024, "z_panels": 128,
                            "tau_span_ns": 1000000.0}
        cfg = write_config(tmp_path, data)
        assert main(["waveform", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 4

    @pytest.mark.parametrize("engine", ["full", "uniform", "analytic"])
    def test_tau_window_shorter_than_group_delay_exits_4(self, tmp_path, capsys, engine):
        # OD 5000 gives a 45 us formula coherence time; a 4 us window used to
        # report the whole window as the width
        data = dump_config(load_preset("fig3d"))
        data["medium"]["od"] = 5000.0
        data["numerics"]["tau_span_ns"] = 4000.0
        cfg = write_config(tmp_path, data)
        assert main(["waveform", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--engine", engine]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerics error: tau window 4000 ns is below 4 group delays")
        assert err.endswith("; set numerics.tau_span_ns to 2e+05 (n_omega 16384 kept)\n")
        assert not (tmp_path / "x.csv").exists()
        data["numerics"]["tau_span_ns"] = 2e5
        cfg = write_config(tmp_path, data)
        assert main(["waveform", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--engine", engine]) == 0

    def test_z_panels_above_bound_exits_2_before_allocating(self, tmp_path, capsys):
        # 10^8 panels used to ask psi_full for a 8.9 GiB working array
        data = dump_config(load_preset("fig3d"))
        data["numerics"]["z_panels"] = 100_000_000
        cfg = write_config(tmp_path, data)
        tracemalloc.start()
        try:
            code = main(["waveform", "--config", cfg, "--out", str(tmp_path / "x.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: numerics.z_panels: ")
        assert peak < 1e6

    # numpy warns of the overflow, also from psi_full's worker threads
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("preset, argv, patch, message", [
        # a 1e-300 mm medium overflows the susceptibility; the waveform used
        # to be written as rows of nan with exit 0
        *[("fig3d", ["waveform", "--engine", engine], ("medium", "length_mm", 1e-300),
           f"the {engine} engine's |psi|^2 is not finite at 4096 of 4096 tau points")
          for engine in ("full", "uniform")],
        # an input scale that under- or overflows |psi|^2 or the counts used to
        # exit 0 with a zero width, or with inf rows and the whole window as
        # the width (the analytic engine: a ValueError traceback)
        *[("fig3d", ["waveform", "--engine", engine], (None, "kappa_scale", scale),
           f"the {engine} engine's |psi|^2 {message}")
          for engine in ("full", "uniform", "analytic")
          for scale, message in ((1e-150, "peaks at 0, below the smallest normal double"),
                                 (1e200, "is not finite at "))],
        *[("fig3d", ["waveform", "--engine", engine], ("detection", key, 1e-300),
           "the coincidence trace peaks at 0, below the smallest normal double")
          for engine, key in (("full", "collection_time_s"), ("uniform", "bin_width_ns"),
                              ("analytic", "collection_time_s"))],
        # beat used to report a beat frequency of 0, and with noise counts end
        # in visibility_with_noise's ValueError traceback
        ("fig4b", ["beat"], (None, "kappa_scale", 1e-200),
         "the full engine's |psi|^2 peaks at 0, below the smallest normal double"),
        ("fig4b", ["beat"], ("detection", "collection_time_s", 1e-300),
         "the beat coincidence trace peaks at 0, below the smallest normal double"),
        # scan --full used to read its widths off |psi|^2, without the
        # detector, and wrote them with exit 0
        ("fig5", ["scan", "--full", "--powers=2.3,1"], ("detection", "collection_time_s", 1e-300),
         "the coincidence trace peaks at 0, below the smallest normal double"),
    ], ids=["length-full", "length-uniform",
            *(f"scale-{size}-{engine}" for engine in ("full", "uniform", "analytic")
              for size in ("tiny", "huge")),
            "collection-time-full", "bin-width-uniform", "collection-time-analytic",
            "scale-tiny-beat", "collection-time-beat-noise", "collection-time-scan-full"])
    def test_non_finite_waveform_exits_4_leaving_no_file(self, tmp_path, capsys, preset, argv,
                                                          patch, message):
        data = small_numerics(dump_config(load_preset(preset)))
        section, key, value = patch
        (data if section is None else data[section])[key] = value
        if argv == ["beat"]:
            data["interferometer"]["noise_counts"] = 1.0
        cfg = write_config(tmp_path, data)
        code = main([argv[0], "--config", cfg, "--out", str(tmp_path / "x.csv"), *argv[1:]])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerics error: {message}")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("section, key, value, message", [
        ("medium", "length_mm", 1e-300, "is not finite at 4096 of 4096 tau points"),
        (None, "kappa_scale", 1e-150, "peaks at 0, below the smallest normal double"),
        (None, "kappa_scale", 1e200, "is not finite at 4096 of 4096 tau points"),
    ], ids=["length", "scale-tiny", "scale-huge"])
    def test_non_finite_scan_waveform_exits_4_leaving_no_file(self, tmp_path, capsys, section,
                                                               key, value, message):
        # scan --full took its widths from the same waveforms and wrote
        # t_coh_full_ns 0 in every row with exit 0
        data = small_numerics(dump_config(load_preset("fig5")))
        (data if section is None else data[section])[key] = value
        cfg = write_config(tmp_path, data)
        code = main(["scan", "--config", cfg, "--full", "--powers", "2.3,1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            f"numerics error: the full engine's |psi|^2 {message}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("argv", [["waveform", "--engine", "full"],
                                      ["waveform", "--engine", "uniform"],
                                      ["waveform", "--engine", "analytic"],
                                      ["beat"], ["scan", "--full"]],
                             ids=["full", "uniform", "analytic", "beat", "scan-full"])
    def test_vanishing_od_without_admissible_grid_exits_4(self, tmp_path, capsys, argv):
        # the EIT linewidth |Omega_c|^2 / (2 gamma13 OD) overflows at OD 1e-300;
        # its suggested n_omega used to end in an OverflowError in the grid check
        data = dump_config(load_preset("fig4b" if argv[0] == "beat" else "fig5"))
        data["medium"]["od"] = 1e-300
        cfg = write_config(tmp_path, data)
        code = main([argv[0], "--config", cfg, "--out", str(tmp_path / "x.csv"), *argv[1:]])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerics error: no admissible grid resolves this run: ")
        assert err.endswith("with the optical depth 1e-300\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("preset", ["fig3d", "fig2c"])
    def test_non_finite_transmission_exits_4_leaving_no_file(self, tmp_path, capsys, preset):
        # OD 1e160 used to write hundreds of nan transmission rows with exit 0
        data = dump_config(load_preset(preset))
        data["medium"]["od"] = 1e160
        cfg = write_config(tmp_path, data)
        assert main(["eit-spectrum", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerics error: eit-spectrum gave a non-finite transmission at ")
        assert "of 2001 omega points" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("preset, patch, argv, code, prefix", [
        ("fig3d", {"medium": {"od": 1e160}}, ["eit-spectrum"], 4, "numerics error: "),
        # the kernel's worker threads overflow too
        ("fig5", {"medium": {"length_mm": 1e-300}}, ["scan", "--full", "--powers=2.3,1",
                                                     "--threads=2"], 4, "numerics error: "),
        # refusals, raised after the kernel ran and before it
        ("fig5", {"detection": {"accidental_floor": 1e9}}, ["scan", "--full", "--powers=2.3,1"],
         2, "config error: detection.accidental_floor: "),
        ("fig4b", {"mode": "nondegenerate"}, ["beat"], 2, "config error: config.mode: "),
        ("fig4b", {"numerics": {"n_omega": 1024, "z_panels": 64, "tau_span_ns": 5000.0},
                   "interferometer": {"shift_mhz": 150.0}}, ["beat"], 4,
         "numerics error: beat shift 150 MHz is at or above the tau grid's Nyquist frequency"),
    ], ids=["spectrum-od", "scan-full-length-2-threads", "floor-swamps-scan-full",
            "beat-nondegenerate", "beat-shift-above-nyquist"])
    def test_overflow_warnings_stay_off_stderr(self, tmp_path, preset, patch, argv, code, prefix):
        # numpy's RuntimeWarnings, each with a source line, used to precede
        # the error; a child process, because pytest records warnings itself
        data = dump_config(load_preset(preset))
        for key, value in patch.items():
            if isinstance(value, dict):
                data[key].update(value)
            else:
                data[key] = value
        cfg = write_config(tmp_path, data)
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "biphoton_sim.cli", argv[0],
                              "--config", cfg, "--out", str(tmp_path / "x.csv"), *argv[1:]],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == code
        assert run.stderr.startswith(prefix)
        assert len(run.stderr.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_rank_deficient_tail_fit_stays_off_stderr(self, tmp_path):
        # tau near 1e196 s overflows polyfit's column scaling; the analytic
        # waveform used to exit 0 after a RankWarning with its source line
        data = dump_config(load_preset("fig3d"))
        data["coupling"]["peak_rabi_mhz"] = 1e-100
        cfg = parse_config(json.dumps(data))
        tau_g = group_delay_estimate(cfg.medium, cfg.coupling.peak_rabi)
        data["numerics"] = {"n_omega": 1024, "z_panels": 64, "tau_span_ns": 4 * tau_g * 1e9}
        path = write_config(tmp_path, data)
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "biphoton_sim.cli", "waveform",
                              "--engine", "analytic", "--config", path,
                              "--out", str(tmp_path / "x.csv")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0
        assert run.stderr == ""
        assert json.loads((tmp_path / "x.json").read_text())["method"] == "width_only"

    def test_formula_scan_at_zero_od_exits_0(self, tmp_path):
        # only a waveform needs the EIT linewidth; the formula scan is linear in OD
        data = dump_config(load_preset("fig5"))
        data["medium"]["od"] = 0.0
        cfg = write_config(tmp_path, data)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((tmp_path / "scan.json").read_text())["slope_s"] == 0.0

    def test_scan_power_without_admissible_grid_exits_4(self, tmp_path, capsys):
        # 1e-300 mW used to draw a suggested tau_span_ns and n_omega of about
        # 300 digits each, which the parser would reject
        code = main(["scan", "--config", "fig5", "--full", "--powers", "1e-300,1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("numerics error: no admissible grid resolves this run: ")
        assert "no tau window below 2^53 ns spans 4 group delays" in err
        assert "(coupling power 1e-300 mW) sets this scale" in err
        assert len(err) < 300
        assert not any(tmp_path.iterdir())

    def test_weak_coupling_without_admissible_grid_exits_4(self, tmp_path, capsys):
        # a finite group delay whose span in ns times n_omega passes the float
        # range used to end in an OverflowError in the grid check
        data = dump_config(load_preset("fig3d"))
        data["coupling"]["peak_rabi_mhz"] = 1e-150
        cfg = write_config(tmp_path, data)
        assert main(["waveform", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerics error: no admissible grid resolves this run: ")
        assert "coupling Rabi frequency 1e-150 MHz" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("argv, code, window", [
        (["waveform"], 4, "5e+03"), (["waveform", "--engine", "analytic"], 4, "5e+03"),
        (["beat"], 4, "5e+03"),
        (["scan", "--full", "--powers=2.3,1"], 4, "1e+04"),
        (["eit-spectrum"], 0, None), (["scan", "--powers=2.3,1"], 0, None),
    ], ids=["full", "analytic", "beat", "scan-full", "spectrum", "scan-formula"])
    def test_tau_window_reaching_the_carrier(self, tmp_path, capsys, argv, code, window):
        # a 1e-300 ns window puts the detuning grid past the optical carrier:
        # every waveform exits 4 with a window of about 8 group delays at the
        # same n_omega, of the weakest power for a scan, while the spectrum
        # and the formula scan read no numerics.  The parser used to reject
        # it for every command (exit 2).
        data = small_numerics(dump_config(load_preset("fig4b")), tau_span_ns=1e-300)
        cfg = write_config(tmp_path, data)
        assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     *argv[1:]]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("numerics error: tau window 1e-300 ns does not exceed n_omega "
                           "lambda0 / 2c = 0.00543096 ns, where the detuning grid reaches the "
                           f"optical carrier; set numerics.tau_span_ns to {window} (n_omega "
                           "4096 kept)\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        else:
            assert err == ""
        if code and argv[0] != "scan":  # scan: see the test below
            # the window the message suggests passes once parsed back
            data["numerics"]["tau_span_ns"] = suggested_span_ns(err)
            cfg = write_config(tmp_path, data)
            assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "x.csv"),
                         *argv[1:]]) == 0
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "x.csv", "x.json"]

    def test_scan_full_window_suggestion_suits_every_power(self, tmp_path, capsys):
        data = small_numerics(dump_config(load_preset("fig4b")), tau_span_ns=1e-300)
        argv = ["scan", "--full", "--powers=2.3,1", "--out", str(tmp_path / "x.csv"), "--config"]
        assert main([*argv, write_config(tmp_path, data)]) == 4
        data["numerics"]["tau_span_ns"] = suggested_span_ns(capsys.readouterr().err)
        assert main([*argv, write_config(tmp_path, data)]) == 0

    @pytest.mark.parametrize("powers, span_ns, message", [
        # 2.3 mW's grid passes and 1 mW's does not: the 2.3 mW waveform used to
        # be computed before the refusal
        ("2.3,1", 5000.0, "tau window 5000 ns is below 4 group delays (6267.79 ns); set "
         "numerics.tau_span_ns to 1e+04 (n_omega 4096 kept)"),
        # each power has a window of its own, but none suits both; the run
        # used to be told 1000 mW's window, which 0.001 mW then refused
        ("1000,0.001", 10000.0, "no admissible grid resolves this run: no tau window at "
         "n_omega 4096 spans 4 group delays of coupling power 0.001 mW (6.27e+06 ns) and "
         "holds 8 EIT linewidths of coupling power 1000 mW (at most 2.52e+03 ns)"),
    ], ids=["second-power", "no-common-window"])
    def test_scan_full_checks_every_power_before_a_kernel_runs(self, tmp_path, capsys,
                                                               monkeypatch, powers, span_ns,
                                                               message):
        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran before every power's grid was checked")

        monkeypatch.setattr(cli, "psi_full", kernel)
        cfg = write_config(tmp_path, small_numerics(dump_config(load_preset("fig4b")),
                                                    tau_span_ns=span_ns))
        assert main(["scan", "--full", f"--powers={powers}", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 4
        assert capsys.readouterr().err == f"numerics error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_each_waveform_checks_its_grid_once(self, tmp_path, monkeypatch):
        # the engine that builds a waveform checks its grid; scan --full also
        # holds every power to the one grid before the first kernel runs
        calls, check = [], biphoton.check_grid

        def check_grid(*args):
            calls.append(args)
            return check(*args)

        for module in (biphoton, cli):
            monkeypatch.setattr(module, "check_grid", check_grid)
        cfg = write_config(tmp_path, small_numerics(dump_config(load_preset("fig4b"))))
        runs = [(["waveform", "--engine", engine], 1) for engine in cli.ENGINES]
        for argv, expected in [*runs, (["beat"], 1), (["scan", "--full", "--powers=2.3,1"], 3)]:
            calls.clear()
            assert main([*argv, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
            assert len(calls) == expected, argv

    @pytest.mark.parametrize("out", ["x.json", "."])
    def test_out_that_is_its_own_sidecar_exits_2(self, tmp_path, capsys, monkeypatch, out):
        # --out x.json named the CSV and its sidecar alike: the run exited 0
        # and wrote only the sidecar; "." has no name to give a sidecar
        monkeypatch.chdir(tmp_path)
        assert main(["eit-spectrum", "--config", "fig2c", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("config", ["run.json", "run.csv"], ids=["sidecar", "csv"])
    def test_out_that_names_the_config_exits_2(self, tmp_path, capsys, monkeypatch, config):
        # --config run.json --out run.csv wrote the sidecar over the config,
        # and --config run.csv the CSV; the same file spelt as another path
        monkeypatch.chdir(tmp_path)
        text = json.dumps(dump_config(load_preset("fig3d")))
        (tmp_path / config).write_text(text)
        assert main(["eit-spectrum", "--config", config, "--out", str(tmp_path / "run.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [config]
        assert (tmp_path / config).read_text() == text

    def test_balanced_unshifted_beat_with_noise_exits_0(self, tmp_path, capsys):
        # full HOM suppression makes the beat trace exactly 0, which used to be
        # taken for an underflow (exit 4); the visibility under noise is 0
        data = small_numerics(dump_config(load_preset("fig4b")), n_omega=4096,
                              tau_span_ns=5000.0, z_panels=64)
        data["interferometer"].update(reflectance=0.5, shift_mhz=0.0, noise_counts=3.0)
        cfg = write_config(tmp_path, data)
        out = tmp_path / "x.csv"
        assert main(["beat", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.with_suffix(".json").read_text())["visibility_with_noise"] == 0.0

    def test_beat_shift_above_nyquist_exits_4_with_a_workable_n_omega(self, tmp_path, capsys):
        # 1024 points over 5000 ns resolve beats below 102.4 MHz; a 150 MHz
        # shift used to be reported as a 54.8 MHz beat
        data = small_numerics(dump_config(load_preset("fig4b")), n_omega=1024,
                              tau_span_ns=5000.0, z_panels=64)
        data["interferometer"]["shift_mhz"] = 150.0
        cfg = write_config(tmp_path, data)
        out = tmp_path / "x.csv"
        assert main(["beat", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == ("numerics error: beat shift 150 MHz is at or above the tau grid's "
                       "Nyquist frequency n_omega / (2 tau_span) = 102.4 MHz; increase n_omega "
                       "to at least 2048\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        data["numerics"]["n_omega"] = 2048
        cfg = write_config(tmp_path, data)
        assert main(["beat", "--config", cfg, "--out", str(out)]) == 0
        side = json.loads(out.with_suffix(".json").read_text())
        assert abs(side["beat_frequency_mhz"] - 150.0) <= side["fft_bin_mhz"]

    def test_csv_has_nine_significant_digits(self, tmp_path):
        data = small_numerics(dump_config(load_preset("fig3d")))
        cfg = write_config(tmp_path, data)
        out = tmp_path / "w.csv"
        assert main(["waveform", "--config", cfg, "--out", str(out)]) == 0
        # %.9g keeps up to nine significant digits (trailing zeros trimmed)
        longest = 0
        for row in out.read_text().splitlines()[1:]:
            mantissa = row.split(",")[3].split("e")[0]
            digits = mantissa.replace("-", "").replace(".", "").lstrip("0")
            longest = max(longest, len(digits))
        assert longest == 9


def test_ignored_keys_parse_at_any_finite_value():
    # no output reads them, so neither their sign nor the carrier bounds them
    for value in (-1.0, 1e300):
        data = dump_config(load_preset("fig5"))
        for section, keys in IGNORED.items():
            data[section].update(dict.fromkeys(keys, value))
        assert parse_config(json.dumps(data)) == load_preset("fig5")


def rabi_patch(peak_rabi_mhz, **sections):
    """fig5's coupling at another Rabi frequency, without its scan powers.

    Scaled from a coupling that small, the powers would fail first.
    """
    coupling = dump_config(load_preset("fig5"))["coupling"]
    return {"coupling": {**coupling, "peak_rabi_mhz": peak_rabi_mhz}, "scan": {}, **sections}


FIG4B_INTERFEROMETER = dump_config(load_preset("fig4b"))["interferometer"]


def field_patch(section, key, value, **sections):
    """fig5's ``section`` with ``key`` set to ``value``."""
    return {section: {**dump_config(load_preset("fig5"))[section], key: value}, **sections}


def without(key):
    """fig5 at small numerics with no ``key``, as the bytes of its file."""
    data = small_numerics(dump_config(load_preset("fig5")))
    del data[key]
    return json.dumps(data).encode()


def repeated_key(preset, pair, again):
    """``preset``'s JSON text with ``again`` written after its ``pair``."""
    text = json.dumps(dump_config(load_preset(preset)))
    assert text.count(pair) == 1
    return text.replace(pair, f"{pair}, {again}").encode()


@pytest.mark.parametrize("argv, patch, field", [
    (["scan"], {"numerics": [1]}, "numerics"),
    (["scan"], {"scan": 5}, "scan"),
    (["scan"], {"scan": {"powers_mw": ["a"]}}, "scan.powers_mw[0]"),
    (["scan"], {"kappa_scale": "x"}, "config.kappa_scale"),
    (["waveform"], {"numerics": {"tau_span_ns": math.nan}}, "numerics.tau_span_ns"),
    (["scan"], {"scan": {"powers_mw": [1.0, 0.0]}}, "scan.powers_mw[1]"),
    (["scan", "--powers=0,1"], {}, "--powers"),
    (["scan", "--powers=a,b"], {}, "--powers"),
    # empty items used to be dropped, and the two numbers scanned
    (["scan", "--powers=2.3,,1,"], {}, "--powers"),
    (["scan"], {"scan": {}}, "scan.powers_mw"),
    (["scan"], {"scan": {"powers_mw": [1.0]}}, "scan.powers_mw"),
    (["scan", "--powers=1.0"], {}, "--powers"),
    (["scan", "--powers=1e300,1"], {}, "--powers"),
    (["scan"], {"scan": {"powers_mw": [1.0, 1e300]}}, "scan.powers_mw[1]"),
    (["scan"], {"kappa_scale": math.nan}, "config.kappa_scale"),
    (["beat"], {"interferometer": {"reflectance": 0.5, "shift_mhz": 11.0,
                                   "noise_counts": math.nan}},
     "interferometer.noise_counts"),
    (["waveform"], {"numerics": {"n_omega": 4096.9}}, "numerics.n_omega"),
    (["waveform"], {"numerics": {"n_omega": "4096"}}, "numerics.n_omega"),
    (["waveform"], {"numerics": {"n_omega": True}}, "numerics.n_omega"),
    (["waveform"], {"numerics": {"n_omega": math.inf}}, "numerics.n_omega"),
    (["waveform"],
     {"coupling": {**dump_config(load_preset("fig5"))["coupling"], "peak_rabi_mhz": 1e200}},
     "coupling.peak_rabi_mhz"),
    (["waveform"], {"numerik": {"n_omega": 4096}}, "config.numerik"),
    (["waveform"], {"medium": {**dump_config(load_preset("fig5"))["medium"], "odd": 1.0}},
     "medium.odd"),
    (["waveform", "--threads", "-3"], {}, "--threads"),
    (["eit-spectrum", "--threads=-1"], {}, "--threads"),
    (["waveform", "--engine", "uniform"],
     {"detection": {**dump_config(load_preset("fig5"))["detection"], "accidental_floor": 1e9}},
     "detection.accidental_floor"),
    # scan --full used to ignore the floor and write its widths
    (["scan", "--full", "--powers=2.3,1"], field_patch("detection", "accidental_floor", 1e9),
     "detection.accidental_floor"),
    (["waveform"], rabi_patch(0.0), "coupling.peak_rabi_mhz"),
    (["waveform", "--engine", "uniform"], rabi_patch(0.0), "coupling.peak_rabi_mhz"),
    (["waveform", "--engine", "analytic"], rabi_patch(1e-200), "coupling.peak_rabi_mhz"),
    (["waveform"], rabi_patch(1e-200), "coupling.peak_rabi_mhz"),
    (["beat"], rabi_patch(0.0, interferometer=FIG4B_INTERFEROMETER), "coupling.peak_rabi_mhz"),
    (["beat"], rabi_patch(1e-200, interferometer=FIG4B_INTERFEROMETER),
     "coupling.peak_rabi_mhz"),
    (["eit-spectrum"], rabi_patch(1e-200), "coupling.peak_rabi_mhz"),
    (["scan", "--powers=1e-320,1"], {}, "--powers"),
    (["scan", "--powers=1e-311,1"], {}, "--powers"),  # finite delay, x overflows
    (["scan"], {"scan": {"powers_mw": [1e-320, 1.0]}}, "scan.powers_mw[0]"),
    (["eit-spectrum"], field_patch("medium", "length_mm", -5), "medium.length_mm"),
    (["waveform"], field_patch("medium", "theta_deg", 90.0), "medium.theta_deg"),
    (["scan"], field_patch("coupling", "waist_mm", 0.0), "coupling.waist_mm"),
    (["waveform"], field_patch("detection", "duty_cycle", 0.0), "detection.duty_cycle"),
    (["beat"], {"interferometer": {**FIG4B_INTERFEROMETER, "reflectance": 1.5}},
     "interferometer.reflectance"),
    # the beat formulas assume |psi(tau)| = |psi(-tau)|, which only the degenerate scheme gives
    (["beat"], {"mode": "nondegenerate", "interferometer": FIG4B_INTERFEROMETER}, "config.mode"),
    (["waveform"], field_patch("medium", "od", 0.0), "medium.od"),
    (["waveform", "--engine", "uniform"], field_patch("medium", "od", 0.0), "medium.od"),
    (["waveform", "--engine", "analytic"], field_patch("medium", "od", 0.0), "medium.od"),
    (["beat"], field_patch("medium", "od", 0.0, interferometer=FIG4B_INTERFEROMETER),
     "medium.od"),
    (["scan", "--full"], field_patch("medium", "od", 0.0), "medium.od"),
    # 2 gamma13 OD overflows: the OD is named, not the coupling it is divided by
    (["eit-spectrum"], field_patch("medium", "od", 1e305), "medium.od"),
    (["waveform"], field_patch("medium", "od", 1e305), "medium.od"),
    # the coherence time is finite in seconds but not in the ns that are written
    (["scan", "--powers=1e-306,1"], {}, "--powers"),
    (["eit-spectrum"], rabi_patch(1.2e-152), "coupling.peak_rabi_mhz"),
    (["waveform"], field_patch("medium", "od", 10 ** 400), "medium.od"),
    # finite in MHz, infinite in rad/s: the field is named, not the OD it meets next
    (["eit-spectrum"], field_patch("medium", "gamma13_mhz", 1e308), "medium.gamma13_mhz"),
    (["eit-spectrum"], field_patch("medium", "gamma13_mhz", 1e308, **rabi_patch(0.0)),
     "medium.gamma13_mhz"),
    # an ignored key of older files is still a number
    (["waveform"], field_patch("pump", "power_mw", "x"), "pump.power_mw"),
    (["waveform"], b'{"mode": "degenerate\xff"}', "config"),
    (["waveform"], b"[" * 100_000 + b"]" * 100_000, "config"),
    (["waveform"], b'{"kappa_scale": 1' + b"0" * 5000 + b"}", "config"),
    (["waveform"], b"[1]", "config"),
    (["waveform"], b"{broken", "config"),
    # a configured beam with nothing to scale the scan powers from
    (["scan"], field_patch("coupling", "power_mw", 0.0), "coupling.power_mw"),
    (["scan", "--powers=1,2"], field_patch("coupling", "power_mw", 0.0, scan={}),
     "coupling.power_mw"),
    (["scan"], field_patch("coupling", "peak_rabi_mhz", 0.0), "coupling.peak_rabi_mhz"),
    (["waveform"], {"mode": "both"}, "config.mode"),
    (["scan"], {"scan": {"powers_mw": []}}, "scan.powers_mw"),
    (["scan"], {"scan": {"powers_mw": "x"}}, "scan.powers_mw"),
    (["waveform"], {"kappa_scale": 0}, "config.kappa_scale"),
    (["waveform"], {"kappa_scale": -1}, "config.kappa_scale"),
    (["waveform"], {"numerics": {"tau_span_ns": -5}}, "numerics.tau_span_ns"),
    # the last copy of a key written twice used to win silently
    (["eit-spectrum"], repeated_key("fig3d", '"od": 150.0', '"od": 5'), "medium.od"),
    (["eit-spectrum"], repeated_key("fig3d", '"mode": "degenerate"', '"mode": "nondegenerate"'),
     "config.mode"),
    (["waveform"], without("mode"), "config.mode"),
    (["waveform"], without("detection"), "config.detection"),
], ids=["numerics-list", "scan-number", "power-string", "scale-string",
        "tau-span-nan", "power-zero", "powers-flag-zero", "powers-flag-unparsable",
        "powers-flag-empty-item",
        "no-powers", "one-power", "one-power-flag", "powers-flag-overflow",
        "power-overflow", "scale-nan", "noise-nan",
        "n-omega-fraction", "n-omega-string", "n-omega-bool", "n-omega-infinity",
        "rabi-overflow", "unknown-section", "unknown-field",
        "threads-negative", "threads-negative-spectrum",
        "floor-swamps-signal", "floor-swamps-scan-full", "rabi-zero-full", "rabi-zero-uniform",
        "rabi-underflow-analytic", "rabi-underflow-full", "rabi-zero-beat",
        "rabi-underflow-beat", "rabi-underflow-spectrum", "powers-flag-underflow",
        "powers-flag-abscissa-overflow", "power-underflow", "length-negative",
        "theta-right-angle", "waist-zero", "duty-cycle-zero", "reflectance-above-one",
        "beat-nondegenerate",
        "od-zero-full", "od-zero-uniform", "od-zero-analytic", "od-zero-beat",
        "od-zero-scan-full", "od-overflow-spectrum", "od-overflow-full",
        "powers-flag-coherence-ns-overflow", "rabi-coherence-ns-overflow-spectrum",
        "od-integer-past-float-range", "gamma13-si-overflow-spectrum",
        "gamma13-si-overflow-two-level", "ignored-key-string", "not-utf8", "nested-too-deep",
        "integer-too-long", "top-level-list", "invalid-json",
        "reference-power-zero", "reference-power-zero-flag", "reference-rabi-zero",
        "mode-both", "powers-empty", "powers-string", "scale-zero", "scale-negative",
        "tau-span-negative", "duplicate-od", "duplicate-mode", "mode-missing",
        "section-missing"])
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, argv, patch, field):
    if isinstance(patch, bytes):  # the file as written, byte for byte
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(patch)
        cfg = str(cfg)
    else:
        data = small_numerics(dump_config(load_preset("fig5")))
        data.update(patch)
        cfg = write_config(tmp_path, data)
    code = main([argv[0], "--config", cfg, "--out", str(tmp_path / "x.csv"), *argv[1:]])
    assert code == 2
    # the field path leads the message once, never behind a section prefix
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


DELETE = object()
KNOWN_KEYS = sorted({"mode", "scan", "powers_mw", "kappa_scale", *SECTIONS,
                     *(key for _, fields in SECTIONS.values() for key, _, _ in fields),
                     *(key for keys in IGNORED.values() for key in keys)})
MUTATIONS = st.lists(st.tuples(
    st.sampled_from([None, *SECTIONS, "scan"]),
    st.sampled_from(KNOWN_KEYS) | st.text(max_size=6),
    st.just(DELETE) | st.floats() | st.integers() | st.text(max_size=4) | st.booleans()
    | st.none() | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(PRESET_NAMES), mutations=MUTATIONS)
@example(name="fig4b", mutations=[("numerics", "n_omega", math.inf)])
def test_mutated_preset_parses_or_raises_config_error(name, mutations):
    doc = dump_config(load_preset(name))
    for section, key, value in mutations:
        target = doc if section is None else doc.setdefault(section, {})
        if not isinstance(target, dict):
            continue
        if value is DELETE:
            target.pop(key, None)
        else:
            target[key] = value
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        pass
