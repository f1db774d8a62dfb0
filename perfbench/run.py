#!/usr/bin/env python3
"""Closed-loop benchmark of the biphoton-sim command-line interface.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs to be installed):

    python3 perfbench/run.py --workload full-engine --seed 1 --seconds 19 --trace 0

With ``--trace 0`` a single client runs the workload's CLI commands as
subprocesses, one after another, each started only after the previous one
exited, and prints the end-to-end metrics.  With ``--trace 1`` the same argv
runs in-process through ``biphoton_sim.cli.main`` with spans around the
package's public functions, and the per-layer metrics are printed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
OUT = BENCH_DIR / "out"

WORKLOADS = ("full-engine", "fast-datasets", "power-scan", "oracle-selftest")
NPROC = os.cpu_count() or 1
SCAN_THREADS = min(2, NPROC)  # never more threads than cores
# Only --threads may add parallelism; the "@ simpson" matvec goes through BLAS.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SETUP_REPEATS = 15         # timed `--version` runs per benchmark run, after one discarded
SCAN_POWERS = 3            # seeded powers per `scan --full` command
POWER_RANGE_MW = (0.46, 2.51)  # fig5's coupling-power range
COMMAND_TIMEOUT_S = 60.0
# A run starts no iteration it would end after min(RUN_LIMIT_S, --seconds +
# RUN_SLACK_S), so a slow host shortens the run instead of stretching it.
RUN_LIMIT_S = 150.0
RUN_SLACK_S = 17.0         # set-up, warm-up and, when traced, the scaling timings
SCALING_RESERVE_S = 6.0    # the untraced fig3d psi_full timings that end a traced run
TAIL_BEYOND = 10           # samples that must lie beyond the reported tail percentile
# Probe time that defines the reference host speed: reported command and set-up
# times are the seconds they would take on a host where probe.py takes this long.
PROBE_REF_S = 0.25
PROBE_EVERY_S = 2.0         # least time between two probes
PROBE_WINDOW = 5            # probes on each side of a command that set its scale factor

# Seconds one iteration of each workload takes, probes included, on a 2-core
# x86 host at the commit that added the benchmark.  A run measures
# floor(--seconds / nominal) iterations, so every run with the same --seconds
# measures the same commands and the same sample count, whatever the speed of
# the code under test; the tail percentile below depends on that count.
NOMINAL_ITERATION_S = {"full-engine": 7.4, "fast-datasets": 8.5,
                       "power-scan": 3.6, "oracle-selftest": 2.6}

# computed, not measured: per (omega, z) cell psi_full forms q1, q2, the phase
# factor and kappa, each a complex128 written once and read once
PSI_FULL_BYTES_PER_CELL = 4 * 16 * 2


@dataclass
class Command:
    """One CLI invocation and what its output check needs."""

    kind: str             # eit-spectrum | waveform | beat | scan | selftest
    preset: str
    config: dict | None   # the generated configuration the command reads
    out: Path | None      # CSV path; the sidecar sits next to it
    argv: list[str]       # arguments after the program name
    engine: str | None = None
    full: bool = False    # scan --full

    @property
    def label(self) -> str:
        return " ".join([self.kind, self.preset] + ([self.engine] if self.engine else []))

    def psi_full_cells(self) -> int:
        """Cells n_omega * (z_panels + 1) the command's psi_full calls cover."""
        if self.config is None:
            return 0
        num = self.config["numerics"]
        per_call = num["n_omega"] * (num["z_panels"] + 1)
        if self.kind == "beat" or (self.kind == "waveform" and self.engine == "full"):
            return per_call
        if self.kind == "scan" and self.full:
            return per_call * len(self.config["scan"]["powers_mw"])
        return 0


class HostSpeed:
    """Scales wall times to the reference host speed set by PROBE_REF_S.

    On a shared host the machine's speed drifts by tens of percent within a
    minute, so medians of raw wall times differ from run to run by more than
    a change worth measuring.  ``probe.py``, fixed reference work that
    imports nothing from the program, runs as a process between commands,
    at most every PROBE_EVERY_S.  Each command's wall time is scaled by
    PROBE_REF_S over a trimmed mean of the probe times around it (factor()).
    A change to the program under test does not move the probe.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.probes = [self._time_probe()]
        self.last = time.perf_counter()
        self.walls: list[tuple[float, int]] = []  # (wall, index of the probe before it)

    def record(self, wall: float) -> int:
        """Store one wall time; return its index for scaled()."""
        self.walls.append((wall, len(self.probes) - 1))
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self._probe()
        return len(self.walls) - 1

    def _time_probe(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "probe.py")], env=self.env,
                       cwd=ROOT, check=True, timeout=COMMAND_TIMEOUT_S)
        return time.perf_counter() - start

    def _probe(self) -> None:
        self.probes.append(self._time_probe())
        self.last = time.perf_counter()

    def scaled(self) -> list[float]:
        """Every stored wall time, scaled to the reference host speed."""
        if self.walls and self.walls[-1][1] == len(self.probes) - 1:
            self._probe()
        return [wall * self.factor(i) for wall, i in self.walls]

    def factor(self, i: int) -> float:
        """Scale factor for a command between probes ``i`` and ``i + 1``.

        Probe times can come in coarse steps (about 50 ms on a shared 2-core
        x86 VM, whose host runs other work in slices), so one probe is a
        coarse reading.  The mean
        of up to PROBE_WINDOW probes on either side, without the largest and
        the smallest once there are five, follows drift over tens of seconds
        without following one slow probe.
        """
        window = sorted(self.probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
        if len(window) >= 5:
            window = window[1:-1]
        return PROBE_REF_S / statistics.fmean(window)


def load_preset(name: str) -> dict:
    return json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8"))


class Workload:
    """Generates the commands of one workload from a seed.

    Configuration files are written into ``workdir``; the program receives
    only those files and argv.  The seed sets the command order of every
    iteration and, for power-scan, the coupling powers.
    """

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.n_configs = 0

    def _data(self, kind: str, preset: str, extra: list[str], engine: str | None = None,
              cfg: dict | None = None, full: bool = False) -> Command:
        """A data command reading a fresh config file (``preset`` unless ``cfg``)."""
        cfg = cfg or load_preset(preset)
        self.n_configs += 1
        path = self.workdir / f"config-{self.n_configs:04d}-{preset}.json"
        path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        out = self.workdir / f"{kind}-{engine or 'out'}-{preset}.csv"
        argv = [kind, "--config", str(path), "--out", str(out)] + extra
        return Command(kind=kind, preset=preset, config=cfg, out=out, argv=argv,
                       engine=engine, full=full)

    def iterations(self, seconds: float) -> int:
        """Measured iterations of a run of nominal length ``seconds``."""
        return max(1, int(seconds // NOMINAL_ITERATION_S[self.name]))

    def iteration(self) -> list[Command]:
        """The commands of one closed-loop iteration, in seeded order."""
        if self.name == "full-engine":
            cmds = [self._data("waveform", p, ["--engine", "full", "--threads", "1"], "full")
                    for p in ("fig3d", "fig2d")]
            cmds.append(self._data("beat", "fig4b", ["--threads", "1"]))
        elif self.name == "fast-datasets":
            cmds = [self._data("eit-spectrum", p, [])
                    for p in ("fig2c", "fig2f", "fig3c", "fig3f")]
            for engine in ("uniform", "analytic"):
                cmds += [self._data("waveform", p, ["--engine", engine], engine)
                         for p in ("fig2c", "fig2d", "fig2e", "fig2f",
                                   "fig3c", "fig3d", "fig3e", "fig3f")]
            cmds.append(self._data("scan", "fig5", []))
        elif self.name == "power-scan":
            cfg = load_preset("fig5")
            cfg["scan"]["powers_mw"] = [self.rng.uniform(*POWER_RANGE_MW)
                                        for _ in range(SCAN_POWERS)]
            cmds = [self._data("scan", "fig5", ["--full", "--threads", str(SCAN_THREADS)],
                               cfg=cfg, full=True)]
        elif self.name == "oracle-selftest":
            cmds = [Command(kind="selftest", preset="-", config=None, out=None,
                            argv=["selftest"])]
        else:
            raise ValueError(f"unknown workload {self.name!r}")
        self.rng.shuffle(cmds)
        return cmds


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_gmean(samples: list[tuple[str, float]]) -> float:
    """Geometric mean over the distinct commands of each command's median.

    A median over a mix of commands is decided by the few samples of the
    command that happens to sit in the middle, and does not move when another
    command gets slower.  The per-command medians use every sample, and the
    geometric mean moves by the same share whichever command changes.
    """
    by_label: dict[str, list[float]] = {}
    for label, value in samples:
        by_label.setdefault(label, []).append(value)
    return statistics.geometric_mean([statistics.median(v) for v in by_label.values()])


def tail(values: list[float]) -> tuple[float, str]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    When that percentile would fall below the median (fewer than
    2 * TAIL_BEYOND samples) it is no tail, and the maximum is reported
    instead, labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank >= n + 1:
        return ordered[rank - 1], f"p{100.0 * rank / n:.1f} of n={n}"
    return ordered[-1], (f"max of n={n}: no percentile at or above the median "
                         f"has {TAIL_BEYOND} samples beyond it")


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "seed": seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "child_env": PINNED_ENV,
        "thread_note": (f"this host has {NPROC} cores: thread scaling beyond "
                        f"{NPROC} threads cannot be measured here"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_result(name: str, payload: dict) -> Path:
    path = OUT / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# --trace 0: subprocess closed loop, end-to-end metrics
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "BIPHOTON_SIM_THREADS")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], env: dict) -> tuple[float, int, str, str, float]:
    """Run the CLI once; return (wall s, exit code, stdout, stderr, max RSS MB).

    The child is reaped with ``os.wait4`` so that its own resource usage is
    read; the probe processes in between do not count towards peak_rss_mb.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "biphoton_sim.cli", *argv],
                                env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    if wall >= COMMAND_TIMEOUT_S:
        stderr += f"\ntimed out after {COMMAND_TIMEOUT_S} s"
    return wall, code, stdout, stderr, usage.ru_maxrss / 1024.0


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, dict]:
    run_start = time.perf_counter()
    env = child_env()
    expected_engine = checks.load_expected_engine()
    failures: list[str] = []
    attempted = 0
    host = HostSpeed(env)
    rss: list[float] = []  # max RSS of each CLI child, MB

    def invoke(label: str, argv: list[str], check) -> int:
        """Run one CLI command; return the index of its wall time in ``host``."""
        nonlocal attempted
        attempted += 1
        wall, code, out, err, rss_mb = run_cli(argv, env)
        rss.append(rss_mb)
        index = host.record(wall)
        problems = check(code, out)
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}"
                            + (f" [stderr: {err.strip()[-300:]}]" if err.strip() else ""))
        return index

    def check_version(code: int, out: str) -> list[str]:
        return [] if code == 0 and out.strip() else [f"exit code {code}, output {out!r}"]

    setup = [invoke("--version", ["--version"], check_version)
             for _ in range(SETUP_REPEATS + 1)][1:]

    def iteration(cmds: list[Command]) -> list[tuple[str, int]]:
        samples = []
        for cmd in cmds:
            if cmd.out is not None:
                cmd.out.unlink(missing_ok=True)
                cmd.out.with_suffix(".json").unlink(missing_ok=True)
            index = invoke(cmd.label, cmd.argv, lambda code, out, cmd=cmd:
                           checks.check_outputs(cmd, code, out, expected_engine))
            samples.append((cmd.label, index))
        return samples

    iteration(workload.iteration())  # warm-up, discarded
    measured: list[tuple[str, int]] = []
    iterations = 0
    limit = min(RUN_LIMIT_S, seconds + RUN_SLACK_S)
    while iterations < workload.iterations(seconds):
        start = time.perf_counter()
        measured += iteration(workload.iteration())
        iterations += 1
        now = time.perf_counter()
        if now - run_start + (now - start) > limit:
            break

    all_scaled = host.scaled()
    walls = [host.walls[i][0] for _, i in measured]
    scaled = [all_scaled[i] for _, i in measured]
    setup_scaled = [all_scaled[i] for i in setup]
    peak_rss_mb = max(rss)
    failed = len(failures)
    tail_value, tail_label = tail(scaled)
    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "command_s_median_gmean": metric(
            median_gmean([(label, all_scaled[i]) for label, i in measured]), "s"),
        "command_s_tail": metric(tail_value, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_fraction": metric(1.0 - failed / attempted, "fraction"),
    }
    by_label: dict[str, list[float]] = {}
    for label, i in measured:
        by_label.setdefault(label, []).append(all_scaled[i])
    detail = {
        "iterations_measured": iterations,
        "commands_measured": len(walls),
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failures": failures[:20],
        "setup_s_quartiles": quartiles(setup_scaled),
        "command_s_quartiles": quartiles(scaled),
        "command_s_p50": statistics.median(scaled),
        "raw_command_median_gmean_s": median_gmean([(label, host.walls[i][0])
                                                    for label, i in measured]),
        "command_s_tail_rank": tail_label,
        "raw_setup_wall_s_quartiles": quartiles([host.walls[i][0] for i in setup]),
        "raw_command_wall_s_quartiles": quartiles(walls),
        "raw_command_wall_s_tail": tail(walls)[0],
        "host_speed_factor_quartiles": quartiles([host.factor(i) for _, i in host.walls]),
        "probe_s_quartiles": quartiles(host.probes),
        "probes": len(host.probes),
        "probe_s": host.probes,
        # (label, raw wall s, index of the probe before it) of every timed command
        "walls": [("--version", *host.walls[i]) for i in setup]
                 + [(label, *host.walls[i]) for label, i in measured],
        "per_command_median_s": {k: statistics.median(v) for k, v in sorted(by_label.items())},
    }
    return metrics, detail


def report_untraced(workload: str, metrics: dict, detail: dict) -> None:
    q = detail["command_s_quartiles"]
    s = detail["setup_s_quartiles"]
    rq = detail["raw_command_wall_s_quartiles"]
    rs = detail["raw_setup_wall_s_quartiles"]
    f = detail["host_speed_factor_quartiles"]
    print(f"== {workload}: {detail['commands_measured']} commands in "
          f"{detail['iterations_measured']} iterations after one warm-up iteration, "
          f"closed loop, 1 client")
    print(f"  times are wall times scaled to the reference host speed "
          f"(probe {PROBE_REF_S} s); scale factor q1 {f[0]:.3f}, median {f[1]:.3f}, "
          f"q3 {f[2]:.3f}")
    print(f"  setup_s              {metrics['setup_s']['value']:.4f} s   "
          f"(q1 {s[0]:.4f}, q3 {s[2]:.4f}, n={SETUP_REPEATS}; raw wall median {rs[1]:.4f} s)")
    print(f"  command_s_median_gmean {metrics['command_s_median_gmean']['value']:.4f} s   "
          f"({len(detail['per_command_median_s'])} distinct commands; raw "
          f"{detail['raw_command_median_gmean_s']:.4f} s)")
    print(f"  command_s_p50        {detail['command_s_p50']:.4f} s   "
          f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={detail['commands_measured']}; "
          f"raw wall median {rq[1]:.4f} s)")
    print(f"  command_s_tail       {metrics['command_s_tail']['value']:.4f} s   "
          f"({detail['command_s_tail_rank']}; raw wall {detail['raw_command_wall_s_tail']:.4f} s)")
    print(f"  peak_rss_mb          {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  failed_fraction      {detail['failed_fraction']:.4f}   "
          f"({detail['failed']} of {detail['attempted']} CLI runs; "
          f"ok_fraction {metrics['ok_fraction']['value']:.4f})")
    for label, value in detail["per_command_median_s"].items():
        print(f"    {label:<32} median {value:.4f} s")
    for problem in detail["failures"]:
        print(f"  FAILED {problem}")


# ---------------------------------------------------------------------------
# --trace 1: in-process passes with spans, per-layer metrics
# ---------------------------------------------------------------------------

def import_package():
    """Import biphoton_sim from the checkout's src/, with the pinned environment."""
    os.environ.update(PINNED_ENV)
    os.environ.pop("BIPHOTON_SIM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import biphoton_sim
    from biphoton_sim import cli, reference  # noqa: F401  (reference: selftest imports it lazily)
    if Path(biphoton_sim.__file__).resolve().parent != SRC / "biphoton_sim":
        raise RuntimeError(f"imported biphoton_sim from {biphoton_sim.__file__}, not {SRC}")
    return cli


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    run_start = time.perf_counter()
    cli = import_package()
    expected_engine = checks.load_expected_engine()
    cmds = workload.iteration()  # every pass runs this same argv list
    tracer = spans.Tracer()
    failures: list[str] = []
    attempted = 0

    def one_pass(traced: bool) -> float:
        nonlocal attempted
        main = tracer.wrap(spans.ROOT, cli.main) if traced else cli.main
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            results = []
            for cmd in cmds:
                attempted += 1
                stdout = io.StringIO()
                error = ""
                try:
                    with contextlib.redirect_stdout(stdout):
                        code = main(cmd.argv)
                except (Exception, SystemExit):
                    code, error = -1, traceback.format_exc(limit=3)
                results.append((cmd, code, stdout.getvalue(), error))
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        for cmd, code, out, error in results:
            problems = checks.check_outputs(cmd, code, out, expected_engine)
            if problems:
                failures.append(f"{cmd.label}: {'; '.join(problems)} {error}".rstrip())
        return wall

    one_pass(traced=False)  # warm-up, discarded
    traced_walls, untraced_walls, pass_stats = [], [], []
    # each traced pass is paired with an untraced one, so a pair costs two iterations
    limit = min(RUN_LIMIT_S, seconds + RUN_SLACK_S) - SCALING_RESERVE_S
    for _ in range(max(1, workload.iterations(seconds) // 2)):
        start = time.perf_counter()
        first, cells_before = len(tracer.spans), tracer.cells
        traced_walls.append(one_pass(traced=True))
        pass_stats.append((spans.self_times(tracer.spans, first), tracer.cells - cells_before))
        untraced_walls.append(one_pass(traced=False))
        now = time.perf_counter()
        if now - run_start + (now - start) > limit:
            break

    # Thread scaling of psi_full on fig3d: t1 / (2 t2); 1.0 is perfect scaling.
    fig3d = cli.load_config(str(INPUTS / "fig3d.json"))
    times = {}
    for threads in (1, SCAN_THREADS):
        start = time.perf_counter()
        cli.psi_full(fig3d.numerics.grid(), fig3d.numerics.z_panels, fig3d.medium,
                     fig3d.pump, fig3d.coupling, fig3d.mode,
                     scale=fig3d.kappa_scale, threads=threads)
        times[threads] = time.perf_counter() - start
    scaling_2t = times[1] / (2.0 * times[SCAN_THREADS])

    # Counts must repeat exactly from pass to pass.
    calls_per_pass = [dict(stats[2]) for stats, _ in pass_stats]
    cells_per_pass = [cells for _, cells in pass_stats]
    if any(c != calls_per_pass[0] for c in calls_per_pass):
        failures.append(f"span call counts differ between passes: {calls_per_pass}")
    if any(c != cells_per_pass[0] for c in cells_per_pass):
        failures.append(f"psi_full cells differ between passes: {cells_per_pass}")
    if workload.name != "oracle-selftest":
        expected_cells = sum(cmd.psi_full_cells() for cmd in cmds)
        if cells_per_pass[0] != expected_cells:
            failures.append(f"traced psi_full cells {cells_per_pass[0]} != "
                            f"{expected_cells} implied by the configurations")

    n = len(pass_stats)
    self_s = {name: sum(st[0][name] for st, _ in pass_stats) / n for name in spans.SPAN_NAMES}
    incl_s = {name: sum(st[1][name] for st, _ in pass_stats) / n for name in spans.SPAN_NAMES}
    calls = calls_per_pass[0]
    cells = cells_per_pass[0]
    traced_pass = statistics.median(traced_walls)
    untraced_pass = statistics.median(untraced_walls)

    metrics = {}
    for name in spans.SPAN_NAMES:
        if name == spans.ROOT:
            metrics["cli.main_s"] = metric(incl_s[name], "s")
            metrics["cli.self_s"] = metric(self_s[name], "s")
        else:
            metrics[f"{name}_s"] = metric(self_s[name], "s")
        metrics[f"{name}_calls"] = metric(calls.get(name, 0), "count")
    psi_full_s = incl_s["biphoton.psi_full"]
    metrics.update({
        "biphoton.psi_full_cells": metric(cells, "count"),
        "biphoton.psi_full_cells_per_s": metric(cells / psi_full_s if psi_full_s else 0.0, "1/s"),
        "biphoton.psi_full_bytes_computed": metric(cells * PSI_FULL_BYTES_PER_CELL, "B"),
        "biphoton.psi_full_scaling_2t": metric(scaling_2t, "ratio"),
        "trace.traced_pass_s": metric(traced_pass, "s"),
        "trace.untraced_pass_s": metric(untraced_pass, "s"),
        "trace.overhead_s": metric(traced_pass - untraced_pass, "s"),
    })
    detail = {
        "passes_traced": len(traced_walls),
        "passes_untraced": len(untraced_walls),
        "commands_per_pass": len(cmds),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "self_time_sum_s": sum(self_s.values()),
        "psi_full_s_inclusive": psi_full_s,
        "psi_full_scaling_times_s": {str(k): v for k, v in times.items()},
        "psi_full_bytes_computed_note": (
            f"computed, not measured: {PSI_FULL_BYTES_PER_CELL} B per cell "
            "(q1, q2, phase, kappa as complex128, one write and one read each)"),
    }
    trace_file = write_result(f"trace-{workload.name}-seed{seed}.json", {
        "workload": workload.name,
        "spans": [{"name": s[0], "start": s[1] - run_start, "end": s[2] - run_start,
                   "parent": s[3]} for s in tracer.spans],
    })
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, detail


def report_traced(workload: str, metrics: dict, detail: dict) -> None:
    print(f"== {workload}: traced in-process, {detail['passes_traced']} traced and "
          f"{detail['passes_untraced']} untraced passes of {detail['commands_per_pass']} "
          f"commands after one warm-up pass; per-pass values")
    print(f"  {'span':<38} {'self s':>10} {'calls':>6}")
    for name in spans.SPAN_NAMES:
        key = "cli.self_s" if name == spans.ROOT else f"{name}_s"
        print(f"  {name:<38} {metrics[key]['value']:>10.4f} "
              f"{metrics[f'{name}_calls']['value']:>6}")
    traced = metrics["trace.traced_pass_s"]["value"]
    print(f"  self times sum to {detail['self_time_sum_s']:.4f} s of a "
          f"{traced:.4f} s traced pass; tracing overhead "
          f"{metrics['trace.overhead_s']['value']:+.4f} s against a "
          f"{metrics['trace.untraced_pass_s']['value']:.4f} s untraced pass")
    print(f"  psi_full: {metrics['biphoton.psi_full_cells']['value']} cells, "
          f"{metrics['biphoton.psi_full_cells_per_s']['value']:.4g} cells/s, "
          f"{metrics['biphoton.psi_full_bytes_computed']['value']} B computed; "
          f"scaling t1/(2 t2) on fig3d {metrics['biphoton.psi_full_scaling_2t']['value']:.3f}")
    for problem in detail["failures"]:
        print(f"  FAILED {problem}")


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=19)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biphoton_sim" / "cli.py").is_file():
        print(f"error: no biphoton_sim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, workdir)
    if args.trace:
        metrics, detail = run_traced(workload, args.seed, args.seconds)
        report_traced(args.workload, metrics, detail)
    else:
        metrics, detail = run_untraced(workload, args.seconds)
        report_untraced(args.workload, metrics, detail)
    shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    path = write_result(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "result": result, "detail": detail})
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
