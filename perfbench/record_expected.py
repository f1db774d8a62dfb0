#!/usr/bin/env python3
"""Record the engine scalars the output checks compare against.

Runs every `waveform` command of the benchmark's workloads once and stores
``e_inverse_width_ns`` and ``exp_tau_ns`` from each sidecar in
``expected_engine.json``.  Run it from the root of a checkout of the commit
whose outputs are the reference:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run


def main() -> int:
    workdir = run.OUT / "work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = run.child_env()
    stored = {}
    for name in ("full-engine", "fast-datasets"):
        for cmd in run.Workload(name, 0, workdir).iteration():
            if cmd.kind != "waveform":
                continue
            _, code, _, err = run.run_cli(cmd.argv, env)
            if code != 0:
                print(f"{cmd.label}: exit code {code}\n{err}", file=sys.stderr)
                return 1
            side = json.loads(cmd.out.with_suffix(".json").read_text(encoding="utf-8"))
            stored[checks.engine_key(cmd.preset, cmd.engine)] = {
                key: side[key] for key in ("e_inverse_width_ns", "exp_tau_ns")}
    shutil.rmtree(workdir, ignore_errors=True)
    checks.EXPECTED_ENGINE_PATH.write_text(
        json.dumps(dict(sorted(stored.items())), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(stored)} entries to {checks.EXPECTED_ENGINE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
