"""Smoke test of the benchmark itself, at a tiny workload size.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in workloads.py (those in BENCHMARK.json and the
fleet row) it checks that an untraced run prints every end-to-end metric
and a traced run every per-layer metric of BENCHMARK.json, each with its
declared unit, and that the correctness gate passes on the real
reference and fires on a wrong one.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = 0.05
SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def last_json(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = last_json(name, trace)
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(out)}")
            check(out["attempted"] >= 1, f"{name}: nothing attempted")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == declared,
                  f"{name} trace={trace}: metrics/units {got} != {declared}")
            for metric, value in out["metrics"].items():
                check(isinstance(value["value"], (int, float)),
                      f"{name}: {metric} is not a number")
            print(f"smoke: {name} trace={trace}: {len(got)} metrics with "
                  f"units; correct={out['correct']} failed={out['failed']}")


def check_gate() -> None:
    import run
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        work = HERE / ".work" / f"smoke-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            prepared = run.prepare(workload, SEED, SCALE, work)
            result = run.run_pass(workload, prepared, work, 0, trace=False)
            verdict = run.gate(result, prepared, workload)
            check(verdict["correct"],
                  f"{workload.name}: gate fails on the real reference: "
                  f"{verdict['findings']}")
            wrong = dict(prepared, reference=prepared["reference"][1:]
                         + ["[bogus] not an alert the engine raised"])
            verdict = run.gate(result, wrong, workload)
            check(not verdict["correct"] and verdict["failed"] > 0,
                  f"{workload.name}: gate did not fire on a wrong reference")
            print(f"smoke: {workload.name}: gate passes on the reference "
                  f"and fires on a wrong one ({verdict['failed']} failed)")
        finally:
            shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_metrics(spec)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
