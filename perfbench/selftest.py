"""Self-test of the benchmark, with a negative control.

    python3 perfbench/selftest.py

Runs every workload once in each mode with a one-second budget (one
repetition, or one untraced and one traced) and checks that:

* a deliberately wrong pinned digest is caught: `failed` and `fail_frac`
  rise above 0 and `correct` is false;
* at this commit every output matches its pin;
* each mode reports exactly the metrics that BENCHMARK.json lists for it,
  with the listed units, for every workload;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py exits with a nonzero code and prints no result.

Takes about a minute and a half on a 2-core machine.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
SCRATCH = ROOT / ".perfbench_selftest"


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def quiet(*_):
    pass


def expected_metrics(spec: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result: dict, spec: dict, workload: str, trace: int):
    want = expected_metrics(spec, trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{workload} --trace {trace}: metrics and units match BENCHMARK.json")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{workload} --trace {trace}: every value is a number")


def negative_control(spec: dict):
    pins = copy.deepcopy(run.PINS)
    pins["fl3-products"][0]["table_sha256"] = "0" * 64
    result = run.run_benchmark("fl3-products", 0, 1, False, pins=pins, log=quiet)
    check(result["failed"] > 0 and result["failed"] / result["attempted"] > 0,
          "a wrong pinned digest raises fail_frac above 0")
    check(result["correct"] is False, "a wrong pinned digest makes the run incorrect")
    check_metrics(result, spec, "fl3-products", 0)


def bare_directory():
    """run.py must refuse a tree that has no library sources."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "coulomb", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=SCRATCH, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/qkflag, run.py fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py knows")
    negative_control(spec)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            if workload == "fl3-products" and trace == 0:
                continue  # covered, metric by metric, by the negative control
            result = run.run_benchmark(workload, 1, 1, bool(trace), log=quiet)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} --trace {trace}: every output matches its pin")
            check_metrics(result, spec, workload, trace)
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
