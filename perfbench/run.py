"""qkflag benchmark: cold-cache workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fl3-products --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``.  Each repetition runs in a fresh interpreter, so every library cache
starts cold, the way a user pays for it.  Repetitions are started until the
next one would end after ``--seconds``, with at least one (one pair with
``--trace 1``).  Every output is checked against references pinned at the seed
commit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` they are the per-layer ones, from the traced
repetitions, plus the tracing overhead.  The lines before it give each
repetition, with the calibration time beside its run time.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from calib import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TMP = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 11

# README command-line examples, in README order, with the sha256 of each
# one's standard output at the seed commit.  `verify coulomb --n 4` is left
# out: the coulomb workload runs the same computation.
CLI_README = [
    ("verify incidence --n 3 --qdeg 2",
     "595a6628c9a410713bf4654006d448f9168efced60042e3eac138594108d0983"),
    ("verify classical --n 3 --ranks 1,2",
     "7c59f31557caae96d516cfabc2584f2e8bce7bf9c183408ec9266618d4880925"),
    ("gw --n 3 --ranks 1,2 --type 2pt --sigma detS2 --w 123 --d 0,1",
     "777265d10d19d02d374e1436545ee8adaf4ed7bc46883a32bf7e78fbd45a5637"),
    ("product --n 3 --L detS2 --sigma O:213",
     "82afab9509f502bf6f99635f130914b39d9a3fc021d9a74270018ec706e3d0e0"),
    ("schubert --n 3 --ranks 1,2 --w 213",
     "28e9ba8bb154072992359df5a446150cd702f65829d3e603ec89d8faeecd82cf"),
    ("curve-nbhd --n 4 --ranks 1,3 --w 2134 --d 1,1",
     "bb57ee5e49582746b7f66e319a99795e702b9ca398be750c6eeef809eaaf7bd9"),
    ("table --n 3 --qdeg 1",
     "676920ba20bc0503e500e103f4a061ad821b60c545567e3c3afa9b3b783fe099"),
    ("verify flag-reduction --n 4",
     "0e4f1917d2a71eb386aaacb4612edf491080885037a19da20932a36b610f6c4f"),
    ("verify presentation --n 3 --coeffs exact",
     "72cd4da9584336ad464d652761ef3af7ea79d852caf2f1e6977af30592c73c86"),
    ("product --n 4 --L detS3 --sigma one --conditional --qdeg 1",
     "d7924ce44deb99ac42dc8638c7e1977d5194f8bb072fd560c5b8f6e7eebcb682"),
]

# Expected worker outputs, taken at the seed commit.
PINS = {
    "fl3-products": [
        {"status": "CONDITIONAL-PASS", "witnesses": [],
         "table_sha256": "8720a0f2e15ab00ce05df75f936c7c143d924a44ab6b33bcb70022b0669db87a"},
    ],
    "coulomb": [
        {"space": [3, [1, 2]], "status": "PASS", "witnesses": []},
        {"space": [4, [1, 3]], "status": "PASS", "witnesses": []},
    ],
    "cli-readme": [{"exit": 0, "stdout_sha256": sha} for _, sha in CLI_README],
}
WORKLOADS = tuple(PINS)

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


class BenchmarkError(RuntimeError):
    """The run cannot be measured; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(argv: list[str], env: dict, stderr=None) -> tuple[int, bytes, float, float]:
    """Run a child to completion: exit code, stdout, wall seconds, peak RSS in MB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict) -> float:
    """Median seconds for a fresh interpreter to import qkflag and its CLI."""
    argv = [sys.executable, "-c", "import qkflag, qkflag.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, _, wall, _ = _spawn(argv, env)
        if code != 0:
            raise BenchmarkError("importing qkflag failed")
        if i:  # the first import may compile bytecode
            times.append(wall)
    return statistics.median(times)


def _check(outputs: list, pins: list) -> int:
    """Number of pinned outputs that are wrong or missing."""
    return sum(1 for i, pin in enumerate(pins) if i >= len(outputs) or outputs[i] != pin)


def _worker(what: str, env: dict, stem: Path, trace: bool, cli_args=()):
    """Run worker.py once: exit code, stdout, wall seconds, peak RSS, result.

    The worker writes its result to ``stem.result`` and its spans to
    ``stem.trace``."""
    result_file = stem.with_suffix(".result")
    argv = [sys.executable, str(WORKER), what, "--result", str(result_file)]
    if trace:
        argv += ["--trace", str(stem.with_suffix(".trace"))]
    if cli_args:
        argv += ["--", *cli_args]
    code, out, wall, rss = _spawn(argv, env, stderr=subprocess.DEVNULL if cli_args else None)
    if code == 3:
        raise BenchmarkError(f"{what} worker precondition failed")
    result = json.loads(result_file.read_text()) if result_file.exists() else None
    return code, out, wall, rss, result


def run_worker_rep(workload: str, env: dict, rep_dir: Path, trace: bool):
    """One repetition in a worker process: run_s, calib samples, peak RSS, outputs."""
    code, _, wall, rss, result = _worker(workload, env, rep_dir / "worker", trace)
    if code != 0 or result is None:
        return wall, [], rss, []
    return result["run_s"], result["calib_samples"], rss, result["outputs"]


def run_cli_rep(order: list[int], env: dict, rep_dir: Path, trace: bool):
    """The README examples, one child process each, in the given order.

    run_s is the sum of the children's wall times, interpreter start
    included, less the calibration passes each child ran."""
    run_s, rss, samples = 0.0, 0.0, []
    outputs = [None] * len(CLI_README)
    for k in order:
        code, out, wall, peak, result = _worker(
            "cli", env, rep_dir / f"cli-{k}", trace, CLI_README[k][0].split())
        child_samples = result["calib_samples"] if result else []
        run_s += wall - sum(child_samples)
        samples += child_samples
        rss = max(rss, peak)
        outputs[k] = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    return run_s, samples, rss, outputs


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  pins: dict = PINS, log=print) -> dict:
    """Measure one workload for about `seconds`; returns the result object."""
    if not (ROOT / "src" / "qkflag" / "__init__.py").is_file():
        raise BenchmarkError(f"no qkflag sources under {ROOT / 'src'}")
    env = _env()
    rng = random.Random(seed)
    setup_s = measure_setup(env)
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir()
    reps: list[dict] = []
    attempted = failed = 0
    try:
        t_start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            rep_dir = TMP / f"rep{len(reps)}"
            rep_dir.mkdir()
            t0 = time.perf_counter()
            if workload == "cli-readme":
                order = rng.sample(range(len(CLI_README)), len(CLI_README))
                run_s, samples, rss, outputs = run_cli_rep(order, env, rep_dir, traced)
            else:
                run_s, samples, rss, outputs = run_worker_rep(workload, env, rep_dir, traced)
            rep_wall = time.perf_counter() - t0
            calib_s = statistics.fmean(samples) if samples else calibrate()
            bad = _check(outputs, pins[workload])
            attempted += len(pins[workload])
            failed += bad
            rep = {"rep": len(reps), "traced": traced, "run_s": run_s, "calib_s": calib_s,
                   "run_rel": run_s / calib_s, "peak_rss_mb": rss, "failed": bad,
                   "wall_s": rep_wall}
            log(json.dumps(rep))
            if traced:
                rep["layers"] = tracer.summarize(sorted(map(str, rep_dir.glob("*.trace"))))
            reps.append(rep)
            shutil.rmtree(rep_dir)
            if trace and len(reps) % 2:
                continue  # finish the untraced-traced pair
            # stop unless another repetition (or pair) is expected to fit
            need = sum(statistics.median(r["wall_s"] for r in reps if r["traced"] == t)
                       for t in {r["traced"] for r in reps})
            if time.perf_counter() - t_start + need > seconds:
                break
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        metrics = {name: statistics.median(r["layers"][name] for r in traced_reps)
                   for name in traced_reps[0]["layers"]}
        metrics["trace.overhead"] = (statistics.median(r["run_s"] for r in traced_reps)
                                     / statistics.median(r["run_s"] for r in plain))
    else:
        metrics = {
            "run_rel": statistics.median(r["run_rel"] for r in plain),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    log(f"# {workload}: {len(reps)} repetitions, fail_frac={failed / attempted:.4f} "
        f"({failed} of {attempted} checked outputs wrong or missing)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="orders the cli-readme invocations; the other workloads are fixed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
