"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/repeat.py --workload coulomb --seeds 1-10 --seconds 35 [--trace 1] [--out FILE]

For every metric this prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the distance
between the quartiles as a share of the median.  Runs are sequential, so they
do not compete for the machine.  With ``--out`` the summaries and every run's
result are also written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {name: summarize([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
              f"  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": results}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
