"""One timed repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py fl3-products --result FILE [--trace FILE]
    python3 perfbench/worker.py coulomb --result FILE [--trace FILE]
    python3 perfbench/worker.py cli --result FILE [--trace FILE] -- <qkflag arguments>

The first two forms check that the library caches are cold and time the
operation from the first library call to the last checked output.  The
``cli`` form runs the command line exactly as ``python -m qkflag`` does (via
``runpy``); its standard output and exit code are the command's own.  Every
form samples the calibration loop in this process around and during the
work (see calib.py) and writes ``{"run_s", "calib_samples"}`` and, for the
first two forms, the ``outputs`` to the result file; ``run.py`` compares the
outputs with the pinned references.  With ``--trace`` the spans are written
to that file at the end.

Exit code 3 means the benchmark's own precondition failed (the library came
from the wrong place, or a cache was warm), which invalidates the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import runpy
import sys
from pathlib import Path

from calib import Sampler

ROOT = Path(__file__).resolve().parent.parent

# The conditional complete-flag products, at a truncation where the repeated
# metric solves dominate (see README.md).
FL_N, FL_QDEG = 3, 5
COULOMB_SPACES = ((3, (1, 2)), (4, (1, 3)))


class PreconditionError(RuntimeError):
    pass


def _check_source():
    import qkflag

    if Path(qkflag.__file__).resolve().parent != ROOT / "src" / "qkflag":
        raise PreconditionError(f"qkflag imported from {qkflag.__file__}, not from src/")


def _check_cold():
    from qkflag.qk import conjectural_product_fln, quantum_gram

    for fn in (conjectural_product_fln, quantum_gram):
        if fn.cache_info().currsize != 0:
            raise PreconditionError(f"{fn.__name__} cache is warm before timing")


def fl_products() -> list[dict]:
    from qkflag.algebra import render_qseries
    from qkflag.qk import conjectural_product_fln
    from qkflag.weyl import FlagSpace, min_coset_reps

    products, report = conjectural_product_fln(FL_N, FL_QDEG)
    reps = min_coset_reps(FlagSpace.full(FL_N))
    digest = hashlib.sha256()
    for i in range(1, FL_N):
        for w in reps:
            element = products[(i, w)]
            for u in reps:
                digest.update(f"{i} {w} {u} {render_qseries(element.at(u))}\n".encode())
    return [{"status": report["status"], "witnesses": report["witnesses"],
             "table_sha256": digest.hexdigest()}]


def coulomb() -> list[dict]:
    from qkflag.presentation import coulomb_equivalence
    from qkflag.weyl import FlagSpace

    out = []
    for n, ranks in COULOMB_SPACES:
        report = coulomb_equivalence(FlagSpace(n, ranks))
        out.append({"space": [n, list(ranks)], "status": report["status"],
                    "witnesses": report["witnesses"]})
    return out


OPS = {"fl3-products": fl_products, "coulomb": coulomb}


def _tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _run_cli(cli_args: list[str]) -> int:
    sys.argv = ["qkflag", *cli_args]
    try:
        runpy.run_module("qkflag", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        return e.code
    finally:
        sys.stdout.flush()
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=[*OPS, "cli"])
    ap.add_argument("--result", metavar="FILE", required=True)
    ap.add_argument("--trace", metavar="FILE")
    cli_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_args = argv[:cut], argv[cut + 1:]
    args = ap.parse_args(argv)
    try:
        _check_source()
        if args.what != "cli":
            _check_cold()
    except PreconditionError as e:
        print(f"benchmark precondition failed: {e}", file=sys.stderr)
        return 3
    tracer = _tracer() if args.trace else None
    code, result = 0, {}
    with Sampler() as sampler:
        if args.what == "cli":
            code = _run_cli(cli_args)
        else:
            result["outputs"] = OPS[args.what]()
    if tracer is not None:
        tracer.dump(args.trace)
    result.update(run_s=sampler.run_s, calib_samples=sampler.samples)
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
