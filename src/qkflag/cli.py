"""Command-line front end.

Every subcommand prints exactly one JSON document to stdout and a short
human summary to stderr.  Exit code 0 means success (and PASS for
verification commands), 1 means a verification ran and failed, 2 means the
arguments were unusable, and 4 means an internal invariant failed (a
RuntimeError such as a quantum metric that is not unitriangular), which is
a bug rather than a verdict or a usage error.  Output is fully deterministic for a fixed
configuration, including iteration order, and every payload embeds the
configuration that produced it.
"""

import argparse
import json
import sys

from .algebra import _grlex_key, render_rational, t_elem
from .ktheory import (
    bundle_class,
    bundle_quotient_class,
    det_class,
    schubert_class,
)
from .curves import curve_neighborhood_schubert
from .presentation import (
    coulomb_equivalence,
    groebner_dimension,
    ideal_generators,
    pres_scalar,
    pres_var,
    psi_evaluate,
)
from .qk import (
    GWOracle,
    _report,
    degree_box,
    embed_classical,
    gw2,
    gw3_divisor,
    line_bundle_product,
    verify_flag_reduction,
    verify_qk_whitney,
)
from .weyl import FlagSpace, min_coset_reps, z_d


# -- argument handling -------------------------------------------------------

def _qdeg(text: str) -> int:
    """argparse type for --qdeg: a nonnegative integer."""
    try:
        d = int(text)
    except ValueError:
        d = None
    if d is None or d < 0:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}")
    return d


def _coeff_mode(text: str) -> str:
    """argparse type for --coeffs: exact or seed:<u64>, kept as written."""
    seed = text[5:] if text.startswith("seed:") else ""
    if text != "exact" and not (seed.isascii() and seed.isdigit()
                                and int(seed) < 2 ** 64):
        raise argparse.ArgumentTypeError(
            f"must be exact or seed:<u64>, got {text!r}")
    return text


def _build_parser():
    top = argparse.ArgumentParser(
        prog="qkflag",
        description="Exact equivariant quantum K-theory of type A flag varieties.")
    sub = top.add_subparsers(dest="command", required=True)
    subs = {}

    def add_parser(name, **kw):
        subs[name] = sub.add_parser(name, **kw)
        return subs[name]

    def common(p):
        p.add_argument("--n", type=int, required=True, help="ambient dimension n")
        p.add_argument("--ranks", type=str, default=None,
                       help="comma-separated subbundle ranks; omit for the full flag")
        p.add_argument("--qdeg", type=_qdeg, default=None,
                       help="componentwise q-degree truncation (default 2)")
        p.add_argument("--coeffs", type=_coeff_mode, default=None,
                       help="coefficient mode: exact or seed:<u64> (default seed:0)")

    def conditional(p):
        p.add_argument("--conditional", action="store_true",
                       help="allow conjecture-assumed complete-flag products")

    p = add_parser("schubert", help="restrictions of a Schubert class")
    common(p)
    p.add_argument("--w", type=str, required=True, help="one-line permutation")
    p.add_argument("--basis", type=str, default="B", choices=("B", "B-"))

    p = add_parser("curve-nbhd", help="curve neighborhood labels")
    common(p)
    p.add_argument("--w", type=str, required=True)
    p.add_argument("--d", type=str, required=True, help="comma-separated degree")

    p = add_parser("gw", help="K-theoretic Gromov-Witten invariant")
    common(p)
    conditional(p)
    p.add_argument("--type", type=str, required=True, choices=("2pt", "3pt"))
    p.add_argument("--sigma", type=str, required=True, help="class descriptor")
    p.add_argument("--w", type=str, required=True)
    p.add_argument("--d", type=str, required=True)
    p.add_argument("--L", type=str, default=None,
                   help="line bundle descriptor (3pt only)")

    p = add_parser("product", help="quantum product by a line bundle")
    common(p)
    conditional(p)
    p.add_argument("--L", type=str, required=True)
    p.add_argument("--sigma", type=str, required=True)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("what", type=str, choices=(
        "classical", "incidence", "flag-reduction", "coulomb", "presentation"))
    common(p)

    p = add_parser("table", help="curve neighborhood table")
    common(p)
    return top, subs


def _apply_defaults(args, parser):
    # only these commands read --qdeg and --coeffs; an explicit value
    # anywhere else would be ignored, so it is refused
    name = args.what if args.command == "verify" else args.command
    for flag, default, readers in (
            ("qdeg", 2, "product table incidence flag-reduction presentation"),
            ("coeffs", "seed:0", "classical presentation")):
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif name not in readers.split():
            parser.error(f"{name} does not read --{flag}; drop it")


def _parse_ints(text: str, parser, what: str) -> tuple:
    try:
        if "," in text:
            return tuple(int(x) for x in text.split(","))
        return tuple(int(ch) for ch in text)
    except ValueError:
        parser.error(f"could not parse {what} {text!r}")


def _get_space(args, parser) -> FlagSpace:
    n = args.n
    if n < 2:
        parser.error("--n must be at least 2")
    ranks = args.ranks
    if ranks is None:
        ranks = tuple(range(1, n))
    else:
        ranks = _parse_ints(ranks, parser, "--ranks")
    if not ranks or any(b <= a for a, b in zip(ranks, ranks[1:])) \
            or ranks[0] < 1 or ranks[-1] >= n:
        parser.error("--ranks must be strictly increasing and below n")
    return FlagSpace(n, ranks)


def _get_perm(args, space, parser) -> tuple:
    w = _parse_ints(args.w, parser, "--w")
    if sorted(w) != list(range(1, space.n + 1)):
        parser.error(f"--w {args.w!r} is not a permutation of 1..{space.n}")
    return w


def _get_degree(args, space, parser) -> tuple:
    d = _parse_ints(args.d, parser, "--d")
    if len(d) != space.k or any(x < 0 for x in d):
        parser.error(f"--d needs {space.k} nonnegative entries")
    return d


def _get_class(text: str, space, parser):
    try:
        if text.startswith("detS"):
            return det_class(space, int(text[4:]))
        if text.startswith("wedge"):
            body = text[5:]
            for mark, fn in (("S", bundle_class), ("Q", bundle_quotient_class)):
                if mark in body:
                    ell, j = body.split(mark)
                    return fn(space, int(j), int(ell))
        if text.startswith("O:") or text.startswith("O-:"):
            variant, w = text.split(":")
            basis = "B" if variant == "O" else "B-"
            return schubert_class(space, _parse_ints(w, parser, "--sigma"), basis)
        if text == "one":
            return bundle_class(space, 1, 0)
    except (ValueError, KeyError):
        pass
    parser.error(f"unknown class descriptor {text!r}; use detS<j>, "
                 "wedge<l>S<j>, wedge<l>Q<j>, O:<perm>, O-:<perm>, or one")


def _get_line(text: str, space, parser):
    if text == "sub1":
        return ("sub1",)
    if text.startswith("detS"):
        try:
            return ("det", int(text[4:]))
        except ValueError:
            pass
    if text.startswith("opposite"):
        try:
            return ("opposite", int(text[8:]))
        except ValueError:
            pass
    parser.error(f"unknown line descriptor {text!r}; use detS<j>, sub1, "
                 "or opposite<j>")


def _get_oracle(space, args, parser) -> GWOracle:
    if space.is_incidence:
        return GWOracle("incidence-proven", space)
    if space.k == 1:
        return GWOracle("grassmannian-proven", space)
    if not space.is_full:
        parser.error("no product oracle covers this space; use an incidence "
                     "variety, a Grassmannian, or the complete flag")
    if not args.conditional:
        parser.error("complete-flag products rest on a conjecture; "
                     "pass --conditional to proceed")
    return GWOracle("full-flag-conjectural", space)


def _label(space: FlagSpace) -> str:
    return "Fl(%s;%d)" % (",".join(str(a) for a in space.ranks), space.n)


def _config(args, space, **params) -> dict:
    return {
        "n": space.n,
        "ranks": list(space.ranks),
        "qdeg": args.qdeg,
        "coeff_mode": args.coeffs,
        "command": args.command,
        "params": params,
    }


def _series_json(qs) -> list:
    return [{"d": list(d), "coeff": render_rational(qs.coeffs[d])}
            for d in sorted(qs.coeffs, key=_grlex_key)]


def _element_json(el) -> dict:
    rows = []
    for w in min_coset_reps(el.space):
        qs = el.coords.get(w)
        if qs is not None and qs.coeffs:
            rows.append({"w": list(w), "series": _series_json(qs)})
    return {"basis": "B", "qdeg": el.bound, "coords": rows}


# -- subcommands -------------------------------------------------------------

def _cmd_schubert(args, parser):
    space = _get_space(args, parser)
    w = _get_perm(args, space, parser)
    sigma = schubert_class(space, w, args.basis)
    rows = [{"u": list(u), "value": render_rational(sigma.at(u))}
            for u in min_coset_reps(space)]
    payload = {
        "config": _config(args, space, w=list(w), basis=args.basis),
        "class": {"basis": args.basis, "restrictions": rows},
    }
    return 0, payload, f"schubert {_label(space)}: {len(rows)} restrictions"


def _cmd_curve_nbhd(args, parser):
    space = _get_space(args, parser)
    w = _get_perm(args, space, parser)
    d = _get_degree(args, space, parser)
    gamma = curve_neighborhood_schubert(space, w, d)
    payload = {
        "config": _config(args, space, w=list(w), d=list(d)),
        "zd": list(z_d(space, d)),
        "gamma": list(gamma),
    }
    return 0, payload, f"curve-nbhd {_label(space)} w={args.w} d={args.d}: {gamma}"


def _cmd_gw(args, parser):
    space = _get_space(args, parser)
    w = _get_perm(args, space, parser)
    d = _get_degree(args, space, parser)
    sigma = _get_class(args.sigma, space, parser)
    conditional = False
    if args.type == "2pt":
        value = gw2(sigma, w, d)
    else:
        if args.L is None:
            parser.error("--type 3pt needs --L")
        oracle = _get_oracle(space, args, parser)
        conditional = not oracle.proven
        value = gw3_divisor(oracle, _get_line(args.L, space, parser), sigma, w, d)
    payload = {
        "config": _config(args, space, type=args.type, sigma=args.sigma,
                          w=list(w), d=list(d), L=args.L),
        "value": render_rational(value),
    }
    if conditional:
        payload["conditional"] = True
    return 0, payload, f"gw {args.type} {_label(space)}: {payload['value']}"


def _cmd_product(args, parser):
    space = _get_space(args, parser)
    oracle = _get_oracle(space, args, parser)
    L = _get_line(args.L, space, parser)
    sigma = _get_class(args.sigma, space, parser)
    el = line_bundle_product(oracle, L, embed_classical(sigma, args.qdeg), args.qdeg)
    payload = {
        "config": _config(args, space, L=args.L, sigma=args.sigma),
        "product": _element_json(el),
    }
    if not oracle.proven:
        payload["conditional"] = True
    return 0, payload, f"product {args.L} * {args.sigma} on {_label(space)}"


def _seeds_or_exact(args):
    # args.coeffs was validated by _coeff_mode
    if args.coeffs == "exact":
        return None, True
    s = int(args.coeffs[5:])
    return (s, s + 1), False


def _cmd_verify_classical(args, parser):
    space = _get_space(args, parser)
    seeds, exact = _seeds_or_exact(args)
    dim = groebner_dimension(ideal_generators(space, "classical"), seeds, exact)
    expected = len(min_coset_reps(space))
    status = "PASS" if dim == expected else "FAIL"
    witnesses = [] if status == "PASS" else [
        {"relation": "classical-dimension", "dimension": dim, "expected": expected}]
    payload = {
        "config": _config(args, space, what=args.what),
        **_report("classical-dimension", space, None, status, witnesses),
        "dimension": dim,
        "expected": expected,
    }
    return (0 if status == "PASS" else 1), payload, \
        f"verify classical {_label(space)}: dimension {dim}, {status}"


def _incidence_space(args, parser) -> FlagSpace:
    space = _get_space(args, parser)
    if not space.is_incidence:
        parser.error("this check needs the incidence variety; "
                     "use --ranks 1,%d or omit --ranks with --n 3" % (space.n - 1))
    return space


def _cmd_verify_incidence(args, parser):
    space = _incidence_space(args, parser)
    report = verify_qk_whitney(space, args.qdeg)
    payload = {"config": _config(args, space, what=args.what), **report}
    code = 0 if report["status"] == "PASS" else 1
    return code, payload, \
        f"verify incidence {_label(space)} qdeg={args.qdeg}: {report['status']}"


def _cmd_verify_flag_reduction(args, parser):
    if args.ranks is not None:
        parser.error("verify flag-reduction runs on the complete flags; drop --ranks")
    if args.n < 3:
        parser.error("flag reduction starts at n = 3")
    space = FlagSpace(args.n, tuple(range(1, args.n)))
    report = verify_flag_reduction(args.n, args.qdeg)
    payload = {"config": _config(args, space, what=args.what), **report}
    code = 0 if report["status"] == "PASS" else 1
    return code, payload, \
        f"verify flag-reduction n<={args.n}: {report['status']}"


def _cmd_verify_coulomb(args, parser):
    if args.ranks is not None:
        parser.error("verify coulomb runs on Fl(1,n-1;n); drop --ranks")
    if args.n < 3:
        parser.error("the incidence variety needs n >= 3")
    space = FlagSpace(args.n, (1, args.n - 1))
    report = coulomb_equivalence(space)
    payload = {"config": _config(args, space, what=args.what), **report}
    code = 0 if report["status"] == "PASS" else 1
    return code, payload, f"verify coulomb {_label(space)}: {report['status']}"


def _cmd_verify_presentation(args, parser):
    space = _incidence_space(args, parser)
    seeds, exact = _seeds_or_exact(args)
    expected = len(min_coset_reps(space))
    witnesses = []
    dims = {}
    for flavor in ("classical", "quantum-polynomial", "quantum-power-series"):
        dims[flavor] = groebner_dimension(ideal_generators(space, flavor), seeds, exact)
        if dims[flavor] != expected:
            witnesses.append({"relation": f"dimension-{flavor}",
                              "dimension": dims[flavor], "expected": expected})
    checked = 0
    for flavor in ("quantum-polynomial", "quantum-power-series"):
        for i, g in enumerate(ideal_generators(space, flavor).generators):
            if not psi_evaluate(g, args.qdeg).is_zero():
                witnesses.append({"relation": f"psi-{flavor}-{i + 1}"})
            checked += 1
    kernel = pres_var(space, "eX2_1") + pres_var(space, "eY2_1") \
        - pres_scalar(space, t_elem(space.n, 1, space.n + space.k))
    if not psi_evaluate(kernel, args.qdeg).is_zero():
        witnesses.append({"relation": "psi-kernel-element"})
    status = "PASS" if not witnesses else "FAIL"
    payload = {
        "config": _config(args, space, what=args.what),
        **_report("presentation", space, args.qdeg, status, witnesses),
        "dimensions": {**dims, "expected": expected},
        "psi_generators_checked": checked,
    }
    return (0 if status == "PASS" else 1), payload, \
        f"verify presentation {_label(space)}: {status} ({checked} generators)"


def _cmd_table(args, parser):
    space = _get_space(args, parser)
    rows = []
    for w in min_coset_reps(space):
        for d in degree_box(space.k, args.qdeg):
            rows.append({"w": list(w), "d": list(d),
                         "gamma": list(curve_neighborhood_schubert(space, w, d))})
    payload = {"config": _config(args, space), "rows": rows}
    return 0, payload, f"table {_label(space)}: {len(rows)} rows"


_VERIFY = {
    "classical": _cmd_verify_classical,
    "incidence": _cmd_verify_incidence,
    "flag-reduction": _cmd_verify_flag_reduction,
    "coulomb": _cmd_verify_coulomb,
    "presentation": _cmd_verify_presentation,
}

_COMMANDS = {
    "schubert": _cmd_schubert,
    "curve-nbhd": _cmd_curve_nbhd,
    "gw": _cmd_gw,
    "product": _cmd_product,
    "table": _cmd_table,
}


def dispatch(argv) -> int:
    top, subs = _build_parser()
    try:
        args = top.parse_args(list(argv))
        parser = subs[args.command]
        _apply_defaults(args, parser)
        if args.command == "verify":
            code, payload, summary = _VERIFY[args.what](args, parser)
        else:
            code, payload, summary = _COMMANDS[args.command](args, parser)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else int(e.code or 0)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    print(json.dumps(payload, indent=2))
    print(summary, file=sys.stderr)
    return code


def main():
    sys.exit(dispatch(sys.argv[1:]))
