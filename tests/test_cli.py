"""Dispatch-level tests for the command-line front end."""

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qkflag.cli
import qkflag.qk
from qkflag.cli import dispatch
from qkflag.ktheory import scalar_class
from qkflag.qk import embed_classical
from qkflag.weyl import min_coset_reps


def run(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def child_env():
    # a child interpreter imports the library from the same source tree
    src = pathlib.Path(qkflag.qk.__file__).parent.parent
    return {**os.environ, "PYTHONPATH": str(src)}


# -- the three documented invocations ---------------------------------------

def test_verify_incidence_example(capsys):
    code, doc, err = run_json(capsys, "verify", "incidence", "--n", "3",
                              "--qdeg", "2")
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["check"] == "incidence-whitney"
    assert doc["config"]["n"] == 3
    assert "PASS" in err


def test_verify_classical_example(capsys):
    code, doc, err = run_json(capsys, "verify", "classical", "--n", "3",
                              "--ranks", "1,2")
    assert code == 0
    assert doc["dimension"] == 6
    assert doc["status"] == "PASS"


def test_gw_2pt_example(capsys):
    code, doc, err = run_json(capsys, "gw", "--n", "3", "--ranks", "1,2",
                              "--type", "2pt", "--sigma", "detS2",
                              "--w", "123", "--d", "0,1")
    assert code == 0
    assert doc["value"] == "0"


# -- golden README payloads --------------------------------------------------

# The README command-line examples with the sha256 of each one's stdout; the
# benchmark pins the same digests (CLI_README in perfbench/run.py).
# `verify coulomb --n 4` is covered by test_verify_coulomb and the acceptance
# suite instead.
README_DIGESTS = [
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


def test_readme_examples_match_golden_digests(capsys):
    for command, digest in README_DIGESTS:
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


@pytest.mark.parametrize("command", [
    "product --n 4 --L detS3 --sigma one --conditional --qdeg 1",
    "verify flag-reduction --n 4",
    "verify coulomb --n 3",
    "verify presentation --n 3 --coeffs exact",
])
def test_integral_commands_do_not_import_sympy(command):
    # the library has no sympy dependency and every division is exact
    # Laurent division; an import of sympy roughly doubles a command's peak
    # memory, so a change that brings fraction arithmetic back, in a class
    # or in the Coulomb check's (1 - q_j) cancellations, shows up here
    probe = ("import contextlib, io, sys\n"
             "from qkflag.cli import dispatch\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = dispatch({command.split()!r})\n"
             "print(code, 'sympy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.split() == ["0", "False"], done.stderr


@pytest.mark.parametrize("command, digest", [
    ("verify incidence --n 3 --qdeg 2",
     "595a6628c9a410713bf4654006d448f9168efced60042e3eac138594108d0983"),
    ("verify coulomb --n 3",
     "31dd7ca06ba7ed800035dac73f565bcc0f9556809e0ea803fb55ce4fc0a9b9ff"),
    ("verify flag-reduction --n 4",
     "0e4f1917d2a71eb386aaacb4612edf491080885037a19da20932a36b610f6c4f"),
    ("verify flag-reduction --n 5",
     "100db628a59def66698c95069bb4955b5cfacf86e68612541ad5c392f6b0b045"),
    ("verify flag-reduction --n 6",
     "f056dbf81fa247020ea0525260e55323e00ead1334da54c78100e568ff16731c"),
    ("verify flag-reduction --n 7",
     "0a0411a142f2f9f897c92a26a1198514742943134dca708542210fc0649c2167"),
], ids=["incidence", "coulomb", "flag-reduction", "flag-reduction-n5",
        "flag-reduction-n6", "flag-reduction-n7"])
def test_verifications_hold_under_python_O(command, digest):
    # python -O strips assert statements; no check may rest on one, so the
    # optimised run prints the same verdict and exits the same way
    plain, optimised = (
        subprocess.run([sys.executable, *flags, "-m", "qkflag", *command.split()],
                       env=child_env(), capture_output=True, text=True, timeout=300)
        for flags in ([], ["-O"]))
    assert (optimised.returncode, optimised.stdout) == \
        (plain.returncode, plain.stdout), optimised.stderr
    assert plain.returncode == 0, plain.stderr
    assert hashlib.sha256(plain.stdout.encode()).hexdigest() == digest


# -- payload structure -------------------------------------------------------

def test_config_embedded_everywhere(capsys):
    code, doc, _ = run_json(capsys, "curve-nbhd", "--n", "4", "--ranks", "1,3",
                            "--w", "2134", "--d", "1,1")
    assert code == 0
    cfg = doc["config"]
    assert cfg == {
        "n": 4, "ranks": [1, 3], "qdeg": 2, "coeff_mode": "seed:0",
        "command": "curve-nbhd", "params": {"w": [2, 1, 3, 4], "d": [1, 1]},
    }
    assert doc["gamma"] == [4, 2, 3, 1]


def test_large_degree_peels_without_recursion(capsys):
    # z_d peels one root per unit of degree; on Fl(1,2;3) every degree
    # (d, 0) with d >= 1 has the same neighborhood label
    argv = ["curve-nbhd", "--n", "3", "--w", "123", "--d"]
    code, big, _ = run_json(capsys, *argv, "600,0")
    assert code == 0
    _, small, _ = run_json(capsys, *argv, "1,0")
    assert big["zd"] == small["zd"] == [2, 1, 3]
    assert big["gamma"] == small["gamma"] == [2, 1, 3]


def test_degree_fields_are_whole_integers(capsys):
    # --d 12 on a Grassmannian is the single degree twelve, not (1, 2)
    argv = ["curve-nbhd", "--n", "4", "--ranks", "2", "--w", "1324", "--d"]
    code, twelve, _ = run_json(capsys, *argv, "12")
    assert code == 0
    assert twelve["config"]["params"]["d"] == [12]
    _, two, _ = run_json(capsys, *argv, "2")
    assert twelve["gamma"] == two["gamma"] == [3, 4, 1, 2]


def test_stdout_is_json_only(capsys):
    code, out, err = run(capsys, "schubert", "--n", "3", "--w", "213")
    assert code == 0
    json.loads(out)          # the whole stream must parse
    assert err.strip()       # the summary goes to stderr


def test_schubert_restrictions(capsys):
    code, doc, _ = run_json(capsys, "schubert", "--n", "3", "--ranks", "1,2",
                            "--w", "321", "--basis", "B")
    assert code == 0
    rows = doc["class"]["restrictions"]
    assert len(rows) == 6
    # the class attached to the longest element is the unit: all ones
    assert all(r["value"] == "1" for r in rows)


def test_schubert_opposite_basis(capsys):
    code, doc, _ = run_json(capsys, "schubert", "--n", "3", "--w", "321",
                            "--basis", "B-")
    assert code == 0
    assert doc["class"]["basis"] == "B-"


def test_gw_3pt_value(capsys):
    code, doc, _ = run_json(capsys, "gw", "--n", "3", "--ranks", "1,2",
                            "--type", "3pt", "--sigma", "O:231",
                            "--L", "detS2", "--w", "213", "--d", "1,0")
    assert code == 0
    assert doc["value"] == "T1*T2"
    assert "conditional" not in doc


def test_product_element_rows(capsys):
    code, doc, _ = run_json(capsys, "product", "--n", "3", "--L", "detS2",
                            "--sigma", "O:213")
    assert code == 0
    coords = doc["product"]["coords"]
    assert coords[0] == {"w": [2, 1, 3],
                         "series": [{"d": [0, 0], "coeff": "T1*T2"}]}
    assert all(row["series"] for row in coords)


def test_table_rows(capsys):
    code, doc, _ = run_json(capsys, "table", "--n", "3", "--ranks", "1,2",
                            "--qdeg", "1")
    assert code == 0
    assert len(doc["rows"]) == 6 * 4
    first = doc["rows"][0]
    assert set(first) == {"w", "d", "gamma"}


# -- verification family -----------------------------------------------------

def test_verify_coulomb(capsys):
    code, out, _ = run(capsys, "verify", "coulomb", "--n", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["check"] == "coulomb-equivalence"
    assert doc["status"] == "PASS"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "31dd7ca06ba7ed800035dac73f565bcc0f9556809e0ea803fb55ce4fc0a9b9ff"


@pytest.mark.parametrize("command, digest", [
    ("verify incidence --n 4 --ranks 1,3 --qdeg 1",
     "5382890b4aaacd341034e3030d6556706d3691bbe0a383c88ac3edeed5b44a6b"),
    # runs line_bundle_solve through psi
    ("verify presentation --n 4 --ranks 1,3 --qdeg 1",
     "12ca94635cdaa5860d10612b1827cfc367084e941a6c2cd9cbb797314f7ced66"),
    # a nonzero seed specializes the weights at seeds 5 and 6
    ("verify presentation --n 4 --ranks 1,3 --qdeg 1 --coeffs seed:5",
     "95a879bef5c50af5bad603ea27bd391961b04ccd2e1070e69cbc2d2b884a6aa3"),
], ids=["incidence", "presentation", "presentation-seed5"])
def test_fl134_verify_digests(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, digest", [
    # membership by normal forms modulo the Whitney basis
    ("verify coulomb --n 4",
     "c516ec9c3faa2304aaff760a5a4d452e71b1dec8944970ad7dee1addc626e0b3"),
    # standard monomials of the initial ideal
    ("verify classical --n 5 --ranks 1,4",
     "fdc54088da39fec951e1f450e134d04e2f316a0087d3f52793fe9208ba3bf552"),
], ids=["coulomb-n4", "classical-n5"])
def test_groebner_verify_digests(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, digest", [
    # opposite Schubert restrictions
    ("schubert --n 4 --ranks 1,3 --w 2134 --basis B-",
     "d464fa4fe2fcefbe3ac239cff594a6c1ffecc34ff543893b0f57ec941ac981a6"),
    # the Grassmannian oracle
    ("product --n 4 --ranks 2 --L detS1 --sigma O:1324",
     "f08412725348a8bb564002061445b2e75ea5a60a92efdc7d0c42ad520c7d4d68"),
    # the opposite divisor's scalar -1/m_j, in a product and an invariant
    ("product --n 4 --ranks 1,3 --L opposite1 --sigma O:2134",
     "8c365231b5f3465b4e53b712c2b83f67f5a358643218b8c3ba47b469158b9fd8"),
    ("gw --n 4 --ranks 1,3 --type 3pt --L opposite2 --sigma wedge1S2 --w 1234 --d 0,1",
     "b3dea41c2020cf6a505720e2c656810b805e542333d8c7af2c091b5ed4ac2b54"),
    # invariants, rendered from Laurent Euler characteristics
    ("gw --n 4 --ranks 2 --type 3pt --L opposite1 --sigma wedge1S1 --w 1324 --d 0",
     "24bd5bf14aa1664745c2a84fb4b4d3d5c7c354373140771703f72cf1814ccf8f"),
    ("gw --n 4 --ranks 2 --type 2pt --sigma wedge2Q1 --w 1324 --d 1",
     "bccd23b82492012f417bb69862805fa5b129268de95dcc23af89d83f5fd88d52"),
    ("gw --n 4 --type 3pt --L detS2 --sigma wedge2S3 --w 2143 --d 1,0,0 --conditional",
     "d23b011631e00f0a57153f0165c279bab0f7d54e722f5a3bfa2f5a2f962d9502"),
    # the (1 - q_j) denominators through psi at truncation 2
    ("verify presentation --n 4 --ranks 1,3 --qdeg 2",
     "4a11b49c5c07ecc95ec7ca16cba71e4189a8399ffd93673cc7078fa6a36a4566"),
], ids=["schubert-opposite", "grassmannian-product", "opposite-product", "opposite-gw",
        "opposite-gw-grassmannian", "gw2-grassmannian", "conditional-gw",
        "presentation-qdeg2"])
def test_rendered_value_digests(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gw_det_of_zero_bundle_is_one(capsys):
    # det S_0 = O, so its two-point invariant at degree 0 is chi(O_w) = 1
    argv = ["gw", "--n", "3", "--ranks", "1,2", "--type", "2pt",
            "--w", "123", "--d", "0,0", "--sigma"]
    _, det0, _ = run_json(capsys, *argv, "detS0")
    _, one, _ = run_json(capsys, *argv, "one")
    assert det0["value"] == one["value"] == "1"


def test_verify_flag_reduction(capsys):
    code, doc, _ = run_json(capsys, "verify", "flag-reduction", "--n", "3")
    assert code == 0
    assert doc["status"] == "PASS"


def test_verify_presentation(capsys):
    code, doc, _ = run_json(capsys, "verify", "presentation", "--n", "3",
                            "--coeffs", "exact")
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["dimensions"] == {
        "classical": 6, "quantum-polynomial": 6,
        "quantum-power-series": 6, "expected": 6}
    assert doc["psi_generators_checked"] == 10
    assert doc["witnesses"] == []


def test_verify_classical_seeded(capsys):
    code, doc, _ = run_json(capsys, "verify", "classical", "--n", "4",
                            "--ranks", "1,3", "--coeffs", "seed:7")
    assert code == 0
    assert doc["dimension"] == 12
    assert doc["config"]["coeff_mode"] == "seed:7"


# -- conditional gating ------------------------------------------------------

def test_full_flag_product_needs_flag(capsys):
    code, out, err = run(capsys, "product", "--n", "4", "--L", "detS2",
                         "--sigma", "one")
    assert code == 2
    assert out == ""
    assert "--conditional" in err


def test_full_flag_product_tagged_conditional(capsys):
    code, doc, _ = run_json(capsys, "product", "--n", "4", "--L", "detS3",
                            "--sigma", "one", "--conditional", "--qdeg", "1")
    assert code == 0
    assert doc["conditional"] is True


def test_fl5_conditional_product_digest(capsys):
    # one product on Fl(5): 120 columns through the factored metric and the
    # Bruhat Moebius inversion
    code, out, _ = run(capsys, "product", "--n", "5", "--L", "detS4",
                       "--sigma", "one", "--conditional", "--qdeg", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3f33d735b0d13adfd73b16a778e568c3825fac998ea26e4325b58419744dcdfe"


def test_fl145_incidence_digest(capsys):
    # the Whitney check on Fl(1,4;5), which waits on the Fl(5) Schubert
    # classes and so on the Demazure operators
    code, out, _ = run(capsys, "verify", "incidence", "--n", "5", "--ranks", "1,4",
                       "--qdeg", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0893fb57b776a4aba10b2dfb1cbe74286505daf84bd92e4bfbe60571c55cc8be"


def test_no_oracle_space_rejected(capsys):
    code, out, err = run(capsys, "product", "--n", "5", "--ranks", "1,3",
                         "--L", "detS1", "--sigma", "one", "--conditional")
    assert code == 2
    assert "oracle" in err


# -- usage errors ------------------------------------------------------------

NO_INCIDENCE_VARIETY = [
    ("verify", "incidence", "--n", "2"),
    ("verify", "presentation", "--n", "2"),
]


@pytest.mark.parametrize("argv", [
    ("verify", "classical", "--n", "2", "--ranks", "5"),
    ("schubert", "--n", "3", "--w", "212"),
    ("curve-nbhd", "--n", "3", "--w", "213", "--d", "1"),
    ("gw", "--n", "3", "--type", "3pt", "--sigma", "one", "--w", "123",
     "--d", "0,0"),                               # 3pt without --L
    ("gw", "--n", "3", "--type", "2pt", "--sigma", "mystery", "--w", "123",
     "--d", "0,0"),
    ("product", "--n", "3", "--L", "nope", "--sigma", "one"),
    ("verify", "classical", "--n", "3", "--coeffs", "sometimes"),
    ("verify", "incidence", "--n", "4", "--ranks", "1,2"),
    ("verify", "mystery", "--n", "3"),
    ("nosuch",),
    (),
    # --qdeg and --coeffs are checked on every subcommand
    ("schubert", "--n", "3", "--w", "213", "--qdeg", "-5",
     "--coeffs", "seed:zzz"),
    ("schubert", "--n", "3", "--w", "213", "--qdeg", "-5"),
    ("table", "--n", "3", "--qdeg", "two"),
    ("curve-nbhd", "--n", "3", "--w", "213", "--d", "1,0",
     "--coeffs", "seed:-1"),
    ("product", "--n", "3", "--L", "detS2", "--sigma", "one",
     "--coeffs", "seed:18446744073709551616"),   # 2**64, not a u64
    ("verify", "flag-reduction", "--n", "3", "--qdeg", "-1"),
    ("gw", "--n", "3", "--type", "2pt", "--sigma", "one", "--w", "123",
     "--d", "0,0", "--coeffs", "seed:"),
    # flags a subcommand would ignore are refused
    ("schubert", "--n", "3", "--w", "213", "--conditional"),
    ("table", "--n", "3", "--conditional"),
    ("verify", "incidence", "--n", "3", "--conditional"),
    ("verify", "coulomb", "--n", "3", "--ranks", "1"),
    ("verify", "coulomb", "--n", "4", "--ranks", "1,3"),
    ("verify", "flag-reduction", "--n", "3", "--ranks", "1,2"),
    ("verify", "coulomb", "--n", "3", "--qdeg", "7"),
    ("verify", "coulomb", "--n", "3", "--coeffs", "exact"),
    ("schubert", "--n", "3", "--w", "213", "--qdeg", "5"),
    ("table", "--n", "3", "--qdeg", "1", "--coeffs", "exact"),
    ("verify", "incidence", "--n", "3", "--coeffs", "exact"),
    # at truncation 0 the degree-drop families have nothing to check
    ("verify", "flag-reduction", "--n", "3", "--qdeg", "0"),
    # two-point invariants take no line bundle and no conditional oracle
    ("gw", "--n", "3", "--ranks", "1,2", "--type", "2pt", "--sigma", "detS2",
     "--w", "123", "--d", "0,1", "--L", "detS1"),
    ("gw", "--n", "3", "--ranks", "1,2", "--type", "2pt", "--sigma", "detS2",
     "--w", "123", "--d", "0,1", "--conditional"),
    # --ranks is comma-separated: 13 is the single rank thirteen
    ("table", "--n", "4", "--ranks", "13", "--qdeg", "0"),
    *NO_INCIDENCE_VARIETY,
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip()
    if argv in NO_INCIDENCE_VARIETY:
        # no ranks make Fl(1, n-1; n) for n = 2, so no --ranks hint helps
        assert "the incidence variety needs n >= 3" in err


def test_internal_error_exits_4(capsys, monkeypatch, fresh_qk_caches):
    # curve neighborhoods that all land on the top label leave the factor P
    # of the quantum metric without its unit diagonal: a bug, not a usage
    # error
    def broken_neighborhood(space, w, d):
        return min_coset_reps(space)[-1]

    # labels and solved columns are cached; fresh_qk_caches makes the product
    # really read the broken labels
    monkeypatch.setattr(qkflag.qk, "curve_neighborhood_schubert",
                        broken_neighborhood)
    code, out, err = run(capsys, "product", "--n", "3", "--L", "detS2",
                         "--sigma", "O:213")
    assert code == 4
    assert out == ""
    assert "quantum metric solve failed" in err


def test_verify_presentation_reports_wrong_dimensions(capsys, monkeypatch):
    monkeypatch.setattr(qkflag.cli, "groebner_dimension", lambda *args: 0)
    code, doc, _ = run_json(capsys, "verify", "presentation", "--n", "3")
    assert code == 1
    assert doc["status"] == "FAIL"
    assert {"relation": "dimension-classical", "dimension": 0,
            "expected": 6} in doc["witnesses"]


def test_verify_presentation_reports_surviving_images(capsys, monkeypatch):
    # an evaluation map that kills nothing leaves every relation and the
    # kernel element standing
    monkeypatch.setattr(qkflag.cli, "psi_evaluate", lambda gen, bound:
                        embed_classical(scalar_class(gen.space, 1), bound))
    code, doc, _ = run_json(capsys, "verify", "presentation", "--n", "3")
    assert code == 1
    assert doc["status"] == "FAIL"
    relations = [wit["relation"] for wit in doc["witnesses"]]
    assert "psi-quantum-polynomial-1" in relations
    assert "psi-quantum-power-series-1" in relations
    assert "psi-kernel-element" in relations


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    src = pathlib.Path(qkflag.qk.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_imports_no_sympy():
    # the kernel is self-contained: no module of the library imports sympy
    src = pathlib.Path(qkflag.qk.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "sympy" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "sympy"]
    assert found == []


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0


def test_exact_mode_runs_beyond_n3(capsys):
    code, doc, _ = run_json(capsys, "verify", "classical", "--n", "4",
                            "--ranks", "1,3", "--coeffs", "exact")
    assert code == 0
    assert doc["config"]["coeff_mode"] == "exact"
    assert doc["status"] == "PASS"
    assert doc["dimension"] == doc["expected"] == 12


# -- determinism -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("product", "--n", "3", "--L", "sub1", "--sigma", "wedge1Q2"),
    ("verify", "classical", "--n", "3", "--ranks", "1,2"),
    ("table", "--n", "3", "--qdeg", "1"),
])
def test_byte_identical_reruns(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
