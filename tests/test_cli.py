"""Dispatch-level tests for the command-line front end."""

import ast
import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qkflag.qk
from qkflag.cli import dispatch
from qkflag.weyl import min_coset_reps


def run(capsys, *argv):
    code = dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


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
])
def test_integral_commands_do_not_import_sympy(command):
    # sympy backs only the gcd of genuine fractions; its import roughly
    # doubles a command's peak memory, so a class that falls back from exact
    # Laurent division to fraction arithmetic shows up here
    probe = ("import contextlib, io, sys\n"
             "from qkflag.cli import dispatch\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = dispatch({command.split()!r})\n"
             "print(code, 'sympy' in sys.modules)\n")
    src = pathlib.Path(qkflag.qk.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.split() == ["0", "False"], done.stderr


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


def test_no_oracle_space_rejected(capsys):
    code, out, err = run(capsys, "product", "--n", "5", "--ranks", "1,3",
                         "--L", "detS1", "--sigma", "one", "--conditional")
    assert code == 2
    assert "oracle" in err


# -- usage errors ------------------------------------------------------------

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
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip()


def test_internal_error_exits_4(capsys, monkeypatch):
    # curve neighborhoods that all land on the top label leave the factor P
    # of the quantum metric without its unit diagonal: a bug, not a usage
    # error
    def broken_neighborhood(space, w, d):
        return min_coset_reps(space)[-1]

    monkeypatch.setattr(qkflag.qk, "curve_neighborhood_schubert",
                        broken_neighborhood)
    # labels and solved columns are cached; start from empty caches so that
    # the product really reads the broken labels
    for name in ("_neighborhoods", "_det_column"):
        monkeypatch.setattr(qkflag.qk, name, functools.lru_cache(
            maxsize=None)(getattr(qkflag.qk, name).__wrapped__))
    code, out, err = run(capsys, "product", "--n", "3", "--L", "detS2",
                         "--sigma", "O:213")
    assert code == 4
    assert out == ""
    assert "quantum metric solve failed" in err


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    src = pathlib.Path(qkflag.qk.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0


def test_exact_mode_guard_is_reported(capsys):
    code, out, err = run(capsys, "verify", "classical", "--n", "4",
                         "--ranks", "1,3", "--coeffs", "exact")
    assert code == 2
    assert "n <= 3" in err


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
