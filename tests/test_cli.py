"""CLI surface: subcommands, exit codes, JSON determinism, env override."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from piforge.cli import main

from conftest import base_modulus_alpha_4r

PREC = ["--prec", "192"]
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("order", ["committed", "shuffled"])
def test_outputs_match_the_golden_hashes(capsys, order):
    # every digit of every output is pinned: the sha256 of stdout, stderr and
    # exit code of each command of tests/golden/cli.json, in text and in JSON,
    # as tools/bench_pairs.py hashes them; shuffled, no result may depend on
    # what the caches hold
    runs = [(fmt, command) for fmt in ("text", "json") for command in GOLDEN["commands"]]
    if order == "shuffled":
        random.Random(7919).shuffle(runs)
    got = {}
    for fmt, command in runs:
        code, out, err = run(capsys, ["--format", fmt, *command.split()])
        got[f"{fmt}: {command}"] = hashlib.sha256(
            b"\n--\n".join((out.encode(), err.encode(), str(code).encode()))).hexdigest()
    assert got == GOLDEN["cli_sha256"]


def test_modulus_value_line(capsys):
    code, out, _ = run(capsys, PREC + ["modulus", "1"])
    assert code == 0
    assert "0.70710678" in out


def test_alpha_value_line(capsys):
    code, out, _ = run(capsys, PREC + ["alpha", "2"])
    assert code == 0
    assert "0.41421356" in out


def test_alpha_route_residual_reported(capsys):
    code, out, _ = run(capsys, PREC + ["alpha", "9", "--route", "9r"])
    assert code == 0
    assert "|route - direct|" in out


def test_alpha_accepts_rational_strings(capsys):
    code, out, _ = run(capsys, PREC + ["modulus", "17/5"])
    assert code == 0
    assert "k_r" in out


def test_series_report(capsys):
    code, out, _ = run(capsys, PREC + ["series", "--nu", "2", "--r", "3", "--terms", "40"])
    assert code == 0
    assert "digits per term" in out
    assert "PASS" in out


def test_series_json_deterministic(capsys):
    argv = ["--format", "json"] + PREC + ["series", "--nu", "2", "--r", "3", "--terms", "30"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["schema"] == "piforge/1"
    assert doc["passed"] is True


def test_series_emit_round_trip(tmp_path, capsys):
    from piforge import from_json

    path = tmp_path / "spec.json"
    code, out, _ = run(capsys, PREC + ["series", "--nu", "2", "--r", "3",
                                       "--terms", "24", "--emit", str(path)])
    assert code == 0
    spec = from_json(path.read_text())
    assert spec.nu == 2 and str(spec.r) == "3"


def test_series_emit_to_an_unwritable_path(tmp_path, capsys):
    # the series is built and verified, then the write fails: one error line, exit 2
    path = tmp_path / "missing" / "spec.json"
    code, out, err = run(capsys, PREC + ["series", "--nu", "2", "--r", "3",
                                       "--terms", "24", "--emit", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_series_verify_passes_where_the_tail_bound_holds(capsys):
    # 70 terms of the r=7 series promise 126 digits but the polynomial growth
    # of the terms leaves ~116; the tail majorant accounts for that
    code, out, _ = run(capsys, ["--prec", "512", "series", "--nu", "3",
                                "--r", "7", "--terms", "70"])
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("prec, r, terms", [("1024", "1000", 7), ("512", "500", 5)])
def test_series_default_terms_fit_the_precision(capsys, prec, r, terms):
    # eight terms would promise more digits than prec holds (exit 3)
    code, out, _ = run(capsys, ["--format", "json", "--prec", prec, "series",
                                "--nu", "2", "--r", r])
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == terms
    assert doc["passed"] is True


@pytest.mark.parametrize("prec, terms", [("512", 73), ("4096", 400)])
def test_series_default_terms_of_the_anchors(capsys, prec, terms):
    code, out, _ = run(capsys, ["--prec", prec, "series", "--nu", "3", "--r", "7"])
    assert code == 0
    assert f"terms = {terms}\n" in out
    assert "PASS" in out


def test_series_verify_failure_exit_code(capsys, monkeypatch):
    # a genuinely wrong sum: one published bracket integer bumped by 2
    from piforge import catalog, series

    monkeypatch.setattr(series, "build_series",
                        lambda nu, r, prec: catalog.perturbed(catalog.PI6_R7, 2).to_spec(512))
    code, out, _ = run(capsys, ["--prec", "512", "series", "--nu", "3",
                                "--r", "7", "--terms", "40"])
    assert code == 1
    assert "FAIL" in out


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, PREC + ["series", "--nu", "2", "--r", "1", "--terms", "5"])
    assert code == 2
    assert "converge" in err


def test_precision_error_exit_code(capsys):
    code, _, err = run(capsys, ["--prec", "128", "modulus", "100000000"])
    assert code == 3
    assert "insufficient precision" in err


def test_verification_error_exit_code(capsys, monkeypatch):
    from piforge import VerificationError, series

    def inconsistent(nu, r, prec):
        raise VerificationError("coefficient solve residual exceeds its bound")

    monkeypatch.setattr(series, "build_series", inconsistent)
    code, _, err = run(capsys, PREC + ["series", "--nu", "1", "--r", "5"])
    assert code == 1
    assert "verification failed" in err


def test_solve_residual_exit_code(capsys, monkeypatch):
    # the coefficient solve's own residual check: a solution moved by
    # 2^-100 relative must fail it, and the CLI must exit 1
    from piforge import symbolic

    solve = symbolic._solve

    def off(M, rhs):
        rcond, x = solve(M, rhs)
        x[0] *= 1 + mpmath.ldexp(1, -100)
        return rcond, x

    monkeypatch.setattr(symbolic, "_solve", off)
    code, out, err = run(capsys, ["--prec", "256", "series", "--nu", "2", "--r", "7"])
    assert code == 1
    assert out == ""
    assert "verification failed: coefficient solve at nu=2, r=7: residual" in err


def test_degenerate_system_exit_code(capsys):
    code, out, err = run(capsys, PREC + ["series", "--nu", "1", "--r", "3"])
    assert code == 2
    assert out == ""
    assert "singular coefficient system" in err


def test_stack_pole_exit_code(capsys):
    # at r = 1 + 10^-40, 1 - 2k_r^2 is about 10^-40 and the stack's
    # denominator (1 - 2u)^(2m) falls below its rounding bound
    r = f"{10 ** 40 + 1}/{10 ** 40}"
    code, out, err = run(capsys, ["--prec", "256", "series", "--nu", "2", "--r", r])
    assert code == 2
    assert out == ""
    assert "derivative stack has a pole" in err


def test_alpha_route_disagreeing_with_direct_fails(capsys, monkeypatch):
    # the base-modulus sentinel misses a(4) by about 0.30
    from piforge import cli
    from piforge.alpha import AlphaValue

    def sentinel(a_r):
        return AlphaValue(r=4 * a_r.r, value=base_modulus_alpha_4r(a_r), route="4r")

    monkeypatch.setitem(cli._ROUTES, "4r", (4, sentinel))
    code, out, _ = run(capsys, PREC + ["alpha", "4", "--route", "4r"])
    assert code == 1
    assert "FAIL: route disagrees with direct evaluation" in out


def test_precision_below_64_bits_rejected(capsys):
    code, out, err = run(capsys, ["--prec", "32", "modulus", "2"])
    assert code == 2
    assert out == ""
    assert "precision must be >= 64 bits" in err


@pytest.mark.parametrize("r", ["1/2", "1/7", "2/3", "1/10"])
def test_series_below_r_1_is_domain_error(capsys, r):
    # k_r^2 > 1/2 for r < 1; 1/r gives the same x with k_r^2 < 1/2
    code, out, err = run(capsys, PREC + ["series", "--nu", "2", "--r", r])
    assert code == 2
    assert out == ""
    assert f"r = {1 / Fraction(r)} gives the same x" in err


def test_root_selection_exit_code(capsys, monkeypatch):
    import piforge.alpha
    from piforge.errors import RootSelectionError

    def unsettled(r, prec):
        raise RootSelectionError(
            f"Newton iteration for the quartic root did not settle at r={r}")

    monkeypatch.setattr(piforge.alpha, "triple_modulus_quartic_root", unsettled)
    code, out, err = run(capsys, PREC + ["alpha", "9", "--route", "9r"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_rational_exit_code(capsys):
    code, _, err = run(capsys, PREC + ["alpha", "2.5.1"])
    assert code == 2


def test_verify_passes_and_is_deterministic(capsys):
    argv = ["--format", "json", "--prec", "256", "verify"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert len(doc["items"]) >= 20


def test_verify_scaled_thresholds_at_low_precision(capsys):
    code, out, _ = run(capsys, ["--prec", "128", "verify"])
    assert code == 0
    assert "overall: PASS" in out


def test_env_var_default_precision(capsys, monkeypatch):
    from piforge.cli import build_parser

    monkeypatch.setenv("PIFORGE_PREC_BITS", "192")
    args = build_parser().parse_args(["modulus", "1"])
    assert args.prec == 192


def test_env_var_ignored_when_flag_given(capsys, monkeypatch):
    monkeypatch.setenv("PIFORGE_PREC_BITS", "192")
    code, out, _ = run(capsys, ["--prec", "256", "modulus", "1"])
    assert code == 0


def test_malformed_env_precision_rejected(capsys, monkeypatch):
    monkeypatch.setenv("PIFORGE_PREC_BITS", "512bits")
    code, _, err = run(capsys, ["modulus", "1"])
    assert code == 2
    assert "PIFORGE_PREC_BITS" in err
