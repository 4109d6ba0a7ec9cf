"""CLI surface: subcommands, exit codes, JSON determinism, env override."""

import json

from piforge.cli import main

PREC = ["--prec", "192"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_series_verify_passes_where_the_tail_bound_holds(capsys):
    # 70 terms of the r=7 series promise 126 digits but the polynomial growth
    # of the terms leaves ~116; the tail majorant accounts for that
    code, out, _ = run(capsys, ["--prec", "512", "series", "--nu", "3",
                                "--r", "7", "--terms", "70"])
    assert code == 0
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
