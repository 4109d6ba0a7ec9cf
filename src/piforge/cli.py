"""Command-line front end.

Subcommands: ``modulus``, ``alpha``, ``series``, ``verify``. Every command
accepts ``--prec`` (bits, default 512, overridable through the environment
variable PIFORGE_PREC_BITS, which must then be a whole number) and
``--format text|json``. JSON output is
deterministic: keys sorted, decimals rendered at a precision-derived digit
count, no timestamps, so identical invocations are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 domain error,
3 insufficient precision. Text output always shows residual/threshold
pairs so a failure is diagnosable from the log alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import catalog, series
from .alpha import (ROUTE_25R, ROUTE_4R, ROUTE_9R, ROUTE_DIRECT, alpha_25r,
                    alpha_4r, alpha_9r, alpha_direct)
from .bigreal import BigReal, as_fraction, decimal_digits
from .elliptic import GUARD, singular_modulus
from .errors import (DomainError, InsufficientPrecisionError, PiforgeError,
                     VerificationError)

DEFAULT_PREC = 512

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3


def _default_prec() -> int:
    env = os.environ.get("PIFORGE_PREC_BITS")
    if not env:
        return DEFAULT_PREC
    try:
        return int(env)
    except ValueError:
        raise DomainError(f"PIFORGE_PREC_BITS must be a whole number of bits, "
                          f"got {env!r}") from None


def _fmt(x, prec: int) -> str:
    digits = decimal_digits(prec)
    if isinstance(x, BigReal):
        return x.to_decimal(digits)
    with mp.workprec(prec + 16):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)


def _emit(doc: dict, args, text_lines: list[str]) -> None:
    if args.format == "json":
        doc["schema"] = "piforge/1"
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_rational(text: str) -> Fraction:
    try:
        r = as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc
    return r


def cmd_modulus(args) -> int:
    prec = args.prec
    r = _parse_rational(args.r)
    ctx = singular_modulus(r, prec)
    resid = ctx.defining_residual()
    threshold = BigReal.of(Fraction(1, 2 ** (prec - 16)), prec)
    doc = {
        "command": "modulus",
        "r": f"{r.numerator}/{r.denominator}",
        "prec_bits": prec,
        "k": _fmt(ctx.k, prec),
        "kprime": _fmt(ctx.kprime, prec),
        "K": _fmt(ctx.big_k, prec),
        "E": _fmt(ctx.big_e, prec),
        "nome": _fmt(ctx.q, prec),
        "defining_residual": _fmt(resid, prec),
        "threshold": _fmt(threshold, prec),
    }
    lines = [
        f"r = {r}",
        f"k_r      = {doc['k']}",
        f"k'_r     = {doc['kprime']}",
        f"K[r]     = {doc['K']}",
        f"E[r]     = {doc['E']}",
        f"q        = {doc['nome']}",
        f"|K(k')/K(k) - sqrt(r)| = {doc['defining_residual']} (threshold {doc['threshold']})",
    ]
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_alpha(args) -> int:
    prec = args.prec
    r = _parse_rational(args.r)
    route = args.route
    ctx = singular_modulus(r, prec)
    direct = alpha_direct(r, prec)
    if route == ROUTE_DIRECT:
        value = direct
        residual = None
    else:
        divisor = {ROUTE_4R: 4, ROUTE_9R: 9, ROUTE_25R: 25}[route]
        base_r = r / divisor
        if base_r <= 0:
            raise DomainError(f"r/{divisor} must be positive")
        base = alpha_direct(base_r, prec)
        reduce_fn = {ROUTE_4R: alpha_4r, ROUTE_9R: alpha_9r, ROUTE_25R: alpha_25r}[route]
        value = reduce_fn(base, prec)
        with mp.workprec(prec + GUARD):
            residual = abs(value.value.value - direct.value.value)
    threshold = Fraction(1, 2 ** (prec - 32))
    doc = {
        "command": "alpha",
        "r": f"{r.numerator}/{r.denominator}",
        "prec_bits": prec,
        "route": route,
        "k": _fmt(ctx.k, prec),
        "kprime": _fmt(ctx.kprime, prec),
        "K": _fmt(ctx.big_k, prec),
        "value": _fmt(value.value, prec),
        "direct": _fmt(direct.value, prec),
        "route_residual": None if residual is None else _fmt(residual, prec),
        "threshold": _fmt(BigReal.of(threshold, prec), prec),
    }
    lines = [
        f"k_r  = {doc['k']}",
        f"k'_r = {doc['kprime']}",
        f"K[r] = {doc['K']}",
        f"a({r}) [{route}] = {doc['value']}",
    ]
    if residual is not None:
        lines.append(f"|route - direct| = {doc['route_residual']} (threshold {doc['threshold']})")
        if residual > mpmath.mpf(threshold.numerator) / threshold.denominator:
            _emit(doc, args, lines + ["FAIL: route disagrees with direct evaluation"])
            return EXIT_VERIFY_FAIL
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_series(args) -> int:
    prec = args.prec
    r = _parse_rational(args.r)
    spec = series.build_series(args.nu, r, prec)
    terms = args.terms
    if terms is None:
        # fill the available precision, keeping a margin, within sane bounds
        terms = int((decimal_digits(prec) - 24) / spec.dpt())
        terms = max(8, min(terms, 400))
    report = series.verify(spec, terms, prec)
    doc = {
        "command": "series",
        "nu": args.nu,
        "r": f"{r.numerator}/{r.denominator}",
        "prec_bits": prec,
        "terms": terms,
        "x": _fmt(spec.x, prec),
        "dpt": spec.dpt(),
        "g": _fmt(spec.g, prec),
        "bracket": [_fmt(b, prec) for b in spec.bracket],
        "sum": _fmt(report.partial_sum, prec),
        "target": _fmt(report.target, prec),
        "abs_error": _fmt(report.abs_error, prec),
        "matched_digits": report.matched_digits,
        "predicted_digits": report.predicted_digits,
        "passed": report.passed,
    }
    lines = [
        f"series nu={args.nu} r={r} at {prec} bits",
        f"x = {doc['x']}",
        f"digits per term = {spec.dpt():.6f}",
        f"g = {doc['g']}",
        f"terms = {terms}",
        f"matched digits = {report.matched_digits:.2f} "
        f"(predicted {report.predicted_digits:.2f}, threshold {report.threshold_digits:.2f})",
        "PASS" if report.passed else "FAIL",
    ]
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(series.to_json(spec))
        lines.append(f"series spec written to {args.emit}")
        doc["emitted"] = args.emit
    _emit(doc, args, lines)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _verify_items(prec: int):
    """(name, passed, residual, threshold) rows for the verification battery.

    Digit gates are the stated targets (40 for Y values, 30 for the r=68
    identity, 60 for the identity suite), scaled down proportionally when
    the precision cannot hold them.
    """
    from .identities import identity_battery

    capacity = decimal_digits(prec)
    items = []
    for rep in catalog.replay_published(prec):
        items.append((f"series {rep.label} ({rep.terms} terms)",
                      rep.passed,
                      f"{rep.matched_digits:.2f} digits matched",
                      f"needs {rep.threshold_digits:.2f}"))
    y_gate_digits = min(40, capacity - 16)
    y_gate = mpmath.mpf(10) ** (-y_gate_digits)
    for s, resid in catalog.y_table_residuals(prec).items():
        items.append((f"Y({s})", resid.value < y_gate,
                      f"residual {_fmt(resid, 64)}", f"1e-{y_gate_digits}"))
    r68_gate_digits = min(30, capacity - 16)
    r68 = catalog.r68_identity_residual(prec)
    items.append(("r=68 factorization identity",
                  r68.value < mpmath.mpf(10) ** (-r68_gate_digits),
                  f"residual {_fmt(r68, 64)}", f"1e-{r68_gate_digits}"))
    items.extend(identity_battery(prec))
    return items


def cmd_verify(args) -> int:
    prec = args.prec
    items = _verify_items(prec)
    all_ok = all(ok for _, ok, _, _ in items)
    doc = {
        "command": "verify",
        "prec_bits": prec,
        "items": [{"name": n, "passed": ok, "residual": res, "threshold": thr}
                  for n, ok, res, thr in items],
        "passed": all_ok,
    }
    lines = [f"{'PASS' if ok else 'FAIL'}  {n}  [{res}; threshold {thr}]"
             for n, ok, res, thr in items]
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    _emit(doc, args, lines)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piforge",
        description="singular moduli, the elliptic alpha function, and "
                    "Ramanujan-type series for 1/pi^(2nu) at arbitrary precision")
    parser.add_argument("--prec", type=int, default=_default_prec(),
                        help="working precision in bits (default 512; "
                             "env PIFORGE_PREC_BITS overrides)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("modulus", help="singular modulus context at rational r")
    p.add_argument("r", help="rational r as 'p' or 'p/q'")
    p.set_defaults(fn=cmd_modulus)

    p = sub.add_parser("alpha", help="elliptic alpha function a(r)")
    p.add_argument("r", help="rational r as 'p' or 'p/q'")
    p.add_argument("--route", choices=(ROUTE_DIRECT, "4r", "9r", "25r"),
                   default=ROUTE_DIRECT)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("series", help="construct and verify a 1/pi^(2nu) series")
    p.add_argument("--nu", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--r", required=True, help="rational r as 'p' or 'p/q'")
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--emit", default=None, metavar="FILE",
                   help="write the series spec as JSON (schema piforge/1)")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="replay the published battery "
                                      "(series, Y table, identities)")
    p.set_defaults(fn=cmd_verify)
    return parser


_ROUTE_ALIASES = {"4r": ROUTE_4R, "9r": ROUTE_9R, "25r": ROUTE_25R,
                  ROUTE_DIRECT: ROUTE_DIRECT}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "route", None) is not None:
            args.route = _ROUTE_ALIASES[args.route]
        if args.prec < 64:
            raise DomainError(f"precision must be >= 64 bits, got {args.prec}")
        return args.fn(args)
    except InsufficientPrecisionError as exc:
        print(f"error: insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except PiforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
