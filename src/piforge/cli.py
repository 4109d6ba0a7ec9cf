"""Command-line front end.

Subcommands: ``modulus``, ``alpha``, ``series``, ``verify``. Every command
accepts ``--prec`` (bits, default 512) and ``--format text|json``. JSON
output is deterministic: keys sorted, decimals rendered at a
precision-derived digit count, no timestamps, so identical invocations are
byte-identical.

Each ``cmd_*`` returns (JSON document, text lines, passed); ``main`` prints
one of the two. Exit codes: 0 success, 1 verification failure, 2 domain error
(a malformed or non-positive r, prec < 64, an unwritable ``--emit`` path, a
singular coefficient system, DegenerateSystemError, and a quartic root whose
Newton iteration does not settle, RootSelectionError), 3 insufficient
precision. Text output always shows residual/threshold pairs so a failure is
diagnosable from the log alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import catalog, series
from .alpha import ROUTE_DIRECT, alpha_25r, alpha_4r, alpha_9r, alpha_direct
from .bigreal import BigReal, _check_prec, as_fraction, decimal_digits, round_to
from .elliptic import GUARD, singular_modulus
from .errors import DomainError, InsufficientPrecisionError, PiforgeError, VerificationError
from .identities import identity_battery

DEFAULT_PREC = 512

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_PRECISION = 3

# CLI route name -> (divisor d, reduction from a(r/d) to a(r)); the reported
# route is the one the reduction stamps on its AlphaValue (via4r, ...)
_ROUTES = {"4r": (4, alpha_4r), "9r": (9, alpha_9r), "25r": (25, alpha_25r)}


def _fmt(x: BigReal, prec: int) -> str:
    return x.to_decimal(decimal_digits(prec))


def cmd_modulus(args) -> tuple[dict, list[str], bool]:
    prec = args.prec
    r = as_fraction(args.r)
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
    return doc, lines, True


def cmd_alpha(args) -> tuple[dict, list[str], bool]:
    prec = args.prec
    r = as_fraction(args.r)
    ctx = singular_modulus(r, prec)
    value = direct = alpha_direct(r, prec)
    residual = None
    passed = True
    if args.route != ROUTE_DIRECT:
        divisor, reduce_fn = _ROUTES[args.route]
        value = reduce_fn(alpha_direct(r / divisor, prec))
        with mp.workprec(prec + GUARD):     # formed at these bits, so the rounding is exact
            residual = round_to(abs(value.value.value - direct.value.value), prec + GUARD)
    threshold = Fraction(1, 2 ** (prec - 32))
    doc = {
        "command": "alpha",
        "r": f"{r.numerator}/{r.denominator}",
        "prec_bits": prec,
        "route": value.route,
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
        f"a({r}) [{value.route}] = {doc['value']}",
    ]
    if residual is not None:
        lines.append(f"|route - direct| = {doc['route_residual']} (threshold {doc['threshold']})")
        passed = residual <= threshold
        if not passed:
            lines.append("FAIL: route disagrees with direct evaluation")
    return doc, lines, passed


def cmd_series(args) -> tuple[dict, list[str], bool]:
    prec = args.prec
    r = as_fraction(args.r)
    spec = series.build_series(args.nu, r, prec)
    terms = args.terms
    if terms is None:
        # fill the available precision, keeping a margin, within sane bounds
        terms = int((decimal_digits(prec) - 24) / spec.dpt())
        terms = max(8, min(terms, 400))
        # but no more than evaluate accepts at this precision
        terms = max(1, min(terms, int((decimal_digits(prec) + 10) / spec.dpt())))
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
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(series.to_json(spec))
        except OSError as exc:
            raise DomainError(f"cannot write {args.emit}: {exc.strerror}") from None
        lines.append(f"series spec written to {args.emit}")
        doc["emitted"] = args.emit
    return doc, lines, report.passed


def _gated(name: str, resid: BigReal, digits: int):
    return (name, resid.value < mpmath.mpf(10) ** -digits,
            f"residual {_fmt(resid, 64)}", f"1e-{digits}")


def _verify_items(prec: int):
    """(name, passed, residual, threshold) rows for the verification battery.

    Digit gates are the stated targets (40 for Y values, 30 for the r=68
    identity, 60 for the identity suite), scaled down proportionally when
    the precision cannot hold them.
    """
    capacity = decimal_digits(prec)
    items = []
    for rep in catalog.replay_published(prec):
        items.append((f"series {rep.label} ({rep.terms} terms)",
                      rep.passed,
                      f"{rep.matched_digits:.2f} digits matched",
                      f"needs {rep.threshold_digits:.2f}"))
    items += [_gated(f"Y({s})", resid, min(40, capacity - 16))
              for s, resid in catalog.y_table_residuals(prec).items()]
    items.append(_gated("r=68 factorization identity", catalog.r68_identity_residual(prec),
                        min(30, capacity - 16)))
    items.extend(identity_battery(prec))
    return items


def cmd_verify(args) -> tuple[dict, list[str], bool]:
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
    return doc, lines, all_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piforge",
        description="singular moduli, the elliptic alpha function, and "
                    "Ramanujan-type series for 1/pi^(2nu) at arbitrary precision")
    parser.add_argument("--prec", type=int, default=DEFAULT_PREC,
                        help="working precision in bits (default 512)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("modulus", help="singular modulus context at rational r")
    p.add_argument("r", help="rational r as 'p' or 'p/q'")
    p.set_defaults(fn=cmd_modulus)

    p = sub.add_parser("alpha", help="elliptic alpha function a(r)")
    p.add_argument("r", help="rational r as 'p' or 'p/q'")
    p.add_argument("--route", choices=(ROUTE_DIRECT, *_ROUTES), default=ROUTE_DIRECT)
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_prec(args.prec)
        doc, lines, passed = args.fn(args)
    except InsufficientPrecisionError as exc:
        print(f"error: insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except PiforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        doc["schema"] = series.SCHEMA
        lines = [json.dumps(doc, sort_keys=True)]
    print("\n".join(lines))
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
