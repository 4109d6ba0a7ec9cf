"""The three workloads: seeded inputs, one pass of operations, output checks.

Each workload has ``prepare(seed, lap)``, run during set-up (it calls
``lap()`` between long steps, so that calibrations are spread over the
set-up), and ``run_pass(state, tracer)``, which runs the seeded operation
list once and returns one ``Op`` per operation. Only the call into piforge
is timed, by the stopwatch in ``state["watch"]`` (``clock.Stopwatch``);
checks run after it.

An operation fails when it raises, exits nonzero, returns a FAIL verdict or
misses the independent oracle. It is also *incorrect* (the run's ``correct``
turns false) unless it is a known false FAIL: a series whose FAIL verdict
the oracle contradicts (ROADMAP item 3). So every oracle miss, every error
and every failed residual gate is incorrect.

* cli_cold: one CLI command per fresh interpreter (what a user pays).
* battery: the ``piforge verify`` battery in one process, at three precisions,
  from emptied caches on every pass.
* evaluate_warm: ``series.verify`` on specs whose coefficient caches set-up
  has filled, plus a JSON round trip per spec.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The r-pool: small-height rationals r > 1 (r < 1 gives the same series
# argument as 1/r, and r = 1 is the branch point), in three bands. Within a
# band the digits per term differ by less than a factor 1.5, so a seed that
# draws one r per band does the same amount of work as any other seed. r = 3
# and r = 7 stay out of the bands: their series argument is exactly 1/4 or
# 1/64, which makes each term about twice as cheap; r = 7 is covered by the
# CLI anchors and the published series.
BANDS = ((Fraction(7, 2), Fraction(4), Fraction(9, 2)),
         (Fraction(6), Fraction(13, 2), Fraction(15, 2)),
         (Fraction(14), Fraction(29, 2), Fraction(15)))
POOL = tuple(r for band in BANDS for r in band)
DPT_MAX = max(oracle.dpt(r) for r in POOL)

CLI_ENTRY = "import sys; from piforge.cli import main; sys.exit(main(sys.argv[1:]))"
CLI_TIMEOUT_S = 170
# seeded series commands: nu -> precision; every one asks for CLI_TERMS terms,
# which every r of the pool can hold at that precision
CLI_SERIES_PREC = {1: 2048, 2: 1024, 3: 512}
CLI_TERMS = 24
CLI_MODULUS_PRECS = (512, 1024, 2048, 3072)

BATTERY_PRECS = (512, 2048, 8192)
BATTERY_GROUPS = (("catalog", "replay_published"), ("catalog", "y_table_residuals"),
                  ("catalog", "r68_identity_residual"), ("identities", "identity_battery"))

WARM_PRECS = (1024, 2048, 4096, 8192)
WARM_BUILD_PREC = 8192
WARM_FILL = 240                       # coefficients c_p(n), n < WARM_FILL, filled in set-up
# share of the term bound: one draw per stratum, so every seed asks for about the same work
WARM_STRATA = ((0.5, 0.625), (0.625, 0.75), (0.75, 0.875), (0.875, 1.0))

# digit gates the CLI states for the residual checks of ``piforge verify``
# (Y table, r = 68 identity, identity suite), capped by what a precision holds
GATE_DIGITS = {"y": 40, "r68": 30, "identity": 60}


@dataclass
class Op:
    """One timed operation and the verdict of its checks."""

    kind: str
    label: str
    seconds: float                    # as the workload's stopwatch reports it (clock.py)
    raw_seconds: float = 0.0
    digest: str = ""
    fails: dict = field(default_factory=dict)
    digits: float = 0.0
    incorrect: str = ""
    trace: dict | None = None

    def fail(self, key: str) -> None:
        self.fails[key] = self.fails.get(key, 0) + 1


def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _series_check(op: Op, verdict: bool, oracle_ok: bool, matched: float,
                  digits: bool = True) -> None:
    """Count one series result: an oracle miss outranks the program's own verdict.

    A miss is incorrect whatever the verdict; a FAIL verdict on a sum the
    oracle confirms is the known false FAIL, counted but not incorrect.
    ``digits=False``: ``matched`` is the program's own count, which
    ``digits_per_s`` leaves out.
    """
    if not oracle_ok:
        op.fail("series.oracle_miss")
        op.incorrect = (f"{op.label}: {'PASS' if verdict else 'FAIL'} verdict, "
                        f"{matched:.2f} digits by the oracle")
    elif not verdict:
        op.fail("series.verify.verdict_fail")
    if oracle_ok and digits:
        op.digits += matched


def gate_ok(residual, kind: str, prec: int) -> bool:
    """Residual (value or text such as "residual 2.3e-159") below 10^-gate digits."""
    if isinstance(residual, str):
        residual = mpmath.mpf(residual.split()[-1])
    gate = min(GATE_DIGITS[kind], oracle.capacity(prec) - 16)
    return abs(residual) < mpmath.mpf(10) ** (-gate)


def published_check(label: str, terms: int, prec: int, partial_sum=None):
    """Oracle check of a published series: (passed, matched, threshold).

    Without a partial sum only the threshold is computed (passed, matched: None).
    """
    from piforge import catalog

    entry = catalog.published_by_label(label)
    with mp.workprec(prec + 32):
        g = mpmath.mpf(entry.rhs_num.numerator) / entry.rhs_num.denominator \
            / _surd(entry.rhs_den, prec)
    args = (entry.nu, entry.n_start_effective, terms, _surd(entry.x, prec),
            [_surd(b, prec) for b in entry.bracket], g)
    if partial_sum is None:
        return None, None, oracle.series_threshold(*args, prec)
    return oracle.check_series(*args, partial_sum, prec)


def _surd(s, prec: int):
    """a + b sqrt(d) of a catalogued quadratic surd, in mpmath."""
    with mp.workprec(prec + 32):
        return (mpmath.mpf(s.a.numerator) / s.a.denominator
                + mpmath.mpf(s.b.numerator) / s.b.denominator * mpmath.sqrt(s.d))


def clear_caches() -> None:
    """Empty every lru cache of the layer modules (call with no tracer installed)."""
    for mod in spans.layer_modules().values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("piforge"):
                obj.cache_clear()


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PIFORGE_PREC_BITS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare_cli(seed: int, _lap) -> dict:
    import piforge.cli  # noqa: F401  (the worker's own import of the program)

    rng = random.Random(seed)
    cmds = [["--prec", "512", "verify"],
            ["--prec", "512", "series", "--nu", "3", "--r", "7"],
            ["--prec", "4096", "series", "--nu", "3", "--r", "7"]]
    bands = list(BANDS)
    rng.shuffle(bands)
    for nu, band in zip((1, 2, 3), bands):
        cmds.append(["--prec", str(CLI_SERIES_PREC[nu]), "series", "--nu", str(nu),
                     "--r", str(rng.choice(band)), "--terms", str(CLI_TERMS)])
    # eight of the thirteen commands take a fifth of a second (start-up and
    # import dominate), so op_p50_ms, the seventh, lies inside that cluster
    # and one slow command below it does not move it to the next, far longer one
    for prec in CLI_MODULUS_PRECS:
        cmds.append(["--prec", str(prec), "modulus", str(rng.choice(POOL))])
    for route, d in (("4r", 4), ("9r", 9), ("25r", 25)):
        cmds.append(["--prec", "1024", "alpha", str(d * rng.choice(POOL)), "--route", route])
    rng.shuffle(cmds)
    return {"cmds": cmds, "env": child_env(), "checked": {}}


def run_cli_pass(state: dict, tracer) -> list[Op]:
    ops = []
    for args in state["cmds"]:
        entry = [str(HERE / "cli_child.py")] if tracer else ["-c", CLI_ENTRY]
        argv = [sys.executable, *entry, "--format", "json", *args]
        label = " ".join(args)
        watch = state["watch"]
        watch.start()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, env=state["env"], cwd=ROOT,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raw, scaled = watch.stop()
            op = Op(args[2], label, scaled, raw)
            op.fail(f"{op.kind}.errors")
            op.incorrect = f"{op.label}: no exit within {CLI_TIMEOUT_S} s"
            ops.append(op)
            continue
        raw, scaled = watch.stop()
        op = Op(args[2], label, scaled, raw, _digest(proc.stdout))
        err = proc.stderr.decode(errors="replace")
        if tracer:
            err, _, line = err.rpartition("perfbench-trace ")
            op.trace = json.loads(line)
            op.trace["startup_s"] = op.trace.pop("imported_at") - t0
        key = (op.label, proc.returncode, op.digest)
        if key not in state["checked"]:
            _check_cli(op, args, proc.returncode, proc.stdout, err)
            state["checked"][key] = (op.fails, op.digits, op.incorrect)
        op.fails, op.digits, op.incorrect = state["checked"][key]
        ops.append(op)
    return ops


def _check_cli(op: Op, args: list, rc: int, out: bytes, err: str) -> None:
    kind, prec = args[2], int(args[1])
    fail_key = "series.errors" if kind == "series" else f"{kind}.errors"
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    if doc is None:
        op.fail(fail_key)
        op.incorrect = f"{op.label}: exit {rc} without output: {err[-300:]}"
        return
    verdict = doc.get("passed", rc == 0)
    if (rc == 0) != verdict or rc not in (0, 1):
        op.incorrect = f"{op.label}: exit {rc} disagrees with verdict {verdict}"
    if kind == "series":
        r = Fraction(doc["r"])
        ok, matched, _ = oracle.check_series(doc["nu"], 0, doc["terms"], doc["x"],
                                             doc["bracket"], doc["g"], doc["sum"], prec)
        ok = ok and oracle.agrees(doc["x"], oracle.series_argument(r, prec), prec)
        _series_check(op, verdict, ok, matched)
    elif kind == "modulus":
        if not oracle.check_modulus(Fraction(doc["r"]), prec, doc):
            op.fail("modulus.oracle_miss")
            op.incorrect = f"{op.label}: k, K or E disagrees with mpmath"
    elif kind == "alpha":
        values = [doc["direct"]] + ([doc["value"]] if verdict else [])
        if not oracle.check_alpha(Fraction(doc["r"]), prec, values):
            op.fail("alpha.oracle_miss")
            op.incorrect = f"{op.label}: a(r) disagrees with mpmath"
        elif not verdict:
            op.fail("alpha.verdict_fail")
            op.incorrect = f"{op.label}: FAIL verdict (the reduction routes disagree)"
    elif kind == "verify":
        _check_verify_items(op, doc["items"], prec)
    elif not verdict:
        op.fail(f"{kind}.verdict_fail")
        op.incorrect = f"{op.label}: FAIL verdict"


def _check_verify_items(op: Op, items: list, prec: int) -> None:
    """Each item of ``piforge verify`` against a gate the benchmark sets itself.

    Series items: the reported matched digits against the oracle's threshold
    for that published series and term count. Residual items: the residual
    against the stated digit gate (``GATE_DIGITS``).
    """
    from piforge import catalog

    bad = []
    series_items, kinds = 0, set()
    for item in items:
        name, passed = item["name"], item["passed"]
        if name.startswith("series "):
            series_items += 1
            label, terms = name.split()[1], int(name.split("(")[1].split()[0])
            matched = float(item["residual"].split()[0])
            ok = matched >= published_check(label, terms, prec)[2]
            _series_check(op, passed, ok, matched, digits=False)
            continue
        kind = "y" if name.startswith("Y(") else "r68" if name.startswith("r=68") else "identity"
        kinds.add(kind)
        if not (passed and gate_ok(item["residual"], kind, prec)):
            bad.append(name)
    if series_items != len(catalog.PUBLISHED_SERIES):
        bad.append(f"{series_items} series items for {len(catalog.PUBLISHED_SERIES)} published")
    bad += [f"no {kind} item" for kind in sorted(set(GATE_DIGITS) - kinds)]
    if bad:
        op.fail("verify.verdict_fail")
        op.incorrect = f"{op.label}: fails its residual gates: {', '.join(bad)}"


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


def prepare_battery(_seed: int, _lap) -> dict:
    import piforge.catalog
    import piforge.identities

    # The battery is fixed by the catalog, so the seed changes nothing here; the
    # order is that of ``piforge verify`` at each precision, since the caches
    # that one item fills serve the next.
    ops = [(mod, fn, prec) for prec in BATTERY_PRECS for mod, fn in BATTERY_GROUPS]
    return {"ops": ops, "checked": {}}


def run_battery_pass(state: dict, tracer) -> list[Op]:
    mods = spans.layer_modules()
    clear_caches()
    if tracer:
        tracer.install()
    ops = []
    try:
        for mod, fn, prec in state["ops"]:
            if tracer:
                tracer.op = len(ops)
            op, result = _timed_call(state["watch"], f"{fn} {prec}", "battery",
                                     getattr(mods[mod], fn), prec)
            if result is not None:
                _check_battery(op, fn, prec, result, state["checked"])
            ops.append(op)
    finally:
        if tracer:
            tracer.uninstall()
    return ops


def _timed_call(watch, label: str, kind: str, fn, *args):
    """(Op, result) of fn(*args), timed; the result is None when piforge raised."""
    from piforge.errors import PiforgeError

    watch.start()
    try:
        result = fn(*args)
    except PiforgeError as exc:
        raw, scaled = watch.stop()
        op = Op(kind, label, scaled, raw, _digest(repr(exc).encode()))
        op.fail("series.errors" if kind == "series" else f"{kind}.errors")
        op.incorrect = f"{label}: raised {exc!r}"
        return op, None
    raw, scaled = watch.stop()
    return Op(kind, label, scaled, raw), result


def _report_doc(rep) -> dict:
    return {"label": rep.label, "terms": rep.terms,
            "sum": rep.partial_sum.to_decimal(), "target": rep.target.to_decimal(),
            "matched_digits": rep.matched_digits, "threshold_digits": rep.threshold_digits,
            "passed": rep.passed}


def _check_battery(op: Op, fn: str, prec: int, result, checked: dict) -> None:
    if fn == "replay_published":
        doc = [_report_doc(rep) for rep in result]
    elif fn == "y_table_residuals":
        doc = {str(s): v.to_decimal() for s, v in result.items()}
    elif fn == "r68_identity_residual":
        doc = result.to_decimal()
    else:
        doc = [list(row) for row in result]
    op.digest = _digest(doc)
    if op.digest in checked:
        op.fails, op.digits, op.incorrect = checked[op.digest]
        return
    if fn == "replay_published":
        for rep in result:
            ok, matched, _ = published_check(rep.label, rep.terms, prec, rep.partial_sum.value)
            _series_check(op, rep.passed, ok, matched)
    else:
        # residuals against the stated gates; identity rows also by their own verdict
        if fn == "y_table_residuals":
            passed = all(gate_ok(v.value, "y", prec) for v in result.values())
        elif fn == "r68_identity_residual":
            passed = gate_ok(result.value, "r68", prec)
        else:
            passed = bool(result) and all(row[1] and gate_ok(row[2], "identity", prec)
                                          for row in result)
        if not passed:
            op.fail("battery.verdict_fail")
            op.incorrect = f"{op.label}: a residual misses its digit gate"
    checked[op.digest] = (op.fails, op.digits, op.incorrect)


# ---------------------------------------------------------------------------
# evaluate_warm
# ---------------------------------------------------------------------------


def warm_term_bound(prec: int) -> int:
    """Largest term count every spec can hold at ``prec``, within the filled bound."""
    return min(WARM_FILL, int((oracle.capacity(prec) - 24) / DPT_MAX))


def prepare_warm(seed: int, lap) -> dict:
    from piforge import catalog, series
    from piforge.errors import PiforgeError

    # the middle r of each band: digits per term, and so digits per second, then
    # depend on the seed only through the term counts it draws
    specs, failures = [], 0
    for nu in (1, 2, 3):
        for band in BANDS:
            try:
                specs.append(series.build_series(nu, band[1], WARM_BUILD_PREC))
            except PiforgeError:
                failures += 1
            lap()
    specs += [entry.to_spec(WARM_BUILD_PREC) for entry in catalog.PUBLISHED_SERIES]
    for p in (2, 4, 6):
        for n in range(WARM_FILL):
            series.cp(p, n)
        lap()
    rng = random.Random(seed)
    ops = [("json", i, WARM_BUILD_PREC, 0) for i in range(len(specs))]
    for prec in WARM_PRECS:
        bound = warm_term_bound(prec)
        for i in range(len(specs)):
            for lo, hi in WARM_STRATA:
                ops.append(("verify", i, prec, max(1, math.ceil(bound * rng.uniform(lo, hi)))))
    rng.shuffle(ops)
    return {"specs": specs, "ops": ops, "setup_failures": failures, "checked": {}, "x_ok": {}}


def run_warm_pass(state: dict, tracer) -> list[Op]:
    series = spans.layer_modules()["series"]
    specs = state["specs"]
    if tracer:
        tracer.install()
    ops = []
    try:
        for kind, i, prec, terms in state["ops"]:
            spec = specs[i]
            if tracer:
                tracer.op = len(ops)
            if kind == "verify":
                op, result = _timed_call(state["watch"], f"verify {spec.label} {prec} {terms}",
                                         "series", series.verify, spec, terms, prec)
            else:
                op, result = _timed_call(state["watch"], f"json {spec.label}", "json",
                                         _round_trip, series, spec)
            if result is not None:
                _check_warm(op, i, spec, prec, terms, result, state)
            ops.append(op)
    finally:
        if tracer:
            tracer.uninstall()
    return ops


def _round_trip(series, spec):
    text = series.to_json(spec)
    return text, series.to_json(series.from_json(text))


def _check_warm(op: Op, i: int, spec, prec: int, terms: int, result, state: dict) -> None:
    if op.kind == "json":
        text, again = result
        op.digest = _digest(text.encode())
        if again != text:
            op.fail("json.errors")
            op.incorrect = f"{op.label}: to_json(from_json(s)) differs from s"
        return
    op.digest = _digest(_report_doc(result))
    checked = state["checked"]
    if op.digest not in checked:
        if i not in state["x_ok"]:
            state["x_ok"][i] = spec.provenance != "solved" or oracle.agrees(
                spec.x.value, oracle.series_argument(spec.r, spec.prec), spec.prec)
        check_report(op, spec, prec, terms, result, state["x_ok"][i])
        checked[op.digest] = (op.fails, op.digits, op.incorrect)
    op.fails, op.digits, op.incorrect = checked[op.digest]


def check_report(op: Op, spec, prec: int, terms: int, report, x_ok: bool = True) -> None:
    """Count a ``series.verify`` report of ``spec`` against the oracle."""
    ok, matched, _ = oracle.check_series(
        spec.nu, spec.n_start, terms, spec.x.value, [b.value for b in spec.bracket],
        spec.g.value, report.partial_sum.value, prec)
    _series_check(op, report.passed, ok and x_ok, matched)


# name -> (prepare, run_pass, whose peak memory counts: the CLI children or this
# process, whether times are scaled by the calibration kernel: see clock.py)
WORKLOADS = {
    "cli_cold": (prepare_cli, run_cli_pass, "children", False),
    "battery": (prepare_battery, run_battery_pass, "self", False),
    "evaluate_warm": (prepare_warm, run_warm_pass, "self", True),
}
