"""piforge benchmark: three seeded workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cli_cold|battery|evaluate_warm \
        --seed N --seconds S --trace 0|1

It imports piforge from ``src/`` (nothing to build), prepares the workload
from the seed, then runs passes over the seeded operation list, closed loop
with one client, for about S seconds. Every output is checked against the
independent oracle in ``oracle.py``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
are a readable report (all metrics with units, failures by kind, output
digest, raw wall times, the run's own duration). With ``--trace 1``
untraced and traced passes alternate, so the difference of their wall times
is the tracing overhead, and the spans are written to ``perfbench/out/``.

On evaluate_warm every time (``wall_s``, ``op_p50_ms``, ``op_p90_ms``,
``setup_s`` and the seconds under ``digits_per_s``) is wall time scaled to
a fixed machine speed by the calibration kernel of ``clock.py``; on
cli_cold and battery the times are raw wall times (``clock.py`` says why).
The report prints the raw pass times beside the reported ones.
"""

import time

START = time.perf_counter()

import clock  # noqa: E402

SETUP = clock.Stopwatch(repeats=5)
SETUP.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up samples: this process's own set-up plus fresh processes, median reported
SETUP_SAMPLES = 5
P90_MIN_OPS = 100
FAIL_KEYS = ("series.errors", "series.verify.verdict_fail", "series.oracle_miss")


def parse_args(argv):
    meta = json.loads((HERE / "meta.json").read_text())
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold", "battery", "evaluate_warm"))
    parser.add_argument("--seed", type=int, default=meta["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the workload, print the set-up time and exit")
    return parser.parse_args(argv)


def setup_sample(args) -> float:
    """Set-up time of one fresh worker process, from its start to workload ready."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=170).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def run_passes(run_pass, state, seconds: float, trace: bool) -> list:
    """Passes until about ``seconds`` have gone; with tracing, alternately untraced and traced."""
    import spans

    tracers = (None, spans.Tracer()) if trace else (None,)
    passes = []
    t0 = time.perf_counter()
    while True:
        tracer = tracers[len(passes) % len(tracers)]
        started = time.perf_counter()
        ops = run_pass(state, tracer)
        p = {"traced": tracer is not None, "ops": ops,
             "wall": sum(op.seconds for op in ops),
             "raw_wall": sum(op.raw_seconds for op in ops)}
        if tracer:
            p["spans"], p["counters"] = tracer.take()
        p["elapsed"] = time.perf_counter() - started
        passes.append(p)
        if len(passes) < len(tracers):
            continue
        if time.perf_counter() - t0 + statistics.median(q["elapsed"] for q in passes) > seconds:
            return passes


def end_to_end(passes, setup, peak_rss_mb) -> dict:
    plain = [p for p in passes if not p["traced"]]
    lat_ms = [op.seconds * 1000 for p in plain for op in p["ops"]]
    walls = [p["wall"] for p in plain]
    out = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "digits_per_s": (sum(op.digits for p in plain for op in p["ops"]) / sum(walls),
                         "digits/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    if len(lat_ms) >= P90_MIN_OPS:
        out["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
    return out


def per_layer(passes) -> dict:
    import spans

    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    all_spans, counters, startups = [], {}, []
    for p in traced:
        all_spans += p["spans"]
        parts = [p["counters"]] + [op.trace["counters"] for op in p["ops"] if op.trace]
        for part in parts:
            for k, v in part.items():
                counters[k] = counters.get(k, 0) + v
        for op in p["ops"]:
            if op.trace:
                all_spans += op.trace["spans"]
                startups.append(op.trace["startup_s"])
    agg = spans.aggregate(all_spans)

    def total(name, col=2):
        return agg.get(name, (0, 0.0, 0.0))[col] / n

    out = {}
    for layer in spans.LAYERS:
        rows = [v for k, v in agg.items() if k.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(r[0] for r in rows) / n, "count")
        out[f"{layer}.self_s"] = (sum(r[2] for r in rows) / n, "s")
    for name in ("series.evaluate", "symbolic.derivative_stack", "symbolic.solve_coefficients",
                 "elliptic.singular_modulus", "catalog.replay_published",
                 "catalog.y_table_residuals", "identities.identity_battery",
                 "bigreal.pi_bits", "cli.main"):
        out[f"{name}.self_s"] = (total(name), "s")
    out["series.cp.fill_s"] = (total("series.cp.fill", col=1), "s")
    for name in ("series.cp.misses", "symbolic.derivative_stack.misses",
                 "bigreal.pi_bits.misses", "series.evaluate.terms",
                 "elliptic.singular_modulus.calls"):
        out[name] = (counters.get(name, 0) / n, "count")
    calls = counters.get("elliptic.singular_modulus.calls", 0)
    out["elliptic.singular_modulus.distinct_ratio"] = (
        counters.get("elliptic.singular_modulus.distinct", 0) / calls if calls else 0.0, "ratio")
    pi_calls = counters.get("bigreal.pi_bits.hits", 0) + counters.get("bigreal.pi_bits.misses", 0)
    out["bigreal.pi_bits.hit_ratio"] = (
        counters.get("bigreal.pi_bits.hits", 0) / pi_calls if pi_calls else 0.0, "ratio")
    for key in FAIL_KEYS:
        out[key] = (sum(op.fails.get(key, 0) for p in traced for op in p["ops"]) / n, "count")
    out["cli.startup_s"] = (statistics.median(startups) if startups else 0.0, "s")
    lines = {path.stem: len(path.read_text().splitlines())
             for path in (SRC / "piforge").glob("*.py")}
    for layer in spans.LAYERS:
        out[f"{layer}.lines"] = (lines.get(layer, 0), "lines")
    out["src.lines"] = (sum(lines.values()), "lines")
    plain = [p["wall"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(plain), "s")
    return out


def _out(name: str) -> Path:
    path = HERE / "out" / name
    path.parent.mkdir(exist_ok=True)
    return path


def write_digests(ops, workload: str, seed: int) -> Path:
    """sha256 of each operation's output, in run order."""
    out = _out(f"digests-{workload}-{seed}.json")
    out.write_text(json.dumps([[op.label, op.digest] for op in ops], indent=0))
    return out


def write_spans(passes, workload: str, seed: int) -> Path:
    """All spans of the traced passes as [id, parent, name, start, end, self_s, op]."""
    rows, base = [], 0
    for k, p in enumerate(q for q in passes if q["traced"]):
        groups = [(p["spans"], None)] + [(op.trace["spans"], i)
                                         for i, op in enumerate(p["ops"]) if op.trace]
        for group, op_index in groups:
            for sid, parent, name, start, end, self_s, op in group:
                rows.append([base + sid, None if parent is None else base + parent, name,
                             start, end, self_s, [k, op if op_index is None else op_index]])
            base += 1 + max((s[0] for s in group), default=-1)
    out = _out(f"trace-{workload}-{seed}.json")
    out.write_text(json.dumps({"workload": workload, "seed": seed,
                               "columns": ["id", "parent", "name", "start", "end",
                                           "self_s", "pass_and_op"],
                               "spans": rows}))
    return out


def split_check(workload: str, layer: dict, wall: float) -> str:
    """The per-layer split each workload was chosen to show."""
    if workload == "evaluate_warm":
        v = layer["series.cp.misses"][0]
        text, holds = f"series.cp.misses = {v:g} in the timed section (expect 0)", v == 0
    elif workload == "battery":
        share = layer["symbolic.self_s"][0] / wall
        text, holds = f"symbolic self time share = {share:.4f} (expect about 0)", share < 0.01
    else:
        share = sum(layer[f"{m}.self_s"][0] for m in ("elliptic", "alpha", "rr")) / wall
        text, holds = f"elliptic+alpha+rr self time share = {share:.4f} (expect small)", share < 0.1
    return f"split {text}: " + ("holds" if holds else "does NOT hold")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "piforge" / "__init__.py").is_file():
        print(f"error: piforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    prepare, run_pass, rusage_who, scaled = workloads.WORKLOADS[args.workload]
    state = prepare(args.seed, SETUP.lap)
    SETUP.stop()
    setup = [SETUP.overall if scaled else SETUP.raw]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0], "raw_s": SETUP.raw}))
        return 0
    state["watch"] = clock.Stopwatch(repeats=1 if scaled else 0)

    passes = run_passes(run_pass, state, args.seconds, bool(args.trace))
    # read before the set-up samples, so that only the CLI children count on cli_cold
    who = resource.RUSAGE_CHILDREN if rusage_who == "children" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args))

    ops = [op for p in passes for op in p["ops"]]
    setup_failures = state.get("setup_failures", 0)
    attempted = len(ops) + setup_failures
    failed = sum(1 for op in ops if op.fails) + setup_failures
    digests = [[op.digest for op in p["ops"]] for p in passes]
    incorrect = [op.incorrect for op in ops if op.incorrect]
    if setup_failures:
        incorrect.append(f"{setup_failures} specs could not be built in set-up")
    if any(d != digests[0] for d in digests):
        incorrect.append("outputs differ between passes of the same run")
    e2e = end_to_end(passes, setup, peak_rss_mb)

    plain = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f" + {len(passes) - len(plain)} traced  ops/pass {len(passes[0]['ops'])}")
    for name, (value, unit) in e2e.items():
        print(f"{name:<14} {value:.6g} {unit}")
    if "op_p90_ms" not in e2e:
        print(f"op_p90_ms      not reported: {len(plain) * len(plain[0]['ops'])} ops "
              f"< {P90_MIN_OPS}")
    print(f"fail_ratio     {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for key in FAIL_KEYS:
        print(f"{key:<27} {sum(op.fails.get(key, 0) for op in ops)}")
    for other in sorted({k for op in ops for k in op.fails} - set(FAIL_KEYS)):
        print(f"{other:<27} {sum(op.fails.get(other, 0) for op in ops)}")
    print("setup samples  " + " ".join(f"{s:.4f}" for s in setup) + " s")
    print("raw wall_s     " + " ".join(f"{p['raw_wall']:.4f}" for p in plain)
          + " s per untraced pass")
    print(f"run time       {time.perf_counter() - START:.1f} s (this process, set-up samples"
          " included)")
    print("digest         " + hashlib.sha256("".join(digests[0]).encode()).hexdigest()
          + f"  (per operation: {write_digests(passes[0]['ops'], args.workload, args.seed)})")
    for reason in incorrect[:20]:
        print(f"INCORRECT {reason}")

    if args.trace:
        layer = per_layer(passes)
        for name, (value, unit) in layer.items():
            print(f"{name:<42} {value:.6g} {unit}")
        print(split_check(args.workload, layer,
                          statistics.median(p["wall"] for p in passes if p["traced"])))
        print(f"spans written to {write_spans(passes, args.workload, args.seed)}")
        metrics = layer
    else:
        metrics = {k: v for k, v in e2e.items() if k != "op_p90_ms"}
    print(json.dumps({
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
