"""Self-checks of the benchmark. Run from the repository root.

    python3 perfbench/check.py sentinel
        A corrupted published series (catalog.perturbed) must be counted as
        series.oracle_miss and make the run incorrect, and the uncorrupted
        one must not; an identity row whose residual misses the 60-digit
        gate must make the run incorrect even when its own verdict is PASS.
    python3 perfbench/check.py stability [--seconds S]
        Two runs per workload with the same seed must print identical output
        digests and agree within each end-to-end metric's bound; prints the
        report of the first run (every end-to-end metric) of each workload.
    python3 perfbench/check.py spread --workload W [--seeds 1 2 ...] [--seconds S]
        One run per seed; prints each end-to-end metric's quartile spread as a
        share of its median, beside a third of its bound. Repeat one seed
        (``--seeds 1 1 1 1 1``) to see how far runs of the same inputs agree.
    python3 perfbench/check.py trace [--seconds S]
        One traced run per workload; prints the split checks.

Each command exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
DEFAULT_SEED = json.loads((HERE / "meta.json").read_text())["seeds"]["default"]


def run(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[list, dict]:
    """(report lines, final JSON) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def sentinel(_args) -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from piforge import catalog, series

    from piforge import identities

    ok = True
    for entry, expect_miss in ((catalog.perturbed(catalog.PI6_R7, 1), True),
                               (catalog.PI6_R7, False)):
        spec = entry.to_spec(512)
        terms = entry.default_terms
        op = workloads.Op("series", entry.label, 0.0)
        workloads.check_report(op, spec, 512, terms, series.verify(spec, terms, 512))
        missed = op.fails.get("series.oracle_miss", 0) == 1
        print(f"{entry.label}: oracle_miss={missed} incorrect={bool(op.incorrect)} "
              f"(expected {expect_miss})")
        ok &= missed == expect_miss and bool(op.incorrect) == expect_miss
    rows = identities.identity_battery(512)
    loose = [(rows[0][0], True, "residual 1.0e-20", rows[0][3])] + rows[1:]
    for label, result, expect_bad in (("identity rows", rows, False),
                                      ("identity rows, one at 1e-20 marked PASS", loose, True)):
        op = workloads.Op("battery", label, 0.0)
        workloads._check_battery(op, "identity_battery", 512, result, {})
        print(f"{label}: incorrect={bool(op.incorrect)} (expected {expect_bad})")
        ok &= bool(op.incorrect) == expect_bad
    return ok


def stability(args) -> bool:
    ok = True
    for workload in WORKLOADS:
        runs = [run(workload, args.seed, args.seconds) for _ in range(2)]
        print("\n".join(runs[0][0]))
        digests = [next(l for l in lines if l.startswith("digest")) for lines, _ in runs]
        same = digests[0] == digests[1]
        print(f"{workload}: digests {'identical' if same else 'DIFFER'}: {digests[0].split()[1]}")
        ok &= same
        for name, bound in BOUNDS.items():
            a, b = (doc["metrics"][name]["value"] for _, doc in runs)
            rel = abs(b - a) / a
            print(f"  {name:<14} {a:.6g} {b:.6g}  diff {rel:.3f} (bound {bound})")
            ok &= rel <= bound
    return ok


def spread_cmd(args) -> bool:
    values = {name: [] for name in BOUNDS}
    for seed in args.seeds:
        _, doc = run(args.workload, seed, args.seconds)
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.5g}"
                                          for k, v in doc["metrics"].items())
              + f"  correct={doc['correct']} failed={doc['failed']}/{doc['attempted']}",
              flush=True)
        for name in values:
            values[name].append(doc["metrics"][name]["value"])
    ok = True
    for name, vals in values.items():
        s = spread(vals)
        print(f"{args.workload} {name:<14} median {statistics.median(vals):.6g}  "
              f"spread {s:.4f}  (a third of the bound: {BOUNDS[name] / 3:.4f})")
        ok &= s <= BOUNDS[name] / 3
    return ok


def trace(args) -> bool:
    ok = True
    for workload in WORKLOADS:
        lines, _ = run(workload, args.seed, args.seconds, trace=1)
        for line in lines:
            if line.startswith("split"):
                print(f"{workload}: {line}")
                ok &= line.endswith("holds")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("sentinel").set_defaults(fn=sentinel)
    for name, fn in (("stability", stability), ("trace", trace)):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
        p.set_defaults(fn=fn)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.set_defaults(fn=spread_cmd)
    args = parser.parse_args()
    return 0 if args.fn(args) else 1


if __name__ == "__main__":
    sys.exit(main())
