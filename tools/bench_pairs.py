"""Paired benchmark runs of two revisions, summarised into one JSON file.

Run from the repository root:

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--parent HEAD~1]
        [--change HEAD] [--pairs 10] [--workload W ...] [--seed S ...]

Each revision's committed files are exported with ``git archive`` into a
temporary directory (``TMPDIR`` decides where), so both sides run from a clean
checkout, as the benchmark itself is run. For every workload and seed the
script then runs ``python3 perfbench/run.py --workload W --seed S`` in
``--pairs`` parent/change pairs, alternating which side runs first, at the
benchmark's own run length. Without ``--seed`` it runs the ``default`` and
``held_out`` seeds of the working tree's ``perfbench/meta.json``.

The output holds, per workload, seed and end-to-end metric, each side's
median and quartiles and its raw runs, the number of pairs the change won,
the ``failed``/``attempted``/``correct`` fields of every run, whether the
per-operation digests of the two sides are identical, and for each side
``src.lines`` (the line count of ``src/piforge/*.py``), ``src.lines_by_module``
(the same count per module, keyed by file stem, so a change's line deltas
per module can be read off the file), one tier-1 test run
(``python -m pytest -q -rf`` in its checkout: wall time, passed/failed counts and
the sorted ids of the failed tests, ``failed_ids``)
and ``cli_sha256``, the sha256 of the stdout, stderr and exit code of each
command of ``tests/golden/cli.json``, in text and in JSON, run in its checkout, and
``stages``, per key the median over ``STAGE_RUNS`` fresh interpreters of that
interpreter's median of 7 timings in ms: of each max-term ``evaluate`` of ``STAGE_SUMS`` and of
``verify`` on the same spec and term count (``verify nu=...``), each after one
untimed call, of cold fills of the coefficient store to n = 420 for p = 2, 4
and 6 and to n = 700 for p = 6 (``fill p=... n=...``, each from an emptied
store), of
``singular_modulus(r, 8208)`` for r = 1, 2, 3 and 25 (``context r=...
prec=8208``, each from an emptied context store, after one untimed call fills
the pi cache), of ``solve_coefficients(nu, 13/2, 8192)`` for nu = 1, 2 and 3
after one untimed call warms the context, pi and the stack, and of
``theta3`` and ``eta_f`` at nome(1, 8192)^2 and ``rr_eval`` at
nome(1/5, 8208)^2, each after one untimed call. The stage interpreters
alternate between the sides, so a change in the machine's state reaches both.
All of these are taken before the benchmark runs. The top-level
``verify_json_identical`` says whether the two sides' JSON ``verify`` outputs
hash the same at 512, 2048 and 8192 bits, ``cli_outputs_identical`` whether
every CLI command's outputs do, and ``tier1_failed_identical``
whether the same tests failed on both sides. Both sides run the commands
listed in the working tree's ``tests/golden/cli.json``, whose outputs the
tier-1 tests pin to the same hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_cold", "battery", "evaluate_warm")
# piforge arguments whose outputs are hashed, each with --format text and json:
# the cli_cold anchors, solved series, default term counts at large r, a
# context for r > 1 and one for r < 1, the three alpha routes, three error
# paths and the verify battery at three precisions
GOLDEN = ROOT / "tests" / "golden" / "cli.json"

# max-term evaluate calls timed by ``stages``: (nu, r, the precision the spec
# is built at, the precisions it is summed at, the cap on terms); each sums the
# most terms evaluate accepts, up to the cap
STAGE_SUMS = ((3, "7/2", 8192, (1024, 8192), 240), (2, "29/2", 8192, (1024, 8192), 240),
              (1, "13/2", 8192, (1024, 8192), 240), (3, "7", 4096, (4096,), 400))
STAGE_RUNS = 5
STAGE_SCRIPT = """
import json, statistics, sys, time
from fractions import Fraction
from piforge import (build_series, elliptic, evaluate, rr_eval, series, solve_coefficients,
                     verify)
from piforge.bigreal import decimal_digits

def median_ms(call, before=lambda: None):
    times = []
    for _ in range(7):
        before()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 3)

out = {}
elliptic.singular_modulus(1, 8208)
for r in (1, 2, 3, 25):
    out[f"context r={r} prec=8208"] = median_ms(lambda: elliptic.singular_modulus(r, 8208),
                                                elliptic._context.cache_clear)
for p, n in ((2, 420), (4, 420), (6, 420), (6, 700)):
    out[f"fill p={p} n={n}"] = median_ms(lambda: series._scaled(p, n), series._store.cache_clear)
for nu in (1, 2, 3):
    solve_coefficients(nu, Fraction(13, 2), 8192)
    out[f"solve nu={nu} r=13/2 prec=8192"] = median_ms(
        lambda: solve_coefficients(nu, Fraction(13, 2), 8192))
q = elliptic.nome(1, 8192) ** 2
for name in ("theta3", "eta_f"):
    getattr(elliptic, name)(q, 8192)
    out[f"{name} q=nome(1)^2 prec=8192"] = median_ms(lambda: getattr(elliptic, name)(q, 8192))
q = elliptic.nome(Fraction(1, 5), 8208) ** 2
rr_eval(q, 8208)
out["rr_eval q=nome(1/5)^2 prec=8208"] = median_ms(lambda: rr_eval(q, 8208))
for nu, r, built, precs, cap in json.loads(sys.argv[1]):
    spec = build_series(nu, Fraction(r), built)
    for prec in precs:
        terms = min(cap, int((decimal_digits(prec) + 10) / spec.dpt()))
        evaluate(spec, terms, prec)
        out[f"evaluate nu={nu} r={r} prec={prec} terms={terms}"] = median_ms(
            lambda: evaluate(spec, terms, prec))
        verify(spec, terms, prec)
        out[f"verify nu={nu} r={r} prec={prec} terms={terms}"] = median_ms(
            lambda: verify(spec, terms, prec))
print(json.dumps(out))
"""


def export(rev: str, dest: Path) -> str:
    """Extract the committed tree of ``rev`` into ``dest``; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def module_lines(tree: Path) -> dict:
    """Line count of each ``src/piforge/*.py``, keyed by module name."""
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((tree / "src" / "piforge").glob("*.py"))}


def tier1(tree: Path) -> dict:
    """One run of the tier-1 tests in ``tree``: wall time, outcome counts and
    the ids of the failed tests, sorted."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"],
                          cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary_line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {key: int(m.group(1)) if (m := re.search(rf"(\d+) {key}", summary_line)) else 0
              for key in ("passed", "failed", "error")}
    failed_ids = sorted(m.group(1) for m in re.finditer(r"^FAILED (\S+)", proc.stdout, re.M))
    return {"wall_s": round(wall, 2), **counts, "failed_ids": failed_ids,
            "summary": summary_line}


def cli_digests(tree: Path) -> dict:
    """sha256 of the stdout, stderr and exit code of each command of ``GOLDEN``,
    keyed by format and arguments."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    commands = json.loads(GOLDEN.read_text())["commands"]
    out = {}
    for fmt in ("text", "json"):
        for command in commands:
            proc = subprocess.run([sys.executable, "-m", "piforge.cli", "--format", fmt,
                                   *command.split()], cwd=tree, env=env, capture_output=True)
            out[f"{fmt}: {command}"] = hashlib.sha256(b"\n--\n".join(
                (proc.stdout, proc.stderr, str(proc.returncode).encode()))).hexdigest()
    return out


def stage_timings(trees: dict) -> dict:
    """Per side, the median over ``STAGE_RUNS`` fresh interpreters, alternating
    sides, of each stage's median ms in that interpreter."""
    runs = {side: [] for side in trees}
    for i in range(STAGE_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            runs[side].append(json.loads(subprocess.run(
                [sys.executable, "-c", STAGE_SCRIPT, json.dumps(STAGE_SUMS)],
                cwd=trees[side], env=env, check=True, capture_output=True, text=True).stdout))
    return {side: {key: statistics.median(run[key] for run in rs) for key in rs[0]}
            for side, rs in runs.items()}


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, list]:
    """One benchmark run; returns its final JSON line and its per-operation digests."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    digests = json.loads((tree / "perfbench" / "out" / f"digests-{workload}-{seed}.json")
                         .read_text())
    return result, digests


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent_runs: list, change_runs: list) -> dict:
    """Per metric: both sides' summaries and how many pairs the change won."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    direction = {m["name"]: m["better"] for m in spec}
    out = {}
    for name, meta in parent_runs[0]["metrics"].items():
        better = min if direction[name] == "lower" else max
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        wins = sum(1 for a, b in zip(p, c) if a != b and better(a, b) == b)
        out[name] = {"unit": meta["unit"], "parent": summary(p), "change": summary(c),
                     "change_wins": wins, "pairs": len(p)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", action="append", type=int)
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    meta = json.loads((ROOT / "perfbench" / "meta.json").read_text(encoding="utf-8"))["seeds"]
    seeds = args.seed or [meta["default"], meta["held_out"]]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        doc = {"sides": {side: {"rev": export(getattr(args, side), tree)}
                         for side, tree in trees.items()},
               "pairs": args.pairs, "results": {}}
        for side, tree in trees.items():
            lines = module_lines(tree)
            doc["sides"][side].update({"src.lines": sum(lines.values()),
                                       "src.lines_by_module": lines, "tier1": tier1(tree),
                                       "cli_sha256": cli_digests(tree)})
            print(f"{side} tier-1: {doc['sides'][side]['tier1']['summary']}",
                  file=sys.stderr, flush=True)
        for side, stages in stage_timings(trees).items():
            doc["sides"][side]["stages"] = stages
        parent, change = doc["sides"]["parent"], doc["sides"]["change"]
        doc["verify_json_identical"] = all(
            parent["cli_sha256"][key] == change["cli_sha256"][key]
            for key in (f"json: --prec {n} verify" for n in (512, 2048, 8192)))
        doc["cli_outputs_identical"] = parent["cli_sha256"] == change["cli_sha256"]
        doc["tier1_failed_identical"] = (parent["tier1"]["failed_ids"]
                                         == change["tier1"]["failed_ids"])
        for workload in workloads:
            for seed in seeds:
                runs = {"parent": [], "change": []}
                digests_equal = True
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    digests = {}
                    for side in order:
                        result, digests[side] = run_once(trees[side], workload, seed)
                        runs[side].append(result)
                    digests_equal &= digests["parent"] == digests["change"]
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + "  ".join(
                        f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f}"
                        for side in ("parent", "change")), file=sys.stderr, flush=True)
                doc["results"].setdefault(workload, {})[str(seed)] = {
                    "metrics": compare(runs["parent"], runs["change"]),
                    "digests_identical": digests_equal,
                    "checks": {side: [{k: r[k] for k in ("correct", "failed", "attempted")}
                                      for r in rs] for side, rs in runs.items()},
                }
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
