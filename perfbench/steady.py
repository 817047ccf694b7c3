#!/usr/bin/env python3
"""Steadiness report and smoke run for the sqcap benchmark.

Repeated runs, one seed each, with median and quartiles per metric:

    python3 perfbench/steady.py --workloads sweep-vector,cli-mix --runs 10

For every end-to-end metric the spread is (Q3 - Q1) / median over the runs,
with quartiles from ``statistics.quantiles(values, n=4)``; it is compared
with the metric's bound in ``BENCHMARK.json`` and flagged when it is not
below a third of it.  ``--save FILE`` keeps every run's result.

Smoke run of all four workloads at tiny sizes, traced and untraced, which
fails unless every metric named in ``BENCHMARK.json`` is printed with its
unit and no operation failed:

    python3 perfbench/steady.py --smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" / f"{workload}-trace{trace}.json").read_text(encoding="utf-8"))
    result.update(seed=seed, machine=record["machine"], details=record["details"])
    return result


def summarize(runs: list, trace: int) -> dict:
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[spec["name"]] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "bound": spec.get("bound")}
    return out


def report(workload: str, runs: list, trace: int) -> bool:
    """Print the table; False when an end-to-end spread is not below a third of its bound."""
    steady = True
    errors = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    print(f"\n{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}, "
          f"error rate {errors:.3g}, all correct {all(r['correct'] for r in runs)}")
    for name, s in summarize(runs, trace).items():
        note = ""
        if s["bound"] is not None:
            note = f"bound {s['bound']:.2f}"
            if not s["spread"] < s["bound"] / 3:
                note += "  NOT STEADY"
                steady = False
        print(f"  {name:42s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f}  {note}")
        if s["bound"] is not None:
            print("      runs: " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs))
    return steady and errors == 0


def smoke() -> int:
    bad = []
    for wl in SPEC["workloads"]:
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            res = run_once(wl["name"], 1, 0.5, trace, smoke=True)
            want = {s["name"]: s["unit"] for s in specs}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                bad.append(f"{wl['name']} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not res["correct"] or res["failed"]:
                bad.append(f"{wl['name']} trace {trace}: {res['failed']} of {res['attempted']} operations failed")
            print(f"smoke {wl['name']} trace {trace}: {len(got)} metrics, {res['attempted']} operations, "
                  f"{res['failed']} failed")
    for b in bad:
        print(f"FAIL {b}")
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", type=Path, help="write every run's result to this JSON file")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke()
    ok, saved = True, {}
    for wl in args.workloads.split(","):
        runs = [run_once(wl, args.first_seed + i, args.seconds, args.trace) for i in range(args.runs)]
        ok &= report(wl, runs, args.trace)
        saved[wl] = {"runs": runs, "summary": summarize(runs, args.trace)}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
