#!/usr/bin/env python3
"""Benchmark of sqcap: figure sweeps, CLI commands and the integer oracle.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-vector --seed 1 --seconds 20 --trace 0

Workloads are ``sweep-vector``, ``sweep-matrix``, ``cli-mix`` and
``alloc-oracle`` (see ``perfbench/NOTES.md``).  The run imports ``sqcap``
from ``src/`` of the checkout, checks every output, prints each metric with
its unit and the machine facts, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, timed against a kernel that samples
the machine's speed while they run (``perfbench/calibrate.py``); with
``--trace 1`` the run spends half its time untraced and half with spans
recorded around every public ``sqcap`` function, and reports the
per-layer metrics.

Other modes: ``--smoke`` shrinks every workload to a few hundred
milliseconds; ``--record-reference`` rewrites ``perfbench/reference/``
from the code in this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_ms": "ms"}

MODULES = ("tailmath", "channel", "dmc", "bounds", "schemes", "sweeps", "cli")
#: Functions whose self time is reported on its own; everything else is in
#: the per-function table printed and saved with each traced run.
FUNCTIONS = (
    "bounds.simo_single_select_bounds", "bounds.simo_linear_bounds", "bounds.waterfill_relaxed",
    "bounds.allocate_integer_oracle", "sweeps.multi_select_lower_capped", "sweeps.run_sweep",
    "channel.ChannelMatrix", "channel.decompose", "channel.gaussian_draw",
    "dmc.quantizer_transition", "dmc.blahut_arimoto", "dmc.mutual_information",
    "tailmath.q_diff_array", "schemes.dithered_mi_estimate", "cli.cli_dispatch",
)
PER_LAYER = {
    **{f"{m}.{k}": u for m in MODULES for k, u in (("calls", "count"), ("self_s", "s"))},
    **{f"{f}.self_s": "s" for f in FUNCTIONS},
    "sweeps.bound_calls_per_trial.fig2a": "count",
    "sweeps.bound_calls_per_trial.fig2b": "count",
    "sweeps.bound_calls_per_trial.fig2c": "count",
    "sweeps.worker_busy_ratio": "ratio",
    "channel.factorizations_per_point": "count",
    "bounds.oracle_compositions": "count",
    "bounds.oracle_compositions_per_s": "1/s",
    "tailmath.clamps": "count",
    "schemes.mi_samples_per_s": "1/s",
    "trace_overhead": "s",
}
#: Calls that evaluate one bound value inside a sweep trial.
BOUND_CALL_EXTRA = ("sweeps.multi_select_lower_capped",)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick functional check")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite perfbench/reference/<workload>.json ('all' for every workload)")
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return dt


def run_loop(runner, args, seconds: float, max_rounds=None, between=None) -> list:
    """Closed loop over rounds 0, 1, ... of the seed until ``seconds`` have
    passed (one round at least); ``between(elapsed)`` runs after each round.

    An untraced run sweeps at ``--workers 1`` only, the rate the end-to-end
    metrics report.  A traced run sweeps at workers 1 and 2 in every round,
    which checks the CSVs against each other at full size and gives the
    worker metrics; the reference round checks them in every run.
    """
    import workloads

    rounds = []
    workers = workloads.SWEEP_WORKERS if args.trace else (1,)
    t0 = time.perf_counter()
    while not rounds or (time.perf_counter() - t0 < seconds
                         and (max_rounds is None or len(rounds) < max_rounds)):
        ops = runner.run_round(workloads.round_ops(args.workload, args.seed, len(rounds), args.smoke, workers))
        for op in ops:
            op.pop("output", None)
            op.pop("payload", None)
        rounds.append(ops)
        if between:
            between(time.perf_counter() - t0)
    return rounds


def _percentile(values: list, q: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def end_to_end(rounds: list, sampler) -> tuple[dict, dict]:
    """(metrics, details) of an untraced loop.

    Timings are operation times at the reference speed of the ``sampler``
    kernel (``calibrate.py``): the machine the baseline was measured on is
    shared, and its speed changes by up to a factor of 1.7 within seconds.
    The raw times are printed as details.
    """
    ops = [op for r in rounds for op in r]
    raw = [op["seconds"] for op in ops]
    scaled = [sampler.scale(*op["marks"]) for op in ops]
    details = {"rounds": len(rounds), "operations": len(ops), "raw_op_p50_ms": statistics.median(raw) * 1e3}
    if "trials" in ops[0]:
        # one round is the workload's figures on one sweep seed, at workers 1
        per_round = len(rounds[0])
        details["raw_round_p50_ms"] = statistics.median(
            sum(raw[i:i + per_round]) for i in range(0, len(ops), per_round)) * 1e3
        round_s = [sum(scaled[i:i + per_round]) for i in range(0, len(ops), per_round)]
        return {"ops_per_s": sweep_rates(rounds, sampler)[1],
                "op_p50_ms": statistics.median(round_s) * 1e3}, details
    # the highest percentile with ten samples beyond it
    for q in (99.9, 99.0, 90.0):
        if len(ops) * (1 - q / 100) >= 10:
            details[f"op_p{q:g}_ms"] = _percentile(scaled, q) * 1e3
            details[f"raw_op_p{q:g}_ms"] = _percentile(raw, q) * 1e3
            details["tail_samples"] = len(ops)
            break
    return {"ops_per_s": len(ops) / sum(scaled), "op_p50_ms": statistics.median(scaled) * 1e3}, details


def sweep_rates(rounds: list, sampler) -> dict:
    """Trials per second of the sweep operations, by worker count."""
    done: dict = {}
    for op in (op for r in rounds for op in r):
        trials, secs = done.get(op["workers"], (0, 0.0))
        done[op["workers"]] = (trials + op["trials"], secs + sampler.scale(*op["marks"]))
    return {w: t / s for w, (t, s) in done.items()}


def per_layer(tracer, spans, traced: list, untraced: list, clamps: int) -> tuple[dict, dict]:
    """(metrics, per-function table) of a traced loop, normalised per round."""
    import numpy as np
    from sqcap.sweeps import figure_spec

    k = len(traced)
    names = tracer.names
    ops = {op["id"]: op for r in traced for op in r}
    keep = np.isin(spans["op"], list(ops))
    name, op_of, self_t = spans["name"][keep], spans["op"][keep], spans["self"][keep]
    dur = (spans["t1"] - spans["t0"])[keep]
    n = len(names)
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=self_t, minlength=n)
    incl_s = np.bincount(name, weights=dur, minlength=n)
    table = {nm: {"calls": int(calls[i]) / k, "self_s": float(self_s[i]) / k, "incl_s": float(incl_s[i]) / k}
             for i, nm in enumerate(names) if calls[i]}

    m = {}
    for mod in MODULES:
        idx = [i for i, nm in enumerate(names) if nm.startswith(mod + ".")]
        m[f"{mod}.calls"] = float(calls[idx].sum()) / k
        m[f"{mod}.self_s"] = float(self_s[idx].sum()) / k
    for fn in FUNCTIONS:
        m[f"{fn}.self_s"] = table.get(fn, {}).get("self_s", 0.0)

    def code(nm):
        return names.index(nm) if nm in names else -1

    bound_codes = [i for i, nm in enumerate(names)
                   if (nm.startswith("bounds.") and i not in tracer.constructors) or nm in BOUND_CALL_EXTRA]
    is_bound = np.isin(name, bound_codes)
    for fig in ("fig2a", "fig2b", "fig2c"):
        fig_ops = [o for o in ops.values() if o.get("figure") == fig]
        trials = sum(o["trials"] for o in fig_ops)
        hits = is_bound & np.isin(op_of, [o["id"] for o in fig_ops])
        m[f"sweeps.bound_calls_per_trial.{fig}"] = float(hits.sum()) / trials if trials else 0.0
    mat_ops = [o for o in ops.values() if o.get("figure") == "fig2c"]
    points = sum(o["trials"] * len(figure_spec("fig2c").axis) for o in mat_ops)
    fact = np.isin(name, [code("channel.ChannelMatrix"), code("channel.decompose")])
    fact &= np.isin(op_of, [o["id"] for o in mat_ops])
    m["channel.factorizations_per_point"] = float(fact.sum()) / points if points else 0.0

    # worker spans: opened on a pool thread with no open span of that thread
    thread, parent = spans["thread"][keep], spans["parent"][keep]
    root_worker = (thread != 0) & ((parent < 0) | (spans["thread"][np.maximum(parent, 0)] != thread))
    w_ops = [o for o in ops.values() if o.get("workers", 1) > 1]
    capacity = sum(o["seconds"] * o["workers"] for o in w_ops)
    m["sweeps.worker_busy_ratio"] = float(dur[root_worker].sum()) / capacity if capacity else 0.0

    comps, oracle_s = 0, table.get("bounds.allocate_integer_oracle", {}).get("incl_s", 0.0) * k
    for o in ops.values():
        if o["argv"][0] == "waterfill":
            g = o["argv"][o["argv"].index("--gains") + 1].count(",") + 1
            q = int(o["argv"][o["argv"].index("--nsq") + 1])
            comps += math.comb(q + g - 1, g - 1)
    m["bounds.oracle_compositions"] = comps / k
    m["bounds.oracle_compositions_per_s"] = comps / oracle_s if oracle_s else 0.0
    m["tailmath.clamps"] = clamps / k
    samples = sum(o.get("samples", 0) for o in ops.values())
    mi_s = table.get("schemes.dithered_mi_estimate", {}).get("incl_s", 0.0) * k
    m["schemes.mi_samples_per_s"] = samples / mi_s if mi_s else 0.0
    base = sum(op["seconds"] for r in untraced[:k] for op in r)
    m["trace_overhead"] = (sum(op["seconds"] for r in traced for op in r) - base) / k
    return m, table


def _record_reference(args, runner) -> int:
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for w in names:
        ops = runner.run_round(workloads.round_ops(w, workloads.REFERENCE_SEED, 0, smoke=True))
        bad = [p for op in ops for p in op["problems"]]
        if bad:
            print(f"error: {w}: outputs fail their checks, not recording: {bad[:3]}", file=sys.stderr)
            return 1
        path = REFERENCE / f"{w}.json"
        payload = {"seed": workloads.REFERENCE_SEED, "ops": workloads.reference_outputs(ops)}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)} ({len(payload['ops'])} operations)")
    return 0


def _save_spans(args, tracer, spans) -> None:
    import numpy as np

    np.savez(OUT / f"{args.workload}-spans.npz", names=np.array(tracer.names), **spans)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sqcap" / "__init__.py").is_file():
        print(f"error: no sqcap package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sqcap.cli  # noqa: F401  (the import every sqcap invocation pays)

    import workloads

    if args.workload not in workloads.WORKLOADS and not (args.record_reference and args.workload == "all"):
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.probe:
        workloads.round_ops(args.workload, args.seed, 0, args.smoke)
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    runner = workloads.Runner(OUT, on_op=(lambda i: setattr(tracer, "op", i)) if tracer else None)
    if args.record_reference:
        return _record_reference(args, runner)

    facts = machine_facts()
    ref_path = REFERENCE / f"{args.workload}.json"
    ref_ops = runner.run_round(workloads.round_ops(args.workload, workloads.REFERENCE_SEED, 0, smoke=True))
    if ref_path.is_file():
        workloads.check_reference(ref_ops, json.loads(ref_path.read_text(encoding="utf-8"))["ops"])
    else:
        ref_ops[0]["problems"].append(f"missing reference file {ref_path.relative_to(ROOT)}")

    if not args.trace:
        # Set-up probes are spread over the run, with speed sampling paused.
        # Their times are not scaled: the kernel's speed does not predict
        # them (process start and reading the modules).
        setup = []

        def probe_due(elapsed):
            while len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
                runner.sampler.stop()
                setup.append(probe_setup(args))
                runner.sampler.start()

        runner.sampler.start()
        try:
            probe_due(0.0)
            rounds = run_loop(runner, args, args.seconds, between=probe_due)
            probe_due(math.inf)
        finally:
            runner.sampler.stop()
        values, details = end_to_end(rounds, runner.sampler)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details["setup_probes_s"] = setup
        details["speed_samples"] = len(runner.sampler.samples)
        details["sample_p50_ms"] = statistics.median(runner.sampler.samples) * 1e3
        units, table = END_TO_END, {}
    else:
        import sqcap.tailmath

        untraced = run_loop(runner, args, args.seconds / 2)
        clamps0 = sqcap.tailmath.underflow_clamps.count
        tracer.install()
        try:
            traced = run_loop(runner, args, args.seconds / 2, max_rounds=len(untraced))
        finally:
            tracer.uninstall()
        clamps = sqcap.tailmath.underflow_clamps.count - clamps0
        spans = tracer.spans()
        values, table = per_layer(tracer, spans, traced, untraced, clamps)
        _save_spans(args, tracer, spans)
        rounds = untraced + traced
        details = {"rounds_untraced": len(untraced), "rounds_traced": len(traced), "spans": int(spans["t0"].size)}
        if "trials" in untraced[0][0]:
            details.update({f"trials_per_s_w{w}": v for w, v in sweep_rates(untraced, runner.sampler).items()})
        units = PER_LAYER

    all_ops = ref_ops + [op for r in rounds for op in r]
    problems = [(op["argv"][:3], p) for op in all_ops for p in op["problems"]]
    failed = sum(1 for op in all_ops if op["problems"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not problems, "attempted": len(all_ops), "failed": failed, "metrics": metrics}

    print(f"sqcap benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for k, v in details.items():
        print(f"detail {k}: {v}")
    for fn, row in sorted(table.items()):
        print(f"layer {fn}: calls {row['calls']:.6g}  self {row['self_s']:.6g} s  incl {row['incl_s']:.6g} s  per round")
    for name, mv in metrics.items():
        print(f"metric {name} = {mv['value']:.6g} {mv['unit']}")
    print(f"checks: {result['attempted']} operations, {failed} failed, error rate {failed / len(all_ops):.6g}")
    for where, p in problems[:20]:
        print(f"problem {' '.join(where)}: {p}")
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "details": details, "layers": table}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
