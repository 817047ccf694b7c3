"""The four workloads: their inputs, generated from a seed, and how one
round of operations runs and is checked.

Round ``i`` of seed ``s`` draws its inputs from
``numpy.random.default_rng([s, i])``, so the same seed always gives the
same inputs, and every round of a run has inputs of its own: no operation
is repeated with the same arguments, as no shell invocation of ``sqcap``
is.  Every operation goes through ``sqcap.cli.cli_dispatch``, one at a
time, the next only after the previous one has returned (closed loop, one
caller).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import calibrate
import checks

WORKLOADS = ("sweep-vector", "sweep-matrix", "cli-mix", "alloc-oracle")

#: Trials per figure sweep; the same on every commit.
SWEEP_TRIALS = {"fig2a": 200, "fig2b": 200, "fig2c": 200}
SMOKE_TRIALS = {"fig2a": 3, "fig2b": 3, "fig2c": 2}
SWEEP_FIGURES = {"sweep-vector": ("fig2a", "fig2b"), "sweep-matrix": ("fig2c",)}
SWEEP_WORKERS = (1, 2)

#: (channels, quantizers) of the oracle workload; C(m+n-1, n-1) compositions
#: run from 45 to 376992.  An odd count keeps the median inside one class.
ORACLE_SIZES = ((3, 8), (3, 16), (4, 12), (4, 20), (5, 16), (5, 24), (6, 16), (6, 24), (6, 32))
SMOKE_ORACLE_SIZES = ((3, 8), (4, 12), (5, 16))

BOUND_FAMILIES = (
    "siso-sign", "miso-sign", "simo-highsnr", "mimo-highsnr", "siso-multilevel",
    "simo-single-select", "simo-multi-select", "simo-linear", "mimo-single-select",
)

#: The seed whose smoke-sized round is checked against ``reference/``.
REFERENCE_SEED = 12


def _num(x: float) -> str:
    return f"{x:.6g}"


def _loguniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _gains(rng, n: int, lo: float = 0.5, hi: float = 3.0) -> str:
    return ",".join(_num(v) for v in rng.uniform(lo, hi, n))


def _bounds_argv(rng, family: str) -> list:
    argv = ["bounds", "--family", family]
    if family == "simo-highsnr":
        return argv + ["--nrx", str(rng.integers(1, 17))]
    if family == "mimo-highsnr":
        return argv + ["--nsq", str(rng.integers(2, 65)), "--ntx", str(rng.integers(1, 9))]
    argv += ["--power", _num(_loguniform(rng, 0.1, 1e3))]
    if family == "siso-sign":
        return argv
    if family == "miso-sign":
        return argv + ["--h", _gains(rng, int(rng.integers(2, 9)))]
    argv += ["--nsq", str(rng.integers(2, 65))]
    if family == "siso-multilevel":
        return argv
    if family == "mimo-single-select":
        n_rx, n_tx = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        entries = [float(_num(v)) for v in rng.standard_normal(n_rx * n_tx)]
        return argv + ["--channel", json.dumps({"n_rx": n_rx, "n_tx": n_tx, "entries": entries})]
    return argv + ["--h", _gains(rng, int(rng.integers(2, 9)))]


def _cli_mix_round(rng) -> list:
    ops = [_bounds_argv(rng, fam) for fam in BOUND_FAMILIES]
    ops.append(["pam", "--power", _num(_loguniform(rng, 7.0, 1e4)), "--nsq", str(rng.integers(2, 64))])
    ops.append(["pam", "--levels", str(rng.integers(2, 17)), "--power", _num(_loguniform(rng, 0.1, 100.0)),
                "--gain", _num(rng.uniform(0.5, 3.0))])
    # one Blahut-Arimoto run per decade of power, so every round costs alike
    for lo in (10.0, 100.0, 1000.0):
        ops.append(["ba", "--power", _num(_loguniform(rng, lo, 10 * lo)),
                    "--nsq", str(rng.choice([3, 7, 15, 31, 63])), "--gain", _num(rng.uniform(0.5, 3.0))])
    # K (m + 2)^K output cells must stay within the default 10^5 samples
    for k, n_max in ((1, 64), (2, 40), (3, 33)):
        ops.append(["dither", "--h", _gains(rng, int(rng.integers(k, k + 4))),
                    "--power", _num(_loguniform(rng, 64.0, 1e3)), "--nsq", str(rng.integers(4 * k, n_max + 1)),
                    "--k", str(k), "--seed", str(rng.integers(0, 2**31))])
    n = int(rng.integers(2, 5))
    ops.append(["waterfill", "--gains", _gains(rng, n, 0.5, 4.0), "--power", _num(_loguniform(rng, 1.0, 100.0)),
                "--nsq", str(rng.integers(n, 17))])
    return [{"argv": a} for a in ops]


def _oracle_round(rng, sizes) -> list:
    # pruning, and so the cost of the largest sizes, depends on the power;
    # a narrow band keeps every round equally expensive
    return [{"argv": ["waterfill", "--gains", _gains(rng, n, 0.5, 4.0),
                      "--power", _num(rng.uniform(10.0, 20.0)), "--nsq", str(m)],
             "compositions": math.comb(m + n - 1, n - 1)} for n, m in sizes]


def round_ops(workload: str, seed: int, r: int, smoke: bool = False, workers=SWEEP_WORKERS) -> list:
    """The operations of round ``r``: dicts with ``argv`` and bookkeeping.
    A sweep round runs its figures, on one fresh sweep seed, at each of
    ``workers``."""
    rng = np.random.default_rng([seed, r])
    if workload in SWEEP_FIGURES:
        trials = SMOKE_TRIALS if smoke else SWEEP_TRIALS
        sweep_seed = int(rng.integers(0, 2**62))
        return [
            {"argv": ["sweep", "--figure", fig, "--trials", str(trials[fig]), "--seed", str(sweep_seed),
                      "--workers", str(w)],
             "figure": fig, "workers": w, "trials": trials[fig], "seed": sweep_seed}
            for w in workers for fig in SWEEP_FIGURES[workload]
        ]
    if workload == "cli-mix":
        return _cli_mix_round(rng)
    if workload == "alloc-oracle":
        return _oracle_round(rng, SMOKE_ORACLE_SIZES if smoke else ORACLE_SIZES)
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Runs rounds through ``cli_dispatch`` and checks every result.

    ``on_op`` is called with an operation id before each operation and with
    0 after it, so a tracer can tag the spans of that operation.  Each
    operation is timed by two marks of ``sampler``, which ``end_to_end``
    turns into times at the reference speed once the run has ended.
    """

    def __init__(self, workdir: Path, on_op=None):
        import sqcap.cli
        from sqcap.channel import gaussian_draw

        # looked up per call, so a tracer installed later sees every dispatch
        self._cli = sqcap.cli
        self._draw = gaussian_draw
        self._csv = workdir / "sweep.csv"
        self._on_op = on_op or (lambda op_id: None)
        self.next_id = 1
        self.sampler = calibrate.Sampler()

    def _dispatch(self, op: dict, argv: list) -> int:
        self._on_op(op["id"])
        before = self.sampler.mark()
        rc = self._cli.cli_dispatch(argv)
        op["marks"] = (before, self.sampler.mark())
        self._on_op(0)
        op["seconds"] = self.sampler.seconds(*op["marks"])
        return rc

    def _run(self, op: dict):
        """Returns (exit code, output text)."""
        op["id"] = self.next_id
        self.next_id += 1
        argv = op["argv"]
        if argv[0] == "sweep":
            rc = self._dispatch(op, argv + ["--out", str(self._csv)])
            text = self._csv.read_text(encoding="utf-8") if rc == 0 else ""
            self._csv.unlink(missing_ok=True)
            return rc, text
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self._dispatch(op, argv)
        return rc, buf.getvalue()

    def run_round(self, ops: list) -> list:
        """Run and check one round; each op gains ``seconds``, ``marks``,
        ``output`` and ``problems``."""
        for op in ops:
            rc, op["output"] = self._run(op)
            op["problems"] = [] if rc == 0 else [f"{op['argv'][0]} exited with {rc}"]
        if ops[0]["argv"][0] == "sweep":
            self._check_sweeps(ops)
        else:
            for op in ops:
                if not op["problems"]:
                    op["problems"] = self._check_command(op)
        return ops

    def _check_sweeps(self, ops: list) -> None:
        by_fig: dict = {}
        for op in ops:
            by_fig.setdefault(op["figure"], []).append(op)
        for fig, group in by_fig.items():
            if any(op["problems"] for op in group):
                continue
            texts = {op["output"] for op in group}
            if len(texts) != 1:
                for op in group:
                    op["problems"].append(f"{fig}: CSV differs between worker counts")
                continue
            first = group[0]
            found = checks.check_sweep(fig, first["trials"], first["seed"], first["output"], self._draw)
            for op in group:
                op["problems"] += found

    def _check_command(self, op: dict) -> list:
        try:
            payload = json.loads(op["output"])
        except json.JSONDecodeError as exc:
            return [f"{op['argv'][0]}: output is not JSON ({exc})"]
        op["payload"] = payload
        if op["argv"][0] == "dither":
            op["samples"] = payload["inputs"]["samples"]
        return checks.check_command(op["argv"], payload)


def _reference_ops(ops: list) -> list:
    # a sweep at workers 2 is byte-identical to workers 1, which the round checks
    return [op for op in ops if op.get("workers", 1) == 1]


def reference_outputs(ops: list) -> list:
    """What ``reference/<workload>.json`` stores for a checked round."""
    out = []
    for op in _reference_ops(ops):
        if op["argv"][0] == "sweep":
            rows = checks.parse_csv(op["output"])
            out.append({"argv": op["argv"], "rows": [[c, x, m, e] for (c, x), (m, e) in sorted(rows.items())]})
        else:
            payload = dict(op["payload"])
            payload.pop("version", None)
            out.append({"argv": op["argv"], "payload": payload})
    return out


def check_reference(ops: list, stored: list) -> None:
    """Append a problem to every op whose output drifted from ``stored``."""
    if any(op["problems"] for op in ops):
        return
    got = reference_outputs(ops)
    if len(got) != len(stored):
        ops[0]["problems"].append("reference round has a different number of operations")
        return
    for op, g, w in zip(_reference_ops(ops), got, stored):
        if g["argv"] != w["argv"]:
            op["problems"].append("reference inputs differ; regenerate with --record-reference")
        else:
            op["problems"] += checks.compare_reference(g, w)
