"""Command-line surface: bound evaluation, allocation, schemes, and sweeps.

Each handler returns only its result; :func:`cli_dispatch` builds and writes
every output.  A JSON payload has the keys ``command``, ``inputs``,
``result`` and ``version``, where ``inputs`` echoes the parsed arguments of
every subcommand (``sweep`` included, with preset values resolved), so
results are auditable from the output alone.  ``sweep`` prints CSV unless
given ``--format json``.  ``--out`` writes exactly the bytes stdout would
get.  Exit codes: 0 success, 1 runtime failure (a failed write or an
allocation past the memory available included), 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .bounds import (
    BudgetError,
    allocate_integer_oracle,
    mimo_sign_highsnr_bounds,
    mimo_single_select_bounds,
    miso_sign_capacity,
    simo_linear_bounds,
    simo_multi_select_bounds,
    simo_sign_highsnr_bounds,
    simo_single_select_bounds,
    siso_multilevel_bounds,
    siso_sign_capacity,
    waterfill_relaxed,
)
from .channel import ChannelMatrix
from .dmc import InputDistribution, blahut_arimoto, mutual_information
from .schemes import (
    _pam_channel,
    build_dithered_scheme,
    build_pam_scheme,
    dithered_mi_estimate,
    pam_inner_rate,
    pam_scheme_for_levels,
)
from .sweeps import FIGURES, SweepSpec, csv_text, figure_spec, run_sweep

__all__ = ["cli_dispatch", "main"]

#: ``bounds --family`` name -> (its function, the flags it takes in call order).
BOUND_FAMILIES = {
    "siso-sign": (siso_sign_capacity, ("power",)),
    "miso-sign": (miso_sign_capacity, ("h", "power")),
    "simo-highsnr": (simo_sign_highsnr_bounds, ("nrx",)),
    "mimo-highsnr": (mimo_sign_highsnr_bounds, ("nsq", "ntx")),
    "siso-multilevel": (siso_multilevel_bounds, ("power", "nsq")),
    "simo-single-select": (simo_single_select_bounds, ("h", "power", "nsq")),
    "simo-multi-select": (simo_multi_select_bounds, ("h", "power", "nsq")),
    "simo-linear": (simo_linear_bounds, ("h", "power", "nsq")),
    "mimo-single-select": (mimo_single_select_bounds, ("channel", "power", "nsq")),
}

#: ``sweep`` flag -> the SweepSpec field it sets.
SWEEP_FIELDS = {
    "figure": "figure_id", "axis": "axis", "powers": "power_list", "nsq": "n_sq",
    "ntx": "n_tx", "k_list": "k_list", "trials": "trials", "seed": "seed",
}


def _floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _pair_dict(pair) -> dict:
    return {
        "lower_bits": pair.lower,
        "upper_bits": pair.upper,
        "gap_claim_bits": pair.gap_claim,
        "argmax_k": pair.argmax_k,
        "flags": list(pair.flags),
    }


def _alloc_dict(alloc) -> dict:
    return {
        "gains": alloc.gains.tolist(),
        "power_budget": alloc.power_budget,
        "quantizer_budget": alloc.quantizer_budget,
        "powers": alloc.powers.tolist(),
        "quantizer_shares": alloc.quantizer_shares.tolist(),
        "active_count": alloc.active_count,
        "water_level": alloc.water_level,
        "rate_bits": alloc.rate,
        "branch": alloc.branch.value,
    }


_INF = float("inf")


def _json_text(o, newline: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True)`` byte for byte.

    Nested values are written at the indent that ``newline`` ends in.
    ``json`` writes an indented dump with its pure-Python encoder; this is
    the same recursion without a generator per container.  Floats, the
    most common leaves, are tested first; bool is still tested before int.
    It raises ``TypeError`` wherever ``json`` does, and also on a key that
    is not a string, which ``json`` would convert; it does not detect
    circular references.
    """
    if isinstance(o, float):
        if -_INF < o < _INF:
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0.0 else "-Infinity"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_json_text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            items.append(encode_basestring_ascii(k) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _load_channel(text: str) -> ChannelMatrix:
    """Channel from inline JSON, or from a file when prefixed with @."""
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8")
    return ChannelMatrix.from_json(text)


def _echo(args) -> dict:
    """The subcommand's parsed arguments, as the ``inputs`` its JSON echoes."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "handler", "out")}


def _cmd_bounds(args) -> dict:
    func, flags = BOUND_FAMILIES[args.family]
    values = {f: getattr(args, f) for f in flags}
    missing = [f for f, v in values.items() if v is None]
    if missing:
        raise ValueError(f"--{missing[0]} is required for family {args.family}")
    names = (f for _, fam_flags in BOUND_FAMILIES.values() for f in fam_flags)
    extra = [f for f in names if f not in flags and getattr(args, f) is not None]
    if extra:
        raise ValueError(f"--{extra[0]} is not used by family {args.family}")
    if "channel" in values:
        values["channel"] = _load_channel(values["channel"])
    value = func(*values.values())
    return {"capacity_bits": value} if isinstance(value, float) else _pair_dict(value)


def _cmd_waterfill(args) -> dict:
    args.gains = tuple(sorted(args.gains, reverse=True))
    relaxed = waterfill_relaxed(args.gains, args.power, args.nsq)
    try:
        oracle = _alloc_dict(allocate_integer_oracle(args.gains, args.power, args.nsq))
        skipped = None
    except BudgetError as exc:
        oracle, skipped = None, str(exc)
    result = {"relaxed": _alloc_dict(relaxed), "oracle": oracle}
    if skipped:
        result["oracle_skipped"] = skipped
    return result


def _build_scheme(args):
    if args.levels is not None:
        return pam_scheme_for_levels(args.levels, args.power)
    return build_pam_scheme(args.power, args.nsq)


def _cmd_pam(args) -> dict:
    scheme = _build_scheme(args)
    return {
        "scheme": scheme.to_dict(),
        "inner_rate_bits": pam_inner_rate(scheme, args.gain),
    }


def _cmd_dither(args) -> dict:
    params = build_dithered_scheme(args.h, args.power, args.nsq, args.k)
    mi, err = dithered_mi_estimate(params, args.h, args.samples, args.seed)
    return {
        "scheme": params.to_dict(),
        "mi_estimate_bits": mi,
        "std_err_bits": err,
    }


def _cmd_ba(args) -> dict:
    scheme = _build_scheme(args)
    channel = _pam_channel(scheme, args.gain)
    capacity, dist = blahut_arimoto(channel, args.tolerance, args.max_iters)
    # pam_inner_rate, on the transition matrix already built
    uniform_rate = mutual_information(InputDistribution.uniform(scheme.m_levels), channel)
    return {
        "scheme": scheme.to_dict(),
        "capacity_bits": capacity,
        "uniform_input_rate_bits": uniform_rate,
        "input_distribution": dist.probs.tolist(),
    }


def _sweep_spec(args) -> SweepSpec:
    fields = {f: getattr(args, a) for a, f in SWEEP_FIELDS.items() if getattr(args, a) is not None}
    if args.figure != "custom":
        return figure_spec(**fields)
    if not {"axis", "power_list", "n_sq"} <= set(fields):
        raise ValueError("custom sweeps need --axis, --powers, and --nsq")
    return SweepSpec(**fields)


def _cmd_sweep(args):
    spec = _sweep_spec(args)
    for a, f in SWEEP_FIELDS.items():  # the echo shows the spec as resolved
        setattr(args, a, getattr(spec, f))
    table = run_sweep(spec, workers=args.workers)
    if args.format == "csv":
        return csv_text(table)
    xs = [float(x) for x in table.axis]
    return [
        {"figure": table.figure_id, "curve": label, "x": x, "mean": mean, "std_err": err}
        for label, means, errs in zip(table.labels, table.means.tolist(), table.std_errs.tolist())
        for x, mean, err in zip(xs, means, errs)
    ]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once; its ``commands`` maps each
    subcommand name to that subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="sqcap",
        description=(
            "Capacity bounds, quantizer allocations, and achievable rates for "
            "Gaussian channels observed through a budget of sign quantizers."
        ),
    )
    parser.add_argument("--version", action="version", version=f"sqcap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name, handler, help):
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    def scheme_flags(p):
        p.add_argument("--power", type=float, required=True)
        p.add_argument("--nsq", type=int, default=2)
        p.add_argument("--levels", type=int, help="fix the constellation size directly")
        p.add_argument("--gain", type=float, default=1.0)

    b = command("bounds", _cmd_bounds, "evaluate a closed-form capacity value or bound pair")
    b.add_argument("--family", choices=tuple(BOUND_FAMILIES), required=True)
    b.add_argument("--power", type=float)
    b.add_argument("--nsq", type=int)
    b.add_argument("--h", type=_floats, help="comma-separated antenna gains")
    b.add_argument("--nrx", type=int)
    b.add_argument("--ntx", type=int)
    b.add_argument("--channel", help="channel JSON, or @path to a JSON file")
    common(b)

    w = command("waterfill", _cmd_waterfill, "split power and quantizer budgets over subchannels")
    w.add_argument("--gains", type=_floats, required=True)
    w.add_argument("--power", type=float, required=True)
    w.add_argument("--nsq", type=int, required=True)
    common(w)

    p = command("pam", _cmd_pam, "build a PAM scheme and its exact achievable rate")
    scheme_flags(p)
    common(p)

    d = command("dither", _cmd_dither, "dithered multi-antenna scheme with Monte-Carlo rate")
    d.add_argument("--h", type=_floats, required=True)
    d.add_argument("--power", type=float, required=True)
    d.add_argument("--nsq", type=int, required=True)
    d.add_argument("--k", type=int, required=True, help="number of antennas selected")
    d.add_argument("--samples", type=int, default=10**5)
    d.add_argument("--seed", type=int, default=0)
    common(d)

    a = command("ba", _cmd_ba, "capacity of the scheme-induced channel by Blahut-Arimoto")
    scheme_flags(a)
    a.add_argument("--tolerance", type=float, default=1e-9)
    a.add_argument("--max-iters", type=int, default=10_000)
    common(a)

    s = command("sweep", _cmd_sweep, "Monte-Carlo averaged figure curves to CSV")
    s.add_argument("--figure", choices=FIGURES, required=True)
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument(
        "--workers", type=int, default=1,
        help="threads that run the trial blocks, at most the core count and the "
        "trial count; the trials are cut into at least one block per thread, "
        "the output is identical for any value, and memory does not grow with "
        "--trials; the JSON inputs record the value given",
    )
    s.add_argument("--axis", type=_ints, help="receive-antenna grid, comma-separated")
    s.add_argument("--powers", type=_floats)
    s.add_argument("--nsq", type=int)
    s.add_argument("--ntx", type=int)
    s.add_argument("--k-list", type=_ints)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    common(s)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one pass when ``argv[0]`` names a subcommand.

    The subcommand's own parser reads the rest; anything it leaves over goes
    back to the top-level parser with the whole argv, so every usage error
    is the one the top-level parser prints.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def cli_dispatch(argv) -> int:
    try:
        args = _parse(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.handler(args)
        text = result  # a sweep's CSV is written as it is
        if not isinstance(result, str):
            payload = {
                "command": args.command, "inputs": _echo(args), "result": result,
                "version": __version__,
            }
            text = _json_text(payload) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        else:
            sys.stdout.write(text)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
