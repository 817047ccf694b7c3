"""Command-line interface: exit codes, JSON envelopes, CSV output."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CLI_CASES

import sqcap
from sqcap import __version__, cli
from sqcap.channel import ChannelEnsembleSpec, draw_channel
from sqcap.cli import BOUND_FAMILIES, cli_dispatch
from sqcap.sweeps import SweepSpec, figure_spec, run_sweep


def run(capsys, *argv):
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["version"] == __version__
    return payload


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_module_entry_point_reaches_main():
    path = [str(Path(sqcap.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "sqcap.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stdout == f"sqcap {__version__}\n"


def test_no_command_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # only the top-level parser adds subparsers, once per build
    built, add_subparsers = [], argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli._build_parser.cache_clear()
    try:
        for power in ("1", "2"):
            run_json(capsys, "bounds", "--family", "siso-sign", "--power", power)
        assert built == ["sqcap"]
        # the cached parser still exits as a fresh one does
        code, out, _ = run(capsys, "--version")
        assert code == 0 and __version__ in out
        assert run(capsys)[0] == 2
        code, _, err = run(capsys, "bounds", "--family", "bogus")
        assert code == 2 and "invalid choice" in err
        run_json(capsys, "bounds", "--family", "siso-sign", "--power", "3")
        assert built == ["sqcap"]
    finally:
        cli._build_parser.cache_clear()


_WATERFILL = ["waterfill", "--gains", "2.1,1.4,0.6", "--power", "12", "--nsq", "6"]

#: argv -> the top-level parser's outcome, which the one-pass route must repeat
PARSE_CASES = {
    "no-argv": [],
    "help": ["-h"],
    "version": ["--version"],
    "waterfill-help": ["waterfill", "-h"],
    "unknown-command": ["nope"],
    "unknown-flag": [*_WATERFILL, "--bogus"],
    "unknown-flag-first": ["waterfill", "--bogus", "1", *_WATERFILL[1:]],
    "missing-nsq": _WATERFILL[:5],
    "bad-gains": ["waterfill", "--gains", "a,b", "--power", "12", "--nsq", "6"],
    "deleted-sweep-flag": ["sweep", "--figure", "fig2c", "--trials", "2",
                           "--include-highsnr-proxy"],
    "stray-positional": [*_WATERFILL, "stray"],
    "abbreviated-flags": ["waterfill", "--gai", "2,1", "--pow", "3", "--ns", "4"],
    "equals-form": ["waterfill", "--gains=2,1", "--power=3", "--nsq=4"],
    "version-after-command": [*_WATERFILL, "--version"],
    "double-dash-then-positional": [*_WATERFILL, "--", "x"],
    "valid-waterfill": _WATERFILL,
    "valid-bounds": ["bounds", "--family", "simo-linear", "--h", "1.2,0.8", "--power", "4",
                     "--nsq", "6"],
    "valid-sweep": ["sweep", "--figure", "fig2a", "--trials", "2", "--format", "json"],
    "bad-figure": ["sweep", "--figure", "nope"],
    "bad-family": ["bounds", "--family", "x"],
}


def _parse_outcome(capsys, parse, argv):
    try:
        args, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, args


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES)
def test_one_pass_parse_repeats_the_top_level_parser(capsys, argv):
    want = _parse_outcome(capsys, cli._build_parser().parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == want
    code, out, err, _ = want
    assert code is None or out or err


def test_subcommand_argv_skips_the_top_level_parse(capsys, monkeypatch):
    parser = cli._build_parser()
    calls = []
    monkeypatch.setattr(parser, "parse_args", lambda argv: calls.append(argv))
    args = cli._parse(list(_WATERFILL))
    assert calls == [] and args.command == "waterfill" and args.nsq == 6
    cli._parse([*_WATERFILL, "--bogus"])  # what is left over goes back whole
    assert calls == [[*_WATERFILL, "--bogus"]]


def test_bounds_families(capsys):
    payload = run_json(capsys, "bounds", "--family", "siso-sign", "--power", "1")
    assert payload["result"]["capacity_bits"] == pytest.approx(0.368917232594458, rel=1e-12)

    payload = run_json(capsys, "bounds", "--family", "miso-sign", "--h", "3,4", "--power", "2")
    assert payload["inputs"]["h"] == [3.0, 4.0]

    payload = run_json(capsys, "bounds", "--family", "simo-highsnr", "--nrx", "4")
    assert payload["result"]["lower_bits"] == 2.0

    payload = run_json(capsys, "bounds", "--family", "mimo-highsnr", "--nsq", "5", "--ntx", "5")
    assert payload["result"]["upper_bits"] == 5.0

    payload = run_json(
        capsys, "bounds", "--family", "simo-multi-select", "--h", "1.2,1.5", "--power", "50", "--nsq", "16"
    )
    assert payload["result"]["lower_bits"] == pytest.approx(1.4132742436454575, rel=1e-12)
    assert payload["result"]["argmax_k"] == 1


def test_bounds_channel_file(capsys, tmp_path):
    cm = draw_channel(ChannelEnsembleSpec(6, 4, seed=3, trials=1), 0)
    path = tmp_path / "chan.json"
    path.write_text(cm.to_json())
    payload = run_json(
        capsys,
        "bounds", "--family", "mimo-single-select",
        "--channel", f"@{path}", "--power", "10", "--nsq", "5",
    )
    assert payload["result"]["gap_claim_bits"] == 2.0
    # inline JSON works the same way
    payload2 = run_json(
        capsys,
        "bounds", "--family", "mimo-single-select",
        "--channel", cm.to_json(), "--power", "10", "--nsq", "5",
    )
    assert payload2["result"] == payload["result"]


def test_bounds_malformed_channel_is_runtime_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"entries": [1.0, 0.5]}')
    code, _, err = run(
        capsys,
        "bounds", "--family", "mimo-single-select",
        "--channel", f"@{path}", "--power", "10", "--nsq", "5",
    )
    assert code == 1
    assert err.startswith("error:") and "n_rx" in err
    # a missing file is the same kind of failure, not a traceback
    code, _, err = run(
        capsys,
        "bounds", "--family", "mimo-single-select",
        "--channel", "@/nowhere/chan.json", "--power", "10", "--nsq", "5",
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "shape, entries, code",
    [((2, 2), [1e200, 0, 0, 1], 1), ((2, 2), [1e200, 3e199, 2e199, 1e200], 0),
     # mixed-sign products overflow and inf - inf puts NaN in the Gram
     # matrix: the SVD, not LAPACK's eigvalsh, decides it
     ((4, 4), [2.85e179, -1.48e179, 2.27e178, 1.93e177, 5.67e177, -1.92e179, 1.44e178, -5.1e178,
               7.47e178, -1.04e179, 1.72e179, -1.34e177, -4.55e178, 3.32e178, -1.41e179, -1.01e179],
      0)],
    ids=["rank-deficient", "full-rank", "full-rank-nan-gram"],
)
def test_channel_whose_squares_overflow(capsys, shape, entries, code):
    # squares past the float range are inf, the honest value: no numpy
    # warning, and a rank-deficient matrix is named by its singular values
    channel = json.dumps({"n_rx": shape[0], "n_tx": shape[1], "entries": entries})
    argv = ["bounds", "--family", "mimo-single-select", "--channel", channel,
            "--power", "1", "--nsq", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert err == ("error: channel matrix is rank deficient: "
                       "min/max singular value 1.000e+00/1.000e+200\n")
    else:
        assert err == ""
        assert json.loads(out)["result"]["upper_bits"] == np.log2(3.0)


def test_channel_json_boolean_count_is_rejected(capsys):
    # JSON true equals 1 but is no count: one error line, exit 1, as for
    # any other non-integer n_rx
    channel = json.dumps({"n_rx": True, "n_tx": 1, "entries": [1]})
    code, out, err = run(capsys, "bounds", "--family", "mimo-single-select", "--channel", channel,
                         "--power", "1", "--nsq", "2")
    assert (code, out) == (1, "")
    assert err == "error: n_rx must be a positive integer, got True\n"


def test_bounds_bad_family_is_usage_error(capsys):
    code, _, err = run(capsys, "bounds", "--family", "bogus")
    assert code == 2
    assert "invalid choice" in err


def test_bounds_missing_argument_is_runtime_error(capsys):
    code, _, err = run(capsys, "bounds", "--family", "miso-sign", "--power", "1")
    assert code == 1
    assert "--h is required" in err


@pytest.mark.parametrize("family", sorted(BOUND_FAMILIES))
def test_bounds_family_without_flags_names_its_first_flag(capsys, family):
    first = BOUND_FAMILIES[family][1][0]
    code, out, err = run(capsys, "bounds", "--family", family)
    assert code == 1 and out == ""
    assert err == f"error: --{first} is required for family {family}\n"
    # and every family has a golden
    assert CLI_CASES[f"bounds-{family}"][:3] == ["bounds", "--family", family]


#: A value of each ``bounds`` flag, for passing it to a family that does not take it.
_FLAG_VALUES = {"power": "1", "nsq": "5", "h": "1,2", "nrx": "3", "ntx": "2", "channel": "{}"}


@pytest.mark.parametrize("family", sorted(BOUND_FAMILIES))
def test_bounds_family_rejects_flags_it_does_not_take(capsys, family):
    flags = BOUND_FAMILIES[family][1]
    assert set(flags) <= _FLAG_VALUES.keys()
    for flag in sorted(_FLAG_VALUES.keys() - set(flags)):
        argv = [*CLI_CASES[f"bounds-{family}"], f"--{flag}", _FLAG_VALUES[flag]]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: --{flag} is not used by family {family}\n"


def test_bounds_names_the_first_unused_flag(capsys):
    argv = ("bounds", "--family", "siso-sign", "--power", "1", "--nsq", "5", "--ntx", "9")
    assert run(capsys, *argv) == (1, "", "error: --nsq is not used by family siso-sign\n")


def test_waterfill_includes_both_solvers(capsys):
    payload = run_json(capsys, "waterfill", "--gains", "1,4,2", "--power", "10", "--nsq", "8")
    assert payload["inputs"]["gains"] == [4.0, 2.0, 1.0]  # echoed sorted
    rel = payload["result"]["relaxed"]
    orc = payload["result"]["oracle"]
    assert rel["rate_bits"] >= orc["rate_bits"] - 1e-8
    assert sum(orc["quantizer_shares"]) == 8.0
    assert orc["branch"] in ("power-limited", "quantizer-limited")


@pytest.mark.parametrize("gains", ["2,1e-60", "3,2,1e-100"])
def test_waterfill_survives_a_dead_subchannel(capsys, gains):
    # the oracle's branch tag bisects a water-level bracket about 1/g_min
    # wide; it must close it however many halvings that takes
    payload = run_json(capsys, "waterfill", "--gains", gains, "--power", "10", "--nsq", "3")
    orc = payload["result"]["oracle"]
    assert orc["powers"][-1] == 0.0 and orc["quantizer_shares"][-1] == 0.0
    assert orc["rate_bits"] > 0
    assert orc["branch"] == "quantizer-limited"


def test_waterfill_survives_all_weak_gains(capsys):
    # the bracket collapses at float resolution before any midpoint spends
    # the budget within tolerance; the tag then reads the last midpoint
    payload = run_json(capsys, "waterfill", "--gains", "1e-9", "--power", "10", "--nsq", "3")
    orc, rel = payload["result"]["oracle"], payload["result"]["relaxed"]
    assert orc["powers"] == [10.0]
    assert orc["branch"] == "power-limited"
    assert orc["rate_bits"] == pytest.approx(rel["rate_bits"], rel=1e-12)


def test_waterfill_names_a_gain_whose_reciprocal_overflows(capsys):
    code, out, err = run(capsys, "waterfill", "--gains", "1e-310", "--power", "1", "--nsq", "4")
    assert code == 1 and out == ""
    assert "gains must have finite reciprocals, got 1e-310" in err


def test_waterfill_oracle_skipped_when_too_big(capsys):
    gains = ",".join(["1"] * 9)
    payload = run_json(capsys, "waterfill", "--gains", gains, "--power", "5", "--nsq", "4")
    assert payload["result"]["oracle"] is None
    assert "waterfill_relaxed" in payload["result"]["oracle_skipped"]
    assert payload["result"]["relaxed"]["rate_bits"] > 0


def test_pam_command(capsys):
    payload = run_json(capsys, "pam", "--power", "100", "--nsq", "7")
    assert payload["result"]["scheme"]["m_levels"] == 8
    assert 0 < payload["result"]["inner_rate_bits"] <= 3.0
    code, _, err = run(capsys, "pam", "--power", "4", "--nsq", "7")
    assert code == 1 and "exceed 6" in err
    for power in ("inf", "nan"):
        code, _, err = run(capsys, "pam", "--power", power, "--nsq", "7")
        assert code == 1 and f"must be finite and exceed 6, got {power}" in err


def test_pam_fixed_levels(capsys):
    payload = run_json(capsys, "pam", "--power", "1", "--levels", "2")
    assert payload["result"]["inner_rate_bits"] == pytest.approx(0.368917232594458, rel=1e-12)


def test_dither_command(capsys):
    payload = run_json(
        capsys,
        "dither", "--h", "1.2,1.5", "--power", "50", "--nsq", "16",
        "--k", "2", "--samples", "20000", "--seed", "3",
    )
    scheme = payload["result"]["scheme"]
    assert scheme["m_levels"] == 7
    assert payload["result"]["mi_estimate_bits"] > 1.5
    assert payload["result"]["std_err_bits"] > 0
    assert payload["inputs"]["seed"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        "dither --h 1.5,1.2 --power 1e308 --nsq 16 --k 2",
        "dither --h 1e307 --power 100 --nsq 100 --k 1",
        "pam --levels 3 --power 1e308",
        "pam --power 1e6 --gain 1.7e308 --levels 2",
        "ba --power 1e77 --gain 1e300 --levels 9",
        "pam --levels 3 --power 1e-300 --gain 5e-324",
        "pam --levels 9 --power 0.5 --gain 5e-324",
        "ba --levels 3 --power 1e-300 --gain 5e-324",
    ],
    ids=["dither-spacing", "dither-threshold-span", "pam-spacing", "pam-received-span",
         "ba-received-span", "pam-thresholds-underflow", "pam-thresholds-partly-underflow",
         "ba-thresholds-underflow"],
)
def test_scheme_past_the_float_range_is_an_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way either
        code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("error: power ") and err.count("\n") == 1


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize(
    "argv",
    [
        "waterfill --gains 1e300,1e200,1e154,1e77 --power 1e154 --nsq 1",
        "sweep --figure custom --trials 1 --axis 2 --powers 1,1.7e308 --nsq 64 --ntx 3",
        "sweep --figure custom --trials 2 --axis 1,3 --powers 1.7e308 --nsq 8 --k-list 1,2",
        "bounds --family simo-linear --power 1 --nsq 7 --h 3,1e300",
        "bounds --family simo-multi-select --power 1 --nsq 7 --h 3,1e300",
        "bounds --family simo-multi-select --power 1 --nsq 7 --h 1.3e154,1.3e154",
    ],
    ids=["waterfill", "sweep-matrix", "sweep-vector", "simo-linear", "simo-multi-select",
         "simo-multi-select-sum"],
)
def test_rates_past_the_float_range_are_capped_without_warnings(capsys, argv):
    # P |h|^2, a water-filled g p or a quantizer demand overflows to inf, and a cap clips it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    if argv.startswith("sweep"):
        rows = out.splitlines()[1:]
        assert rows and all(np.isfinite(float(v)) for row in rows for v in row.split(",")[2:])
    else:
        json.loads(out, parse_constant=_reject_constant)


def test_ba_command(capsys):
    payload = run_json(capsys, "ba", "--power", "25", "--levels", "4")
    res = payload["result"]
    assert res["capacity_bits"] >= res["uniform_input_rate_bits"] - 1e-9
    assert len(res["input_distribution"]) == 4
    assert sum(res["input_distribution"]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gain", ["0", "-1"])
def test_ba_nonpositive_gain_is_runtime_error(capsys, gain):
    code, out, err = run(capsys, "ba", "--power", "25", "--levels", "4", "--gain", gain)
    assert code == 1
    assert out == ""
    assert "gain must be positive" in err


def test_sweep_csv_stdout_and_file(capsys, tmp_path):
    args = ("sweep", "--figure", "fig2a", "--trials", "4", "--seed", "7",
            "--axis", "1,2,4", "--powers", "1")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.startswith("figure,curve,x,mean,std_err,trials,seed\n")
    path = tmp_path / "c.csv"
    code2, out2, _ = run(capsys, *args, "--out", str(path))
    assert code2 == 0 and out2 == ""
    assert path.read_text() == out


def test_sweep_json_format(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--figure", "fig2a", "--trials", "3", "--seed", "1",
        "--axis", "1,2", "--powers", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["trials"] == 3
    assert payload["inputs"]["axis"] == [1, 2]
    assert payload["inputs"]["powers"] == [1.0]
    assert len(payload["result"]) == 4  # 2 curves x 2 grid points
    assert {"figure", "curve", "x", "mean", "std_err"} <= set(payload["result"][0])
    # a preset's values are echoed as resolved
    preset = run_json(capsys, "sweep", "--figure", "fig2c", "--trials", "2", "--format", "json")
    assert preset["inputs"]["axis"] == list(range(5, 51))


def test_sweep_json_rows_carry_the_table_floats(capsys):
    for argv, spec in [
        (["--figure", "fig2b", "--trials", "5", "--seed", "3"], figure_spec("fig2b", trials=5, seed=3)),
        (["--figure", "custom", "--axis", "2,5,9", "--powers", "0.5,4", "--nsq", "6", "--ntx", "3",
          "--trials", "4", "--seed", "2"],
         SweepSpec("custom", (2, 5, 9), (0.5, 4.0), 6, n_tx=3, trials=4, seed=2)),
    ]:
        rows = run_json(capsys, "sweep", *argv, "--format", "json")["result"]
        table = run_sweep(spec)
        assert [(r["curve"], r["x"]) for r in rows] == [(p.curve_label, p.x) for p in table]
        assert all(r["figure"] == spec.figure_id for r in rows)
        # JSON writes the shortest repr, which reads back to the same double
        means = [r["mean"] for r in rows]
        errs = [r["std_err"] for r in rows]
        assert means == table.means.ravel().tolist() and errs == table.std_errs.ravel().tolist()


def test_sweep_powers_sharing_a_label_are_an_error(capsys):
    code, out, err = run(capsys, "sweep", "--figure", "custom", "--axis", "1",
                         "--powers", "1,1.0000001", "--nsq", "4", "--trials", "2")
    assert code == 1 and out == ""
    assert err == "error: powers 1.0 and 1.0000001 share the curve label 'single-select-upper:P=1'\n"


def test_sweep_worker_flag_gives_identical_bytes(capsys, monkeypatch):
    # enough cores that all four workers get their own thread
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    args = ("sweep", "--figure", "fig2c", "--trials", "4", "--seed", "5", "--axis", "5,8")
    _, a, _ = run(capsys, *args, "--workers", "1")
    _, b, _ = run(capsys, *args, "--workers", "4")
    assert a == b


def test_sweep_custom_needs_parameters(capsys):
    code, _, err = run(capsys, "sweep", "--figure", "custom", "--trials", "2")
    assert code == 1
    assert "custom sweeps need" in err


@pytest.mark.parametrize("flag", ["--include-highsnr-proxy", "--include-sign-select-finite-snr"])
def test_deleted_sweep_flag_is_a_usage_error(capsys, flag):
    code, out, err = run(capsys, "sweep", "--figure", "fig2c", "--trials", "2", flag)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


_SWEEP_ARGV = ["sweep", "--figure", "fig2a", "--trials", "3", "--seed", "1", "--axis", "1,2",
               "--powers", "1"]


@pytest.mark.parametrize(
    "argv",
    [*CLI_CASES.values(), _SWEEP_ARGV, [*_SWEEP_ARGV, "--format", "json"]],
    ids=[*CLI_CASES, "sweep-csv", "sweep-json"],
)
def test_out_writes_the_stdout_bytes(capsys, tmp_path, argv):
    code, want, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize(
    "argv", [["bounds", "--family", "siso-sign", "--power", "1"], _SWEEP_ARGV], ids=["json", "csv"]
)
def test_failed_write_is_runtime_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_memory_error_is_runtime_error(capsys, monkeypatch):
    def allocate(spec, workers):
        raise MemoryError("Unable to allocate 137. GiB for an array")

    monkeypatch.setattr(cli, "run_sweep", allocate)
    code, out, err = run(capsys, *_SWEEP_ARGV)
    assert code == 1 and out == ""
    assert err == "error: Unable to allocate 137. GiB for an array\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]),
)
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


@given(_PAYLOADS)
@settings(max_examples=400)
def test_json_writer_is_the_indented_dump_byte_for_byte(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "bad", [np.int64(3), np.bool_(True), {1, 2}, object(), b"x"], ids=lambda v: type(v).__name__
)
def test_json_writer_raises_type_error_where_json_does(bad):
    for payload in (bad, [1.0, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError) as want:
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            cli._json_text(payload)
        assert str(got.value) == str(want.value)
    # json would write a number as its string; every payload's keys are strings
    with pytest.raises(TypeError, match="keys must be str, not int"):
        cli._json_text({1: 2.0})
