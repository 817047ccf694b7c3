"""Figure sweeps and CLI outputs against committed golden files, byte for byte.

The sweep fixtures in ``tests/golden`` are the output of
``csv_text(run_sweep(figure_spec(fig, trials=n, seed=s)))`` for each entry
of ``FIGURE_CASES``: n = 60, 60 and 40 at seed 12 for ``fig2a.csv``,
``fig2b.csv`` and ``fig2c.csv``, and the paper's n = 1000 at seed 0 for
``fig2a-1000.csv``, ``fig2b-1000.csv`` and ``fig2c-1000.csv``.
``custom-vector.csv`` and ``custom-matrix.csv`` hold two custom sweeps,
built as ``SweepSpec("custom", ...)`` from the fields their entries list.

The CLI fixtures in ``tests/golden/cli`` hold the JSON that
``sqcap <argv>`` prints for each entry of ``CLI_CASES``, with the
``version`` field removed.

A change that moves any digit of any output fails here; one that does so on
purpose regenerates the fixtures with ``python tests/regen_golden.py
--write``, which reads the same two tables, and says why, quoting the
report of what moved that the tool prints.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sqcap import __version__, sweeps
from sqcap.cli import cli_dispatch
from sqcap.sweeps import SweepSpec, csv_text, figure_spec, run_sweep

GOLDEN = Path(__file__).parent / "golden"

_CHANNEL = json.dumps(
    {"n_rx": 3, "n_tx": 2, "entries": [0.9, -1.3, 0.4, 2.1, -0.7, 1.6]}
)

#: Fixture name -> argv of one non-sweep subcommand.
CLI_CASES = {
    "bounds-siso-sign": ["bounds", "--family", "siso-sign", "--power", "2.5"],
    "bounds-miso-sign": ["bounds", "--family", "miso-sign", "--h", "0.8,1.3,-0.4", "--power", "3"],
    "bounds-simo-highsnr": ["bounds", "--family", "simo-highsnr", "--nrx", "5"],
    "bounds-mimo-highsnr": ["bounds", "--family", "mimo-highsnr", "--nsq", "12", "--ntx", "3"],
    "bounds-siso-multilevel": [
        "bounds", "--family", "siso-multilevel", "--power", "30", "--nsq", "7",
    ],
    "bounds-simo-single-select": [
        "bounds", "--family", "simo-single-select",
        "--h", "0.7,-1.9,1.2", "--power", "4.5", "--nsq", "16",
    ],
    "bounds-simo-multi-select": [
        "bounds", "--family", "simo-multi-select",
        "--h", "1.2,2.5,0.9,1.7", "--power", "80", "--nsq", "24",
    ],
    "bounds-simo-linear": [
        "bounds", "--family", "simo-linear", "--h", "0.5,1.1,-0.8", "--power", "2", "--nsq", "9",
    ],
    "bounds-mimo-single-select": [
        "bounds", "--family", "mimo-single-select",
        "--channel", _CHANNEL, "--power", "6", "--nsq", "5",
    ],
    "pam-power": ["pam", "--power", "150", "--nsq", "15"],
    "pam-levels": ["pam", "--levels", "4", "--power", "20", "--gain", "1.3"],
    "ba": ["ba", "--power", "40", "--nsq", "7", "--gain", "1.1"],
    "dither": [
        "dither", "--h", "2.0,2.5,1.8", "--power", "200", "--nsq", "12",
        "--k", "2", "--samples", "20000", "--seed", "7",
    ],
    "dither-k1": [
        "dither", "--h", "1.7,0.9", "--power", "300", "--nsq", "40",
        "--k", "1", "--samples", "20000", "--seed", "7",
    ],
    "dither-k3": [
        "dither", "--h", "1.5,1.4,1.3", "--power", "200", "--nsq", "24",
        "--k", "3", "--samples", "40000", "--seed", "7",
    ],
    "waterfill": ["waterfill", "--gains", "2.1,1.4,0.6", "--power", "12", "--nsq", "6"],
}


#: Fixture name -> (figure, trials, seed, SweepSpec fields) of one sweep: a
#: preset's fields override the preset's, and a custom sweep's are its grid.
FIGURE_CASES = {
    "fig2a": ("fig2a", 60, 12, {}),
    "fig2b": ("fig2b", 60, 12, {}),
    "fig2c": ("fig2c", 40, 12, {}),
    "fig2a-1000": ("fig2a", 1000, 0, {}),
    "fig2b-1000": ("fig2b", 1000, 0, {}),
    "fig2c-1000": ("fig2c", 1000, 0, {}),
    # K runs past n_sq
    "custom-vector": ("custom", 60, 12, dict(
        axis=(1, 2, 5, 12), power_list=(0.5, 40.0), n_sq=6, k_list=(1, 3, 9))),
    # wide prefixes (x < n_tx) and tall ones
    "custom-matrix": ("custom", 40, 12, dict(
        axis=(2, 5, 11, 40), power_list=(1.0,), n_sq=3, n_tx=12)),
}


def figure_golden_text(name: str, workers: int = 1) -> str:
    """The CSV of ``FIGURE_CASES[name]`` at ``workers``, as the fixture stores it."""
    figure, trials, seed, fields = FIGURE_CASES[name]
    make = SweepSpec if figure == "custom" else figure_spec
    return csv_text(run_sweep(make(figure, trials=trials, seed=seed, **fields), workers))


def cli_golden_text(argv) -> str:
    """What ``sqcap <argv>`` prints, less its version member, as the fixture stores it.

    The printed bytes themselves are compared: ``version``, the last of the
    payload's sorted keys, is cut from the end of the text.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch(argv) == 0
    text = out.getvalue()
    version = f',\n  "version": {json.dumps(__version__)}\n}}\n'
    assert text.endswith(version)
    return text[: -len(version)] + "\n}\n"


@pytest.mark.parametrize(
    "name", FIGURE_CASES, ids=[f"{fig}-{trials}" for fig, trials, *_ in FIGURE_CASES.values()]
)
def test_figure_csv_matches_golden(name):
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert figure_golden_text(name).encode("utf-8") == want


def test_fig2c_1000_matches_golden_on_two_workers(monkeypatch):
    # two blocks of 500 trials, one per thread, each water-filled as its own stack
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    want = (GOLDEN / "fig2c-1000.csv").read_bytes()
    got = csv_text(run_sweep(figure_spec("fig2c", trials=1000, seed=0), workers=2))
    assert got.encode("utf-8") == want


@pytest.mark.parametrize(
    "name", FIGURE_CASES, ids=[f"{fig}-{trials}" for fig, trials, *_ in FIGURE_CASES.values()]
)
def test_figure_csv_matches_golden_at_every_worker_count(monkeypatch, name):
    # at least one block per thread: 2, 3 and 5 workers cut even a one-block
    # sweep into that many blocks, and every sum still adds its trials in order
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 8)
    want = (GOLDEN / f"{name}.csv").read_bytes()
    for workers in (2, 3, 5):
        assert figure_golden_text(name, workers).encode("utf-8") == want, workers


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_json_matches_golden(name):
    want = (GOLDEN / "cli" / f"{name}.json").read_bytes()
    assert cli_golden_text(CLI_CASES[name]).encode("utf-8") == want


def test_regen_report_names_what_moved():
    import regen_golden

    old = (GOLDEN / "fig2c.csv").read_text(encoding="utf-8")
    lines = old.splitlines(keepends=True)
    row = lines[3].split(",")
    row[3] = f"{float(row[3]) + 2 * float(row[4]):.12g}"  # the mean, up 2 s.e.
    new = "".join(lines[:3] + [",".join(row)] + lines[4:])
    assert regen_golden.csv_report(old, old) == []
    mean_line, curve_line = regen_golden.csv_report(old, new)
    assert mean_line.startswith("  mean: 1 moved, max |Δ| ")
    assert curve_line == f"  curve {row[1]}: 1 rows, max |Δ|/std_err 2 (mean), 0 (std_err)"

    old = (GOLDEN / "cli" / "waterfill.json").read_text(encoding="utf-8")
    payload = json.loads(old)
    payload["result"]["oracle"]["rate_bits"] += 0.25
    payload["result"]["oracle"]["branch"] = "power-limited"
    del payload["result"]["relaxed"]["water_level"]
    assert regen_golden.json_report(old, json.dumps(payload)) == [
        "  result.oracle.branch: 1 moved, max |Δ| inf",
        "  result.oracle.rate_bits: 1 moved, max |Δ| 0.25",
        "  result.relaxed.water_level: removed",
    ]
