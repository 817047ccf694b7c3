"""Figure sweeps against committed golden CSVs, byte for byte.

The fixtures in ``tests/golden`` are the output of
``csv_text(run_sweep(figure_spec(fig, trials=n, seed=12)))`` with n = 60, 60
and 40 for fig2a, fig2b and fig2c.  A change that moves any digit of any
curve fails here; one that does so on purpose regenerates the fixture with
that expression and says why.
"""

from pathlib import Path

import pytest

from sqcap.sweeps import csv_text, figure_spec, run_sweep

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("figure, trials", [("fig2a", 60), ("fig2b", 60), ("fig2c", 40)])
def test_figure_csv_matches_golden(figure, trials):
    want = (GOLDEN / f"{figure}.csv").read_bytes()
    got = csv_text(run_sweep(figure_spec(figure, trials=trials, seed=12))).encode("utf-8")
    assert got == want
