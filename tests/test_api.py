"""The public API: every exported name resolves, and importing it loads numpy only.

``scipy.special`` is imported inside the functions that call it, so the
commands that never reach one (``waterfill``, most ``bounds`` families,
``--help`` and usage errors) start without loading scipy.  Likewise
``numpy.random``, which ``import numpy`` defers, loads with the first draw,
not with sqcap.  The tests here check module presence in a fresh
interpreter; they time nothing.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sqcap
from test_golden import CLI_CASES, GOLDEN

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sqcap.__path__))


def test_package_all_resolves():
    missing = [name for name in sqcap.__all__ if not hasattr(sqcap, name)]
    assert not missing
    assert len(set(sqcap.__all__)) == len(sqcap.__all__)


# every name the package exported when it listed them by hand
_EXPORTED = """
    ORACLE_MAX_CHANNELS ORACLE_MAX_QUANTIZERS AllocationBranch
    AllocationResult BoundPair BudgetError ChannelEnsembleSpec ChannelMatrix ConvergenceError
    CurvePoint DitheredSchemeParams InputDistribution PamScheme RankDeficientError SweepSpec
    TransitionMatrix allocate_integer_oracle binary_entropy
    blahut_arimoto build_dithered_scheme build_pam_scheme csv_text dithered_mi_estimate
    draw_channel emit_csv entropy_bits entropy_spotchecks figure_spec gaussian_draw
    mimo_sign_highsnr_bounds mimo_single_select_bounds miso_sign_capacity
    multi_select_lower_capped mutual_information output_marginal pam_inner_rate
    pam_scheme_for_levels q_array q_diff q_diff_array q_function quantizer_transition
    run_sweep simo_linear_bounds simo_multi_select_bounds simo_sign_highsnr_bounds
    simo_single_select_bounds siso_multilevel_bounds siso_sign_capacity underflow_clamps
    waterfill_relaxed __version__
""".split()


def test_package_all_keeps_every_earlier_export():
    assert len(_EXPORTED) == 52
    assert not set(_EXPORTED) - set(sqcap.__all__)
    assert len(set(sqcap.__all__)) == len(sqcap.__all__)
    # re-exported from their modules' lists
    for name in ("RANK_TOL", "TAIL_TINY", "CLAMP_FLOOR", "clamp_small_probabilities"):
        assert name in sqcap.__all__
    # exported later, from its module and the package alike
    assert "SweepTable" in sqcap.sweeps.__all__ and "SweepTable" in sqcap.__all__
    assert sqcap.SweepTable is sqcap.sweeps.SweepTable


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    mod = importlib.import_module(f"sqcap.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from sqcap import *", namespace)
    assert set(sqcap.__all__) <= namespace.keys()


def fresh_interpreter(code: str, *args: str) -> bytes:
    """Stdout bytes of ``code`` run in a new interpreter that imports this sqcap."""
    path = [str(Path(sqcap.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, timeout=120, check=True,
    )
    return done.stdout


_COLD_START = """
import contextlib, importlib, io, json, sys
import sqcap, sqcap.cli
for name in json.loads(sys.argv[1]):
    importlib.import_module("sqcap." + name)
seen = {"import": "scipy.special" in sys.modules, "numpy.random": "numpy.random" in sys.modules}
for case, argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sqcap.cli.cli_dispatch(argv) == 0
    seen[case] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


def test_import_and_scipy_free_commands_do_not_load_scipy():
    cases = ["waterfill", "bounds-simo-linear", "bounds-mimo-highsnr", "pam-power"]
    argvs = json.dumps([(case, CLI_CASES[case]) for case in cases])
    seen = json.loads(fresh_interpreter(_COLD_START, json.dumps(SUBMODULES), argvs))
    assert seen == {
        "import": False,
        "numpy.random": False,
        "waterfill": False,
        "bounds-simo-linear": False,
        "bounds-mimo-highsnr": False,
        "pam-power": True,
    }


_FIRST_USE_ON_TWO_THREADS = """
import os, sys
from sqcap import sweeps
assert "scipy.special" not in sys.modules
os.cpu_count = lambda: 2  # two pool threads even on a one-core machine
spec = sweeps.figure_spec("fig2a", trials=60, seed=12)
sweeps.BLOCK_ENTRIES = 30 * sweeps._entries_per_trial(spec)  # two blocks of 30 trials
sys.stdout.write(sweeps.csv_text(sweeps.run_sweep(spec, workers=2)))
"""


def test_first_scipy_use_from_two_sweep_threads_matches_golden():
    # both pool threads reach the first scipy import of their block's draw together
    out = fresh_interpreter(_FIRST_USE_ON_TWO_THREADS)
    assert out == (GOLDEN / "fig2a.csv").read_bytes()
