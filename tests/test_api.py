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
from sqcap.sweeps import csv_text, figure_spec, run_sweep
assert "scipy.special" not in sys.modules
os.cpu_count = lambda: 2  # two pool threads even on a one-core machine
sys.stdout.write(csv_text(run_sweep(figure_spec("fig2a", trials=60, seed=12), workers=2)))
"""


def test_first_scipy_use_from_two_sweep_threads_matches_golden():
    # both pool threads reach the first scipy import of their block's draw together
    out = fresh_interpreter(_FIRST_USE_ON_TWO_THREADS)
    assert out == (GOLDEN / "fig2a.csv").read_bytes()
