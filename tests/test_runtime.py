"""What the library loads: no scipy at all, and numpy only for the Monte
Carlo engines and the density-matrix oracle.  The rates, optima, thresholds
and asymptotic curves run on the standard library alone."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import mpqkd

FINITE_ARGV = [
    "finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5,1e6",
    "--max-evals", "300", "--format", "csv",
]
ASYMPTOTIC_ARGV = ["asymptotic", "--parties", "2,5", "--qab", "0.0:0.1:3", "--format", "csv"]

# a None entry makes every later `import scipy...` raise ImportError
SCRIPT = f"""
import sys
sys.modules["scipy"] = None

from mpqkd import LogEps, Protocol, SearchConfig, optimize_rate, stats_from_qab_global
from mpqkd.cli import main

stats = stats_from_qab_global(0.05, 2)
for kind in Protocol:
    optimize_rate(kind, 2, 10**6, stats, LogEps.from_eps(5e-9), SearchConfig(200, 3, 0))
code = main({FINITE_ARGV!r})
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
assert not loaded, loaded
sys.exit(code)
"""

# every command's stdout goes into one JSON object, keyed by the command
STDLIB_SCRIPT = f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None

from mpqkd import LogEps, Protocol, SearchConfig, optimize_rate, stats_from_qab_global, threshold_L
from mpqkd.cli import main

target = LogEps.from_eps(5e-9)
stats = stats_from_qab_global(0.05, 2)
for kind in Protocol:  # both rates are positive here, so both searches run
    assert optimize_rate(kind, 2, 10**8, stats, target, SearchConfig(300, 1, 0)).rate > 0.0
threshold_L(0.05, 2, target, l_max=4096, search_config=SearchConfig(300, 1, 0))
out = {{}}
for argv in ({FINITE_ARGV!r}, {ASYMPTOTIC_ARGV!r}):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    out[argv[0]] = buf.getvalue()
print(json.dumps(out))
"""

LAZY_SCRIPT = """
import sys

from mpqkd import NoiseModel, NoiseScenario, Protocol, ProtocolConfig
import mpqkd.simulate

assert "numpy" not in sys.modules
scenario = NoiseScenario(NoiseModel.GLOBAL_DEPOLARIZING, 0.1, 3)
mpqkd.simulate.simulate_rounds(scenario, ProtocolConfig(Protocol.N_BB84, 3, 20000, 0.25), 0)
assert "numpy" in sys.modules
"""


LAYERS = ("asymptotic", "finite_key", "noise", "numerics", "optimize", "simulate")


def run_script(script):
    src = str(Path(mpqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )


def golden_stdout(argv):
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    (case,) = [c for c in golden if c["argv"] == argv]
    return case["stdout"]


def test_runs_without_scipy():
    proc = run_script(SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_stdout(FINITE_ARGV)


def test_rates_optima_and_thresholds_run_without_numpy():
    proc = run_script(STDLIB_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["finite"] == golden_stdout(FINITE_ARGV)
    assert out["asymptotic"] == golden_stdout(ASYMPTOTIC_ARGV)


def test_simulate_loads_numpy_on_first_call():
    proc = run_script(LAZY_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_exactly_its_modules_all():
    modules = [importlib.import_module(f"mpqkd.{layer}") for layer in LAYERS]
    owner = {name: module for module in modules for name in module.__all__}
    assert mpqkd.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(mpqkd.__all__)) == len(mpqkd.__all__)
    star = {}
    exec("from mpqkd import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(mpqkd.__all__)
    assert all(obj is getattr(owner[name], name) for name, obj in star.items())
    # each name is listed only by the module that defines it
    for name, module in owner.items():
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
    proc = run_script("import sys, mpqkd\nassert 'numpy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
