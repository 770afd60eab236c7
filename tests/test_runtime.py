"""The library runs on numpy alone: no scipy module is imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpqkd

FINITE_ARGV = [
    "finite", "--qab", "0.05", "--parties", "2", "--rounds", "1e5,1e6",
    "--starts", "2", "--max-evals", "300", "--format", "csv",
]

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


def test_runs_without_scipy():
    src = str(Path(mpqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    (case,) = [c for c in golden if c["argv"] == FINITE_ARGV]
    assert proc.stdout == case["stdout"]
