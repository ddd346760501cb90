"""Start-up: importing sievekit pins OpenBLAS to one thread before numpy.

sievekit makes no BLAS call, so the pin only saves the thread pool numpy
would start.  An explicit OPENBLAS_NUM_THREADS wins, and the output does not
depend on it.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import sievekit
from test_cli_golden import GOLDEN

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sievekit.__file__)))

# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported.
PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import sievekit
print(seen[0], os.environ["OPENBLAS_NUM_THREADS"])
"""


def fresh_env(threads: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run(argv: list[str], threads: str | None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=fresh_env(threads),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("threads,seen", [(None, "1 1"), ("3", "3 3")])
def test_import_pins_openblas_before_numpy(threads, seen):
    proc = run(["-c", PROBE], threads)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == seen.split()


@pytest.mark.parametrize("command", [
    "verify all",
    "empirical weil --max-pq 5005",
    "empirical chebyshev --X 300000",
])
def test_golden_output_with_two_blas_threads(command):
    code, digest = {c: (k, d) for c, k, d in GOLDEN}[command]
    proc = run(["-m", "sievekit.cli", *command.split()], "2")
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest
