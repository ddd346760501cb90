"""Start-up: numpy loads at the first array use, after importing sievekit
has pinned OpenBLAS to one thread, and the command line freezes its
import-time heap out of the cyclic GC, numpy's too when it loads later.

A command that reads no array never loads numpy.  sievekit makes no BLAS
call, so the pin only saves the thread pool numpy would start.  An explicit
OPENBLAS_NUM_THREADS wins, and the output does not depend on it.  Only
main() called as the process's own command line (argv None) freezes;
main(argv) leaves the caller's GC state alone.  The real entry keeps the
0/1/2 exit contract, also under a real memory limit.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys

import pytest

import sievekit
from sievekit.cli import main
from test_cli_golden import GOLDEN

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sievekit.__file__)))

# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported: at
# the first array use, which comes after import sievekit.
PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import sievekit
sievekit.sieve_primes(10)
print(seen[0], os.environ["OPENBLAS_NUM_THREADS"])
"""


# Runs the CLI module as `-m` does and reports, as the last line of stderr,
# the freeze count at exit and whether numpy was loaded.
EXIT_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(),
                              "numpy" in sys.modules, file=sys.stderr))
runpy.run_module("sievekit.cli", run_name="__main__", alter_sys=True)
"""

# The objects that importing numpy after sievekit leaves alive.
NUMPY_HEAP = """
import gc, sievekit.cli
gc.collect()
before = len(gc.get_objects())
import numpy
gc.collect()
print(len(gc.get_objects()) - before)
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


@pytest.mark.parametrize("command,code,stderr", [
    ("verify thm3 --u 12.2", 1, "error: sigma2 containment fails"),
    ("bogus", 2, "usage: sievekit"),
])
def test_real_entry_keeps_the_exit_contract(command, code, stderr):
    proc = run(["-m", "sievekit.cli", *command.split()], None)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(stderr), proc.stderr


def probe_exit(command: str) -> tuple[subprocess.CompletedProcess, int, bool]:
    """Run the real entry on command; return the process, the freeze count
    at exit and whether numpy was loaded."""
    proc = run(["-c", EXIT_PROBE, *command.split()], None)
    label, count, loaded = proc.stderr.splitlines()[-1].split()
    assert label == "frozen" and loaded in ("True", "False"), proc.stderr
    return proc, int(count), loaded == "True"


def test_command_line_freezes_its_import_time_heap():
    proc, count, _loaded = probe_exit("verify thm2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    assert count > 0, proc.stderr


@pytest.mark.parametrize("module", ["sievekit", "sievekit.cli"])
def test_import_leaves_numpy_unloaded(module):
    proc = run(["-c", f"import sys, {module}; "
                      f"print('numpy' in sys.modules)"], None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_commands_that_read_no_array_leave_numpy_unloaded(tmp_path):
    saved = tmp_path / "thm2.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "thm2", "--out", str(saved)]) == 0
    for command, code in [("functions eval sigma2 1", 0),
                          ("functions eval gamma_theta 0.6", 0),
                          ("verify thm2", 0),
                          (f"report {saved}", 0),
                          ("empirical chebyshev --X 0", 1),
                          ("empirical chebyshev --X", 2)]:
        proc, _count, loaded = probe_exit(command)
        assert proc.returncode == code, (command, proc.stderr)
        assert not loaded, command
    proc, _count, loaded = probe_exit("empirical chebyshev --X 20000")
    assert proc.returncode == 0, proc.stderr
    assert loaded


def test_first_array_use_freezes_numpys_import_heap():
    # main() froze before numpy loaded; the load freezes again, so an array
    # command ends with numpy's import heap frozen on top of verify thm2's
    heap = int(run(["-c", NUMPY_HEAP], None).stdout)
    _proc, scalar, loaded = probe_exit("verify thm2")
    assert not loaded
    proc, array, loaded = probe_exit("empirical chebyshev --X 20000")
    assert proc.returncode == 0 and loaded, proc.stderr
    assert array - scalar >= 0.9 * heap > 0, (array, scalar, heap)


def test_main_with_argv_leaves_the_gc_state_alone():
    before = gc.get_freeze_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "thm2"]) == 0
    assert gc.get_freeze_count() == before


def test_real_address_space_limit_refuses_up_front():
    # under 2 GiB of address space the prime table to 2X fits (1.2 B per
    # entry), and the count's window, spf column included (27 B per n), is
    # refused by name before the table is sieved, not by a MemoryError
    limit = 2 ** 31
    for X, need in [(10 ** 8, 2575), (5 * 10 ** 8, 12875)]:
        proc = subprocess.run(
            [sys.executable, "-m", "sievekit.cli", "empirical", "phi", "--X",
             str(X)], env=fresh_env(None), capture_output=True, text=True,
            timeout=120, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(rf"error: the window of X = {X} needs about "
                            rf"{need} MiB, more than the \d+ MiB "
                            rf"available\n", proc.stderr), proc.stderr
