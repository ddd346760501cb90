"""Per-layer spans and work counters for one sievekit job process.

Run as a job in place of the plain program:

    python3 bench/tracer.py SPANS_FILE JOB_ID cli ARGV...      # sievekit CLI
    python3 bench/tracer.py SPANS_FILE JOB_ID session ARGV...  # session.py

It imports the target, then replaces every public function of the seven
sievekit layer modules with a wrapper that records a span (name, start,
end, parent; the job id is the file's).  A function is replaced in every
sievekit module namespace that binds it, because ``from .x import y``
makes copies of the name.  Spans stay in memory as flat arrays and are
written to SPANS_FILE when the job exits; stdout is left to the program.

A few wrappers also count work where it happens: integrand evaluations of
``integrate_checked``, grid nodes of the F/f and w marches, prime powers
and hits yielded by ``iter_quadratic_strikes`` (whose spans are the time
inside each ``next()``), and the limits handed to ``sieve_primes``.

Jobs run single-threaded (run.py clears SIEVEKIT_THREADS), so one span
stack per process is enough.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "experiments", "theorems", "sieve_functions", "numerics",
          "primes", "reports")
TARGETS = {"cli": "sievekit.cli", "session": "session"}
COUNTERS = ("numerics.integrand_evals", "sieve_functions.march_nodes",
            "experiments.strike_passes", "experiments.strike_prime_powers",
            "experiments.strike_hits", "primes.sieve_limit_sum")


class Recorder:
    """Spans as parallel arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.table_steps: set = set()   # (builder, step) pairs seen
        self.windows: set = set()       # X of every strike pass

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def dump(self, path: str, job: str, import_s: float) -> None:
        header = {"job": job, "names": self.names, "import_s": import_s,
                  "counters": self.counters,
                  "table_builds_distinct": len(self.table_steps),
                  "strike_windows_distinct": len(self.windows),
                  "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path: str) -> dict:
    """Read one job's spans file back: the header plus the four arrays."""
    with open(path, "rb") as fh:
        trace = json.loads(fh.readline())
        n = trace["spans"]
        for key, code in (("name_of", "i"), ("parent", "i"),
                          ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            trace[key] = arr
    return trace


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so children of one parent are disjoint and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def layer_table(trace: dict) -> dict[str, dict[str, float]]:
    """Per function name: number of spans and summed self time."""
    table: dict[str, dict[str, float]] = {}
    selfs = self_times(trace["parent"], trace["start"], trace["end"])
    names = trace["names"]
    for nid, s in zip(trace["name_of"], selfs):
        row = table.setdefault(names[nid], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s
    return table


# ---------------------------------------------------------------------------
# wrappers

def _span(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(i)
    return traced


def _strikes(rec: Recorder, name: str, fn):
    """Generator wrapper: one span per next(), plus pass/yield/hit counts."""
    nid = rec.name_id(name)
    c = rec.counters

    @functools.wraps(fn)
    def traced(X, *args, **kwargs):
        c["experiments.strike_passes"] += 1
        rec.windows.add(X)
        gen = fn(X, *args, **kwargs)
        try:
            while True:
                i = rec.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.close(i)
                c["experiments.strike_prime_powers"] += 1
                c["experiments.strike_hits"] += len(item[3])
                yield item
        finally:
            gen.close()
    return traced


def _integrand_counter(rec: Recorder, fn):
    c = rec.counters

    @functools.wraps(fn)
    def counted(f, *args, **kwargs):
        def integrand(x):
            c["numerics.integrand_evals"] += 1
            return f(x)
        return fn(integrand, *args, **kwargs)
    return counted


def _march_counter(rec: Recorder, builder: str, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        step, top = list(bound.arguments.values())[:2]
        rec.counters["sieve_functions.march_nodes"] += round(top / step) + 1
        rec.table_steps.add((builder, step))
        return fn(*args, **kwargs)
    return counted


def _limit_counter(rec: Recorder, fn):
    @functools.wraps(fn)
    def counted(limit, *args, **kwargs):
        rec.counters["primes.sieve_limit_sum"] += limit
        return fn(limit, *args, **kwargs)
    return counted


def wrap(rec: Recorder, name: str, fn):
    if name == "experiments.iter_quadratic_strikes":
        return _strikes(rec, name, fn)
    if name == "numerics.integrate_checked":
        fn = _integrand_counter(rec, fn)
    elif name in ("sieve_functions.build_sieve_tables",
                  "sieve_functions.build_buchstab_table"):
        fn = _march_counter(rec, name, fn)
    elif name == "primes.sieve_primes":
        fn = _limit_counter(rec, fn)
    return _span(rec, name, fn)


def install(rec: Recorder) -> int:
    """Wrap the public functions of the loaded layer modules everywhere
    they are bound; returns the number of functions wrapped."""
    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"sievekit.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, wrap(rec, f"{layer}.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "sievekit" and not modname.startswith("sievekit."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    return len(wrapped)


def main(argv: list[str]) -> int:
    spans_path, job, target = argv[:3]
    t0 = time.perf_counter()
    module = importlib.import_module(TARGETS[target])
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec)
    try:
        return module.main(argv[3:])
    finally:
        sys.stdout.flush()
        rec.dump(spans_path, job, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
