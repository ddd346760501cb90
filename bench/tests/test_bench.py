"""Tests of the benchmark itself: job generation, checks, tracing, timing.

    python3 -m pytest bench/tests -q       # from the repository root
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from sievekit import cli, experiments, is_prime  # noqa: E402
from sievekit.theorems import find_max_vartheta  # noqa: E402

SEEDS = range(40)


def _flag(job, name):
    argv = job["argv"]
    return argv[argv.index(name) + 1] if name in argv else None


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_jobs(workload):
    for seed in (0, 7, 123):
        assert wl.pass_jobs(workload, seed) == wl.pass_jobs(workload, seed)
        assert wl.setup_job(workload, seed) == wl.setup_job(workload, seed)
    lists = {json.dumps(wl.pass_jobs(workload, s)) for s in range(8)}
    assert len(lists) > 1


def test_window_inputs_pass_the_cli_window_checks():
    for seed in SEEDS:
        for job in wl.pass_jobs("window", seed):
            X = int(_flag(job, "--X"))
            limit = max(2 * X, 10 ** 5)   # the CLI's prime table
            experiments._check_window(X)
            experiments._check_window(
                X, min(experiments.X_FACTOR_CAP, limit // 2))


def test_session_windows_straddle_the_cache_cap():
    for seed in SEEDS:
        job, = wl.pass_jobs("survey-session", seed)
        x1, x2 = int(_flag(job, "--x1")), int(_flag(job, "--x2"))
        assert x1 <= wl.WINDOW_CACHE_CAP < x2
        for X in (x1, x2):
            experiments._check_window(
                X, min(experiments.X_FACTOR_CAP, x2))


def test_weil_inputs_stay_under_the_caps():
    for seed in SEEDS:
        exhaustive, *literal = wl.pass_jobs("weil", seed)
        assert 15 <= int(_flag(exhaustive, "--max-pq")) <= 2 * 10 ** 5
        for job in literal:
            p, q, m = (int(_flag(job, f)) for f in ("--p", "--q", "--m"))
            assert p != q and p % 2 and q % 2 and is_prime(p) and is_prime(q)
            assert p * q <= 10 ** 5 and 1 <= m < p * q


def test_certify_inputs_stay_inside_their_domains():
    theta0 = cli.DEFAULTS["theta0"]
    vartheta_max = Fraction(find_max_vartheta())
    for seed in SEEDS:
        for job in wl.pass_jobs("certify", seed):
            u, vt = _flag(job, "--u"), _flag(job, "--vartheta")
            if u is not None:
                assert 1.0 < float(u) <= 13.0
                assert (2.0 / 3.0 - theta0 / 2.0) * float(u) <= 2.0
            if vt is not None:
                assert Fraction(32, 41) <= Fraction(float(vt)) < vartheta_max
            if job["argv"][:2] == ["functions", "table"]:
                assert job["check"]["rows"] == wl.TABLE_ROWS
                assert float(_flag(job, "--max")) <= 12.0


def test_evals_split_between_closed_and_tabulated_branches():
    edge = {"F": 5.0, "f": 4.0, "w": 3.0}
    for seed in SEEDS:
        evals = [j["argv"][2:] for j in wl.pass_jobs("certify", seed)
                 if j["argv"][:2] == ["functions", "eval"]]
        closed = [n for n, x in evals if float(x) <= edge[n]]
        assert len(closed) == len(evals) - len(closed) == wl.EVALS_PER_BRANCH


def test_self_time_on_a_synthetic_span_tree():
    #  root [0, 10]
    #  +-- a [1, 4]
    #  |   +-- c [2, 3]
    #  +-- b [5, 6.5]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.5]
    assert tracer.self_times(parent, start, end) == [5.5, 2.0, 1.0, 1.5]
    trace = {"names": ["root", "fn"], "name_of": [0, 1, 1, 1],
             "parent": parent, "start": start, "end": end}
    table = tracer.layer_table(trace)
    assert table == {"root": {"calls": 1, "self_s": 5.5},
                     "fn": {"calls": 3, "self_s": 4.5}}
    assert sum(r["self_s"] for r in table.values()) == 10.0


def test_spans_file_round_trip(tmp_path):
    rec = tracer.Recorder()
    outer, inner = rec.name_id("m.outer"), rec.name_id("m.inner")
    i = rec.open(outer)
    j = rec.open(inner)
    rec.close(j)
    rec.close(i)
    rec.counters["primes.sieve_limit_sum"] = 42
    path = str(tmp_path / "job.spans")
    rec.dump(path, "w/00", 0.25)
    trace = tracer.load_spans(path)
    assert trace["job"] == "w/00" and trace["import_s"] == 0.25
    assert list(trace["parent"]) == [-1, 0]
    assert trace["counters"]["primes.sieve_limit_sum"] == 42
    assert set(tracer.layer_table(trace)) == {"m.outer", "m.inner"}


def test_per_layer_names_exist():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    derived = {"sieve_functions.march_reuse", "experiments.strike_reuse",
               "proc.import_s", "proc.trace_overhead_s"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in tracer.COUNTERS or name in derived:
            continue
        parts = name.split(".")
        assert parts[0] in tracer.LAYERS, name
        if len(parts) == 2:
            assert parts[1] == "self_s", name
            continue
        layer, fn, kind = parts
        mod = sys.modules.get(f"sievekit.{layer}") \
            or __import__(f"sievekit.{layer}", fromlist=["_"])
        assert kind in ("calls", "self_s") and not fn.startswith("_"), name
        assert callable(getattr(mod, fn)), name


def _completed(job, rc, payload):
    return wl.check_output(job, rc, json.dumps(payload).encode())


def test_checks_catch_broken_invariants():
    job = {"check": {"type": "experiment"}}
    good = {"schema": 1, "name": "chebyshev_decomposition",
            "residuals": {"identity_rel": 1e-12}}
    assert _completed(job, 0, good) == []
    assert _completed(job, 1, good)
    bad = dict(good, residuals={"identity_rel": 1e-6})
    assert _completed(job, 0, bad)
    weil = {"schema": 1, "name": "weil_exhaustive",
            "counters": {"violations": 1, "direct_checks": 4}}
    assert _completed(job, 0, weil)
    thm = {"check": {"type": "theorems", "reports": 1}}
    assert _completed(thm, 0, {"schema": 1, "name": "theorem3",
                               "margin": -0.1, "passed": False})
    scalar = {"check": {"type": "scalar", "name": "w", "x": 1.5}}
    assert wl.check_output(scalar, 0, b"0.66666666666666663\n") == []
    assert wl.check_output(scalar, 0, b"0.7\n")
    assert wl.check_output(scalar, 0, b"not a number\n")


def test_peak_rss_is_per_job():
    # A child's ru_maxrss starts from its parent's RSS at spawn, so the
    # jobs are spawned from a small stdlib-only process, as run.py is.
    script = (
        "import json, run\n"
        "env = run.job_env(run.os.path.dirname(run.HERE))\n"
        "root = run.os.path.dirname(run.HERE)\n"
        "job = lambda argv, check: {'id': 't/00', 'kind': 'cli',\n"
        "                           'argv': argv, 'check': check}\n"
        "big = run.run_job(job(['empirical', 'gpf', '--X', '400000'],\n"
        "                      {'type': 'experiment'}), env, root)\n"
        "small = run.run_job(job(['verify', 'thm2'],\n"
        "                        {'type': 'theorems', 'reports': 1}),\n"
        "                    env, root)\n"
        "print(json.dumps([big, small]))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=BENCH,
                         capture_output=True, check=True, text=True)
    big, small = json.loads(out.stdout)
    assert big["problems"] == [] and small["problems"] == []
    assert small["peak_rss_mb"] < big["peak_rss_mb"] - 10.0


TRACED_ARGV = [
    ("cli", ["verify", "thm2", "--vartheta", "0.8"]),
    ("cli", ["functions", "eval", "F", "4.2"]),
    ("cli", ["empirical", "chebyshev", "--X", "20000"]),
    ("cli", ["empirical", "q-ell", "--X", "20000", "--ell", "13",
             "--oracle"]),
    ("cli", ["empirical", "weil", "--max-pq", "300"]),
    ("session", ["--x1", "20000", "--x2", "30000"]),
]


@pytest.mark.parametrize("kind,argv", TRACED_ARGV)
def test_tracing_leaves_stdout_byte_identical(tmp_path, kind, argv):
    env = run.job_env(ROOT)
    job = {"id": "t/00", "kind": kind, "argv": argv}
    spans = str(tmp_path / "t.spans")
    plain = subprocess.run(run.job_command(job, None), cwd=ROOT, env=env,
                           capture_output=True, check=True)
    traced = subprocess.run(run.job_command(job, spans), cwd=ROOT, env=env,
                            capture_output=True, check=True)
    assert plain.stdout and traced.stdout == plain.stdout
    trace = tracer.load_spans(spans)
    names = set(tracer.layer_table(trace))
    assert trace["spans"] > 0 and trace["import_s"] > 0
    if kind == "cli":
        assert "cli.main" in names
    if argv[0] in ("verify", "empirical") or kind == "session":
        assert "reports.to_json" in names
    if "chebyshev" in argv:
        # bound through `from .primes import ...` in cli and experiments
        assert {"primes.sieve_primes", "primes.sqrt_minus_one",
                "primes.jacobi", "experiments.iter_quadratic_strikes",
                "experiments.chebyshev_decomposition"} <= names
        c = trace["counters"]
        assert c["experiments.strike_passes"] == 1
        assert c["experiments.strike_hits"] \
            > c["experiments.strike_prime_powers"] > 0
        assert c["primes.sieve_limit_sum"] == 10 ** 5
    if argv[:3] == ["functions", "eval", "F"]:
        assert trace["counters"]["sieve_functions.march_nodes"] == \
            2 * (round(14.0 / 1e-4) + 1)
        assert trace["counters"]["numerics.integrand_evals"] > 0
    if kind == "session":
        assert trace["strike_windows_distinct"] == 2
        roots = [i for i, p in enumerate(trace["parent"]) if p < 0]
        assert math.isclose(
            sum(r["self_s"] for r in tracer.layer_table(trace).values()),
            sum(trace["end"][i] - trace["start"][i] for i in roots),
            rel_tol=1e-9)
