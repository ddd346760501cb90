"""Seeded job lists, per-job output checks and the benchmark's rationale.

A workload is a fixed sequence of jobs (one pass).  Each job is one fresh
process: either the sievekit CLI with generated argv, or the library
session in ``session.py``.  The seed picks every input; the program sees
only the generated argv.  Seeded ranges are narrow on purpose: the work a
pass does must not swing with the seed, or seed-to-seed differences would
hide the regressions the bounds in BENCHMARK.json are meant to catch.

Stdlib only: this module is imported by run.py, which never imports
sievekit or numpy.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("certify", "window", "weil", "survey-session")

# Euler-Mascheroni constant as the program fixes it; used to recompute the
# closed-form branches independently of the program.
EULER_GAMMA = 0.5772156649015328606065
TWO_E_GAMMA = 2.0 * math.exp(EULER_GAMMA)
EIGHT_E_2GAMMA = 8.0 * math.exp(2.0 * EULER_GAMMA)

# verify thm3: theta0 keeps its CLI default 0.9926, so the sigma2 argument
# (2/3 - theta0/2) u stays <= 2 only for u <= 11.739...; 11.74 raises.
THM3_U_RANGE = (10.0, 11.7)
# verify thm2: vartheta in [32/41, find_max_vartheta() = 0.847230887...),
# where the exceedance margin 3/2 - total is positive.
THM2_VARTHETA_RANGE = (0.780488, 0.8472)
# Closed-form branches (F <= 5, f <= 4, w <= 3) and tabulated ones (to 12).
EVAL_RANGES = {
    "closed": {"F": (1.5, 5.0), "f": (2.5, 4.0), "w": (1.0, 3.0)},
    "tabulated": {"F": (5.5, 12.0), "f": (4.5, 12.0), "w": (3.5, 12.0)},
}
EVALS_PER_BRANCH = 2
TABLE_ROWS = 3
TABLE_STEP = 0.1
WINDOW_X_RANGE = (495_000, 505_000)
Q_ELL_CHOICES = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)
WEIL_MAX_PQ_RANGE = (4_980, 5_020)
WEIL_LITERAL_SUMS = 3
WEIL_LITERAL_PQ_RANGE = (80_000, 100_000)  # the CLI caps pq at 1e5
# survey-session: the window cache serves X <= 1e6 only.
WINDOW_CACHE_CAP = 10 ** 6
SESSION_X1_RANGE = (490_000, 500_000)
SESSION_X2_RANGE = (WINDOW_CACHE_CAP + 1, 1_005_000)
SESSION_REPORTS = 5 + 3   # full battery at X1, the three surveys at X2

# Rationale, recorded in every result file next to the workload's "why"
# from BENCHMARK.json: what each workload stresses and bypasses, so a later
# change can cite workload and metric names.
RATIONALE = {
    "certify": {
        "stresses": ["sieve_functions", "numerics", "theorems"],
        "bypasses": ["experiments strike sieve", "primes.sieve_primes "
                     "beyond the import-time table"],
        "should_move": "building the function tables once per process "
                       "(ROADMAP item 2) lowers wall_s here and nowhere else",
    },
    "window": {
        "stresses": ["experiments.iter_quadratic_strikes",
                     "primes.sqrt_minus_one", "primes.sieve_primes"],
        "bypasses": ["sieve_functions marches"],
        "should_move": "a batched strike sieve (ROADMAP item 3) lowers "
                       "wall_s and peak_rss_mb here; certify and weil "
                       "bypass this path",
    },
    "weil": {
        "stresses": ["experiments.weil_prime_sums", "primes.jacobi"],
        "bypasses": ["experiments strike sieve", "sieve_functions marches"],
        "should_move": "an O(p log p) Weil scan (ROADMAP item 4) lowers "
                       "wall_s here only",
    },
    "survey-session": {
        "stresses": ["experiments.quadratic_window_stats",
                     "experiments.iter_quadratic_strikes",
                     "in-process reuse of window stats"],
        "bypasses": ["sieve_functions marches", "CLI start-up per job"],
        "should_move": "a window speed-up that loses in-process reuse "
                       "shows as a wall_s regression here (strike_reuse)",
    },
}

# Which end-to-end metric each per-layer group should move, and where.
LAYER_EXPECTATIONS = [
    {"metrics": ["sieve_functions.build_sieve_tables.{calls,self_s}",
                 "sieve_functions.build_buchstab_table.{calls,self_s}",
                 "sieve_functions.march_nodes", "sieve_functions.march_reuse"],
     "moves": "wall_s", "on": "certify"},
    {"metrics": ["numerics.integrate_checked.{calls,self_s}",
                 "numerics.integrand_evals",
                 "theorems.{compute_C,dartyge_margin,theorem2_integral,"
                 "optimize_beta}.self_s",
                 "sieve_functions.{eval_F,eval_f,buchstab_w}.calls"],
     "moves": "wall_s", "on": "certify"},
    {"metrics": ["experiments.strike_passes",
                 "experiments.strike_prime_powers", "experiments.strike_hits",
                 "experiments.iter_quadratic_strikes.self_s",
                 "primes.sqrt_minus_one.{calls,self_s}",
                 "experiments.quadratic_window_stats.{calls,self_s}"],
     "moves": "wall_s, peak_rss_mb", "on": "window, survey-session"},
    {"metrics": ["experiments.strike_reuse"],
     "moves": "wall_s", "on": "survey-session"},
    {"metrics": ["experiments.{chebyshev_decomposition,"
                 "weighted_sieve_experiment,dartyge_survey,"
                 "bt_exception_count}.self_s",
                 "primes.{roots_mod,factorize}.calls"],
     "moves": "wall_s", "on": "window"},
    {"metrics": ["experiments.weil_prime_sums.{calls,self_s}",
                 "primes.jacobi.calls"],
     "moves": "wall_s", "on": "weil"},
    {"metrics": ["primes.sieve_primes.{calls,self_s}",
                 "primes.sieve_limit_sum"],
     "moves": "wall_s, peak_rss_mb on window; setup_s on all", "on": "all"},
    {"metrics": ["proc.import_s", "cli.main.self_s", "reports.to_json.self_s",
                 "<module>.self_s"],
     "moves": "setup_s, or none expected", "on": "all"},
]

# Each row of the ROADMAP baseline table and what covers it now.
BASELINE_COVERAGE = {
    "import sievekit": "setup_s on every workload; proc.import_s",
    "build_sieve_tables / build_buchstab_table (h = 1e-4)":
        "sieve_functions.build_sieve_tables.self_s and "
        "build_buchstab_table.self_s on certify",
    "sieve_primes 2e6 / 2e7":
        "primes.sieve_primes.self_s on window (~1e6) and survey-session "
        "(~2e6); "
        "the 2e7 table is too long to repeat and is covered at workload "
        "scale",
    "quadratic_window_stats X = 1e5 / 1e6 / 1e7":
        "experiments.quadratic_window_stats.self_s on window (X ~ 5e5) "
        "and survey-session (X ~ 5e5 and just above 1e6); X = 1e7 is too "
        "long to repeat and is covered at workload scale",
    "chebyshev_decomposition X = 1e6":
        "experiments.chebyshev_decomposition.self_s on window (X ~ 5e5)",
    "dartyge_survey X = 1e6 (window stats cached)":
        "experiments.dartyge_survey.self_s on survey-session (cached at "
        "X1 ~ 5e5, uncached just above 1e6)",
    "bt_exception_count theta = 0.55, X = 1e6":
        "experiments.bt_exception_count.self_s on window (X ~ 5e5)",
    "optimize_beta with threads = 1 / 4":
        "theorems.optimize_beta.self_s on certify (plot-data c-beta), "
        "threads = 1 only: run.py clears SIEVEKIT_THREADS",
    "weil_exhaustive max_pq = 1e4":
        "weil workload at max_pq ~ 5000; 1e4 is too long to repeat and is "
        "covered at workload scale",
    "CLI verify all": "per-job wall time of 'verify all' on certify",
    "CLI functions table F --max 12 --step 0.1 (111 rows)":
        "the 3-row 'functions table' job on certify; 111 rows are too "
        "long to repeat and are covered at workload scale",
    "CLI empirical chebyshev --X 1000000":
        "per-job wall time of 'empirical chebyshev' on window at X ~ 5e5",
    "tier-1 suite": "not a workload; the test suite is timed by pytest",
}

DEFAULT_SEED = 0

# A fixed program that owes nothing to sievekit: interpreter start, numpy
# import, whole-array numpy work and a Python loop, the mix the jobs are
# made of.  run.py runs it between passes.  On a shared host the CPU
# speed can drift by more than the bounds over minutes; dividing pass
# times by the reference's time, taken in the same run, cancels most of
# that drift.
REFERENCE_CODE = ("import numpy as np\n"
                  "x = np.arange(2_000_000, dtype=np.int64)\n"
                  "for _ in range(5):\n"
                  "    x = (x * x + 1) % 1_000_003\n"
                  "s = 0\n"
                  "for i in range(1_000_000):\n"
                  "    s += i % 7\n")
REFERENCE_JOB = {"id": "reference", "kind": "reference", "argv": [],
                 "check": {"type": "empty"}}


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p:: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


def _cli(job_id: str, argv: list, check: dict) -> dict:
    return {"id": job_id, "kind": "cli", "argv": [str(a) for a in argv],
            "check": check}


def setup_job(workload: str, seed: int) -> dict:
    """A no-work process: interpreter start plus import (and, for the
    library session, the shared prime table)."""
    if workload == "survey-session":
        _x1, x2 = _session_windows(seed)
        return {"id": f"{workload}/setup", "kind": "session",
                "argv": ["--x2", str(x2), "--setup-only"],
                "check": {"type": "empty"}}
    return _cli(f"{workload}/setup", ["functions", "eval", "sigma2", "1"],
                {"type": "scalar", "name": "sigma2", "x": 1.0})


def _session_windows(seed: int) -> tuple[int, int]:
    rng = random.Random(f"survey-session:{seed}")
    return rng.randint(*SESSION_X1_RANGE), rng.randint(*SESSION_X2_RANGE)


def pass_jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one pass, in run order; identical for identical seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []

    def add(argv, check):
        jobs.append(_cli(f"{workload}/{len(jobs):02d}", argv, check))

    if workload == "certify":
        add(["verify", "all"], {"type": "theorems", "reports": 3})
        u = round(rng.uniform(*THM3_U_RANGE), 4)
        add(["verify", "thm3", "--u", u], {"type": "theorems", "reports": 1})
        vt = round(rng.uniform(*THM2_VARTHETA_RANGE), 6)
        add(["verify", "thm2", "--vartheta", vt],
            {"type": "theorems", "reports": 1})
        for branch in ("closed", "tabulated"):
            for name in rng.sample(("F", "f", "w"), EVALS_PER_BRANCH):
                x = round(rng.uniform(*EVAL_RANGES[branch][name]), 4)
                add(["functions", "eval", name, x],
                    {"type": "scalar", "name": name, "x": x})
        name = rng.choice(("F", "f", "w"))
        lo = round(rng.uniform(5.0, 11.0), 1)
        hi = round(lo + (TABLE_ROWS - 1) * TABLE_STEP, 1)
        add(["functions", "table", name, "--min", lo, "--max", hi,
             "--step", TABLE_STEP],
            {"type": "table", "name": name, "min": lo, "step": TABLE_STEP,
             "rows": table_rows(lo, hi, TABLE_STEP)})
        add(["plot-data", "c-beta", "--r", 4], {"type": "c-beta"})
    elif workload == "window":
        X = rng.randint(*WINDOW_X_RANGE)
        for exp in ("chebyshev", "weighted", "almost-prime", "gpf",
                    "dartyge", "bt"):
            add(["empirical", exp, "--X", X], {"type": "experiment"})
        ell = rng.choice(Q_ELL_CHOICES)
        add(["empirical", "q-ell", "--X", X, "--ell", ell, "--oracle"],
            {"type": "experiment"})
    elif workload == "weil":
        add(["empirical", "weil", "--max-pq", rng.randint(*WEIL_MAX_PQ_RANGE)],
            {"type": "experiment"})
        lo, hi = WEIL_LITERAL_PQ_RANGE
        odd = [v for v in _primes_upto(hi // 200) if v >= 200]
        pairs = [(p, q) for p in odd for q in odd
                 if p < q and lo <= p * q <= hi]
        for _ in range(WEIL_LITERAL_SUMS):
            p, q = rng.choice(pairs)
            add(["empirical", "weil", "--p", p, "--q", q,
                 "--m", rng.randint(1, p * q - 1)], {"type": "experiment"})
    else:
        x1, x2 = _session_windows(seed)
        jobs.append({"id": f"{workload}/00", "kind": "session",
                     "argv": ["--x1", str(x1), "--x2", str(x2)],
                     "check": {"type": "session",
                               "reports": SESSION_REPORTS}})
    return jobs


def table_rows(lo: float, hi: float, step: float) -> int:
    """Row count of `functions table`, by the CLI's own formula."""
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def expected_table_builds(jobs: list[dict]) -> int:
    """F/f table builds a pass makes when every job rebuilds its tables:
    one per function eval of F/f/w, per thm3 and per plot-data, two for
    verify all, one per table row."""
    total = 0
    for job in jobs:
        argv = job["argv"]
        if job["kind"] != "cli":
            continue
        if argv[:2] == ["verify", "all"]:
            total += 2
        elif argv[:2] == ["verify", "thm3"]:
            total += 1
        elif argv[0] == "plot-data":
            total += 1
        elif argv[:2] == ["functions", "eval"] and argv[2] in ("F", "f", "w"):
            total += 1
        elif argv[:2] == ["functions", "table"] and argv[2] in ("F", "f", "w"):
            total += job["check"]["rows"]
    return total


# ---------------------------------------------------------------------------
# output checks

def _check_theorem(rep: dict, problems: list) -> None:
    margin = rep.get("margin")
    if not isinstance(margin, float) or not margin > 0.0:
        problems.append(f"{rep.get('name')}: margin {margin!r} not > 0")
    if rep.get("passed") is not True:
        problems.append(f"{rep.get('name')}: passed is not true")


def _check_experiment(rep: dict, problems: list) -> None:
    name = rep.get("name")
    c, res = rep.get("counters", {}), rep.get("residuals", {})
    if name == "chebyshev_decomposition":
        if not res.get("identity_rel", 1.0) <= 1e-9:
            problems.append(f"identity_rel {res.get('identity_rel')!r}")
    elif name == "weighted_sieve_experiment":
        if not res.get("psi_identity_rel", 1.0) <= 1e-9:
            problems.append(
                f"psi_identity_rel {res.get('psi_identity_rel')!r}")
        if c.get("weight_bound_violations") != 0:
            problems.append("weight_bound_violations != 0")
    elif name == "q_ell":
        if res.get("fast_vs_brute") != 0.0:
            problems.append(f"fast_vs_brute {res.get('fast_vs_brute')!r}")
    elif name == "weil_exhaustive":
        if c.get("violations") != 0 or c.get("direct_checks", 0) < 1:
            problems.append(f"weil counters {c!r}")
    elif name == "weil_sum_check":
        if not (c.get("degenerate") or c.get("bound_holds")):
            problems.append("Weil bound fails on a non-degenerate sum")
    elif name == "almost_prime_survey":
        levels = [c.get(f"r={j}", -1) for j in range(1, 7)]
        if levels != sorted(levels) \
                or levels[-1] > c.get("window_odd_primes", -1):
            problems.append(f"almost-prime counts not monotone: {levels}")
    elif name == "gpf_survey":
        if not 0 < c.get("qualifiers", 0) <= c.get("window_primes", -1):
            problems.append(f"gpf counters {c!r}")
    elif name == "dartyge_survey":
        hist = sum(v for k, v in c.items() if k.startswith("hist_"))
        if hist != c.get("qualifiers"):
            problems.append("dartyge histogram does not sum to qualifiers")
    elif name == "bt_exception_count":
        if not 0 <= c.get("exceptions", -1) <= c.get("moduli", -1):
            problems.append(f"bt counters {c!r}")
    else:
        problems.append(f"unexpected report name {name!r}")


def _closed_form(name: str, x: float) -> float | None:
    """Closed-form branch value, recomputed here, or None if tabulated."""
    if name == "sigma2":
        return EIGHT_E_2GAMMA / (x * x)
    if name == "F" and x <= 3.0:
        return TWO_E_GAMMA / x
    if name == "f" and x <= 2.0:
        return 0.0
    if name == "f" and x <= 4.0:
        return TWO_E_GAMMA * math.log(x - 1.0) / x
    if name == "w" and x <= 2.0:
        return 1.0 / x
    if name == "w" and x <= 3.0:
        return (1.0 + math.log(x - 1.0)) / x
    return None


def _check_value(name: str, x: float, value: float, problems: list) -> None:
    """Closed forms to 1e-13 relative; elsewhere the marches' bands."""
    exact = _closed_form(name, x)
    if exact is not None:
        if not math.isclose(value, exact, rel_tol=1e-13, abs_tol=1e-300):
            problems.append(f"{name}({x}) = {value!r}, closed form {exact!r}")
        return
    band = {"F": (1.0 - 1e-9, TWO_E_GAMMA / 3.0), "f": (0.0, 1.0 + 1e-9),
            "w": (0.5 - 1e-9, 1.0)}[name]
    if not band[0] <= value <= band[1]:
        problems.append(f"{name}({x}) = {value!r} outside {band}")


def check_output(job: dict, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    problems: list[str] = []
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    check = job["check"]
    kind = check["type"]
    try:
        text = stdout.decode("utf-8")
        if kind == "empty":
            if text:
                problems.append("unexpected output")
        elif kind == "scalar":
            _check_value(check["name"], float(check["x"]),
                         float(text.strip()), problems)
        elif kind == "table":
            lines = text.splitlines()
            if lines[0] != "x,value" or len(lines) != check["rows"] + 1:
                problems.append(f"table has {len(lines) - 1} rows, "
                                f"expected {check['rows']}")
            for i, line in enumerate(lines[1:]):
                x_text, value = line.split(",")
                x = check["min"] + i * check["step"]
                if x_text != f"{x:.6f}":
                    problems.append(f"table row {i} has x = {x_text}")
                _check_value(check["name"], x, float(value), problems)
        elif kind == "c-beta":
            rows = [line.split(",") for line in text.splitlines()[1:]]
            cs = [float(c) for _b, c, _m in rows]
            marked = [i for i, (_b, _c, m) in enumerate(rows) if m == "1"]
            if len(marked) != 1 or cs[marked[0]] != max(cs) or max(cs) <= 0:
                problems.append("c-beta curve maximum is not marked once")
        else:
            payload = json.loads(text)
            if payload.get("schema") != 1:
                problems.append("missing schema tag")
            reports = payload.get("reports", [payload])
            if kind in ("theorems", "session") \
                    and len(reports) != check["reports"]:
                problems.append(f"{len(reports)} reports, "
                                f"expected {check['reports']}")
            for rep in reports:
                if kind == "theorems":
                    _check_theorem(rep, problems)
                else:
                    _check_experiment(rep, problems)
    except (UnicodeDecodeError, ValueError, KeyError, IndexError,
            AttributeError, TypeError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems

