"""sievekit benchmark: seeded workloads timed from outside the program.

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Jobs run as a single-client closed loop:
exactly one job process is alive at a time, and the next starts only after
the previous one is reaped with ``os.wait4``, which gives that job's own
CPU time and peak RSS.  A pass is the workload's job list in order; passes
repeat while the next one is expected to end within ``--seconds`` (at
least one pass always runs).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json: the median pass wall time and CPU time, each divided by
the median of the same for a fixed reference job run before and after
every pass (``wall_per_ref``, ``cpu_per_ref``: the reference cancels the
drift of a shared host's CPU speed; the raw seconds are in the result
file), the median over passes of the largest per-job peak RSS, and the
median of several timed no-work jobs (``setup_s``).

With ``--trace 1`` one untraced pass runs first, then the passes run under
``tracer.py`` and the line carries the per-layer metrics; the untraced
pass gives the tracing overhead and the stdout digests the traced jobs
must reproduce.

Every job's output is checked (exit code, parse, hard invariants); for the
default seed its stdout sha256 must also match ``digests.json``, recorded
at the seed commit.  A full result file, with host facts, the job list and
the rationale, goes to ``bench/results/``.

    python3 bench/run.py --record-digests    # rewrite digests.json

Stdlib only; sievekit and numpy are loaded by the job processes alone.
That also keeps this process small, which matters for peak RSS: on Linux a
child's ru_maxrss starts from its parent's RSS at spawn, because exec
records the high-water mark of the memory image it replaces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_SAMPLES = 5
# A job still running when the run is RUN_LIMIT_S old is killed (and
# counted as failed), so a hung program cannot keep the run from ending.
RUN_LIMIT_S = 170.0
_started = time.perf_counter()


def job_env(root: str) -> dict[str, str]:
    """Inherited environment minus sievekit's own knobs, with src/ on the
    path: the program sees only the generated argv."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SIEVEKIT_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def job_command(job: dict, spans_path: str | None) -> list[str]:
    if spans_path is not None:
        return [sys.executable, os.path.join(HERE, "tracer.py"), spans_path,
                job["id"], job["kind"], *job["argv"]]
    if job["kind"] == "cli":
        return [sys.executable, "-m", "sievekit.cli", *job["argv"]]
    if job["kind"] == "reference":
        return [sys.executable, "-c", wl.REFERENCE_CODE]
    return [sys.executable, os.path.join(HERE, "session.py"), *job["argv"]]


def digest_key(job: dict) -> str:
    return " ".join([job["kind"], *job["argv"]])


def run_job(job: dict, env: dict, root: str,
            spans_path: str | None = None) -> dict:
    """Spawn one job, drain its stdout, reap it; time from spawn to reap."""
    with tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job_command(job, spans_path), cwd=root,
                                env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(
            RUN_LIMIT_S - (time.perf_counter() - _started), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    problems = wl.check_output(job, proc.returncode, out)
    if problems and stderr:
        problems.append("stderr: " + stderr.strip()[-300:])
    return {"id": job["id"], "key": digest_key(job),
            "returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is KiB
            "sha256": hashlib.sha256(out).hexdigest(), "problems": problems}


def run_pass(jobs: list[dict], env: dict, root: str,
             spans_dir: str | None = None) -> dict:
    results = []
    for job in jobs:
        spans = None
        if spans_dir is not None:
            spans = os.path.join(spans_dir,
                                 job["id"].replace("/", "-") + ".spans")
        result = run_job(job, env, root, spans)
        result["spans"] = spans
        results.append(result)
    return {"traced": spans_dir is not None,
            "wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "jobs": results}


def check_digests(results: list[dict], expected: dict[str, str],
                  what: str) -> None:
    for r in results:
        want = expected.get(r["key"])
        if want is None:
            r["problems"].append(f"no {what} digest for {r['key']!r}")
        elif want != r["sha256"]:
            r["problems"].append(f"stdout differs from the {what} digest")


# ---------------------------------------------------------------------------
# metrics

def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    out = {"value": statistics.median(values), "samples": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def layer_metrics(traced: list[dict], untraced_wall: float
                  ) -> dict[str, list[float]]:
    """Per traced pass: calls and self time of every wrapped function and
    layer module, the work counters, and the derived ratios."""
    per_pass: list[dict[str, float]] = []
    for p in traced:
        m: dict[str, float] = {}
        imports, distinct_builds, distinct_windows = [], 0, 0
        for r in p["jobs"]:
            trace = tracer.load_spans(r["spans"])
            for name, row in tracer.layer_table(trace).items():
                module = name.split(".")[0]
                m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + row["calls"]
                for key in (f"{name}.self_s", f"{module}.self_s"):
                    m[key] = m.get(key, 0.0) + row["self_s"]
            for key, value in trace["counters"].items():
                m[key] = m.get(key, 0) + value
            imports.append(trace["import_s"])
            distinct_builds += trace["table_builds_distinct"]
            distinct_windows += trace["strike_windows_distinct"]
        builds = (m.get("sieve_functions.build_sieve_tables.calls", 0)
                  + m.get("sieve_functions.build_buchstab_table.calls", 0))
        passes = m.get("experiments.strike_passes", 0)
        m["sieve_functions.march_reuse"] = distinct_builds / builds \
            if builds else 0.0
        m["experiments.strike_reuse"] = distinct_windows / passes \
            if passes else 0.0
        m["proc.import_s"] = statistics.median(imports)
        m["proc.trace_overhead_s"] = p["wall_s"] - untraced_wall
        per_pass.append(m)
    names = sorted(set().union(*per_pass))
    return {n: [m.get(n, 0.0) for m in per_pass] for n in names}


def host_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# entry points

def record_digests(root: str) -> int:
    """Run every workload's default-seed jobs once and store their digests."""
    env = job_env(root)
    table: dict[str, dict[str, str]] = {}
    bad = 0
    for workload in wl.WORKLOADS:
        jobs = [wl.setup_job(workload, wl.DEFAULT_SEED),
                *wl.pass_jobs(workload, wl.DEFAULT_SEED)]
        for r in run_pass(jobs, env, root)["jobs"]:
            if r["problems"]:
                bad += 1
                print(f"{r['id']}: {r['problems']}", file=sys.stderr)
            table.setdefault(workload, {})[r["key"]] = r["sha256"]
    if bad:
        return 1
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": wl.DEFAULT_SEED, "digests": table}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_job kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "sievekit", "cli.py")) \
            or not os.path.isfile(spec_path):
        print("error: run from a sievekit checkout root (src/sievekit and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.record_digests:
        return record_digests(root)
    if args.workload is None:
        parser.error("--workload is required")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    env = job_env(root)
    setup = wl.setup_job(args.workload, args.seed)
    jobs = wl.pass_jobs(args.workload, args.seed)
    expected = None
    if args.seed == wl.DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh)["digests"].get(args.workload, {})

    # The first process of a checkout compiles bytecode caches; users pay
    # that once, so it is run untimed.
    warmup = run_job(setup, env, root)
    setup_runs = [] if args.trace else \
        [run_job(setup, env, root) for _ in range(SETUP_SAMPLES)]

    passes: list[dict] = []
    spans_dir = tempfile.mkdtemp(prefix="spans-", dir=RESULTS)
    try:
        t_start = time.perf_counter()
        if args.trace:
            passes.append(run_pass(jobs, env, root))
        # Closed loop: another pass starts only if it is expected (median
        # pass so far) to end within --seconds, so a run lasts at most about
        # --seconds however long a pass takes.
        # Untraced passes are bracketed by reference jobs.
        refs = [] if args.trace else [run_job(wl.REFERENCE_JOB, env, root)]
        walls: list[float] = []
        while not walls or time.perf_counter() - t_start \
                + statistics.median(walls) <= args.seconds:
            passes.append(run_pass(jobs, env, root,
                                   spans_dir if args.trace else None))
            walls.append(passes[-1]["wall_s"])
            if not args.trace:
                refs.append(run_job(wl.REFERENCE_JOB, env, root))
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        for p in passes:
            if expected is not None:
                check_digests(p["jobs"], expected, "recorded")
            if p["traced"]:
                check_digests(p["jobs"], {r["key"]: r["sha256"]
                                          for r in untraced[0]["jobs"]},
                              "untraced")
        if expected is not None:
            check_digests([warmup, *setup_runs], expected, "recorded")
        layers = layer_metrics(traced, untraced[0]["wall_s"]) \
            if traced else {}
    finally:
        shutil.rmtree(spans_dir, ignore_errors=True)

    runs = [warmup, *setup_runs, *refs,
            *(r for p in passes for r in p["jobs"])]
    failed = sum(1 for r in runs if r["problems"])
    samples = {"wall_s": [p["wall_s"] for p in untraced],
               "cpu_s": [p["cpu_s"] for p in untraced],
               "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
               "setup_s": [r["wall_s"] for r in setup_runs],
               "reference_wall_s": [r["wall_s"] for r in refs],
               "reference_cpu_s": [r["cpu_s"] for r in refs]}
    if refs:
        for key in ("wall", "cpu"):
            samples[f"{key}_per_ref"] = [
                statistics.median(samples[f"{key}_s"])
                / statistics.median(samples[f"reference_{key}_s"])]
    samples.update(layers)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in group:
        values = samples.get(m["name"], [0.0])
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}

    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host_facts(),
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == args.workload),
        "rationale": wl.RATIONALE[args.workload],
        "layer_expectations": wl.LAYER_EXPECTATIONS,
        "baseline_coverage": wl.BASELINE_COVERAGE,
        "setup_job": setup, "jobs": jobs,
        "runner_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(runs), "failed": failed,
        "fail_frac": failed / len(runs),
        "metrics": {name: spread(values) for name, values in samples.items()
                    if values},
        "setup_runs": setup_runs, "warmup": warmup, "references": refs,
        "passes": passes,
    }
    if args.workload == "certify" and traced:
        result["table_builds"] = {
            "if_rebuilt_per_call": wl.expected_table_builds(jobs),
            "observed": layers["sieve_functions.build_sieve_tables.calls"]}
    out_path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    for r in runs:
        if r["problems"]:
            print(f"FAILED {r['id']} ({r['key']}): {r['problems']}",
                  file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{len(runs)} jobs failed; results in {out_path}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
