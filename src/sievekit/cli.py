"""Command-line surface: verifications, function evaluation, experiments.

Four machine-oriented output shapes: theorem and experiment reports as
versioned JSON, function tables and curves as CSV, and a Markdown digest
aggregated from saved JSON.  Every run is deterministic for a fixed set of
inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
from fractions import Fraction

from . import experiments, theorems
from .experiments import SmoothWeight
from .primes import MAX_SIEVE_LIMIT, sieve_primes
from .reports import ExperimentReport, markdown_summary, to_json
from .sieve_functions import (buchstab_w, build_buchstab_table,
                              build_sieve_tables, eval_F, eval_f,
                              selberg_sigma2)

FUNCTION_NAMES = ("F", "f", "w", "sigma2", "gamma_theta")
EXPERIMENT_NAMES = ("q-ell", "q-ell-u", "phi", "phi-coprime", "a-d", "bv",
                    "wolke", "chebyshev", "bt", "weil", "square-sieve",
                    "weighted", "almost-prime", "gpf", "dartyge")

DEFAULTS = {
    "X": 10000, "ell": 5, "u": 11.2, "theta0": 0.9926, "vartheta": 0.847,
    "theta": 0.55, "alpha": 1.0 / 12.0, "beta": 0.622, "r": 4, "k": 1,
    "z": 10.0, "d": 1, "a": 1, "L": 4, "p": 3, "q": 5, "m": 1,
    "weight": "sharp", "epsilon0": 0.1, "table_step": 1e-4,
    "beta_step": 1e-3, "step": 0.01,
}

class ConfigError(ValueError):
    """Bad key or unparsable value in a config file."""


def _load_config(path: str, actions: dict[str, argparse.Action]
                 ) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in actions:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            entries[key] = value
    return entries


def _apply_config(args: argparse.Namespace, config: dict[str, str],
                  actions: dict[str, argparse.Action]) -> None:
    """Fill unset options from the config file; flags always win.  Each
    value is converted and checked as its flag's argparse action does."""
    for key, raw in config.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        action = actions[key]
        try:
            value = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            allowed = ", ".join(map(repr, action.choices))
            raise ConfigError(f"config key {key!r}: invalid choice {value!r} "
                              f"(choose from {allowed})")
        setattr(args, key, value)


def _apply_defaults(args: argparse.Namespace) -> None:
    for key, value in DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _output(out: str | None):
    """Context manager for stdout, or for the --out file opened to write."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8")


def _emit(text: str, out: str | None) -> None:
    with _output(out) as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args: argparse.Namespace) -> int:
    reports = []
    targets = ("thm1", "thm2", "thm3") if args.target == "all" \
        else (args.target,)
    ftable = None if args.target == "thm2" \
        else build_sieve_tables(step=args.table_step)
    wtable = build_buchstab_table(step=args.table_step) \
        if "thm3" in targets else None
    for target in targets:
        if target == "thm2":
            reports.append(theorems.theorem2_integral(args.vartheta))
        elif target == "thm1":
            delta = min(theorems.solve_delta(), args.beta)
            params = theorems.WeightedSieveParams(
                alpha=args.alpha, beta=args.beta, delta=delta, r=args.r)
            reports.append(theorems.compute_C(params, ftable))
        else:
            reports.append(theorems.dartyge_margin(args.u, args.theta0,
                                                   ftable, wtable))
    payload = reports[0] if len(reports) == 1 else reports
    _emit(to_json(payload), args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# functions

def _function_evaluator(name: str, step: float):
    """Return x -> float value of the named function; marches tables once."""
    if name == "sigma2":
        return lambda x: selberg_sigma2(float(x))
    if name == "gamma_theta":
        return lambda x: float(theorems.gamma_theta(x))
    ftable = build_sieve_tables(step=step)
    wtable = build_buchstab_table(step=step)
    return {"F": lambda x: eval_F(float(x), ftable),
            "f": lambda x: eval_f(float(x), ftable),
            "w": lambda x: buchstab_w(float(x), wtable)}[name]


_TABLE_RANGES = {"F": (1.0, 12.0), "f": (0.5, 12.0), "w": (1.0, 12.0),
                 "sigma2": (0.1, 2.0), "gamma_theta": (0.5, 0.94)}
# A table row costs a few microseconds, so this cap serves in seconds.
MAX_TABLE_ROWS = 10 ** 6


def _cmd_functions(args: argparse.Namespace) -> int:
    if args.action == "eval":
        try:
            x = (Fraction if args.name == "gamma_theta" else float)(args.x)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"x must be a number, got {args.x!r}") from None
        value = _function_evaluator(args.name, args.table_step)(x)
        _emit(f"{value:.17g}\n", args.out)
        return 0
    lo_default, hi_default = _TABLE_RANGES[args.name]
    lo = lo_default if args.min is None else args.min
    hi = hi_default if args.max is None else args.max
    if not (hi > lo and args.step > 0):
        raise ValueError(f"bad table range [{lo}, {hi}] at step {args.step}")
    span = (hi - lo) / args.step
    if not span < MAX_TABLE_ROWS:  # an infinite range is refused here too
        raise ValueError(f"table of {span + 1:.0f} rows exceeds the cap of "
                         f"{MAX_TABLE_ROWS} rows")
    count = int(math.floor(span + 1e-9)) + 1
    evaluate = _function_evaluator(args.name, args.table_step)
    # Every domain is an interval, so if both end rows evaluate, all rows do:
    # a range that leaves the domain fails here, before anything is written.
    evaluate(lo)
    evaluate(lo + (count - 1) * args.step)
    with _output(args.out) as handle:
        handle.write("x,value\n")
        for i in range(count):
            x = lo + i * args.step
            handle.write(f"{x:.6f},{evaluate(x):.17g}\n")
    return 0


# ---------------------------------------------------------------------------
# empirical

def _scalar_report(name: str, params: dict, value: float,
                   extra: dict | None = None) -> ExperimentReport:
    return ExperimentReport(name=name, params=params,
                            aggregates={"value": value, **(extra or {})})


def _run_experiment(args: argparse.Namespace):
    """Returns (report, hard_invariants_ok)."""
    w = SmoothWeight(mode=args.weight, epsilon0=args.epsilon0)
    name = args.experiment
    if name == "weil":
        if args.max_pq is not None:
            report = experiments.weil_exhaustive(args.max_pq)
            return report, report.counters["violations"] == 0
        report = experiments.weil_sum_check(args.p, args.q, args.m)
        ok = bool(report.counters["degenerate"]
                  or report.counters["bound_holds"])
        return report, ok

    X = args.X
    cap = experiments.X_FACTOR_CAP if name in (
        "bv", "wolke", "chebyshev", "bt", "square-sieve", "weighted",
        "almost-prime", "gpf", "dartyge") else MAX_SIEVE_LIMIT // 2
    if X > cap:
        # the experiment or its table to 2X would refuse this X, so refuse
        # it by name before the table is sieved
        experiments._check_window(X, cap)
    table = sieve_primes(max(2 * X, 10 ** 5))
    if name == "q-ell":
        value = experiments.Q_ell(X, args.ell, w, table)
        params = {"X": X, "ell": args.ell, "weight": args.weight}
        if args.oracle:
            brute = experiments.Q_ell_brute(X, args.ell, w, table)
            report = ExperimentReport(
                name="q_ell", params=params, aggregates={"value": value},
                residuals={"fast_vs_brute": abs(value - brute)})
            return report, report.residuals["fast_vs_brute"] == 0.0
        return _scalar_report("q_ell", params, value), True
    if name == "q-ell-u":
        value = experiments.Q_ell_u(X, args.ell, args.u, w, table)
        return _scalar_report("q_ell_u", {"X": X, "ell": args.ell,
                                          "u": args.u,
                                          "weight": args.weight}, value), True
    if name == "phi":
        value = experiments.phi_sifted(X, args.z, args.d, args.a, w, table)
        return _scalar_report("phi_sifted", {"X": X, "z": args.z,
                                             "d": args.d, "a": args.a,
                                             "weight": args.weight}, value), \
            True
    if name == "phi-coprime":
        value = experiments.phi_sifted_coprime(X, args.z, args.d, w, table)
        return _scalar_report("phi_sifted_coprime",
                              {"X": X, "z": args.z, "d": args.d,
                               "weight": args.weight}, value), True
    if name == "a-d":
        value = experiments.A_d_count(X, args.ell, args.d, w, table)
        r_d = value - experiments.A_d_model(X, args.ell, args.d, w, table)
        return _scalar_report("a_d_count", {"X": X, "ell": args.ell,
                                            "d": args.d,
                                            "weight": args.weight},
                              value, {"r_d": r_d}), True
    if name == "bv":
        return experiments.bv_error_average(X, args.k, w, table), True
    if name == "wolke":
        return experiments.wolke_error_average(X, args.z, args.k, w,
                                               table), True
    if name == "chebyshev":
        report = experiments.chebyshev_decomposition(X, args.vartheta, w,
                                                     table)
        return report, report.residuals["identity_rel"] <= 1e-9
    if name == "bt":
        return experiments.bt_exception_count(X, args.theta, w, table), True
    if name == "square-sieve":
        count = experiments.square_sieve_count(X, args.L, table)
        report = ExperimentReport(name="square_sieve_count",
                                  params={"X": X, "L": args.L},
                                  counters={"count": count})
        return report, True
    if name == "weighted":
        delta = min(theorems.solve_delta(), args.beta)
        params = theorems.WeightedSieveParams(
            alpha=args.alpha, beta=args.beta, delta=delta, r=args.r)
        report = experiments.weighted_sieve_experiment(X, params, w, table)
        ok = (report.residuals["psi_identity_rel"] <= 1e-9
              and report.counters["weight_bound_violations"] == 0)
        return report, ok
    if name == "almost-prime":
        return experiments.almost_prime_survey(X, args.r, table, w), True
    if name == "gpf":
        return experiments.gpf_survey(X, args.vartheta, table), True
    return experiments.dartyge_survey(X, args.u, table), True


def _cmd_empirical(args: argparse.Namespace) -> int:
    report, ok = _run_experiment(args)
    _emit(to_json(report), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# plot-data and report

def _cmd_plot_data(args: argparse.Namespace) -> int:
    theorems.beta_grid(args.r, args.beta_step)  # refuse before any march
    ftable = build_sieve_tables(step=args.table_step)
    beta_star, _c_star, curve = theorems.optimize_beta(
        args.r, args.alpha, ftable, step=args.beta_step)
    lines = ["beta,C,is_max"]
    for beta, c in curve:
        lines.append(f"{beta:.6f},{c:.17g},{int(beta == beta_star)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _is_number(value) -> bool:
    return isinstance(value, float) or (
        type(value) is int and abs(value) <= sys.float_info.max)


def _report_entry_problem(entry) -> str | None:
    """Why markdown_summary cannot render this report dict, or None."""
    if not (isinstance(entry, dict) and "name" in entry):
        return "every report needs a 'name' key"
    if "margin" in entry and not (_is_number(entry["margin"])
                                  and isinstance(entry.get("passed"), bool)):
        return "a theorem report needs a numeric 'margin' and a bool 'passed'"
    for key in ("counters", "aggregates", "residuals"):
        if not isinstance(entry.get(key, {}), dict):
            return f"{key!r} is not a JSON object"
    for key in ("aggregates", "residuals"):
        if not all(_is_number(v) for v in entry.get(key, {}).values()):
            return f"every {key!r} value must be a number"
    return None


def _cmd_report(args: argparse.Namespace) -> int:
    payloads = []
    for path in args.files:
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: top level is not a JSON object")
        if data.get("schema") != 1:
            raise ValueError(f"{path}: missing or unsupported schema tag")
        entries = data["reports"] if "reports" in data else [data]
        if not isinstance(entries, list):
            raise ValueError(f"{path}: every report needs a 'name' key")
        for entry in entries:
            if problem := _report_entry_problem(entry):
                raise ValueError(f"{path}: {problem}")
        payloads.extend(entries)
    _emit(markdown_summary(payloads), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievekit",
        description="Verified sieve constants and window experiments for "
                    "quadratic values at prime arguments.")
    # every option a config file may set, by dest; each parses it alike
    config_actions: dict[str, argparse.Action] = {}

    def option(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
        action = p.add_argument(flag, default=None, **kwargs)
        config_actions[action.dest] = action

    parser.add_argument("--config", help="key = value parameter file")
    option(parser, "--out", help="write output to this path")

    # The same flags are accepted after the subcommand; SUPPRESS keeps an
    # absent trailing flag from clobbering a value parsed at the front.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run theorem verifications",
                            parents=[common])
    verify.add_argument("target", choices=("thm1", "thm2", "thm3", "all"))
    for flag in ("--vartheta", "--u", "--theta0", "--alpha", "--beta"):
        option(verify, flag, type=float)
    option(verify, "--r", type=int)
    option(verify, "--table-step", dest="table_step", type=float)

    func = sub.add_parser("functions", help="evaluate or dump sieve functions")
    fsub = func.add_subparsers(dest="action", required=True)
    feval = fsub.add_parser("eval", parents=[common])
    feval.add_argument("name", choices=FUNCTION_NAMES)
    feval.add_argument("x")
    option(feval, "--table-step", dest="table_step", type=float)
    ftab = fsub.add_parser("table", parents=[common])
    ftab.add_argument("name", choices=FUNCTION_NAMES)
    for flag in ("--min", "--max", "--step"):
        option(ftab, flag, type=float)
    option(ftab, "--table-step", dest="table_step", type=float)

    emp = sub.add_parser("empirical", help="run a window experiment",
                         parents=[common])
    emp.add_argument("experiment", choices=EXPERIMENT_NAMES)
    for flag in ("--X", "--ell", "--k", "--d", "--a", "--L", "--p", "--q",
                 "--m", "--r"):
        option(emp, flag, type=int)
    for flag in ("--u", "--z", "--theta", "--vartheta", "--alpha", "--beta",
                 "--epsilon0"):
        option(emp, flag, type=float)
    option(emp, "--weight", choices=("sharp", "bump", "plateau"))
    emp.add_argument("--oracle", action="store_true",
                     help="also run the brute-force path and compare")
    option(emp, "--max-pq", dest="max_pq", type=int,
           help="weil only: exhaustive scan over pq up to this")

    plot = sub.add_parser("plot-data", help="emit curve data as CSV",
                          parents=[common])
    plot.add_argument("curve", choices=("c-beta",))
    option(plot, "--r", type=int)
    option(plot, "--alpha", type=float)
    option(plot, "--beta-step", dest="beta_step", type=float)
    option(plot, "--table-step", dest="table_step", type=float)

    rep = sub.add_parser("report", help="aggregate JSON reports to Markdown",
                         parents=[common])
    rep.add_argument("files", nargs="+")
    parser._config_actions = config_actions
    return parser


_DISPATCH = {"verify": _cmd_verify, "functions": _cmd_functions,
             "empirical": _cmd_empirical, "plot-data": _cmd_plot_data,
             "report": _cmd_report}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # The process's own command line: what the imports built lives until
        # exit, so no collection, during the run or at shutdown, rescans it.
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.config:
            actions = parser._config_actions
            _apply_config(args, _load_config(args.config, actions), actions)
        _apply_defaults(args)
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
