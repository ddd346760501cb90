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
from typing import Callable, NamedTuple

from . import experiments, theorems
from .experiments import SmoothWeight
from .primes import MAX_SIEVE_LIMIT, _admit_table, sieve_primes
from .reports import ExperimentReport, markdown_summary, to_json
from .sieve_functions import (DEFAULT_STEP, buchstab_w, build_buchstab_table,
                              build_sieve_tables, eval_F, eval_f,
                              selberg_sigma2)

DEFAULTS = {
    "X": 10000, "ell": 5, "u": 11.2, "theta0": 0.9926, "vartheta": 0.847,
    "theta": 0.55, "alpha": 1.0 / 12.0, "beta": 0.622, "r": 4, "k": 1,
    "z": 10.0, "d": 1, "a": 1, "L": 4, "p": 3, "q": 5, "m": 1,
    "weight": "sharp", "epsilon0": 0.1, "table_step": DEFAULT_STEP,
    "beta_step": 1e-3, "step": 0.01,
}

class UsageError(ValueError):
    """A usage error that argparse cannot see: a bad key or value in a
    config file, or a flag that the command does not read."""


def _load_config(path: str, actions: dict[str, argparse.Action]
                 ) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in actions:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
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
            raise UsageError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            allowed = ", ".join(map(repr, action.choices))
            raise UsageError(f"config key {key!r}: invalid choice {value!r} "
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


def _weighted_params(args: argparse.Namespace) -> theorems.WeightedSieveParams:
    """The weighted sieve's parameters, at delta = min(solve_delta(), beta)."""
    return theorems.WeightedSieveParams(
        alpha=args.alpha, beta=args.beta,
        delta=min(theorems.solve_delta(), args.beta), r=args.r)


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
            reports.append(theorems.compute_C(_weighted_params(args), ftable))
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
FUNCTION_NAMES = tuple(_TABLE_RANGES)
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

class _Experiment(NamedTuple):
    """One empirical experiment: fn and the values passed to it.  reads
    names them in the order of fn's parameters: a flag by its dest, or w
    (the window weight), params (the weighted sieve's) or table (the prime
    table to max(2X, 10^5)).  Only what is read is built, the table last."""
    fn: Callable
    reads: str  # the names, space-separated
    cap: int | None = experiments.X_FACTOR_CAP  # X's cap; None: no X
    passes: Callable[[ExperimentReport], bool] = lambda report: True
    count: str | None = None  # report name of a weighted count's number
    oracle: Callable | None = None  # the count's brute-force twin
    model: Callable | None = None  # the count's main term, for r_d


def _weil(max_pq: int | None, p: int, q: int, m: int) -> ExperimentReport:
    return experiments.weil_sum_check(p, q, m) if max_pq is None \
        else experiments.weil_exhaustive(max_pq)


def _square_sieve(X: int, L: int, table) -> ExperimentReport:
    return ExperimentReport(
        name="square_sieve_count", params={"X": X, "L": L},
        counters={"count": experiments.square_sieve_count(X, L, table)})


def _experiments() -> dict[str, _Experiment]:
    """Every experiment, by CLI name, in the order EXPERIMENT_NAMES keeps.
    The functions are looked up at each call, so a wrapper installed after
    import is the one run."""
    ex, E = experiments, _Experiment
    wide = MAX_SIEVE_LIMIT // 2  # a count sieves only the table to 2X
    return {
        "q-ell": E(ex.Q_ell, "X ell w table", wide,
                   lambda r: r.residuals.get("fast_vs_brute", 0.0) == 0.0,
                   count="q_ell", oracle=ex.Q_ell_brute),
        "q-ell-u": E(ex.Q_ell_u, "X ell u w table", wide, count="q_ell_u"),
        "phi": E(ex.phi_sifted, "X z d a w table", wide, count="phi_sifted"),
        "phi-coprime": E(ex.phi_sifted_coprime, "X z d w table", wide,
                         count="phi_sifted_coprime"),
        "a-d": E(ex.A_d_count, "X ell d w table", wide, count="a_d_count",
                 model=ex.A_d_model),
        "bv": E(ex.bv_error_average, "X k w table"),
        "wolke": E(ex.wolke_error_average, "X z k w table"),
        "chebyshev": E(ex.chebyshev_decomposition, "X vartheta w table",
                       passes=lambda r: r.residuals["identity_rel"] <= 1e-9),
        "bt": E(ex.bt_exception_count, "X theta w table"),
        # the scan's violations, or the one pair's bound_holds
        "weil": E(_weil, "max_pq p q m", None,
                  lambda r: r.counters.get("violations", 0) == 0
                  and r.counters.get("bound_holds", 1) == 1),
        "square-sieve": E(_square_sieve, "X L table"),
        "weighted": E(ex.weighted_sieve_experiment, "X params w table",
                      passes=lambda r: r.residuals["psi_identity_rel"] <= 1e-9
                      and r.counters["weight_bound_violations"] == 0),
        "almost-prime": E(ex.almost_prime_survey, "X r table w"),
        "gpf": E(ex.gpf_survey, "X vartheta table"),
        "dartyge": E(ex.dartyge_survey, "X u table"),
    }


EXPERIMENT_NAMES = tuple(_experiments())
# the flags each value of _Experiment.reads is built from; any other name
# is a flag's own dest
_BUILT_FROM = {"w": ("weight", "epsilon0"), "params": ("alpha", "beta", "r"),
               "table": ()}


def _refuse_unread_flags(args: argparse.Namespace,
                         actions: dict[str, argparse.Action]) -> None:
    """Refuse a command-line flag that the chosen experiment does not read.
    Run before the config file fills in: its keys stay exempt, so one file
    can serve several experiments."""
    name = args.experiment
    spec = _experiments()[name]
    if args.oracle and spec.oracle is None:
        raise UsageError(f"--oracle: empirical {name} has no oracle")
    read = {flag for key in spec.reads.split()
            for flag in _BUILT_FROM.get(key, (key,))}
    unread = [actions[dest].option_strings[0]
              for dest, value in vars(args).items()
              if value is not None and dest in actions and dest != "out"
              and dest not in read]
    if unread:
        raise UsageError(f"empirical {name} does not read {', '.join(unread)}")


def _cmd_empirical(args: argparse.Namespace) -> int:
    name, X = args.experiment, args.X
    spec = _experiments()[name]
    if spec.cap is not None:  # refuse X by name before the table is sieved
        experiments._check_window(X, spec.cap)

    def table():
        limit = max(2 * X, 10 ** 5)
        if spec.count is not None:  # refuse the count's window before sieving
            _admit_table(limit)
            experiments._check_window_memory(X, experiments._COUNT_BYTES_PER_N)
        return sieve_primes(limit)
    make = {"w": lambda: SmoothWeight(args.weight, args.epsilon0),
            "params": lambda: _weighted_params(args), "table": table}
    reads = spec.reads.split()
    made = {key: build() for key, build in make.items() if key in reads}
    values = [made[key] if key in made else getattr(args, key)
              for key in reads]
    report = spec.fn(*values)
    if spec.count is not None:
        aggregates, residuals = {"value": report}, {}
        if spec.model is not None:
            aggregates["r_d"] = report - spec.model(*values)
        if args.oracle:
            residuals["fast_vs_brute"] = abs(report - spec.oracle(*values))
        flags = {key: getattr(args, key) for key in reads if key not in made}
        report = ExperimentReport(spec.count, {**flags, "weight": args.weight},
                                  aggregates=aggregates, residuals=residuals)
    _emit(to_json(report), args.out)
    return 0 if spec.passes(report) else 1


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
    actions = parser._config_actions
    try:
        if args.command == "empirical":
            _refuse_unread_flags(args, actions)
        if args.config:
            _apply_config(args, _load_config(args.config, actions), actions)
        _apply_defaults(args)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
