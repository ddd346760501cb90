"""CLI surface: exit codes, determinism, config precedence, output shapes."""

import argparse
import contextlib
import inspect
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import cli, experiments, primes, sieve_functions
from sievekit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- verify

def test_verify_thm2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm2")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["name"] == "theorem2"
    assert data["passed"] is True
    assert data["computed"]["total"] == pytest.approx(
        1.4982769243276806, abs=1e-12)
    assert data["margin"] > 0.001


def test_verify_thm2_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify", "thm2")
    _, second, _ = run_cli(capsys, "verify", "thm2")
    assert first == second


def test_verify_thm1(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm1")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "theorem1"
    assert data["computed"]["C"] == pytest.approx(0.0568, abs=3e-3)


def test_verify_thm3(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm3")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "theorem3"
    assert data["margin"] == pytest.approx(0.3326412605, abs=1e-6)


def test_verify_thm3_containment_failure_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "verify", "thm3", "--u", "12.2")
    assert code == 1
    assert "sigma2 containment fails" in err
    assert "exceeds 2" in err


def test_verify_all_aggregates_with_and(capsys, tmp_path):
    out_path = str(tmp_path / "all.json")
    code, out, _ = run_cli(capsys, "verify", "all", "--out", out_path)
    assert code == 0
    assert out == ""  # everything went to the file
    data = json.loads(open(out_path, encoding="utf-8").read())
    assert data["schema"] == 1
    names = [r["name"] for r in data["reports"]]
    assert names == ["theorem1", "theorem2", "theorem3"]
    assert all(r["passed"] for r in data["reports"])


def test_verify_bad_target_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "thm9")
    assert code == 2


# ----------------------------------------------------------------- functions

def test_functions_eval_F(capsys):
    code, out, _ = run_cli(capsys, "functions", "eval", "F", "2")
    assert code == 0
    assert out.strip() == "1.781072417990198"


def test_functions_eval_gamma_theta_fraction(capsys):
    code, out, _ = run_cli(capsys, "functions", "eval", "gamma_theta",
                           "64/97")
    assert code == 0
    assert float(out) == pytest.approx(0.52061855670103097, abs=1e-15)


def test_functions_eval_sigma2_domain_error(capsys):
    code, _, err = run_cli(capsys, "functions", "eval", "sigma2", "3")
    assert code == 1
    assert "defined only for 0 < s <= 2" in err


def test_functions_table_csv(capsys):
    code, out, _ = run_cli(capsys, "functions", "table", "w",
                           "--min", "2", "--max", "3", "--step", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 4
    x, value = lines[1].split(",")
    assert float(x) == 2.0
    assert float(value) == 0.5
    assert float(lines[3].split(",")[1]) == pytest.approx(
        (1.0 + __import__("math").log(2.0)) / 3.0, abs=1e-12)


def test_functions_table_bad_range(capsys):
    code, _, err = run_cli(capsys, "functions", "table", "w",
                           "--min", "3", "--max", "2")
    assert code == 1
    assert "bad table range" in err


TABLE_BUILDS = [  # (F/f builds, w builds) per command
    ("functions table F --min 5 --max 5.5 --step 0.1", (1, 1)),
    ("verify all", (1, 1)),
    ("verify thm1", (1, 0)),
    ("plot-data c-beta --beta-step 0.05", (1, 0)),
    ("verify thm2", (0, 0)),
    ("functions eval sigma2 1", (0, 0)),
]


@pytest.mark.parametrize("argv,builds", TABLE_BUILDS,
                         ids=[a for a, _ in TABLE_BUILDS])
def test_each_table_is_marched_at_most_once(argv, builds, capsys,
                                            monkeypatch):
    calls = {"F/f": 0, "w": 0}

    def counting(key, build):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return build(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(cli, "build_sieve_tables",
                        counting("F/f", cli.build_sieve_tables))
    monkeypatch.setattr(cli, "build_buchstab_table",
                        counting("w", cli.build_buchstab_table))
    code, out, _ = run_cli(capsys, *argv.split(), "--table-step", "0.01")
    assert code == 0 and out
    assert (calls["F/f"], calls["w"]) == builds


@pytest.mark.parametrize("argv", [
    "functions eval F 6 --table-step 1e-8",
    "verify all --table-step 5e-7",
    "plot-data c-beta --table-step 1e-8",
    # these two used to march and then fail their build check
    "verify thm1 --table-step 1e-6",
    "functions eval w 6 --table-step 2.5e-6",
])
def test_table_step_below_floor_exits_1(argv, capsys, monkeypatch):
    # the floor check runs before numpy is touched: no table is allocated
    monkeypatch.setattr(sieve_functions, "np", None)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("error: step must be in [1e-05, 0.01], got ")
    assert "roundoff" in err


@pytest.mark.parametrize("argv,rows", [
    ("functions table F --step 1e-9", "11000000001"),
    ("functions table sigma2 --step 1e-9", "1900000001"),
    ("functions table F --max inf", "inf"),
])
def test_table_over_row_cap_exits_1_before_any_march(argv, rows, capsys,
                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was marched")
    monkeypatch.setattr(cli, "build_sieve_tables", refuse)
    monkeypatch.setattr(cli, "build_buchstab_table", refuse)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err == (f"error: table of {rows} rows exceeds the cap of "
                   f"{cli.MAX_TABLE_ROWS} rows\n")


@pytest.mark.parametrize("argv,last", [
    ("functions table F --max 20 --step 0.5", "20"),
    ("functions table sigma2 --min 1 --max 3 --step 0.5", "3"),
    ("functions table w --min 0.5 --max 2 --step 0.5", "0.5"),
])
def test_table_leaving_the_domain_writes_nothing(argv, last, capsys,
                                                 tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, err = run_cli(capsys, *argv.split(), "--out", str(out_path))
    assert code == 1 and out == ""
    assert not out_path.exists()
    assert err.startswith("error: ") and f"={last}" in err


def test_table_rows_are_streamed(capsys, tmp_path):
    # 19,001 rows: a list of the lines and its joined copy peak at ~2.7 MB;
    # streamed, the peak is what one call of main allocates (~0.3 MB cold)
    out_path = tmp_path / "sigma2.csv"
    tracemalloc.start()
    try:
        code = main(["functions", "table", "sigma2", "--step", "1e-4",
                     "--out", str(out_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 19_001
    assert peak < 2 ** 20


def test_readme_table_is_within_row_cap(capsys):
    code, out, _ = run_cli(capsys, "functions", "table", "w", "--max", "12",
                           "--step", "0.01")
    assert code == 0
    assert len(out.splitlines()) == 1 + 1101


def test_prime_table_beyond_memory_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(primes, "_mem_available_bytes", lambda: 2 ** 20)
    monkeypatch.setattr(primes, "np", None)
    code, out, err = run_cli(capsys, "empirical", "q-ell", "--X", "1000000")
    assert code == 1 and out == ""
    assert err == ("error: a prime table to 2000000 needs about 2 MiB, "
                   "more than the 1 MiB available\n")


def _window_beyond_memory(capsys, monkeypatch, experiment):
    # the prime table's check reads no limit, the window's reads 1 MiB
    readings = iter([None, 2 ** 20])
    monkeypatch.setattr(primes, "_mem_available_bytes",
                        lambda: next(readings))
    code, out, err = run_cli(capsys, "empirical", experiment, "--X", "100000")
    assert code == 1 and out == ""
    return err


def test_window_beyond_memory_exits_1(capsys, monkeypatch):
    err = _window_beyond_memory(capsys, monkeypatch, "gpf")
    assert err == ("error: the window of X = 100000 needs about 2 MiB, "
                   "more than the 1 MiB available\n")


def test_chebyshev_beyond_memory_exits_1(capsys, monkeypatch):
    err = _window_beyond_memory(capsys, monkeypatch, "chebyshev")
    assert err == ("error: the window of X = 100000 needs about 3 MiB, "
                   "more than the 1 MiB available\n")


def test_weighted_beyond_memory_exits_1(capsys, monkeypatch):
    # refused by the weighted sieve's own estimate, before the window's
    err = _window_beyond_memory(capsys, monkeypatch, "weighted")
    assert err == ("error: the window of X = 100000 needs about 3 MiB, "
                   "more than the 1 MiB available\n")


# ----------------------------------------------------------------- empirical

def test_empirical_q_ell_oracle(capsys):
    code, out, _ = run_cli(capsys, "empirical", "q-ell", "--X", "10000",
                           "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["residuals"]["fast_vs_brute"] == 0.0
    assert data["aggregates"]["value"] == 520.0


def test_empirical_weil_pair(capsys):
    code, out, _ = run_cli(capsys, "empirical", "weil",
                           "--p", "3", "--q", "5", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["aggregates"]["S"] == 1.0
    assert data["counters"]["bound_holds"] == 1


def test_empirical_weil_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "empirical", "weil", "--max-pq", "300")
    assert code == 0
    data = json.loads(out)
    assert data["counters"]["violations"] == 0


def test_empirical_chebyshev_hard_invariant(capsys):
    code, out, _ = run_cli(capsys, "empirical", "chebyshev", "--X", "10000")
    assert code == 0
    data = json.loads(out)
    assert data["residuals"]["identity_rel"] <= 1e-9


@pytest.mark.parametrize("X", ["2", "21", "300"])
def test_empirical_chebyshev_small_window_names_cause(capsys, X):
    # below X = 650 no prime power lies at or below X^flat
    code, out, err = run_cli(capsys, "empirical", "chebyshev", "--X", X)
    assert code == 1
    assert out == ""
    assert "no prime power at or below X^flat" in err


def test_empirical_weighted(capsys):
    code, out, _ = run_cli(capsys, "empirical", "weighted", "--X", "100000")
    assert code == 0
    data = json.loads(out)
    assert data["counters"]["weight_bound_violations"] == 0
    assert data["counters"]["omega_le_r"] == 7521


def test_empirical_a_d_counts_once(capsys, monkeypatch):
    calls = []
    real = experiments.A_d_count
    monkeypatch.setattr(experiments, "A_d_count",
                        lambda *a: calls.append(a) or real(*a))
    code, out, _ = run_cli(capsys, "empirical", "a-d", "--X", "20000",
                           "--ell", "65", "--d", "13")
    assert code == 0 and len(calls) == 1
    data = json.loads(out)
    model = experiments.A_d_model(*calls[0])
    assert data["aggregates"]["r_d"] == data["aggregates"]["value"] - model


BAD_INPUT = [
    ("a-d --d 0", "d must be >= 1, got 0"),
    ("a-d --d -3", "d must be >= 1, got -3"),
    ("phi --d 0", "d must be >= 1, got 0"),
    ("phi-coprime --d 0", "d must be >= 1, got 0"),
    ("bt --X 1", "X must be >= 2 so that log X > 0, got 1"),
]


@pytest.mark.parametrize("argv,cause", BAD_INPUT,
                         ids=[a for a, _ in BAD_INPUT])
def test_empirical_bad_input_names_cause(capsys, argv, cause):
    code, out, err = run_cli(capsys, "empirical", *argv.split())
    assert code == 1 and out == ""
    assert err == f"error: {cause}\n"


def test_empirical_overflow_guard(capsys):
    code, _, err = run_cli(capsys, "empirical", "q-ell", "--X",
                           str(10 ** 9 + 1))
    assert code == 1
    assert "error:" in err


# the window-factoring experiments refuse X above X_FACTOR_CAP; for the
# others the prime table to 2X refuses X above MAX_SIEVE_LIMIT / 2
WINDOW_CAPS = [(name, experiments.X_FACTOR_CAP) for name in (
    "bv", "wolke", "chebyshev", "bt", "square-sieve", "weighted",
    "almost-prime", "gpf", "dartyge")] + [
    (name, primes.MAX_SIEVE_LIMIT // 2) for name in (
        "q-ell", "q-ell-u", "phi", "phi-coprime", "a-d")]
# just over the cap, and below 1, where the range named is still the cap's
WINDOW_REFUSALS = [
    pytest.param(name, cap, X, id=name if X > cap else f"{name}-X={X}")
    for name, cap in WINDOW_CAPS for X in (cap + 1, 0, -1)]


@pytest.fixture
def unsieved(monkeypatch):
    """Fail the test if the CLI sieves a prime table."""
    def refuse(limit):
        raise AssertionError(f"sieved to {limit} before refusing the input")
    monkeypatch.setattr(cli, "sieve_primes", refuse)


@pytest.mark.parametrize("experiment,cap,X", WINDOW_REFUSALS)
def test_window_over_factor_cap_exits_1_before_the_prime_table(
        capsys, unsieved, experiment, cap, X):
    # X is refused by name, so the table to 2X (about 4 GB at X = 4e8)
    # must not be sieved first
    code, out, err = run_cli(capsys, "empirical", experiment, "--X", str(X))
    assert code == 1 and out == ""
    assert err == f"error: X must be in [1, {cap}], got {X}\n"


@pytest.mark.parametrize("argv,cause", [
    ("--beta 0.7", "beta must stay below 0.68, got 0.7"),
    ("--r 0", "r must be >= 1, got 0"),
    ("--epsilon0 0.7", "epsilon0 must be in (0, 1/2), got 0.7"),
])
def test_weighted_parameters_exit_1_before_the_prime_table(capsys, unsieved,
                                                           argv, cause):
    code, out, err = run_cli(capsys, "empirical", "weighted", *argv.split())
    assert code == 1 and out == ""
    assert err == f"error: {cause}\n"


@pytest.mark.parametrize("experiment",
                         ["q-ell", "q-ell-u", "phi", "phi-coprime", "a-d"])
def test_count_window_beyond_memory_exits_1_before_the_prime_table(
        capsys, unsieved, monkeypatch, experiment):
    # the table to 2X fits in 1 MiB, the count's window (27 B per n) does
    # not, so the window is refused by name and the table never sieved
    monkeypatch.setattr(primes, "_mem_available_bytes", lambda: 2 ** 20)
    code, out, err = run_cli(capsys, "empirical", experiment, "--X", "100000")
    assert code == 1 and out == ""
    assert err == ("error: the window of X = 100000 needs about 3 MiB, "
                   "more than the 1 MiB available\n")


def test_numpy_memory_error_exits_1_naming_it(capsys, monkeypatch):
    # an allocation no admission check foresaw is still an exit-1 refusal
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError

    def allocate(*args):
        raise _ArrayMemoryError((10 ** 7,), np.dtype(np.float64))
    monkeypatch.setattr(experiments, "wolke_error_average", allocate)
    code, out, err = run_cli(capsys, "empirical", "wolke", "--X", "1000")
    assert code == 1 and out == ""
    assert err == ("error: Unable to allocate 76.3 MiB for an array with "
                   "shape (10000000,) and data type float64\n")


# the experiments whose function takes the window weight w, and those of
# them whose model term reads its mass
READS_WEIGHT = {"q-ell", "q-ell-u", "phi", "phi-coprime", "a-d", "bv",
                "wolke", "chebyshev", "bt", "weighted", "almost-prime"}
READS_MASS = {"a-d", "chebyshev", "bt"}
SMALL_WINDOW = ("--X", "2000")  # chebyshev needs X >= 650


@pytest.mark.parametrize("experiment", cli.EXPERIMENT_NAMES)
def test_each_experiment_passes_its_values_by_parameter_name(experiment):
    # fn is called positionally, so each declared value must sit at the
    # parameter of its own name
    spec = cli._experiments()[experiment]
    names = list(inspect.signature(spec.fn).parameters)
    assert spec.reads.split() == names
    assert (names[0] == "X") == (spec.cap is not None)
    assert ("w" in names) == (experiment in READS_WEIGHT)


def _window(experiment):
    """SMALL_WINDOW where the experiment reads X, else no flag."""
    return SMALL_WINDOW if cli._experiments()[experiment].cap else ()


@pytest.mark.parametrize("experiment", cli.EXPERIMENT_NAMES)
def test_epsilon0_is_checked_only_where_the_weight_is_read(capsys, tmp_path,
                                                         experiment):
    # a config file may set epsilon0 for any experiment; the flag is a
    # usage error where the weight is not read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon0 = 0.7\n")
    argv = ("empirical", experiment, *_window(experiment))
    code, out, err = run_cli(capsys, *argv, "--epsilon0", "0.7")
    by_config = run_cli(capsys, *argv, "--config", str(cfg))
    if experiment in READS_WEIGHT:
        assert code == 1 and out == ""
        assert err == "error: epsilon0 must be in (0, 1/2), got 0.7\n"
        assert by_config == (code, out, err)
    else:
        assert code == 2 and out == ""
        assert err == (f"usage error: empirical {experiment} does not read "
                       "--epsilon0\n")
        assert by_config == run_cli(capsys, *argv)
        assert by_config[0] == 0


@pytest.mark.parametrize("experiment", cli.EXPERIMENT_NAMES)
def test_oracle_is_a_usage_error_off_q_ell(capsys, experiment):
    code, out, err = run_cli(capsys, "empirical", experiment, *SMALL_WINDOW,
                             "--oracle")
    if experiment == "q-ell":
        assert code == 0
        assert json.loads(out)["residuals"] == {"fast_vs_brute": 0.0}
    else:
        assert code == 2 and out == ""
        assert err == (f"usage error: --oracle: empirical {experiment} "
                       "has no oracle\n")


@pytest.mark.parametrize("experiment", cli.EXPERIMENT_NAMES)
def test_weight_mass_is_integrated_only_where_it_is_read(capsys, monkeypatch,
                                                         tmp_path,
                                                         experiment):
    # the weight comes from a config file, which every experiment accepts
    calls = []
    real = experiments.integrate_checked
    monkeypatch.setattr(experiments, "integrate_checked",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weight = plateau\n")
    code, _, _ = run_cli(capsys, "empirical", experiment,
                         *_window(experiment), "--config", str(cfg))
    assert code == 0
    assert len(calls) == (experiment in READS_MASS)


# every value flag of `empirical`, by dest, with a value its type accepts
EMPIRICAL_FLAGS = {
    **{dest: "3" for dest in ("X", "ell", "k", "d", "a", "L", "p", "q", "m",
                              "r", "max_pq")},
    **{dest: "0.25" for dest in ("u", "z", "theta", "vartheta", "alpha",
                                 "beta", "epsilon0")},
    "weight": "sharp"}
# the flags behind the weight and the weighted sieve's parameters
BUILT_FROM = {"w": {"weight", "epsilon0"}, "params": {"alpha", "beta", "r"}}


def test_empirical_flag_list_is_the_parsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    emp = sub.choices["empirical"]
    dests = {a.dest for a in emp._actions if a.option_strings
             and a.default is None}
    assert dests == set(EMPIRICAL_FLAGS)


@pytest.mark.parametrize("experiment", cli.EXPERIMENT_NAMES)
def test_unread_flag_is_a_usage_error(capsys, tmp_path, experiment):
    # each flag the experiment does not read exits 2, naming the flag and
    # the experiment, before anything is built; the same key in a config
    # file is accepted and ignored
    reads = cli._experiments()[experiment].reads.split()
    read = set().union(*(BUILT_FROM.get(key, {key}) for key in reads))
    unread = [dest for dest in EMPIRICAL_FLAGS if dest not in read]
    assert unread
    for dest in unread:
        flag = "--" + dest.replace("_", "-")
        code, out, err = run_cli(capsys, "empirical", experiment,
                                 *_window(experiment), flag,
                                 EMPIRICAL_FLAGS[dest])
        assert (code, out) == (2, ""), flag
        assert err == (f"usage error: empirical {experiment} does not read "
                       f"{flag}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{dest} = {EMPIRICAL_FLAGS[dest]}\n"
                           for dest in unread))
    argv = ("empirical", experiment, *_window(experiment))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == \
        run_cli(capsys, *argv)


# -------------------------------------------------------- config precedence

def test_config_file_fills_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X = 2000\nell = 13  # comment survives\n")
    code, out, _ = run_cli(capsys, "empirical", "q-ell",
                           "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["params"]["X"] == 2000
    assert data["params"]["ell"] == 13
    assert data["aggregates"]["value"] == 41.0


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("X = 2000\nell = 13\n")
    code, out, _ = run_cli(capsys, "empirical", "q-ell",
                           "--config", str(cfg), "--ell", "5")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["X"] == 2000  # from file
    assert data["params"]["ell"] == 5   # flag wins


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run_cli(capsys, "empirical", "q-ell",
                           "--config", str(cfg))
    assert code == 2
    assert "unknown key 'bogus'" in err


def test_config_bad_line_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run_cli(capsys, "empirical", "q-ell",
                           "--config", str(cfg))
    assert code == 2
    assert "expected 'key = value'" in err


def test_config_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "empirical", "q-ell",
                           "--config", "/nonexistent/path.cfg")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("key,value,code", [
    ("weight", "foo", 2), ("X", "2.5", 2), ("max_pq", "1e3", 2),
    ("weight", "bump", 0)])
def test_config_value_exits_as_its_flag_does(capsys, tmp_path, key, value,
                                             code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_config, _, _ = run_cli(capsys, "empirical", "q-ell",
                              "--config", str(cfg))
    flag = "--" + key.replace("_", "-")
    by_flag, _, _ = run_cli(capsys, "empirical", "q-ell", flag, value)
    assert by_config == by_flag == code


# ------------------------------------------------------- out-of-range inputs

@pytest.mark.parametrize("argv,named", [
    ("functions eval F nan", "got s=nan"),
    ("functions eval w nan", "got u=nan"),
    ("functions eval gamma_theta nan", "x must be a number, got 'nan'"),
    ("functions eval gamma_theta inf", "x must be a number, got 'inf'"),
    ("functions eval gamma_theta abc", "x must be a number, got 'abc'"),
    ("verify thm2 --vartheta inf", "vartheta must"),
    ("verify thm2 --vartheta nan", "vartheta must"),
    ("empirical q-ell-u --X 1000 --u nan", "u must"),
    ("empirical dartyge --X 1000 --u nan", "u must"),
    ("empirical dartyge --X 1000 --u inf", "u must"),
    ("empirical phi --X 1000 --z nan", "z must"),
    ("empirical phi-coprime --X 1000 --z inf", "z must"),
    ("empirical wolke --X 1000 --z nan", "z must"),
    ("empirical wolke --X 100000 --k 10007", "k = 10007"),
    ("empirical bv --X 100000 --k 10007", "k = 10007"),
    ("empirical bv --k -1", "k must be >= 0, got -1"),
    ("empirical wolke --k -1", "k must be >= 0, got -1"),
    ("empirical q-ell --X 300 --ell 0",
     "ell must be in [1, 1000000000000], got 0"),
    ("empirical q-ell-u --X 300 --ell 0",
     "ell must be in [1, 1000000000000], got 0"),
    ("empirical a-d --X 300 --ell 0",
     "ell must be in [1, 1000000000000], got 0"),
    ("empirical weil --p 5 --q 5", "p and q must be distinct"),
    ("empirical weil --p 9 --q 5", "p and q must be odd primes, got 9, 5"),
    ("empirical phi --X 300 --d 6 --a 4",
     "a must be coprime to d = 6, got 4"),
    ("empirical weil --p 331 --q 337", "pq must be <= 1e5, got 111547"),
    ("empirical square-sieve --X 100 --L 200", "got L=200"),
    ("empirical square-sieve --X 500001 --L 500001",
     "L must be <= 500000, got L=500001: the count factors each ell in "
     "(L, 2L], and the cap bounds that work"),
    ("empirical chebyshev --X 1000 --vartheta 1.5", "vartheta must"),
    ("plot-data c-beta --r 0", "r must be >= 1, got 0"),
])
def test_out_of_range_input_exits_1_naming_it(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("error: ") and named in err
    for raw in ("cannot convert", "integer ratio", "too large to convert"):
        assert raw not in err


_FLOATS = ["-1", "0", "0.05", "0.5", "0.847", "0.99", "1", "2", "3.5",
           "11.2", "12.2", "14", "1e400", "-inf", "inf", "nan", "1/2", "abc"]
_INTS = ["-1", "0", "1", "2", "3", "5", "13", "650", "3000", "1e3", "abc"]
_TABLE_STEPS = ["-0.01", "0", "1e-8", "0.001", "0.01", "nan", "inf"]


def _options(ints=(), floats=(), choices=()):
    """Up to four (flag, value) pairs, flattened into argv words."""
    pairs = [(flag, _INTS) for flag in ints] + [
        (flag, _FLOATS) for flag in floats] + list(choices)
    pair = st.one_of([st.tuples(st.just(flag), st.sampled_from(values))
                      for flag, values in pairs])
    return st.lists(pair, max_size=4).map(
        lambda ps: [word for p in ps for word in p])


def _argv(*parts):
    """Concatenate strategies of word lists (a str is one fixed word)."""
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p
                       for p in parts)).map(lambda ws: sum(ws, []))


def _one_of(values):
    return st.sampled_from(values).map(lambda v: [v])


_TABLE_STEP = _argv("--table-step", _one_of(_TABLE_STEPS))
# Every window is X <= 3000 and every march coarse (table step >= 1e-3,
# beta step >= 0.01), so no case costs more than a few milliseconds.
_BOUNDED_ARGV = st.one_of(
    _argv("verify", _one_of(["thm1", "thm2", "thm3", "all", "thm9"]),
          _TABLE_STEP, _options(["--r"], ["--vartheta", "--u", "--theta0",
                                          "--alpha", "--beta"])),
    _argv("functions", "eval", _one_of([*cli.FUNCTION_NAMES, "G"]),
          _one_of(_FLOATS), _TABLE_STEP),
    _argv("functions", "table", _one_of(list(cli.FUNCTION_NAMES)),
          _TABLE_STEP, _options(choices=[
              ("--min", _FLOATS), ("--max", _FLOATS),
              ("--step", ["0.01", "0.5", "0", "-1", "nan", "inf"])])),
    _argv("empirical", _one_of(list(cli.EXPERIMENT_NAMES)), "--X",
          _one_of(["-1", "0", "1", "2", "21", "300", "650", "2345", "3000",
                   "abc"]),
          _options(["--ell", "--k", "--d", "--a", "--L", "--p", "--q", "--m",
                    "--r", "--max-pq"],
                   ["--u", "--z", "--theta", "--vartheta", "--alpha",
                    "--beta", "--epsilon0"],
                   [("--weight", ["sharp", "bump", "plateau", "flat"])]),
          st.sampled_from([[], ["--oracle"]])),
    _argv("plot-data", _one_of(["c-beta", "c-alpha"]), _TABLE_STEP,
          "--beta-step", _one_of(["0.01", "0.05", "0", "-1", "1", "nan"]),
          _options(["--r"], ["--alpha"])))
_RAW_PYTHON = re.compile("Traceback|has no attribute|unsupported operand|"
                         "invalid literal|could not convert|"
                         "math domain error|modulus must be|limit must be")
# what an exit-1 message names as its cause: a parameter (one of the CLI's,
# or the argument s or u of a sieve function) or a resource (memory in MiB,
# table rows); the residue a is named beside its modulus d
_CAUSES = re.compile(r"\b(X|ell|u|z|d|k|L|p|q|pq|max_pq|r|s|x|theta|theta0|"
                     r"vartheta|alpha|beta|epsilon0|step|min|max|MiB|rows)\b")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(argv=_BOUNDED_ARGV)
def test_bounded_argv_keeps_the_exit_contract(argv):
    # exit 0, 1 or 2; an exit-1 message names its cause in the program's
    # own words, from the fixed list; an exit 1 without one is a failed
    # check with its report
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1 and err.getvalue():
        assert err.getvalue().startswith("error: "), argv
        assert not _RAW_PYTHON.search(err.getvalue()), (argv, err.getvalue())
        assert _CAUSES.search(err.getvalue()[len("error: "):]), (
            argv, err.getvalue())
    elif code == 1:
        assert json.loads(out.getvalue()), argv


# ------------------------------------------------------- plot-data / report

@pytest.mark.parametrize("argv,message", [
    ("--beta-step 0", "beta step must be positive, got 0.0"),
    ("--beta-step -0.01", "beta step must be positive, got -0.01"),
    ("--beta-step 1", "the beta grid at step 1.0 has no point above "
                      "2/(r+1) = 0.4"),
    ("--r 1", "the beta grid at step 0.001 has no point above 2/(r+1) = 1"),
    ("--beta-step 1e-9", "a beta grid at step 1e-09 has about 270000000 "
                         "points, more than the cap of 10000"),
])
def test_plot_data_refuses_a_beta_grid_it_cannot_scan(argv, message, capsys,
                                                      monkeypatch):
    marches = []
    build = cli.build_sieve_tables
    monkeypatch.setattr(cli, "build_sieve_tables",
                        lambda **kw: marches.append(kw) or build(**kw))
    code, out, err = run_cli(capsys, "plot-data", "c-beta", "--table-step",
                             "0.01", *argv.split())
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert marches == []  # the grid is refused before F/f is marched


def test_plot_data_c_beta(capsys):
    code, out, _ = run_cli(capsys, "plot-data", "c-beta",
                           "--beta-step", "0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,C,is_max"
    rows = [line.split(",") for line in lines[1:]]
    max_rows = [r for r in rows if r[2] == "1"]
    assert len(max_rows) == 1
    assert float(max_rows[0][0]) == pytest.approx(0.62, abs=1e-9)
    # eta blow-up drives C negative at the left edge
    assert float(rows[0][1]) < 0.0


def test_report_aggregates_markdown(capsys, tmp_path):
    out_path = str(tmp_path / "all.json")
    run_cli(capsys, "verify", "all", "--out", out_path)
    code, out, _ = run_cli(capsys, "report", out_path)
    assert code == 0
    assert "# Run summary" in out
    assert "| theorem2 |" in out
    assert "| theorem1 |" in out
    assert "| theorem3 |" in out
    assert "NO" not in out


def test_report_rejects_unversioned_json(capsys, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text('{"name": "x"}')
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 1
    assert "schema" in err


@pytest.mark.parametrize("text,cause", [
    ("[1, 2]", "top level is not a JSON object"),
    ('"schema"', "top level is not a JSON object"),
    ('{"schema": 1, "margin": 0.5, "passed": true}', "needs a 'name' key"),
    ('{"schema": 1, "reports": [{"schema": 1}]}', "needs a 'name' key"),
    ('{"schema": 1, "reports": 7}', "needs a 'name' key"),
    ('{"schema": 1, "name": "t", "margin": 0.5}',
     "needs a numeric 'margin' and a bool 'passed'"),
    ('{"schema": 1, "name": "e", "counters": 5}',
     "'counters' is not a JSON object"),
    ("not json", "Expecting value"),
    ('{"schema": 1, "reports": [{"name": "t", "margin": "0.5", '
     '"passed": true}]}', "needs a numeric 'margin' and a bool 'passed'"),
    ('{"schema": 1, "name": "t", "margin": 0.5, "passed": 1}',
     "needs a numeric 'margin' and a bool 'passed'"),
    ('{"schema": 1, "name": "e", "aggregates": [1]}',
     "'aggregates' is not a JSON object"),
    ('{"schema": 1, "name": "e", "residuals": {"r": null}}',
     "every 'residuals' value must be a number"),
    # ints beyond the float range cannot be formatted as floats
    pytest.param('{"schema": 1, "name": "e", "aggregates": {"v": 1%s}}'
                 % ("0" * 400), "every 'aggregates' value must be a number",
                 id="aggregates-int-1e400"),
    pytest.param('{"schema": 1, "name": "t", "margin": -1%s, "passed": true}'
                 % ("0" * 400), "needs a numeric 'margin' and a bool 'passed'",
                 id="margin-int-minus-1e400"),
])
def test_report_malformed_json_names_file_and_cause(capsys, tmp_path, text,
                                                     cause):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "report", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ") and cause in err


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
