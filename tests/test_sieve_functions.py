"""Marched linear-sieve tables against their closed forms and invariants."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import sieve_functions
from sievekit.sieve_functions import (
    E_MINUS_GAMMA,
    EIGHT_E_2GAMMA,
    MIN_STEP,
    Sigma2DomainError,
    TableBuildError,
    TableDomainError,
    TWO_E_GAMMA,
    _check_sieve_march,
    _grid_step_nodes,
    build_buchstab_table,
    build_sieve_tables,
    buchstab_w,
    eval_F,
    eval_f,
    selberg_sigma2,
)


def test_closed_form_pins(tables):
    assert eval_F(2.0, tables) == pytest.approx(
        1.7810724179901979, abs=1e-14)
    assert eval_F(3.0, tables) == TWO_E_GAMMA / 3.0
    assert eval_f(3.0, tables) == TWO_E_GAMMA * math.log(2.0) / 3.0
    assert eval_f(4.0, tables) == pytest.approx(
        TWO_E_GAMMA * math.log(3.0) / 4.0, abs=1e-14)
    assert eval_f(2.0, tables) == 0.0
    assert eval_f(1.0, tables) == 0.0


def test_quadrature_branch_continuity(tables):
    # F's quadrature branch must join the 2e^gamma/s arc at s=3 and the
    # table at s=5; f's log branch joins the table at s=4.
    assert eval_F(3.0 + 1e-12, tables) == pytest.approx(
        eval_F(3.0, tables), abs=1e-9)
    assert eval_F(5.0, tables) == pytest.approx(
        tables.interp(5.0, tables.F_values), abs=1e-6)
    assert eval_f(4.0, tables) == pytest.approx(
        tables.interp(4.0, tables.f_values), abs=1e-6)


def test_table_matches_closed_forms(tables):
    # acceptance-grade spot check on a fixed random sample
    rng = random.Random(1729)
    for _ in range(500):
        s = rng.uniform(1.0, 5.0)
        closed = eval_F(s, tables)
        assert tables.interp(s, tables.F_values) == pytest.approx(
            closed, abs=1e-6), s
    for _ in range(500):
        s = rng.uniform(1e-3, 4.0)
        closed = eval_f(s, tables)
        assert tables.interp(s, tables.f_values) == pytest.approx(
            closed, abs=1e-6), s


def test_march_step_halving_consistency(tables):
    # Same march at half resolution; trapezoid error is O(step^2), so the
    # two tables must agree far better than either step alone suggests.
    coarse = build_sieve_tables(step=2e-4)
    for s in (4.5, 6.0, 7.7, 9.3, 12.0):
        assert coarse.interp(s, coarse.F_values) == pytest.approx(
            tables.interp(s, tables.F_values), abs=4e-7)
        assert coarse.interp(s, coarse.f_values) == pytest.approx(
            tables.interp(s, tables.f_values), abs=4e-7)


def test_monotonicity_and_band(tables):
    i2 = round(2.0 / tables.step)
    slack = 10.0 * tables.step ** 2
    F, f = tables.F_values[i2:], tables.f_values[i2:]
    assert np.all(np.diff(F) <= slack)
    assert np.all(np.diff(f) >= -slack)
    assert np.all(F >= 1.0 - slack)
    assert np.all(f <= 1.0 + slack)
    gap = F - f
    assert np.all(gap >= -slack)
    assert np.all(np.diff(gap) <= slack)


def test_tables_converge_to_one(tables):
    assert eval_F(12.0, tables) == pytest.approx(1.0, abs=1e-7)
    assert eval_f(12.0, tables) == pytest.approx(1.0, abs=1e-7)
    assert eval_F(12.0, tables) >= eval_f(12.0, tables) - 1e-8


@given(st.floats(2.0, 11.9))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_F_dominates_f(tables, s):
    assert eval_F(s, tables) >= eval_f(s, tables) - 1e-9


def test_domain_errors(tables):
    with pytest.raises(TableDomainError):
        eval_F(0.0, tables)
    with pytest.raises(TableDomainError):
        eval_F(tables.s_max + 0.1, tables)
    with pytest.raises(TableDomainError):
        eval_f(-1.0, tables)


def test_build_rejects_bad_grid():
    with pytest.raises(ValueError):
        build_sieve_tables(step=0.02)
    with pytest.raises(ValueError):
        build_sieve_tables(step=3e-4)  # 1/step is not an integer
    with pytest.raises(ValueError):
        build_sieve_tables(s_max=4.0)


def test_build_rejects_step_below_floor(monkeypatch):
    # the floor is checked before numpy is touched, so nothing is allocated
    monkeypatch.setattr(sieve_functions, "np", None)
    for build in (build_sieve_tables, build_buchstab_table):
        for step in (5e-7, 1e-6, 2.5e-6):
            with pytest.raises(ValueError, match=r"must be in \[1e-05, 0.01\], "
                               r"got .*summation roundoff"):
                build(step=step)
    assert _grid_step_nodes(MIN_STEP, 14.0) == (10 ** 5, 14 * 10 ** 5 + 1)


def test_every_lag_down_to_the_floor_passes_its_build_checks():
    # lags 100 .. 10^5 (steps 0.01 .. 1e-5); every build check must hold
    lags = sorted({round(10 ** (2 + k / 8)) for k in range(25)})
    assert lags[0] == 100 and lags[-1] == 10 ** 5
    for lag in lags:
        ftable = build_sieve_tables(step=1.0 / lag)
        wtable = build_buchstab_table(step=1.0 / lag)
        assert len(ftable.s_grid) == len(wtable.u_grid) == 14 * lag + 1


# ------------------------------------------- block march vs per-node oracle

def _loop_sieve_tables(step, s_max):
    """Per-node (F, f) march, one trapezoid step at a time."""
    lag, n = round(1.0 / step), round(s_max / step) + 1
    s = np.arange(n, dtype=np.float64) * step
    F = np.empty(n)
    f = np.zeros(n)
    F[0] = np.nan
    F[1:] = TWO_E_GAMMA / s[1:]
    i2, i3 = 2 * lag, 3 * lag
    y1, y2 = TWO_E_GAMMA, 0.0
    half = 0.5 * step
    for i in range(i2, n - 1):
        y2 += half * (F[i - lag] + F[i + 1 - lag])
        f[i + 1] = y2 / s[i + 1]
        if i >= i3:
            y1 += half * (f[i - lag] + f[i + 1 - lag])
            F[i + 1] = y1 / s[i + 1]
    return F, f


def _loop_buchstab(step, u_max):
    """Per-node w march, one trapezoid step at a time."""
    lag, n = round(1.0 / step), round(u_max / step) + 1
    u = np.arange(n, dtype=np.float64) * step
    w = np.zeros(n)
    w[lag: 2 * lag + 1] = 1.0 / u[lag: 2 * lag + 1]
    y = 1.0
    half = 0.5 * step
    for i in range(2 * lag, n - 1):
        y += half * (w[i - lag] + w[i + 1 - lag])
        w[i + 1] = y / u[i + 1]
    return w


# Each node reads only earlier nodes, so a march to a lower top is the
# prefix of the march to 14; one oracle run per step serves every top.
_sieve_oracle = functools.lru_cache(maxsize=None)(
    lambda step: _loop_sieve_tables(step, 14.0))
_buchstab_oracle = functools.lru_cache(maxsize=None)(
    lambda step: _loop_buchstab(step, 14.0))

ORACLE_STEPS = [1e-4, 5e-5, 2.5e-5, 1e-3, 5e-3, 0.01]


@pytest.mark.parametrize("step", ORACLE_STEPS)
@pytest.mark.parametrize("s_max", [6.0, 7.5, 13.37, 14.0])
def test_block_march_matches_loop_F_f(step, s_max):
    # 7.5 and 13.37 leave a partial last unit block
    table = build_sieve_tables(step=step, s_max=s_max)
    F, f = _sieve_oracle(step)
    n = len(table.s_grid)
    assert n == round(s_max / step) + 1
    assert np.array_equal(table.F_values, F[:n], equal_nan=True)
    assert np.isnan(table.F_values[0])
    assert np.array_equal(table.f_values, f[:n])


@pytest.mark.parametrize("step", ORACLE_STEPS)
@pytest.mark.parametrize("u_max", [12.0, 13.37, 14.0])
def test_block_march_matches_loop_w(step, u_max):
    table = build_buchstab_table(step=step, u_max=u_max)
    w = _buchstab_oracle(step)
    assert np.array_equal(table.w_values, w[:len(table.u_grid)])


@pytest.mark.parametrize("length", [2, 100, 101, 10 ** 4, 4 * 10 ** 4])
def test_cumsum_is_a_left_fold(length):
    # The block march is exact only because np.cumsum adds in sequence,
    # like the per-node `y += inc`; mixed magnitudes make order visible.
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.uniform(-8, 8, length)
    folded = np.empty(length)
    acc = values[0]
    folded[0] = acc
    for k in range(1, length):
        acc = acc + values[k]
        folded[k] = acc
    assert np.array_equal(np.cumsum(values), folded)


# --------------------------------------------------- build-time invariants

def _marched(step=1e-3):
    table = build_sieve_tables(step=step)
    lag = round(1.0 / step)
    return table.F_values.copy(), table.f_values.copy(), 2 * lag, \
        10.0 * step * step


def test_check_sieve_march_monotonicity():
    F, f, lo, slack = _marched()
    F[lo + 2000] += 1e-3
    with pytest.raises(TableBuildError, match="monotonicity"):
        _check_sieve_march(F, f, lo, slack)
    F, f, lo, slack = _marched()
    f[lo + 2000] -= 1e-3
    with pytest.raises(TableBuildError, match="monotonicity"):
        _check_sieve_march(F, f, lo, slack)


def test_check_sieve_march_gap():
    # F up and f down by 0.9 slack each: both stay monotone within the
    # slack, but the gap grows by 1.8 slack
    F, f, lo, slack = _marched()
    k = lo + 2000
    F[k + 1] = F[k] + 0.9 * slack
    f[k + 1] = f[k] - 0.9 * slack
    with pytest.raises(TableBuildError, match="gap"):
        _check_sieve_march(F, f, lo, slack)


def test_check_sieve_march_band():
    # a common shift keeps every difference; only the band sees it
    F, f, lo, slack = _marched()
    F[lo:] -= 0.01
    f[lo:] -= 0.01
    with pytest.raises(TableBuildError, match="band"):
        _check_sieve_march(F, f, lo, slack)


def test_build_sieve_tables_rejects_scaled_march(monkeypatch):
    # The march is linear in 2e^gamma, so a wrong constant scales F and f
    # alike; the limit F(s) -> 1 then falls below the band.
    monkeypatch.setattr(sieve_functions, "TWO_E_GAMMA", 0.99 * TWO_E_GAMMA)
    with pytest.raises(TableBuildError, match="band"):
        build_sieve_tables(step=1e-3)


def test_build_buchstab_rejects_corrupted_march(monkeypatch):
    # every marched block damped by 0.8 pulls w below the band's floor 0.5
    march = sieve_functions._march_block

    def damped(*args):
        values, y = march(*args)
        return 0.8 * values, y
    monkeypatch.setattr(sieve_functions, "_march_block", damped)
    with pytest.raises(TableBuildError, match=r"w left the \[0.5, 1\] band"):
        build_buchstab_table(step=1e-3)


def test_buchstab_exact_on_first_interval(buchstab):
    for u in (1.0, 1.25, 1.5, 1.987, 2.0):
        assert u * buchstab_w(u, buchstab) == 1.0


def test_buchstab_log_branch(buchstab):
    assert buchstab_w(2.5, buchstab) == (1.0 + math.log(1.5)) / 2.5


def test_buchstab_limit(buchstab):
    assert buchstab_w(11.2, buchstab) == pytest.approx(
        E_MINUS_GAMMA, abs=5e-3)
    # the marched tail is much closer than the acceptance bound
    assert abs(buchstab_w(11.2, buchstab) - E_MINUS_GAMMA) < 1e-8


def test_buchstab_band(buchstab):
    for u in np.linspace(2.0, 12.0, 97):
        val = buchstab_w(float(u), buchstab)
        assert 0.5 - 1e-7 <= val <= 1.0 + 1e-7


def test_buchstab_domain(buchstab):
    with pytest.raises(TableDomainError):
        buchstab_w(0.5, buchstab)
    with pytest.raises(TableDomainError):
        buchstab_w(buchstab.u_max + 1.0, buchstab)
    with pytest.raises(ValueError):
        build_buchstab_table(u_max=8.0)


def test_sigma2_branch():
    assert selberg_sigma2(2.0) == EIGHT_E_2GAMMA / 4.0
    assert selberg_sigma2(1.0) == EIGHT_E_2GAMMA
    with pytest.raises(Sigma2DomainError):
        selberg_sigma2(2.0000001)
    with pytest.raises(Sigma2DomainError):
        selberg_sigma2(0.0)
    with pytest.raises(Sigma2DomainError):
        selberg_sigma2(3.0)
