"""Marched linear-sieve tables against their closed forms and invariants."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit.sieve_functions import (
    E_MINUS_GAMMA,
    EIGHT_E_2GAMMA,
    Sigma2DomainError,
    TableDomainError,
    TWO_E_GAMMA,
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
@settings(max_examples=100, deadline=None)
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
