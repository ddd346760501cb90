"""Certified-constant pipelines: exceedance integral, weighted sieve, margins."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from sievekit.sieve_functions import Sigma2DomainError
from sievekit.theorems import (
    GAMMA12_THETA_MAX,
    GAMMA_BREAKPOINTS,
    GAMMA_PIECES,
    HypothesisViolationError,
    InfeasibilityError,
    WeightedSieveParams,
    compute_C,
    dartyge_margin,
    find_max_vartheta,
    gamma_theta,
    optimize_beta,
    optimize_gamma12,
    solve_delta,
    theorem2_integral,
)


# ---------------------------------------------------------------- gamma(theta)

def test_gamma_pieces_continuous_exactly():
    assert len(GAMMA_BREAKPOINTS) == len(GAMMA_PIECES) + 1
    for i, bp in enumerate(GAMMA_BREAKPOINTS[1:-1]):
        a1, b1, c1 = GAMMA_PIECES[i]
        a2, b2, c2 = GAMMA_PIECES[i + 1]
        assert Fraction(a1 - b1 * bp, c1) == Fraction(a2 - b2 * bp, c2)


def test_gamma_float_continuity_at_breakpoints():
    for bp in (64.0 / 97.0, 32.0 / 41.0):
        left = gamma_theta(bp - 1e-13)
        right = gamma_theta(bp)
        assert abs(left - right) < 1e-12


def test_gamma_values():
    assert gamma_theta(0.5) == (91.0 - 44.5) / 62.0
    assert gamma_theta(64.0 / 97.0) == pytest.approx(
        0.52061855670103097, abs=1e-15)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_theta(0.49)
    with pytest.raises(ValueError):
        gamma_theta(0.4999)
    with pytest.raises(ValueError):
        gamma_theta(Fraction(16, 17))  # the right endpoint is excluded
    with pytest.raises(ValueError):
        gamma_theta(0.95)  # beyond 16/17
    # Fraction input is compared with the exact breakpoints and stays exact
    at_bp = gamma_theta(Fraction(64, 97))
    assert isinstance(at_bp, Fraction)
    assert at_bp == Fraction(91 * 97 - 89 * 64, 62 * 97)
    assert gamma_theta(Fraction(7, 10)) == Fraction(86 * 10 - 83 * 7, 600)


# ------------------------------------------------------------------- theorem 2

def test_theorem2_exceedance_budget():
    rep = theorem2_integral(0.847)
    assert rep.passed
    assert rep.computed["total"] == pytest.approx(
        1.4982769243276806, abs=1e-12)
    assert rep.margin == pytest.approx(0.0017230756723194407, abs=1e-12)
    assert rep.computed["piece1"] == pytest.approx(
        0.5086167488934346, abs=1e-12)
    assert rep.computed["piece2"] == pytest.approx(
        0.5590637711648827, abs=1e-12)
    assert rep.computed["piece3"] == pytest.approx(
        0.43059640426936335, abs=1e-12)
    # antiderivative and quadrature paths agree well inside the 1e-3 budget
    assert rep.computed["total_quadrature"] == pytest.approx(
        rep.computed["total"], abs=1e-3)
    assert rep.computed["total_quadrature"] == pytest.approx(
        rep.computed["total"], abs=1e-9)


def test_theorem2_fails_above_crossover():
    rep = theorem2_integral(0.86)
    assert not rep.passed
    assert rep.margin < 0.0


def test_find_max_vartheta():
    star = find_max_vartheta()
    assert star == pytest.approx(0.8472308873173261, abs=1e-9)
    assert star >= 0.847
    assert theorem2_integral(star - 1e-6).passed
    assert not theorem2_integral(star + 1e-6).passed


# ------------------------------------------------------------------- theorem 1

def test_optimize_gamma12_closed_form():
    rng = random.Random(20260817)
    hi = float(GAMMA12_THETA_MAX)
    for _ in range(100):
        theta = rng.uniform(1e-6, hi - 1e-6)
        g1, g2, product = optimize_gamma12(theta)
        lin = 91.0 - 89.0 * theta
        assert g1 == pytest.approx(lin / 178.0, abs=1e-9)
        assert g2 == pytest.approx(lin / 124.0, abs=1e-9)
        assert product == pytest.approx(lin * lin / 22072.0, abs=1e-9)


def test_optimize_gamma12_half():
    _, _, product = optimize_gamma12(0.5)
    assert product == pytest.approx((91.0 - 44.5) ** 2 / 22072.0, abs=1e-12)


def test_optimize_gamma12_feasibility_boundary():
    eps = 1e-9
    optimize_gamma12(float(GAMMA12_THETA_MAX) - 1e-6)  # still feasible
    with pytest.raises(InfeasibilityError):
        optimize_gamma12(float(GAMMA12_THETA_MAX) + eps)
    with pytest.raises(InfeasibilityError):
        optimize_gamma12(0.0)


def test_solve_delta():
    delta = solve_delta()
    assert 0.435 <= delta <= 0.445
    assert delta == pytest.approx(0.43889005539819687, abs=1e-12)
    # defining equation balances at the root
    assert 1.0 / (1.0 - 2.0 * delta) == pytest.approx(
        22072.0 / (91.0 - 89.0 * delta) ** 2, abs=1e-10)


def test_params_validation():
    good = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                               delta=solve_delta(), r=4)
    assert good.eta == pytest.approx(5.0 - 2.0 / 0.622, abs=1e-12)
    with pytest.raises(ValueError):
        WeightedSieveParams(alpha=0.5, beta=0.622, delta=0.44, r=4)
    with pytest.raises(ValueError):
        WeightedSieveParams(alpha=1.0 / 12.0, beta=0.3, delta=0.3, r=4)
    with pytest.raises(HypothesisViolationError):
        WeightedSieveParams(alpha=1.0 / 12.0, beta=0.69, delta=0.44, r=4)
    with pytest.raises(ValueError):
        WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622, delta=0.44, r=0)


def test_compute_C_reference_point(tables):
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=solve_delta(), r=4)
    rep = compute_C(params, tables)
    assert rep.passed
    assert rep.computed["f_term"] == pytest.approx(0.999895060469, abs=1e-6)
    assert rep.computed["c1"] == pytest.approx(1.351757646422, abs=1e-6)
    assert rep.computed["c2"] == pytest.approx(0.331426989684, abs=1e-6)
    assert rep.computed["eta"] == pytest.approx(1.784565916399, abs=1e-9)
    assert rep.computed["C"] == pytest.approx(0.056705111228, abs=1e-6)
    assert rep.computed["C"] == pytest.approx(0.0568, abs=3e-3)


def test_compute_C_negative_left_of_window(tables):
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.45,
                                 delta=solve_delta(), r=4)
    rep = compute_C(params, tables)
    assert not rep.passed
    assert rep.margin == pytest.approx(-0.781173, abs=1e-4)


def test_optimize_beta_curve(tables):
    beta_star, c_star, curve = optimize_beta(4, 1.0 / 12.0, tables)
    assert beta_star == pytest.approx(0.622, abs=1e-12)
    assert c_star == pytest.approx(0.056705111228, abs=1e-6)
    assert len(curve) == 270
    points = dict(curve)
    assert points[0.5] == pytest.approx(-0.162088, abs=1e-4)
    assert points[0.6] == pytest.approx(0.052851, abs=1e-4)
    assert points[0.67] == pytest.approx(0.041604, abs=1e-4)
    # single positivity window for r=4
    signs = [c > 0.0 for _, c in curve]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1  # enters positive once, stays positive to the cap
    assert signs[-1]


def _c1_reference(params, table):
    """c1 by the cell rule written out with phi applied to each array, as
    before its beta-free arrays were shared across a scan."""
    a, step, F = params.alpha, table.step, table.F_values
    lo = (1.0 - 2.0 * params.delta) / (2.0 * a)
    hi = (1.0 - 2.0 * a) / (2.0 * a)
    phi = lambda s: a * (1.0 / (0.5 - a * s) - 1.0 / params.beta)

    def segment(x0, x1):
        if x1 - x0 <= 0.0:
            return 0.0
        mid = 0.5 * (x0 + x1)
        return (x1 - x0) / 6.0 * (phi(x0) * table.interp(x0, F)
                                  + 4.0 * phi(mid) * table.interp(mid, F)
                                  + phi(x1) * table.interp(x1, F))

    i_lo = int(math.ceil(lo / step - 1e-9))
    i_hi = int(math.floor(hi / step + 1e-9))
    sa, sb = table.s_grid[i_lo:i_hi], table.s_grid[i_lo + 1:i_hi + 1]
    fa, fb = F[i_lo:i_hi], F[i_lo + 1:i_hi + 1]
    cells = (sb - sa) / 6.0 * (phi(sa) * fa
                               + 2.0 * phi(0.5 * (sa + sb)) * (fa + fb)
                               + phi(sb) * fb)
    return (segment(lo, i_lo * step) + float(cells.sum())
            + segment(i_hi * step, hi))


def test_c_beta_scan_is_bitwise_its_single_points(tables):
    # the scan shares c1's beta-free arrays across its betas; each point is
    # still bitwise compute_C on its own, and c1 the unshared cell rule's
    delta_root = solve_delta()
    _beta, _c, curve = optimize_beta(4, 1.0 / 12.0, tables)
    for beta, c in curve:
        params = WeightedSieveParams(alpha=1.0 / 12.0, beta=beta,
                                     delta=min(delta_root, beta), r=4)
        report = compute_C(params, tables)
        assert report.margin == c, beta
        assert report.computed["c1"] == _c1_reference(params, tables), beta


def test_c_beta_scan_refuses_alpha_above_one_half_without_a_warning(tables):
    # s_hi = (1 - 2 alpha)/(2 alpha) < 0: the grid node s = 1/(2 alpha) = 0.8
    # must not be reached by the scan's shared arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need 0 < alpha < delta"):
            optimize_beta(4, 0.625, tables)


# ------------------------------------------------------------------- theorem 3

def test_dartyge_margin_reference(tables, buchstab):
    rep = dartyge_margin(11.2, 0.9926, tables, buchstab)
    assert rep.passed
    assert rep.margin == pytest.approx(0.3326412604995692, abs=1e-8)
    assert rep.computed["I1"] == pytest.approx(0.5015164229, abs=1e-8)
    assert rep.computed["I2"] == pytest.approx(0.6593345416, abs=1e-8)
    assert rep.computed["I2_closed"] == pytest.approx(
        rep.computed["I2"], abs=1e-8)
    assert rep.computed["I3"] == pytest.approx(0.0065077755, abs=1e-8)
    assert rep.computed["lhs"] == pytest.approx(1.1673587399, abs=1e-8)
    assert rep.computed["rhs"] == pytest.approx(1.5000000004, abs=1e-8)
    assert rep.computed["sigma2_max_arg"] == pytest.approx(
        (2.0 / 3.0 - 0.9926 / 2.0) * 11.2, abs=1e-12)
    assert rep.computed["sigma2_max_arg"] < 2.0


def test_dartyge_margin_containment_failure(tables, buchstab):
    with pytest.raises(Sigma2DomainError, match="exceeds 2"):
        dartyge_margin(12.2, 0.9926, tables, buchstab)


def test_dartyge_margin_input_domains(tables, buchstab):
    with pytest.raises(ValueError):
        dartyge_margin(1.0, 0.9926, tables, buchstab)
    with pytest.raises(ValueError):
        dartyge_margin(11.2, 0.9, tables, buchstab)
