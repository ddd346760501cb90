"""Quadrature, root finding, and parabolic refinement."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit.numerics import (
    BISECT_TOL,
    BracketError,
    EULER_GAMMA,
    QuadratureError,
    adaptive_simpson,
    bisect_root,
    integrate_checked,
    integrate_piecewise,
    parabolic_peak,
)


def test_euler_gamma_literal():
    # float64 rounding of the 20-digit constant
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)


def test_adaptive_simpson_sin():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-9)


def test_adaptive_simpson_cubic_exact():
    # Simpson is exact on cubics, so the first panel already closes.
    val = adaptive_simpson(lambda x: x ** 3, 0.0, 2.0)
    assert val == pytest.approx(4.0, abs=1e-12)


def test_adaptive_simpson_empty_interval():
    assert adaptive_simpson(math.exp, 1.5, 1.5) == 0.0


def test_adaptive_simpson_log_kernel():
    # integral of ln(x) over [1, e] = 1
    val = adaptive_simpson(math.log, 1.0, math.e)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_integrate_checked_agrees_with_closed_form():
    val = integrate_checked(lambda x: 1.0 / x, 1.0, 2.0)
    assert val == pytest.approx(math.log(2.0), abs=1e-9)


def test_adaptive_simpson_depth_cap_raises():
    # A jump at a non-dyadic point defeats the error estimate at every
    # refinement level, so the depth cap must fire instead of silently
    # returning a wrong panel.
    def step(x):
        return 0.0 if x < 1.0 / 3.0 else 1.0

    with pytest.raises(QuadratureError):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-13)


def test_integrate_piecewise_splits_at_knots():
    # |x| has a kink at 0; splitting there keeps both panels smooth.
    val = integrate_piecewise(abs, [-1.0, 0.0, 2.0])
    assert val == pytest.approx(2.5, abs=1e-9)


def test_bisect_root_cos():
    root = bisect_root(math.cos, 0.0, 2.0)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-10)


def test_bisect_root_exact_endpoint():
    assert bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    assert bisect_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def test_bisect_root_requires_bracket():
    with pytest.raises(BracketError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


@given(st.floats(-5.0, 5.0), st.floats(0.1, 4.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bisect_root_linear(shift, slope):
    root = bisect_root(lambda x: slope * (x - shift), shift - 7.0, shift + 7.0)
    assert abs(root - shift) <= max(BISECT_TOL, 1e-11)


def test_parabolic_peak_recovers_vertex():
    # y = -(x - 0.7)^2 + 3 sampled at three points
    xs = [0.0, 0.5, 1.2]
    ys = [-(x - 0.7) ** 2 + 3.0 for x in xs]
    assert parabolic_peak(xs, ys) == pytest.approx(0.7, abs=1e-12)


def test_parabolic_peak_degenerate_returns_middle():
    # collinear points have no curvature; fall back to the middle abscissa
    assert parabolic_peak([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 1.0
