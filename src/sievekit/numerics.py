"""Shared numerical kernels: quadrature, root finding, parabolic refinement."""

from __future__ import annotations

import gc
import math
import types
from typing import Callable, Sequence

# Euler-Mascheroni constant, fixed literal (float64 rounds the 20-digit value).
EULER_GAMMA = 0.5772156649015328606065
E_GAMMA = math.exp(EULER_GAMMA)

DEFAULT_QUAD_TOL = 1e-9
CROSSCHECK_QUAD_TOL = 1e-6
MAX_QUAD_DEPTH = 48
BISECT_TOL = 1e-12


class _NumpyOnFirstRead(types.ModuleType):
    """numpy, imported by the first attribute read, so a command that reads
    no array never loads it.  That read copies numpy's namespace in and
    makes this object a plain module: every later read costs what a read
    of numpy itself does."""

    def __getattr__(self, name: str):
        import numpy
        vars(self).update(vars(numpy))
        self.__class__ = types.ModuleType
        if gc.get_freeze_count():
            # main() froze the import-time heap before numpy loaded
            gc.freeze()
        return getattr(numpy, name)


_numpy = _NumpyOnFirstRead("numpy")  # the np of every array module


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed its own consistency requirements."""


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float,
             fb: float) -> tuple[float, float, float]:
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    if depth >= MAX_QUAD_DEPTH:
        raise QuadratureError(
            f"interval depth cap {MAX_QUAD_DEPTH} hit on [{a}, {b}]")
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, half, depth + 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, half, depth + 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = DEFAULT_QUAD_TOL) -> float:
    """Adaptive Simpson integral of f over [a, b] to absolute tolerance tol."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, 0)


def integrate_checked(f: Callable[[float], float], a: float, b: float,
                      tol: float = DEFAULT_QUAD_TOL) -> float:
    """Integrate at tol and at CROSSCHECK_QUAD_TOL; fail on disagreement.

    The two runs refine differently, so agreement within CROSSCHECK_QUAD_TOL
    guards against a silently unconverged panel.
    """
    tight = adaptive_simpson(f, a, b, tol)
    loose = adaptive_simpson(f, a, b, CROSSCHECK_QUAD_TOL)
    if abs(tight - loose) > 10.0 * CROSSCHECK_QUAD_TOL * max(1.0, abs(tight)):
        raise QuadratureError(
            f"quadrature self-check failed on [{a}, {b}]: "
            f"{tight!r} vs {loose!r}")
    return tight


def integrate_piecewise(f: Callable[[float], float],
                        knots: Sequence[float]) -> float:
    """Checked integral over consecutive [knots[i], knots[i+1]] panels."""
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        total += integrate_checked(f, a, b)
    return total


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = BISECT_TOL) -> float:
    """Bisection root of f on [lo, hi]; endpoints must bracket a sign change."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo!r},{fhi!r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def parabolic_peak(x: Sequence[float], y: Sequence[float]) -> float:
    """Vertex abscissa of the parabola through three points (max refinement)."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    d1 = (x1 - x0) * (y1 - y2)
    d2 = (x1 - x2) * (y1 - y0)
    denom = 2.0 * (d1 - d2)
    if denom == 0.0:
        return x1
    return x1 - ((x1 - x0) * d1 - (x1 - x2) * d2) / denom
