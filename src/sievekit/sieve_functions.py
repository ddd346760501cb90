"""Special functions of sieve theory: the linear pair (F, f), Buchstab w, Selberg sigma2.

F and f solve the coupled system

    s F(s) = 2 e^gamma            on (0, 3]   (low-range convention),
    s f(s) = 0                    on (0, 2],
    (s F(s))' = f(s - 1),  (s f(s))' = F(s - 1)   for s > 2,

and w solves u w(u) = 1 on [1, 2] with (u w(u))' = w(u - 1) beyond.  Tables
march the delay equations on a uniform grid whose spacing h divides 1, so the
lag-1 lookups land exactly on earlier grid nodes and the composite trapezoid
rule applies without interpolation error.

The march runs one unit block at a time.  With lag = 1/h, node m + 1 of the
block [k, k + 1) reads only nodes m - lag and m + 1 - lag, both <= k * lag,
which earlier blocks already hold.  So a block's trapezoid increments are one
vector expression and its running sum of x * value(x) is one ``np.cumsum``
seeded with the value carried in.  ``np.cumsum`` on float64 is a sequential
left fold, the same additions in the same order as a per-node ``y += ...``
loop, so the tables are bit-identical to that loop's; a 1e-4 table builds in
milliseconds.  Steps must lie in [MIN_STEP, MAX_STEP] = [1e-5, 0.01]: the
cumsum's roundoff over ~14/h terms grows like 1e-14/h, and below h = 1e-5 it
outgrows the 10 h^2 slack of the build checks, so a smaller step would give
a less accurate table, not a better one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import E_GAMMA, EULER_GAMMA, _numpy as np, integrate_checked

TWO_E_GAMMA = 2.0 * E_GAMMA
E_MINUS_GAMMA = math.exp(-EULER_GAMMA)
EIGHT_E_2GAMMA = 8.0 * math.exp(2.0 * EULER_GAMMA)

DEFAULT_STEP = 1e-4
MIN_STEP = 1e-5
MAX_STEP = 0.01


class TableDomainError(ValueError):
    """Evaluation point outside the tabulated or closed-form domain."""


class TableBuildError(RuntimeError):
    """Marched table violates a structural bound (solver blow-up)."""


class Sigma2DomainError(ValueError):
    """sigma2 requested outside (0, 2], where no defining branch exists."""


def _grid_step_nodes(step: float, top: float) -> tuple[int, int]:
    """Validate step, return (lag nodes per unit, node count for [0, top])."""
    if not MIN_STEP <= step <= MAX_STEP:
        raise ValueError(
            f"step must be in [{MIN_STEP:g}, {MAX_STEP:g}], got {step}; below "
            f"{MIN_STEP:g} the march's summation roundoff outgrows its "
            f"10 h^2 build slack")
    lag = round(1.0 / step)
    if abs(lag * step - 1.0) > 1e-12:
        raise ValueError(f"1/step must be an integer, got step={step}")
    return lag, round(top / step) + 1


def _interp(x: float, step: float, grid: np.ndarray,
            values: np.ndarray) -> float:
    """Linear interpolation of tabulated values on a uniform grid from 0."""
    i = int(min(x / step, len(grid) - 2))
    t = (x - grid[i]) / step
    return float((1.0 - t) * values[i] + t * values[i + 1])


@dataclass(frozen=True)
class SieveFunctionTable:
    step: float
    s_max: float
    s_grid: np.ndarray
    F_values: np.ndarray
    f_values: np.ndarray

    def interp(self, s: float, values: np.ndarray) -> float:
        return _interp(s, self.step, self.s_grid, values)


@dataclass(frozen=True)
class BuchstabTable:
    step: float
    u_max: float
    u_grid: np.ndarray
    w_values: np.ndarray


def _march_block(values: np.ndarray, y: float, i: int, j: int, lag: int,
                 half: float, grid: np.ndarray) -> tuple[np.ndarray, float]:
    """Trapezoid-march y = x * value(x) from node i to node j <= i + lag.

    Node m + 1 adds half * (values[m - lag] + values[m + 1 - lag]); every
    read is at index <= i.  Returns the values at nodes i + 1..j and the
    final y.
    """
    inc = half * (values[i - lag:j - lag] + values[i + 1 - lag:j + 1 - lag])
    ys = np.cumsum(np.concatenate(([y], inc)))
    return ys[1:] / grid[i + 1:j + 1], float(ys[-1])


def _check_sieve_march(F: np.ndarray, f: np.ndarray, lo: int,
                       slack: float) -> None:
    if np.any(np.diff(F[lo:]) > slack) or np.any(np.diff(f[lo:]) < -slack):
        raise TableBuildError("marched F/f lost monotonicity beyond s=2")
    gap = F[lo:] - f[lo:]
    if np.any(gap < -slack) or np.any(np.diff(gap) > slack):
        raise TableBuildError("marched F-f gap is not non-increasing")
    if np.any(F[lo:] < 1.0 - slack) or np.any(f[lo:] > 1.0 + slack):
        raise TableBuildError("marched values left the [f <= 1 <= F] band")


def build_sieve_tables(step: float = DEFAULT_STEP,
                       s_max: float = 14.0) -> SieveFunctionTable:
    """March the (F, f) delay system over [0, s_max] on a uniform grid."""
    if s_max < 6.0:
        raise ValueError(f"s_max must be >= 6, got {s_max}")
    lag, n = _grid_step_nodes(step, s_max)
    s = np.arange(n, dtype=np.float64) * step
    F = np.empty(n)
    f = np.zeros(n)
    F[0] = np.nan  # s=0 is outside every evaluation domain
    F[1:] = TWO_E_GAMMA / s[1:]

    # y1 = s F(s), y2 = s f(s); y2 marches from s=2, y1 joins at s=3.
    # The lag-1 coupling runs both ways, so the marches interleave block by
    # block: each block reads only what earlier blocks of the other produced.
    i2, i3 = 2 * lag, 3 * lag
    y1, y2 = TWO_E_GAMMA, 0.0
    half = 0.5 * step
    for i in range(i2, n - 1, lag):
        j = min(i + lag, n - 1)
        f[i + 1:j + 1], y2 = _march_block(F, y2, i, j, lag, half, s)
        if i >= i3:
            F[i + 1:j + 1], y1 = _march_block(f, y1, i, j, lag, half, s)

    _check_sieve_march(F, f, i2, 10.0 * step * step)
    return SieveFunctionTable(step=step, s_max=float(s[-1]), s_grid=s,
                              F_values=F, f_values=f)


def build_buchstab_table(step: float = DEFAULT_STEP,
                         u_max: float = 14.0) -> BuchstabTable:
    """March u w(u) = 1, (u w(u))' = w(u - 1) over [0, u_max]."""
    if u_max < 12.0:
        raise ValueError(f"u_max must be >= 12, got {u_max}")
    lag, n = _grid_step_nodes(step, u_max)
    u = np.arange(n, dtype=np.float64) * step
    w = np.zeros(n)
    w[lag: 2 * lag + 1] = 1.0 / u[lag: 2 * lag + 1]

    y = 1.0  # u w(u) at the march point
    half = 0.5 * step
    for i in range(2 * lag, n - 1, lag):
        j = min(i + lag, n - 1)
        w[i + 1:j + 1], y = _march_block(w, y, i, j, lag, half, u)

    slack = 10.0 * step * step
    band = w[2 * lag:]
    if np.any(band < 0.5 - slack) or np.any(band > 1.0 + slack):
        raise TableBuildError("marched w left the [0.5, 1] band beyond u=2")
    return BuchstabTable(step=step, u_max=float(u[-1]), u_grid=u, w_values=w)


def eval_F(s: float, table: SieveFunctionTable) -> float:
    """Upper linear-sieve function; closed forms to s=5, table beyond."""
    if not 0.0 < s <= table.s_max:  # NaN fails too
        raise TableDomainError(f"F defined on (0, {table.s_max}], got s={s}")
    if s <= 3.0:
        return TWO_E_GAMMA / s
    if s <= 5.0:
        inner = integrate_checked(lambda t: math.log(t - 1.0) / t, 2.0, s - 1.0)
        return TWO_E_GAMMA / s * (1.0 + inner)
    return table.interp(s, table.F_values)


def eval_f(s: float, table: SieveFunctionTable) -> float:
    """Lower linear-sieve function; 0 on (0,2], log form on [2,4], table beyond."""
    if not 0.0 < s <= table.s_max:
        raise TableDomainError(f"f defined on (0, {table.s_max}], got s={s}")
    if s <= 2.0:
        return 0.0
    if s <= 4.0:
        return TWO_E_GAMMA * math.log(s - 1.0) / s
    return table.interp(s, table.f_values)


def buchstab_w(u: float, table: BuchstabTable) -> float:
    """Buchstab function; exact 1/u on [1,2], log form on [2,3], table beyond."""
    if not 1.0 <= u <= table.u_max:
        raise TableDomainError(f"w defined on [1, {table.u_max}], got u={u}")
    if u <= 2.0:
        return 1.0 / u
    if u <= 3.0:
        return (1.0 + math.log(u - 1.0)) / u
    return _interp(u, table.step, table.u_grid, table.w_values)


def selberg_sigma2(s: float) -> float:
    """1/sigma_2(s) = 8 e^(2 gamma) / s^2 on its only branch, 0 < s <= 2.

    This is the dimension-2 Selberg upper-bound sieve factor in the
    Ankeny-Onishi normalization, where sigma_2(s) = s^2 / (8 e^(2 gamma)).
    """
    if not 0.0 < s <= 2.0:
        raise Sigma2DomainError(
            f"sigma2 branch is defined only for 0 < s <= 2, got s={s}; "
            "no continuation beyond 2 is available")
    return EIGHT_E_2GAMMA / (s * s)
