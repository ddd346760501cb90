"""Certified constants: exception levels, weighted-sieve optimization, margin checks.

Everything here recomputes a number that the accompanying experiments rely
on: the piecewise exception level gamma(theta) and its exceedance integral,
the weighted-sieve constant C at (alpha, beta, r), and the Buchstab-margin
test for rough quadratic values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .numerics import (E_GAMMA, QuadratureError, _numpy as np, bisect_root,
                       integrate_checked, integrate_piecewise, parabolic_peak)
from .reports import TheoremReport
from .sieve_functions import (BuchstabTable, SieveFunctionTable,
                              Sigma2DomainError, TableDomainError, buchstab_w,
                              eval_F, eval_f, selberg_sigma2)


class InfeasibilityError(ValueError):
    """Requested optimization has no interior optimum in its feasible set."""


class HypothesisViolationError(ValueError):
    """Inputs violate a hypothesis under which the formula is proved."""


# gamma(theta) is piecewise linear: piece (a, b, c) is (a - b*theta)/c on
# [GAMMA_BREAKPOINTS[i], GAMMA_BREAKPOINTS[i + 1]); neighbours agree exactly
# at each inner breakpoint.
GAMMA_BREAKPOINTS = (Fraction(1, 2), Fraction(64, 97), Fraction(32, 41),
                     Fraction(16, 17))
GAMMA_PIECES = ((91, 89, 62), (86, 83, 60), (19, 18, 14))

THETA_MAX = GAMMA_BREAKPOINTS[-1]
ETA_THETA_MAX = Fraction(112, 131)
GAMMA12_THETA_MAX = Fraction(8015, 11659)
BETA_HYPOTHESIS_MAX = 0.68
# A C(beta) point costs about 0.7 ms, so a capped scan serves in seconds.
MAX_BETA_POINTS = 10 ** 4

# c2 kernel: numerator 88288 = 4 * 22072; denominator (91 - 89t)^2 expanded.
GAMMA12_SCALE = 22072
C2_NUMERATOR = 4 * GAMMA12_SCALE


def _gamma_value(theta: float) -> float:
    """Piece evaluation without the domain check (clamps to the end pieces).

    The piece is chosen by exact comparison with the Fraction breakpoints,
    so a Fraction theta gives an exact Fraction value.
    """
    i = bisect_right(GAMMA_BREAKPOINTS, theta, 1, len(GAMMA_PIECES)) - 1
    a, b, c = GAMMA_PIECES[i]
    return (a - b * theta) / c


def gamma_theta(theta: float) -> float:
    """Exceptional-moduli level gamma(theta) on [1/2, 16/17)."""
    if not 0.5 <= theta < THETA_MAX:
        raise ValueError(f"gamma(theta) defined on [1/2, 16/17), got {theta}")
    return _gamma_value(theta)


def _theorem2_pieces(vartheta: float) -> list[float]:
    """Closed-form values of the three integrals of 2/gamma(theta)."""
    bps = [float(bp) for bp in GAMMA_BREAKPOINTS]
    ends = [bps[1], bps[2], vartheta]
    out = []
    for (a, b, c), lo, hi in zip(GAMMA_PIECES, bps[:3], ends):
        # integral of 2c/(a - b t) dt = (2c/b) log((a - b lo)/(a - b hi))
        out.append(2.0 * c / b * math.log((a - b * lo) / (a - b * hi)))
    return out


def theorem2_integral(vartheta: float) -> TheoremReport:
    """Exceedance integral of 2/gamma(theta) over [1/2, vartheta] vs 3/2.

    Antiderivative path is exact logarithms; an adaptive-quadrature path
    re-derives the total and must agree to 1e-6 or the run aborts.
    """
    # Fraction takes no NaN or infinity, so those fail before it
    if not (math.isfinite(vartheta)
            and GAMMA_BREAKPOINTS[-2] <= Fraction(vartheta) < THETA_MAX):
        raise ValueError(f"vartheta must lie in [32/41, 16/17), got {vartheta}")
    pieces = _theorem2_pieces(vartheta)
    total = sum(pieces)
    knots = [float(bp) for bp in GAMMA_BREAKPOINTS[:-1]] + [vartheta]
    quad = integrate_piecewise(lambda t: 2.0 / _gamma_value(t), knots)
    if abs(total - quad) > 1e-6:
        raise QuadratureError(
            f"antiderivative/quadrature paths disagree: {total} vs {quad}")
    margin = 1.5 - total
    return TheoremReport(
        name="theorem2",
        inputs={"vartheta": vartheta},
        computed={"piece1": pieces[0], "piece2": pieces[1],
                  "piece3": pieces[2], "total": total,
                  "total_quadrature": quad},
        tolerances={"piece1": 0.0, "piece2": 0.0, "piece3": 0.0,
                    "total": 0.0, "total_quadrature": 1e-9},
        margin=margin,
        passed=margin > 0.0,
        notes="total < 3/2 certifies the exception-level budget at vartheta")


def find_max_vartheta() -> float:
    """Largest vartheta with exceedance total equal to 3/2 (bisection root)."""
    lo = float(GAMMA_BREAKPOINTS[-2])
    hi = float(THETA_MAX) - 1e-9
    return bisect_root(lambda t: sum(_theorem2_pieces(t)) - 1.5, lo, hi)


def optimize_gamma12(theta: float) -> tuple[float, float, float]:
    """Maximize gamma1*gamma2 under gamma2 = (91 - 89(gamma1 + theta))/62.

    Interior optimum gamma1 = (91 - 89 theta)/178 with product
    (91 - 89 theta)^2 / 22072; feasible only while gamma1 + theta < 112/131.
    A grid search plus parabolic refinement re-derives the optimum, and the
    two answers must agree to 1e-9.
    """
    if not 0.0 < theta < GAMMA12_THETA_MAX:
        raise InfeasibilityError(
            f"interior optimum needs theta in (0, 8015/11659), got {theta}; "
            "beyond it gamma1 + theta leaves [0, 112/131)")
    lin = 91.0 - 89.0 * theta
    g1 = lin / 178.0
    g2 = lin / 124.0
    product = lin * lin / GAMMA12_SCALE

    hi = min(lin / 89.0, float(ETA_THETA_MAX) - theta)
    n = 2000
    step = hi / n
    objective = lambda x: x * (91.0 - 89.0 * (x + theta)) / 62.0
    values = [objective(i * step) for i in range(n + 1)]
    i = max(range(1, n), key=values.__getitem__)
    xs = [(i - 1) * step, i * step, (i + 1) * step]
    refined = parabolic_peak(xs, [values[i - 1], values[i], values[i + 1]])
    if abs(refined - g1) > 1e-9 or abs(objective(refined) - product) > 1e-9:
        raise ArithmeticError(
            f"grid optimizer disagrees with closed form: {refined} vs {g1}")
    return g1, g2, product


def solve_delta() -> float:
    """Crossover point of the two weighted-sieve integrand branches.

    Root in (0, 1/2) of 1/(1 - 2d) = 22072/(91 - 89d)^2, i.e. the positive
    root of 7921 d^2 + 27946 d - 13791 = 0; the quadratic formula and a
    bisection of the defining equation must agree to 1e-12.
    """
    disc = 27946.0 ** 2 + 4.0 * 7921.0 * 13791.0
    root = 2.0 * 13791.0 / (27946.0 + math.sqrt(disc))

    def residual(d: float) -> float:
        return 1.0 / (1.0 - 2.0 * d) - GAMMA12_SCALE / (91.0 - 89.0 * d) ** 2

    bis = bisect_root(residual, 1e-9, 0.5 - 1e-9, tol=1e-14)
    if abs(root - bis) > 1e-12:
        raise ArithmeticError(f"quadratic and bisection roots differ: "
                              f"{root} vs {bis}")
    return root


@dataclass(frozen=True)
class WeightedSieveParams:
    """Parameters (alpha, beta, delta, r) of the weighted-sieve bound.

    delta == beta is allowed and makes the second integral empty; it is how
    the C(beta) curve is evaluated left of the crossover root.
    """
    alpha: float
    beta: float
    delta: float
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not 0.0 < self.alpha < self.delta <= self.beta < 1.0:
            raise ValueError(
                f"need 0 < alpha < delta <= beta < 1, got "
                f"({self.alpha}, {self.delta}, {self.beta})")
        if self.beta <= 2.0 / (self.r + 1):
            raise ValueError(f"beta must exceed 2/(r+1) = {2.0 / (self.r + 1)}")
        if self.beta >= BETA_HYPOTHESIS_MAX:
            raise HypothesisViolationError(
                f"beta must stay below {BETA_HYPOTHESIS_MAX}, got {self.beta}")

    @property
    def eta(self) -> float:
        return self.r + 1 - 2.0 / self.beta


class _C1Cells(NamedTuple):
    """The beta-free half of c1's cell rule for one alpha, over the cells
    [s_i, s_(i+1)] of the F grid up to s_hi = (1 - 2 alpha)/(2 alpha):
    1/(0.5 - alpha s) at s_0..s_hi and at the cell midpoints, the cell
    widths / 6 and F_i + F_(i+1).  Nothing past s_hi is built: the grid
    may reach s = 1/(2 alpha), where 0.5 - alpha s = 0.  A C(beta) scan
    builds them once and slices them at each beta."""
    inv_node: np.ndarray
    inv_mid: np.ndarray
    width6: np.ndarray
    F_sum: np.ndarray


def _c1_s_hi(alpha: float) -> float:
    """The top of c1's range in s = (1 - 2t)/(2 alpha), at t = alpha."""
    return (1.0 - 2.0 * alpha) / (2.0 * alpha)


def _c1_cells(alpha: float, table: SieveFunctionTable) -> _C1Cells:
    # alpha >= 1/2 puts s_hi below 0, where every point is refused; a
    # negative slice end would reach the zero of 0.5 - alpha s
    i_hi = max(int(math.floor(_c1_s_hi(alpha) / table.step + 1e-9)), 0)
    s, F = table.s_grid[:i_hi + 1], table.F_values[:i_hi + 1]
    sa, sb = s[:-1], s[1:]
    return _C1Cells(inv_node=1.0 / (0.5 - alpha * s),
                    inv_mid=1.0 / (0.5 - alpha * (0.5 * (sa + sb))),
                    width6=(sb - sa) / 6.0, F_sum=F[:-1] + F[1:])


def c1_integral(params: WeightedSieveParams, table: SieveFunctionTable,
                cells: _C1Cells | None = None) -> float:
    """Integral of (1/t - 1/beta) F((1 - 2t)/(2 alpha)) over [alpha, delta].

    Substituting s = (1 - 2t)/(2 alpha) turns this into the integral of
    phi(s) F(s) over [s_lo, s_hi], with phi(s) = alpha (1/(0.5 - alpha s)
    - 1/beta), a weight against the tabulated F (closed-branch agreement is
    a tested invariant).  Composite Simpson on the grid cells integrates it
    to table accuracy at table cost: F is exactly linear inside each cell,
    so Simpson with cell midpoints is exact in it, and only phi contributes
    error, at O(step^4) per unit length.  The partial cells at the two ends
    take the same rule on their own ends and midpoint.  cells are the
    rule's beta-free arrays for params.alpha on table, which a C(beta) scan
    builds once; a single point builds its own.
    """
    if cells is None:
        cells = _c1_cells(params.alpha, table)
    a, inv_beta = params.alpha, 1.0 / params.beta
    lo, hi = (1.0 - 2.0 * params.delta) / (2.0 * a), _c1_s_hi(a)
    if hi <= lo:
        return 0.0
    step, values = table.step, table.F_values
    if lo < step - 1e-12 or hi > table.s_max + 1e-12:
        raise TableDomainError(f"integration range [{lo}, {hi}] leaves the "
                               f"tabulated span [{step}, {table.s_max}]")
    phi = lambda s: a * (1.0 / (0.5 - a * s) - inv_beta)

    def segment(x0: float, x1: float) -> float:
        if x1 - x0 <= 0.0:
            return 0.0
        mid = 0.5 * (x0 + x1)
        return (x1 - x0) / 6.0 * (
            phi(x0) * table.interp(x0, values)
            + 4.0 * phi(mid) * table.interp(mid, values)
            + phi(x1) * table.interp(x1, values))

    i_lo = int(math.ceil(lo / step - 1e-9))
    i_hi = int(math.floor(hi / step + 1e-9))
    if i_lo >= i_hi:
        return segment(lo, hi)
    total = segment(lo, i_lo * step)
    phi_node = a * (cells.inv_node[i_lo:i_hi + 1] - inv_beta)
    phi_mid = a * (cells.inv_mid[i_lo:i_hi] - inv_beta)
    fa, fb = values[i_lo:i_hi], values[i_lo + 1:i_hi + 1]
    terms = cells.width6[i_lo:i_hi] * (
        phi_node[:-1] * fa + 2.0 * phi_mid * cells.F_sum[i_lo:i_hi]
        + phi_node[1:] * fb)
    total += float(np.sum(terms))
    total += segment(i_hi * step, hi)
    return total


def c2_integral(params: WeightedSieveParams) -> float:
    """e^gamma alpha int_delta^beta (1/t - 1/beta) 88288/(91 - 89t)^2 dt.

    The kernel bound is proved only for beta < BETA_HYPOTHESIS_MAX, which
    WeightedSieveParams already enforces."""
    if params.beta <= params.delta:
        return 0.0
    integrand = lambda t: ((1.0 / t - 1.0 / params.beta) * C2_NUMERATOR
                           / (8281.0 - 16198.0 * t + 7921.0 * t * t))
    quad = integrate_checked(integrand, params.delta, params.beta, tol=1e-8)
    return E_GAMMA * params.alpha * quad


def compute_C(params: WeightedSieveParams, table: SieveFunctionTable,
              cells: _C1Cells | None = None) -> TheoremReport:
    """Weighted-sieve constant C = f(1/(2 alpha)) - (c1 + c2)/eta; cells
    as in c1_integral."""
    f_term = eval_f(1.0 / (2.0 * params.alpha), table)
    c1 = c1_integral(params, table, cells)
    c2 = c2_integral(params)
    eta = params.eta
    C = f_term - (c1 + c2) / eta
    return TheoremReport(
        name="theorem1",
        inputs={"alpha": params.alpha, "beta": params.beta,
                "delta": params.delta, "r": params.r},
        computed={"f_term": f_term, "c1": c1, "c2": c2, "eta": eta, "C": C},
        tolerances={"f_term": 1e-6, "c1": 1e-8, "c2": 1e-8, "eta": 0.0,
                    "C": 1e-6},
        margin=C,
        passed=C > 0.0,
        notes="C > 0 certifies the weighted-sieve lower bound at (alpha, beta, r)")


def beta_grid(r: int, step: float) -> list[float]:
    """The beta grid of optimize_beta: multiples of step in [0.41, 0.68)
    above 2/(r+1).  Raises ValueError on a grid it cannot scan."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not step > 0.0:
        raise ValueError(f"beta step must be positive, got {step}")
    span = (BETA_HYPOTHESIS_MAX - 0.41) / step
    if span > MAX_BETA_POINTS:
        raise ValueError(f"a beta grid at step {step} has about {span:.0f} "
                         f"points, more than the cap of {MAX_BETA_POINTS}")
    eta_floor = 2.0 / (r + 1)
    n_lo = math.ceil(0.41 / step)
    n_hi = math.ceil(BETA_HYPOTHESIS_MAX / step)
    betas = [i * step for i in range(n_lo, n_hi)
             if eta_floor < i * step < BETA_HYPOTHESIS_MAX]
    if not betas:
        raise ValueError(f"the beta grid at step {step} has no point above "
                         f"2/(r+1) = {eta_floor:g}")
    return betas


def optimize_beta(r: int, alpha: float,
                  table: SieveFunctionTable,
                  step: float = 1e-3
                  ) -> tuple[float, float, list[tuple[float, float]]]:
    """Scan C over the beta grid [0.41, 0.68); return maximizer and curve."""
    betas = beta_grid(r, step)
    delta_root = solve_delta()
    cells = _c1_cells(alpha, table)

    def point(beta: float) -> float:
        params = WeightedSieveParams(alpha=alpha, beta=beta,
                                     delta=min(delta_root, beta), r=r)
        return compute_C(params, table, cells).margin

    curve = [(beta, point(beta)) for beta in betas]
    i = max(range(len(curve)), key=lambda k: curve[k][1])
    return curve[i][0], curve[i][1], curve


def dartyge_margin(u: float, theta0: float, ftable: SieveFunctionTable,
                   wtable: BuchstabTable) -> TheoremReport:
    """Margin of the rough-quadratic upper bound against (3/2) e^gamma w(u).

    LHS is a three-part integral of F and 1/sigma2 terms; the sigma2 part is
    only defined while (2/3 - theta/2) u <= 2, which is checked up front at
    its worst point theta0 and again at every quadrature node.
    """
    if not 1.0 < u <= 13.0:
        raise ValueError(f"u must lie in (1, 13], got {u}")
    if not float(THETA_MAX) < theta0 < 1.0:
        raise ValueError(f"theta0 must lie in (16/17, 1), got {theta0}")
    worst = (2.0 / 3.0 - theta0 / 2.0) * u
    if worst > 2.0:
        raise Sigma2DomainError(
            f"sigma2 containment fails at theta={theta0}, u={u}: "
            f"argument {worst:.9f} exceeds 2")

    # Part 1: F(u * gamma(theta)); split at the gamma breakpoints and at the
    # points where the F argument crosses its branch boundaries 3 and 5.
    bps = [float(bp) for bp in GAMMA_BREAKPOINTS]
    cross = set()
    for (a, b, c), lo, hi in zip(GAMMA_PIECES, bps[:3], bps[1:]):
        for s0 in (3.0, 5.0):
            t = (a - c * s0 / u) / b
            if lo < t < hi:
                cross.add(t)
    knots = sorted(set(bps) | cross)
    I1 = integrate_piecewise(lambda t: eval_F(u * _gamma_value(t), ftable),
                             knots)

    # Part 2: F(u(1-theta)) with the argument below 3, so the antiderivative
    # is explicit; quadrature must reproduce it.
    I2_closed = (2.0 * E_GAMMA / u) * math.log((1.0 / 17.0) / (1.0 - theta0))
    I2 = integrate_checked(lambda t: eval_F(u * (1.0 - t), ftable),
                           float(THETA_MAX), theta0, tol=1e-9)
    if abs(I2 - I2_closed) > 1e-8:
        raise QuadratureError(f"flat-branch integral mismatch: {I2} vs "
                              f"{I2_closed}")

    I3 = (u / E_GAMMA) * integrate_checked(
        lambda t: t / selberg_sigma2((2.0 / 3.0 - t / 2.0) * u),
        theta0, 1.0, tol=1e-9)

    w_u = buchstab_w(u, wtable)
    lhs = I1 + I2 + I3
    rhs = 1.5 * E_GAMMA * w_u
    margin = rhs - lhs
    return TheoremReport(
        name="theorem3",
        inputs={"u": u, "theta0": theta0},
        computed={"I1": I1, "I2": I2, "I2_closed": I2_closed, "I3": I3,
                  "lhs": lhs, "rhs": rhs, "w_u": w_u,
                  "sigma2_max_arg": worst},
        tolerances={"I1": 1e-9, "I2": 1e-9, "I2_closed": 0.0, "I3": 1e-9,
                    "lhs": 1e-8, "rhs": 1e-6, "w_u": 1e-6,
                    "sigma2_max_arg": 0.0},
        margin=margin,
        passed=margin > 0.0,
        notes=f"sigma2 argument stays within (0, 2] (max {worst:.9f})")
