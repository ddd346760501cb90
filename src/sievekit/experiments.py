"""Desk-scale realizations of the counting objects behind the sieve bounds.

Everything runs on an explicit window (X, 2X].  The workhorse is a factor
sieve over the quadratic values n^2 + 1: for every prime ell = 1 (mod 4) the
solutions of a^2 + 1 = 0 (mod ell^k) are two arithmetic progressions, so
striking those progressions (plus n odd for ell = 2) peels off every prime
factor up to 2X.  What remains per n is either 1 or a single prime > 2X,
because two such factors would exceed n^2 + 1.

Both window consumers, quadratic_window_stats and chebyshev_decomposition,
run that sieve through one engine, _strike_window, which owns the n^2 + 1
buffer, the split at ell_0 = sqrt(2X) and the check that no leftover lies
in (1, 2X]; each consumer hands it only its bookkeeping.
Primes ell <= ell_0 have long progressions and go through the per-ell
generator iter_quadratic_strikes, which yields (ell, k, ell^k, idx, slices):
the window indices of the one or two progressions struck, and the same
progressions as basic slices.  The engine and the consumers use those
strided views alone; idx is yielded only for the oracle tests and the
benchmark tracer's hit count.  Primes above ell_0 go through
strike_large_primes, which reads their roots from the prime table's
root_of_minus_one column and scatters the hits in chunks with unbuffered
ufunc.at updates.  Above ell_0 every ell^k with k >= 2 exceeds 2X, so it
hits at most 2 n.  Outside the engine only the oracle tests run the
generator: the weighted sieve's own level-1 pass below X^beta builds the
same strided views from the root column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .numerics import _numpy as np, integrate_checked
from .primes import (MAX_ROOTS_MODULUS, PrimeTable, _check_memory,
                     _local_root_count, _roots_of, factorize, is_prime,
                     jacobi_table, multiplicative_suite, rho, roots_mod,
                     sieve_primes, sqrt_minus_one_lifts, x_flat)
from .reports import ExperimentReport
from .theorems import WeightedSieveParams, gamma_theta

X_OVERFLOW_CAP = 10 ** 9     # keeps n^2 + 1 inside int64 for n <= 2X
X_FACTOR_CAP = 10 ** 7       # full window factorization experiments
# bounds the square sieve's work: L moduli, each factored from the table,
# took 1.2 s at this cap with X = 1e6
MAX_SQUARE_SIEVE_L = 5 * 10 ** 5


class OverflowGuardError(ValueError):
    """Window too large for exact 64-bit arithmetic."""


def _check_window(X: int, cap: int = X_OVERFLOW_CAP) -> None:
    if not 1 <= X <= cap:
        raise OverflowGuardError(f"X must be in [1, {cap}], got {X}")


# Peaks per n beyond the prime table, by tracemalloc at X = 5e5, 1e6, 3e6
# on a fresh table to 2X, so each includes the column the window admits:
# the table's root_of_minus_one (4 B per prime, 0.6 B per n) or, for the
# counts but A_d_count, its smallest_prime_factor (4 B per entry, 8 B per
# n).
# quadratic_window_stats: 22.6 B, at the ell = 5 level: rem and p_plus
# (16 B), omega and big_omega (2 B), and that level's one int64 buffer of
# both progressions (3.2 B); almost_prime_survey and gpf_survey peak there
# too.  dartyge_survey: 27.6 to 28.1 B, after the strike pass, where the
# spf column it reads is built beside the memo (10 B) and its own arrays.
# chebyshev_decomposition: 29.6 to 31.8 B, the most at 5e5, where the
# strike pass's chunk temporaries, a fixed size, weigh most per n beside
# lam_w, g_p and rem (24 B).  weighted_sieve_experiment: 29.1 to 30.2 B
# under every weight, while g_vals is filled beside the memo, inner and
# the masks.  The five counts, each over the whole window (ell = 1 or
# d = 1) under the plateau weight, each in a fresh process: Q_ell_u 22.8
# to 25.0 B, Q_ell 21.2 to 21.9 B (both with the 0.4 MB spf column of
# primes._small_table(), which factors ell <= 1e5; that table is sieved
# at its first use, which adds 0.08 B per n at X = 1e6 in a fresh
# process), phi_sifted 21.0 to 21.1 B, A_d_count 16.4 to 18.6 B (n and
# its weights, the small table and its column too, and none of the
# table's: it reads the table's spf only through roots_mod for an
# ell > 1e5, which the count's estimate still covers), phi_sifted_coprime
# 16.3 to 17.8 B.
WINDOW_BYTES_PER_N = 26
_CHEBYSHEV_BYTES_PER_N = 33
_WEIGHTED_BYTES_PER_N = 33
_DARTYGE_BYTES_PER_N = 30
_COUNT_BYTES_PER_N = 27
_SPF = "smallest_prime_factor"  # the table column every count but A_d reads


class WindowMemoryError(ValueError):
    """Window whose arrays would not fit in the available memory."""


def _check_window_memory(X: int, bytes_per_n: int) -> None:
    """Refuse a window of bytes_per_n per n beyond the available memory."""
    _check_memory(X * bytes_per_n, f"the window of X = {X}",
                  WindowMemoryError)


def _admit_window(X: int, bytes_per_n: int, table: PrimeTable,
                  column: str = "root_of_minus_one",
                  cap: int = X_FACTOR_CAP,
                  release: Callable[[], None] | None = None) -> None:
    """The one guard of a window read from table: refuse X outside
    [1, cap] or with (X, 2X] beyond the table, then call release (what the
    new window replaces is freed there, and kept when X is refused), then
    refuse the window's bytes_per_n per n beyond the available memory,
    then build the table's column that the window reads, if it is not
    built yet: after the check's heap trim and before the window's own
    arrays, so the column does not sit among them."""
    _check_window(X, min(cap, table.limit // 2))
    if release is not None:
        release()
    _check_window_memory(X, bytes_per_n)
    getattr(table, column)  # built on first access, then cached


# ---------------------------------------------------------------------------
# smooth weights

def _mollifier_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 0 at t<=0 to 1 at t>=1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)),
                     0.0)
    return a / (a + b)


@dataclass(frozen=True)
class SmoothWeight:
    """Window weight g supported in [1, 2]; mass = integral g.

    sharp is the exact indicator of (1, 2]; bump and plateau are the usual
    compactly supported smooth shapes, both symmetric about 3/2.
    """
    mode: str
    epsilon0: float = 0.1

    def __post_init__(self):
        if self.mode not in ("sharp", "bump", "plateau"):
            raise ValueError(f"unknown weight mode {self.mode!r}")
        if not 0.0 < self.epsilon0 < 0.5:
            raise ValueError(f"epsilon0 must be in (0, 1/2), got {self.epsilon0}")

    @functools.cached_property
    def mass(self) -> float:
        """Integral of g over [1, 2], by quadrature on first read, then
        cached: only the models of A_d, Chebyshev's H1 and bt read it."""
        if self.mode == "sharp":
            return 1.0
        return integrate_checked(lambda x: weight_eval(self, x), 1.0, 2.0,
                                 tol=1e-10)

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.mode == "sharp":
            return ((x > 1.0) & (x <= 2.0)).astype(np.float64)
        if self.mode == "bump":
            inside = (x > 1.0) & (x < 2.0)
            xs = np.where(inside, x, 1.5)
            return np.where(inside,
                            np.exp(-1.0 / ((xs - 1.0) * (2.0 - xs))), 0.0)
        e = self.epsilon0
        up = _mollifier_step((x - 1.0) / e)
        down = _mollifier_step((2.0 - x) / e)
        return np.where((x > 1.0) & (x < 2.0), np.minimum(up, down), 0.0)


SHARP = SmoothWeight(mode="sharp")


def weight_eval(w: SmoothWeight, x: float) -> float:
    """Scalar g(x)."""
    return float(w.values(np.asarray([x]))[0])


def _weighted_sum(w: SmoothWeight, n: np.ndarray, X: int) -> float:
    """Sum of g(n/X) in a fixed (ascending n) order.

    Both the fast paths and the brute-force oracles funnel through this, so
    agreeing n-sets give bit-identical floats.  The values are taken
    LOG_CHUNK n at a time into one array, as the smooth weights'
    temporaries are several per value; w.values is elementwise, so the
    array, and its pairwise sum, are those of one call over all n.
    """
    vals = np.empty(len(n), dtype=np.float64)
    for a in range(0, len(n), LOG_CHUNK):
        vals[a:a + LOG_CHUNK] = w.values(
            np.asarray(n[a:a + LOG_CHUNK], dtype=np.float64) / X)
    return float(np.sum(vals))


# ---------------------------------------------------------------------------
# congruence counts Q_ell, Phi, A_d

def _Q_on_progressions(X: int, roots, ell: int, w: SmoothWeight,
                       table: PrimeTable) -> float:
    """Sum of g(p/X) over the primes p in (X, 2X] with p mod ell in roots.

    The progressions ascend like the window primes, and w.values is
    elementwise, so the sum is bitwise that of a mask over all window primes.
    """
    n = _progressions(X, roots, ell)
    n = n[table.smallest_prime_factor[n] == n]
    return _weighted_sum(w, n, X)


def Q_ell(X: int, ell: int, w: SmoothWeight, table: PrimeTable) -> float:
    """Weighted count of primes p in (X, 2X] with p^2 + 1 = 0 (mod ell)."""
    _admit_window(X, _COUNT_BYTES_PER_N, table, _SPF, X_OVERFLOW_CAP)
    return _Q_on_progressions(X, _ell_roots(ell, table), ell, w, table)


def Q_ell_brute(X: int, ell: int, w: SmoothWeight, table: PrimeTable) -> float:
    """Oracle path: test ell | p^2 + 1 directly for every window prime."""
    _check_window(X)
    qualifying = [int(p) for p in table.primes_between(X, 2 * X)
                  if (p * p + 1) % ell == 0]
    return _weighted_sum(w, np.asarray(qualifying, dtype=np.int64), X)


def _ell_roots(ell: int, table: PrimeTable) -> tuple[int, ...]:
    """Roots of a^2 + 1 = 0 (mod ell), refusing an ell out of range by name."""
    if not 1 <= ell <= MAX_ROOTS_MODULUS:
        raise ValueError(f"ell must be in [1, {MAX_ROOTS_MODULUS}], got {ell}")
    return roots_mod(ell, table).roots


def _progressions(X: int, residues, modulus: int) -> np.ndarray:
    """Ascending n in (X, 2X] lying in any of the residue classes."""
    lo = X + 1
    parts = [np.arange(lo + (a - lo) % modulus, 2 * X + 1, modulus,
                       dtype=np.int64) for a in residues]
    if len(parts) == 1:  # ascending already: no copy
        return parts[0]
    out = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    out.sort()
    return out


def Q_ell_u(X: int, ell: int, u: float, w: SmoothWeight,
            table: PrimeTable) -> float:
    """Weighted count of n in (X, 2X] with ell | n^2 + 1 and spf(n) > n^(1/u).

    The int32 spf values compare exactly against the float64 limits, which
    are taken LOG_CHUNK n at a time.
    """
    if not 1.0 <= u < math.inf:  # NaN fails too
        raise ValueError(f"u must be >= 1, got {u}")
    _admit_window(X, _COUNT_BYTES_PER_N, table, _SPF, X_OVERFLOW_CAP)
    n = _progressions(X, _ell_roots(ell, table), ell)
    keep = np.empty(len(n), dtype=bool)
    for a in range(0, len(n), LOG_CHUNK):
        m = n[a:a + LOG_CHUNK]
        np.greater(table.smallest_prime_factor[m],
                   np.power(m.astype(np.float64), 1.0 / u),
                   out=keep[a:a + LOG_CHUNK])
    n = n[keep]
    return _weighted_sum(w, n, X)


def phi_sifted(X: int, z: float, d: int, a: int, w: SmoothWeight,
               table: PrimeTable) -> float:
    """Weighted count of z-rough n in (X, 2X] with n = a (mod d)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if math.gcd(a, d) != 1:
        raise ValueError(f"a must be coprime to d = {d}, got {a}")
    if not 2 <= z < math.inf:
        raise ValueError(f"z must be >= 2, got {z}")
    _admit_window(X, _COUNT_BYTES_PER_N, table, _SPF, X_OVERFLOW_CAP)
    n = _progressions(X, [a % d], d)
    n = n[table.smallest_prime_factor[n] > z]
    return _weighted_sum(w, n, X)


def phi_sifted_coprime(X: int, z: float, d: int, w: SmoothWeight,
                       table: PrimeTable) -> float:
    """Weighted count of z-rough n in (X, 2X] coprime to d.

    The window's spf values are a view of the table; gcd(n, d) is taken
    LOG_CHUNK n at a time.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 2 <= z < math.inf:
        raise ValueError(f"z must be >= 2, got {z}")
    _admit_window(X, _COUNT_BYTES_PER_N, table, _SPF, X_OVERFLOW_CAP)
    keep = table.smallest_prime_factor[X + 1:2 * X + 1] > z
    for a in range(0, X, LOG_CHUNK):
        n = np.arange(X + 1 + a, X + 1 + min(a + LOG_CHUNK, X), dtype=np.int64)
        keep[a:a + LOG_CHUNK] &= np.gcd(n, d) == 1
    n = np.flatnonzero(keep)
    del keep
    n += X + 1
    return _weighted_sum(w, n, X)


def A_d_count(X: int, ell: int, d: int, w: SmoothWeight,
              table: PrimeTable) -> float:
    """Weighted count of n in (X, 2X] with ell | n^2 + 1 and d | n.

    A prime dividing d and ell would divide n and n^2 + 1, so gcd(d, ell) > 1
    gives 0; else n = d (a/d mod ell) (mod ell d) for each root a, ascending.
    """
    _check_window(X)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    _check_window_memory(X, _COUNT_BYTES_PER_N)
    roots = _ell_roots(ell, table)
    if math.gcd(d, ell) > 1:
        return 0.0
    n0 = [a * pow(d, -1, ell) % ell * d for a in roots]
    return _weighted_sum(w, _progressions(X, n0, ell * d), X)


def A_d_model(X: int, ell: int, d: int, w: SmoothWeight,
              table: PrimeTable) -> float:
    """The model mass * rho(ell) * X/(d * ell) of A_d."""
    return w.mass * rho(ell, table) * X / (d * ell)


# ---------------------------------------------------------------------------
# average error experiments

def _error_average(vals: np.ndarray, n: np.ndarray, D: int, k: int,
                   table: PrimeTable, main_term) -> float:
    """Sum over d <= D of tau(d)^k * max over coprime a of |class sum - main|.

    main_term(d, sums, residues) gives the main term from the class sums of
    vals over n mod d and the residues coprime to d.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    taus = [multiplicative_suite(d, table)["tau"] for d in range(1, D + 1)]
    top = max(taus, default=1)
    if top > 1 and k >= 1024 / math.log2(top):  # top^k >= 2^1024
        raise ValueError(f"k = {k} is too large: tau(d)^k reaches {top}^{k}, "
                         f"beyond the float range, for d <= {D}")
    rows = []
    for d, tau_d in enumerate(taus, 1):
        sums = np.bincount((n % d).astype(np.int64), weights=vals, minlength=d)
        residues = [a for a in range(1, d + 1) if math.gcd(a, d) == 1]
        main = main_term(d, sums, residues)
        worst = max(abs(float(sums[a % d]) - main) for a in residues)
        rows.append(tau_d ** k * worst)
    return float(np.sum(np.asarray(rows))) if rows else 0.0


def bv_error_average(X: int, k: int, w: SmoothWeight,
                     table: PrimeTable) -> ExperimentReport:
    """Divisor-weighted average of max-over-residue prime-count errors.

    Sums tau(d)^k * max_a |sum_{p=a(d)} g(p/X) - (1/phi(d)) sum_p g(p/X)|
    over d up to the level X^(1/2) exp(-sqrt(log X)).  The exponent k stands
    in for the huge fixed power the averaged bound is proved with, which is
    useless at 64-bit scale.
    """
    _check_window(X, min(X_FACTOR_CAP, table.limit // 2))
    D = int(x_flat(X))
    p = table.primes_between(X, 2 * X)
    vals = w.values(p.astype(np.float64) / X)
    total = float(np.sum(vals))
    # phi(d) is the number of residues coprime to d
    value = _error_average(vals, p, D, k, table,
                           lambda d, sums, residues: total / len(residues))
    scale = X / math.log(X) ** 2
    return ExperimentReport(
        name="bv_error_average",
        params={"X": X, "k": k, "weight": w.mode},
        counters={"d_max": D, "window_primes": len(p)},
        aggregates={"value": value, "ratio_to_X_log2": value / scale},
        notes="tau exponent k replaces the large theoretical power; "
              "ratio is report-grade")


def wolke_error_average(X: int, z: float, k: int, w: SmoothWeight,
                        table: PrimeTable) -> ExperimentReport:
    """Same average as bv_error_average with primes replaced by z-rough n.

    The main term is the mean of the coprime class sums.
    """
    _check_window(X, min(X_FACTOR_CAP, table.limit // 2))
    if not 2 <= z < math.inf:
        raise ValueError(f"z must be >= 2, got {z}")
    D = int(x_flat(X))
    n = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    n = n[table.smallest_prime_factor[n] > z]
    vals = w.values(n.astype(np.float64) / X)

    def main_term(d, sums, residues):
        return float(sum(sums[a % d] for a in residues)) / len(residues)

    value = _error_average(vals, n, D, k, table, main_term)
    scale = X / math.log(X) ** 2
    return ExperimentReport(
        name="wolke_error_average",
        params={"X": X, "z": z, "k": k, "weight": w.mode},
        counters={"d_max": D, "rough_numbers": len(n)},
        aggregates={"value": value, "ratio_to_X_log2": value / scale},
        notes="sifted analogue of bv_error_average; ratio is report-grade")


# ---------------------------------------------------------------------------
# the window factor sieve over n^2 + 1

def iter_quadratic_strikes(X: int, table: PrimeTable,
                           ell_max: int | None = None
                           ) -> Iterator[tuple[int, int, int, np.ndarray,
                                               list[slice]]]:
    """Yield (ell, k, ell^k, idx, slices) for every prime-power divisor.

    Covers every prime power ell^k dividing some n^2 + 1 for n in (X, 2X]
    with ell <= ell_max (default 2X), in ascending (ell, k) order.  The
    int64 window indices idx (n = X + 1 + i) hold one or two progressions
    of step ell^k, the smaller root's first, each in ascending n; slices
    are the same progressions as basic slices, whose views concatenate to
    the gather at idx.  The two are disjoint (r != -r mod an odd ell^k, and
    ell = 2 has one), so an in-place op on each view is the fancy-indexed
    op on idx.  Its callers use the slices alone and drop idx before the
    next level, so no two levels' index arrays are alive at once; idx is
    yielded only for the oracle tests and the benchmark tracer's hit count.
    _strike_window, its one caller in the library, runs this loop up to
    ell_0 = sqrt(2X) for both window consumers.
    """
    _check_window(X)
    lo = X + 1
    m_max = 4 * X * X + 1
    top = 2 * X if ell_max is None else min(ell_max, 2 * X)
    if table.limit < top:
        raise ValueError(f"prime table limit {table.limit} below {top}")

    if top >= 2:
        first_odd = 0 if lo % 2 == 1 else 1
        yield (2, 1, 2, np.arange(first_odd, X, 2, dtype=np.int64),
               [slice(first_odd, None, 2)])

    for ell in map(int, table.primes_between(2, top)):
        if ell % 4 != 1:
            continue
        for k, (q, r) in enumerate(sqrt_minus_one_lifts(ell, m_max), 1):
            starts = [s for s in ((r - lo) % q, (q - r - lo) % q) if s < X]
            if not starts:
                break  # deeper levels strike subsets of this one
            # both progressions in one buffer: the first one's arange runs
            # on for the second's count, which is then shifted in place
            counts = [(X - 1 - s) // q + 1 for s in starts]
            idx = np.arange(starts[0], starts[0] + sum(counts) * q, q,
                            dtype=np.int64)
            if len(starts) == 2:
                idx[counts[0]:] += starts[1] - starts[0] - counts[0] * q
            yield ell, k, q, idx, [slice(s, None, q) for s in starts]
            del idx


STRIKE_CHUNK_HITS = 1 << 14   # bound on the hits scattered per chunk
LOG_CHUNK = 1 << 14           # entries per chunk of a window-long temporary


def strike_large_primes(X: int, table: PrimeTable, ell_min: int,
                        rem: np.ndarray, visit) -> None:
    """Strike every prime power ell^k with ell = 1 (mod 4) in (ell_min, 2X].

    rem[i] holds n^2 + 1 for n = X + 1 + i with the prime powers up to
    ell_min already divided out; each struck ell^k is divided out in place.
    The primes ell = 1 (mod 4) and their roots are picked out once, from
    the table's root_of_minus_one column, so no root is derived here.  The
    primes go in ascending chunks of at most STRIKE_CHUNK_HITS level-1 hits
    (a single prime may exceed it).  For each chunk
    with a hit, visit(ells, levels) is called: levels[k - 1] = (slot, idx)
    lists the n hit by ell^k, as window indices idx with primes ells[slot].
    Level 1 is laid out as the generator yields it: ell-major, the smaller
    root's progression first, each in ascending n.  Deeper levels keep the
    entries of the level above that ell still divides.  Two primes can hit
    the same n, so rem is updated with the unbuffered np.floor_divide.at.
    _strike_window calls this above ell_0 = sqrt(2X) for both window
    consumers.
    """
    _check_window(X)
    if ell_min < 2:
        raise ValueError(f"ell_min must be >= 2 (ell = 2 is not batched), "
                         f"got {ell_min}")
    lo = X + 1
    primes = table.primes_between(ell_min, 2 * X)
    at = int(np.searchsorted(table.primes, ell_min, side="right"))
    column = table.root_of_minus_one[at:at + len(primes)]
    one_mod_four = column > 0  # the column is 0 at 2 and at 3 (mod 4)
    primes, column = primes[one_mod_four], column[one_mod_four]
    start = 0
    while start < len(primes):
        # each progression mod ell hits at most X // ell + 1 n, and a
        # chunk's first prime has the most hits
        most = 2 * (X // int(primes[start]) + 1)
        stop = start + max(1, STRIKE_CHUNK_HITS // most)
        ells = primes[start:stop]
        roots = column[start:stop].astype(np.int64)
        start = stop
        step = np.repeat(ells, 2)
        first = np.empty(len(step), dtype=np.int64)
        first[0::2] = (roots - lo) % ells
        first[1::2] = (ells - roots - lo) % ells
        count = np.maximum((X - first + step - 1) // step, 0)
        prog = np.repeat(np.arange(len(step)), count)
        offset = np.arange(len(prog)) - np.repeat(np.cumsum(count) - count,
                                                   count)
        idx = first[prog] + offset * step[prog]
        slot = prog >> 1
        levels = []
        while len(idx):
            ell_hit = ells[slot]
            np.floor_divide.at(rem, idx, ell_hit)
            levels.append((slot, idx))
            deeper = rem[idx] % ell_hit == 0
            slot, idx = slot[deeper], idx[deeper]
        if levels:
            visit(ells, levels)


def _strike_window(X: int, table: PrimeTable, small, visit
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Divide every prime power up to 2X out of n^2 + 1 over (X, 2X].

    The one place that knows the split at ell_0 = sqrt(2X).  Below it the
    generator's levels are divided out through their slices, and once the
    generator has finished (so no idx of it is alive) small(levels) gets
    every (ell, k, slices) in the generator's order.  Above it
    strike_large_primes divides in chunks and calls visit(ells, levels)
    per chunk.  Returns rem, the cofactors left, and the mask tail =
    rem > 1.  With every prime up to 2X struck, each leftover is a single
    prime beyond 2X; a leftover in (1, 2X] means a prime was missed, and
    raises ArithmeticError in every consumer.
    """
    rem = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    rem *= rem
    rem += 1
    cutoff = max(2, math.isqrt(2 * X))  # progressions above are short
    levels = []
    for ell, k, _q, idx, slices in iter_quadratic_strikes(X, table,
                                                          ell_max=cutoff):
        del idx  # freed before the next level is built
        for s in slices:
            rem[s] //= ell
        levels.append((ell, k, slices))
    small(levels)
    strike_large_primes(X, table, cutoff, rem, visit)
    tail = rem > 1
    if np.any(tail & (rem <= 2 * X)):
        raise ArithmeticError("leftover cofactor is not a prime beyond 2X")
    return rem, tail


@dataclass(frozen=True)
class QuadraticWindowStats:
    """The shape of n^2 + 1 for each n in the window (X, 2X], at index n - X - 1.

    Facts about n itself, its primality and spf(n), are the prime table's
    own; the consumers read them there.  The memo owns 10 B per n.
    """
    X: int
    omega_m: np.ndarray      # distinct prime factors of n^2 + 1 (int8)
    big_omega_m: np.ndarray  # prime factors of n^2 + 1 with multiplicity (int8)
    p_plus_m: np.ndarray     # greatest prime factor of n^2 + 1


def quadratic_window_stats(X: int, table: PrimeTable) -> QuadraticWindowStats:
    """Factor every n^2 + 1 for n in (X, 2X] by the progression sieve.

    The table memoizes one window: the same X again returns the same stats,
    and another X frees the old window before striking the new one, once
    X is in range: an X out of range is refused with the window kept.  The
    shared arrays are read-only.  A caller keeps the last window alive
    (10 B per n, about 9.5 MiB at X = 1e6) until it asks for another X or
    drops the table.
    """
    memo = table._window
    if X in memo:
        return memo[X]
    _admit_window(X, WINDOW_BYTES_PER_N, table, release=memo.clear)
    # Omega(n^2 + 1) <= log2(4 X_FACTOR_CAP^2 + 1) < 49 fits in int8
    omega = np.zeros(X, dtype=np.int8)
    big_omega = np.zeros(X, dtype=np.int8)
    p_plus = np.ones(X, dtype=np.int64)

    def small(levels):
        for ell, k, slices in levels:
            for s in slices:
                big_omega[s] += 1
                if k == 1:
                    omega[s] += 1
                p_plus[s] = ell

    one = np.int8(1)  # a Python int would take ufunc.at's slow path

    def visit(ells, levels):
        for _slot, idx in levels:
            np.add.at(big_omega, idx, one)
        slot, idx = levels[0]
        np.add.at(omega, idx, one)
        # primes ascend, so the largest one is the generator's last write
        np.maximum.at(p_plus, idx, ells[slot])

    rem, tail = _strike_window(X, table, small, visit)
    # dense masked updates: a boolean gather would copy every leftover
    omega += tail
    big_omega += tail
    np.copyto(p_plus, rem, where=tail)
    for a in (omega, big_omega, p_plus):
        a.flags.writeable = False
    memo[X] = QuadraticWindowStats(X=X, omega_m=omega, big_omega_m=big_omega,
                                   p_plus_m=p_plus)
    return memo[X]


# ---------------------------------------------------------------------------
# Chebyshev-style decomposition of sum Lambda(n) g(n/X) log(n^2 + 1)

def _left_fold(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., added left to right as += does.

    np.cumsum is a sequential accumulate, unlike the pairwise np.sum.
    """
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


def chebyshev_decomposition(X: int, vartheta: float, w: SmoothWeight,
                            table: PrimeTable) -> ExperimentReport:
    """Dual evaluation of H(X) plus its split into four modulus ranges.

    H(X) = sum_n Lambda(n) g(n/X) log(n^2+1) is computed directly and again
    through log(n^2+1) = sum of log ell over prime powers ell^k | n^2+1; the
    two must agree to floating roundoff.  The prime-support split H1..H4
    cuts at the level X^flat = X^(1/2) exp(-sqrt(log X)), at X^vartheta, and
    at squarefull moduli; H1_model is the expected main term of H1.
    """
    if not 0.5 < vartheta < 1.0:
        raise ValueError(f"vartheta must lie in (1/2, 1), got {vartheta}")
    flat = x_flat(X)
    if flat < 2.0:  # X < 650: the least prime power, 2, lies above X^flat
        raise ValueError(
            f"X = {X} has no prime power at or below X^flat = {flat:.6g}, "
            f"so the H1 main-term model is 0")
    _admit_window(X, _CHEBYSHEV_BYTES_PER_N, table)
    lo = X + 1

    # Lambda(n) g(n/X) over the window (prime-power n only)...
    lam_w = np.zeros(X, dtype=np.float64)
    # ...and g(p/X) on primes alone, for the H1..H4 split.
    g_p = np.zeros(X, dtype=np.float64)
    p_win = table.primes_between(X, 2 * X)
    idx_p = p_win - lo
    g_vals = w.values(p_win.astype(np.float64) / X)
    lam_w[idx_p] = np.log(p_win.astype(np.float64)) * g_vals
    g_p[idx_p] = g_vals
    for p in map(int, table.primes):
        power = p * p
        if power > 2 * X:  # the primes ascend: no later p has a power here
            break
        while power <= 2 * X:
            if power > X:
                lam_w[power - lo] = math.log(p) * weight_eval(w, power / X)
            power *= p

    # log(n^2 + 1) built in place and freed before the strike pass
    terms = np.arange(lo, 2 * X + 1, dtype=np.float64)
    terms *= terms
    terms += 1.0
    np.log(terms, out=terms)
    terms *= lam_w
    H_direct = float(np.sum(terms))
    del terms

    level = X ** vartheta
    H_dual = 0.0
    H = [0.0, 0.0, 0.0, 0.0]
    model_sum = 0.0

    def fold(ell, k, sum_lam, sum_g):
        # the terms of ell^k in ascending (ell, k) order, each added left to
        # right as += would to H_dual, to its one H and, in H1, to model_sum
        nonlocal H_dual, model_sum
        q = ell ** k
        log_ell = np.array([math.log(v) for v in ell.tolist()])
        H_dual = _left_fold(H_dual, log_ell * sum_lam)
        s_g = log_ell * sum_g
        part = np.select([q <= flat, k > 1, ell <= level], [0, 3, 1], 2)
        for j in range(4):
            H[j] = _left_fold(H[j], s_g[part == j])
        h1 = part == 0
        rho_q = list(map(_local_root_count, ell[h1].tolist(), k[h1].tolist()))
        model_sum = _left_fold(model_sum,
                               log_ell[h1] * rho_q / (q - q // ell)[h1])

    def small(levels):
        # (ell, k, sum of lam_w, sum of g_p) per level, folded at once; the
        # views concatenate to the gather at idx, so np.sum adds alike
        fold(*map(np.array, zip(*[
            (ell, k, np.sum(np.concatenate([lam_w[s] for s in slices])),
             np.sum(np.concatenate([g_p[s] for s in slices])))
            for ell, k, slices in levels])))

    def visit(ells, levels):
        # Bit-identical to the per-ell loop.  Each level keeps the slots in
        # ascending order, so the hits of one ell^k are one contiguous run
        # of idx; the runs of one length gather into a C-contiguous
        # (rows, length) matrix, and each row of np.sum(axis=1) is bitwise
        # the 1-D np.sum of that run.  Level 1 runs are in the generator's
        # order.  Deeper runs need not be, but above sqrt(2X) ell^k > 2X
        # for k >= 2, so they hold at most 2 hits, which add alike in any
        # order.
        m = len(ells)
        sums = np.zeros((2, m, len(levels)))
        struck = np.zeros((m, len(levels)), dtype=bool)
        for k, (slot, idx) in enumerate(levels):
            counts = np.bincount(slot, minlength=m)
            starts = np.cumsum(counts) - counts
            # a set, not np.unique: that imports numpy.ma mid-pass, and the
            # new module objects pin freed heap
            for run in sorted(set(counts.tolist()) - {0}):
                rows = np.flatnonzero(counts == run)
                at = idx[starts[rows, None] + np.arange(run)]
                sums[0, rows, k] = np.sum(lam_w[at], axis=1)
                sums[1, rows, k] = np.sum(g_p[at], axis=1)
            struck[:, k] = counts > 0
        # a boolean read walks the C-ordered (slot, k - 1) grid row by row,
        # which is the generator's (ell, k) order
        slot, k = np.nonzero(struck)
        fold(ells[slot], k + 1, sums[0][struck], sums[1][struck])

    rem, tail = _strike_window(X, table, small, visit)
    # the products with the log of each leftover cofactor, compacted to the
    # front of lam_w and g_p a chunk at a time: each prefix holds the
    # gather at tail of the products, in the same order and number, so
    # np.sum adds it alike without a window-long copy
    kept = 0
    for a in range(0, X, LOG_CHUNK):
        logs = rem[a:a + LOG_CHUNK].astype(np.float64)
        np.log(logs, out=logs)
        at = np.flatnonzero(tail[a:a + LOG_CHUNK])
        b = kept + len(at)
        lam_w[kept:b] = lam_w[a:a + LOG_CHUNK][at] * logs[at]
        g_p[kept:b] = g_p[a:a + LOG_CHUNK][at] * logs[at]
        kept = b
    H_dual += float(np.sum(lam_w[:kept]))
    H[2] += float(np.sum(g_p[:kept]))  # tail primes exceed X^vartheta

    H1_model = w.mass * X * model_sum / math.log(X)
    rel = abs(H_direct - H_dual) / abs(H_direct)
    return ExperimentReport(
        name="chebyshev_decomposition",
        params={"X": X, "vartheta": vartheta, "weight": w.mode},
        counters={"window_primes": len(p_win)},
        aggregates={"H_direct": H_direct, "H_dual": H_dual,
                    "H1": H[0], "H2": H[1], "H3": H[2], "H4": H[3],
                    "H1_model": H1_model,
                    "H1_over_model": H[0] / H1_model,
                    "H4_over_X": H[3] / X,
                    "level_flat": flat, "level_vartheta": level},
        residuals={"identity_rel": rel},
        notes="identity residual must vanish to roundoff; H4/X is report-grade")


def bt_exception_count(X: int, theta: float, w: SmoothWeight,
                       table: PrimeTable) -> ExperimentReport:
    """Count moduli in (X^theta, 2X^theta] where Q_ell beats its upper bound.

    The bound is (2/gamma(theta)) * mass * rho(ell) * X / (phi(ell) log X);
    moduli with rho(ell) = 0 can never be exceptions.  Each Q_ell is summed as
    Q_ell sums it, at a cost of O(rho(ell) X/ell) plus one roots_mod per ell.
    """
    _check_window(X, min(X_FACTOR_CAP, table.limit // 2))
    if X < 2:
        raise ValueError(f"X must be >= 2 so that log X > 0, got {X}")
    level = gamma_theta(theta)  # validates theta's range
    L = int(X ** theta)
    exceptions = 0
    scale = 2.0 / level * w.mass * X / math.log(X)
    for ell in range(L + 1, 2 * L + 1):
        roots = roots_mod(ell, table).roots
        if not roots:
            continue
        q_val = _Q_on_progressions(X, roots, ell, w, table)
        phi_ell = multiplicative_suite(ell, table)["phi"]
        if q_val > scale * len(roots) / phi_ell:
            exceptions += 1
    return ExperimentReport(
        name="bt_exception_count",
        params={"X": X, "theta": theta, "weight": w.mode},
        counters={"moduli": L, "exceptions": exceptions},
        aggregates={"fraction": exceptions / L, "L": float(L)},
        notes="exception fraction against the residue-class upper bound")


# ---------------------------------------------------------------------------
# character-sum and square-sieve checks

WEIL_CHUNK = 2 ** 14  # ell per gather: keeps the index arrays near 0.1 MB


def _literal_weil_sum(m: int, pq: int, chi: np.ndarray) -> int:
    """sum_l (m l^2 - 1 | pq) over l mod pq, read from chi = jacobi_table(pq).

    With m reduced mod pq first, m l^2 < pq^3 <= 8e15 stays inside int64.
    """
    m %= pq
    total = 0
    for lo in range(0, pq, WEIL_CHUNK):
        ell = np.arange(lo, min(lo + WEIL_CHUNK, pq), dtype=np.int64)
        total += int(chi[(m * ell * ell - 1) % pq].sum())
    return total


def weil_sum_check(p: int, q: int, m: int) -> ExperimentReport:
    """Complete Jacobi-symbol sum sum_l (m l^2 - 1 | pq) against sqrt(pq)."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if p % 2 == 0 or q % 2 == 0 or not (is_prime(p) and is_prime(q)):
        raise ValueError(f"p and q must be odd primes, got {p}, {q}")
    pq = p * q
    if pq > 10 ** 5:
        raise ValueError(f"pq must be <= 1e5, got {pq}")
    S = _literal_weil_sum(m, pq, jacobi_table(pq))
    bound = math.sqrt(pq)
    degenerate = math.gcd(m, pq) > 1
    ok = degenerate or abs(S) <= bound
    return ExperimentReport(
        name="weil_sum_check",
        params={"p": p, "q": q, "m": m},
        counters={"degenerate": int(degenerate), "bound_holds": int(ok)},
        aggregates={"S": float(S), "abs_S": float(abs(S)), "bound": bound},
        notes="degenerate means gcd(m, pq) > 1, where no bound is asserted")


def weil_prime_sums(p: int) -> np.ndarray:
    """S_p(a) = sum_x legendre(a x^2 - 1, p) for every residue a mod p.

    Counting the square roots of v as 1 + leg(v) turns the x-sum into

        S_p(a) = sum_v leg(a v - 1) + sum_v leg(v) leg(a v - 1).

    For a = 0 both sums are over the constant leg(-1), so S_p(0) =
    p leg(-1).  For a != 0, v -> u = a v is a bijection mod p and
    leg(v) = leg(a) leg(u) by multiplicativity (leg(a^-1) = leg(a)), so

        S_p(a) = A + leg(a) B,  A = sum_u leg(u - 1),
                                B = sum_u leg(u) leg(u - 1).

    Only that bijection and multiplicativity are used: A and B are summed
    from the Legendre table, not taken from a character-sum evaluation, so
    the whole row costs O(p) in exact int64 arithmetic.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    leg, A, B = _legendre_sums(p)
    out = A + B * leg
    out[0] = p * leg[p - 1]
    return out


def _legendre_sums(p: int) -> tuple[np.ndarray, int, int]:
    """The Legendre table mod the odd prime p, and A, B of weil_prime_sums."""
    leg = np.full(p, -1, dtype=np.int64)
    leg[0] = 0
    leg[(np.arange(1, p // 2 + 1, dtype=np.int64) ** 2) % p] = 1
    A = int(leg.sum())  # u -> u - 1 permutes the residues too
    B = int(leg[1:] @ leg[:-1])  # the u = 0 term has leg(0) = 0
    return leg, A, B


def _weil_peak(p: int) -> int:
    """max |S_p(a)| over a >= 1 without the row: S_p(a) = A + leg(a) B, and
    both leg(a) = 1 and leg(a) = -1 occur there for an odd prime p."""
    _, A, B = _legendre_sums(p)
    return max(abs(A + B), abs(A - B))


def weil_exhaustive(max_pq: int) -> ExperimentReport:
    """Check |S| <= sqrt(pq) for every pair p < q with pq <= max_pq, all m.

    The complete sum over l mod pq splits through the residue pairing into
    S_p(m mod p) * S_q(m mod q) exactly; the first three pairs and the last
    are also cross-checked against the literal Jacobi-symbol sum.
    """
    if not 15 <= max_pq <= 2 * 10 ** 5:
        raise ValueError(f"max_pq must be in [15, 2e5], got {max_pq}")
    primes = [int(v) for v in sieve_primes(max_pq // 3).primes if v % 2 == 1]
    pairs = []
    for i, p in enumerate(primes):
        if p * p > max_pq:
            break
        for q in primes[i + 1:]:
            if p * q > max_pq:
                break
            pairs.append((p, q))
    checked = pairs[:3] + pairs[-1:]
    # Each prime keeps max |S_p(a)| over a >= 1, whose exact integer
    # products are the worst |S| of each pair.  That peak needs A and B but
    # no row: all rows together hold sum(p) int64s, ~1.6 GB at max_pq = 2e5.
    # Rows are built for the checked pairs and to count the bad m alone.
    peak = {v: _weil_peak(v) for v in {v for pair in pairs for v in pair}}
    sums = {v: weil_prime_sums(v) for pair in checked for v in pair}
    violations = 0
    m_total = 0
    worst_ratio = 0.0
    for p, q in pairs:
        worst = float(peak[p] * peak[q])
        bound = math.sqrt(p * q)
        if worst > bound:  # rebuild the two rows to count the bad m
            violations += int(np.sum(np.abs(np.outer(
                weil_prime_sums(p)[1:], weil_prime_sums(q)[1:])) > bound))
        m_total += (p - 1) * (q - 1)
        worst_ratio = max(worst_ratio, worst / bound)

    direct_checks = 0
    for p, q in checked:
        pq = p * q
        chi = jacobi_table(pq)
        for m in (1, 2, pq - 1):
            if math.gcd(m, pq) > 1:
                continue
            direct = _literal_weil_sum(m, pq, chi)
            split = int(sums[p][m % p]) * int(sums[q][m % q])
            if direct != split:
                raise ArithmeticError(
                    f"residue-pair split disagrees with the literal sum "
                    f"at (p, q, m) = ({p}, {q}, {m})")
            direct_checks += 1
    return ExperimentReport(
        name="weil_exhaustive",
        params={"max_pq": max_pq},
        counters={"pairs": len(pairs), "m_values": m_total,
                  "violations": violations, "direct_checks": direct_checks},
        aggregates={"worst_ratio": worst_ratio},
        notes="worst_ratio is max |S| / sqrt(pq) over all pairs and m")


def square_sieve_count(X: int, L: int, table: PrimeTable) -> int:
    """Count pairs (ell, n), ell in (L, 2L], n in (X, 2X], ell^2 | n^2 + 1."""
    _check_window(X, X_FACTOR_CAP)
    if not 1 <= L <= X:
        raise OverflowGuardError(f"need 1 <= L <= X, got L={L}")
    if L > MAX_SQUARE_SIEVE_L:
        raise OverflowGuardError(
            f"L must be <= {MAX_SQUARE_SIEVE_L}, got L={L}: the count factors "
            f"each ell in (L, 2L], and the cap bounds that work")
    total = 0
    for ell in range(L + 1, 2 * L + 1):
        # ell <= 2X lies in the table, so ell^2 is factored without search
        q = ell * ell
        for a in _roots_of([(p, 2 * e)
                            for p, e in factorize(ell, table).pairs]):
            total += (2 * X - a) // q - (X - a) // q
    return total


# ---------------------------------------------------------------------------
# weighted sieve and the theorem surveys

def _odd_window_primes(X: int, table: PrimeTable) -> np.ndarray:
    """Mask of the odd primes p in the window, at index p - X - 1."""
    mask = np.zeros(X, dtype=bool)
    mask[table.primes_between(max(X, 2), 2 * X) - (X + 1)] = True
    return mask


def weighted_sieve_experiment(X: int, params: WeightedSieveParams,
                              w: SmoothWeight,
                              table: PrimeTable) -> ExperimentReport:
    """Richert-weighted sum over window primes p on m = (p^2 + 1)/2.

    Psi = S(A, z) - (1/eta) sum_{z <= q < y} w_q S(A_q, z) with
    w_q = 1 - log q / log y, z = X^alpha, y = X^beta, and sifting by the odd
    primes below z.  The report carries the decomposition-identity residual,
    the count of survivors with few prime factors, and the exhaustive check
    of the weight inequality on squarefree survivors.
    """
    _admit_window(X, _WEIGHTED_BYTES_PER_N, table)
    stats = quadratic_window_stats(X, table)
    z = X ** params.alpha
    y = X ** params.beta
    eta = params.eta
    log_y = math.log(y)

    # sifting pass: m z-rough means no odd prime factor below z.  Each
    # prime ell = 1 (mod 4) below y <= X divides n^2 + 1 on two progressions
    # that start inside the window, struck smaller root first as the
    # strike generator orders them; the roots are the table's column.
    rough = np.ones(X, dtype=bool)
    inner = np.zeros(X, dtype=np.float64)
    wq_slices: list[tuple[float, list[slice]]] = []  # (w_ell, its slices)
    below_y = int(np.searchsorted(table.primes, y))
    lo = X + 1
    for ell, r in zip(table.primes[:below_y].tolist(),
                      table.root_of_minus_one[:below_y].tolist()):
        if r == 0:  # ell = 2, which m drops, or ell = 3 (mod 4)
            continue
        slices = [slice((r - lo) % ell, None, ell),
                  slice((ell - r - lo) % ell, None, ell)]
        if ell < z:
            for s in slices:
                rough[s] = False
        else:
            # the progressions are disjoint: one addition per n, as in
            # np.add.at, in the same ell order
            w_ell = 1.0 - math.log(ell) / log_y
            for s in slices:
                inner[s] += w_ell
            wq_slices.append((w_ell, slices))

    eligible = _odd_window_primes(X, table)
    eligible &= rough
    del rough
    # g(n/X) at the eligible n alone, 0 elsewhere, LOG_CHUNK of them at a
    # time, as the smooth weights' temporaries are several per value;
    # (X + 1 + i) / X is the float division n / X elementwise, as over the
    # whole window
    at = np.flatnonzero(eligible)
    g_vals = np.zeros(X, dtype=np.float64)
    for c in range(0, len(at), LOG_CHUNK):
        i = at[c:c + LOG_CHUNK]
        g_vals[i] = w.values((X + 1 + i).astype(np.float64) / X)
    S_A = float(np.sum(g_vals))
    below_eta = inner < eta
    # g_vals * (1 - inner / eta) over inner's own buffer (x * y is y * x
    # bitwise)
    inner /= eta
    np.subtract(1.0, inner, out=inner)
    inner *= g_vals
    psi_direct = float(np.sum(inner))
    del inner

    sum_wq_SAq = 0.0
    for w_ell, slices in wq_slices:
        # the views concatenate to the gather g_vals[idx] of the yield, in
        # its order, so the pairwise sum is bitwise the same
        g_ell = np.concatenate([g_vals[s] for s in slices])
        sum_wq_SAq += w_ell * float(np.sum(g_ell))
    psi_identity = S_A - sum_wq_SAq / eta
    identity_rel = abs(psi_direct - psi_identity) / max(1.0, abs(psi_direct))

    omega_half = stats.big_omega_m - 1  # m = (p^2+1)/2 drops the single 2
    positive = eligible & (g_vals > 0.0) & below_eta
    few_factors = positive & (omega_half <= params.r)

    # weight inequality on squarefree z-rough survivors with positive weight
    squarefree = stats.big_omega_m == stats.omega_m
    check = positive & squarefree
    n_check = (X + 1 + np.flatnonzero(check)).astype(np.float64)
    log_m_half = np.log(n_check ** 2 + 1.0) - math.log(2.0)
    violations = int(np.sum(omega_half[check] >= eta + log_m_half / log_y))

    return ExperimentReport(
        name="weighted_sieve_experiment",
        params={"X": X, "alpha": params.alpha, "beta": params.beta,
                "delta": params.delta, "r": params.r, "weight": w.mode},
        counters={"survivors": int(np.sum(eligible)),
                  "positive_weight": int(np.sum(positive)),
                  "omega_le_r": int(np.sum(few_factors)),
                  "squarefree_checked": int(np.sum(check)),
                  "weight_bound_violations": violations},
        aggregates={"S_A": S_A, "psi_direct": psi_direct,
                    "psi_identity": psi_identity, "eta": eta,
                    "z": z, "y": y, "sum_wq_SAq": sum_wq_SAq},
        residuals={"psi_identity_rel": identity_rel},
        notes=f"configuration warning: z = {z:.3f} <= 3 sifts nothing"
        if z <= 3.0
        else "decomposition identity and weight bound checked exhaustively")


def almost_prime_survey(X: int, r: int, table: PrimeTable,
                        w: SmoothWeight = SHARP) -> ExperimentReport:
    """Count window primes p with at most r prime factors in (p^2 + 1)/2."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    stats = quadratic_window_stats(X, table)
    # at_most[j] counts the odd window primes p with Omega(p^2 + 1) <= j,
    # that is with at most j - 1 prime factors in (p^2 + 1)/2
    big_omega = stats.big_omega_m[_odd_window_primes(X, table)]
    at_most = np.cumsum(np.bincount(big_omega, minlength=8))
    counters = {"window_odd_primes": len(big_omega)}
    for j in range(1, 7):
        counters[f"r={j}"] = int(at_most[j + 1])
    counters["count"] = int(at_most[min(r + 1, len(at_most) - 1)])
    return ExperimentReport(
        name="almost_prime_survey",
        params={"X": X, "r": r, "weight": w.mode},
        counters=counters,
        aggregates={"fraction": counters["count"]
                    / max(1, counters["window_odd_primes"])},
        notes="counts are monotone in r by construction")


def gpf_survey(X: int, vartheta: float, table: PrimeTable) -> ExperimentReport:
    """Fraction of window primes p whose p^2 + 1 has a factor above p^vartheta."""
    if not 0.0 < vartheta < 2.0:
        raise ValueError(f"vartheta must lie in (0, 2), got {vartheta}")
    stats = quadratic_window_stats(X, table)
    p = table.primes_between(X, 2 * X)
    qualifies = stats.p_plus_m[p - (X + 1)].astype(np.float64) \
        > p.astype(np.float64) ** vartheta
    primes_total = len(p)
    count = int(np.sum(qualifies))
    return ExperimentReport(
        name="gpf_survey",
        params={"X": X, "vartheta": vartheta},
        counters={"window_primes": primes_total, "qualifiers": count},
        aggregates={"fraction": count / max(1, primes_total)},
        notes="report-grade positivity proxy for the greatest-factor bound")


def _u_rough(X: int, table: PrimeTable, u: float) -> np.ndarray:
    """Mask of the window n with spf(n) > n^(1/u), LOG_CHUNK n at a time.

    The in-place power takes the same path as n ** (1 / u), and the int32
    spf values compare exactly against the float64 limits.
    """
    rough = np.empty(X, dtype=bool)
    for a in range(0, X, LOG_CHUNK):
        b = min(a + LOG_CHUNK, X)
        lim = np.arange(X + 1 + a, X + 1 + b, dtype=np.float64)
        lim **= 1.0 / u
        np.greater(table.smallest_prime_factor[X + 1 + a:X + 1 + b], lim,
                   out=rough[a:b])
    return rough


def dartyge_survey(X: int, u: float, table: PrimeTable) -> ExperimentReport:
    """Distribution of log P+(n^2+1)/log n over n with spf(n) > n^(1/u)."""
    if not 1.0 < u < math.inf:
        raise ValueError(f"u must exceed 1, got {u}")
    _admit_window(X, _DARTYGE_BYTES_PER_N, table)
    stats = quadratic_window_stats(X, table)
    qual = _u_rough(X, table, u)
    n_q = X + 1 + np.flatnonzero(qual)
    # log P+(n^2+1) / log n, each log taken in place in its float64 copy
    ratio = stats.p_plus_m[qual].astype(np.float64)
    np.log(ratio, out=ratio)
    log_n = n_q.astype(np.float64)
    np.log(log_n, out=log_n)
    ratio /= log_n
    del log_n

    # Omega(m) = 1 + Omega(m / spf(m)) for every cofactor m = n / spf(n)
    # <= X, filled in doubling blocks [lo, 2 lo) of at most LOG_CHUNK
    # entries: m / spf(m) <= m / 2 lies in an earlier block, complete by
    # then.  Omega < 25 below 2e7 fits in int8.
    spf_all = table.smallest_prime_factor
    omega_cofactor = np.zeros(X + 1, dtype=np.int8)
    lo = 2
    while lo <= X:
        hi = min(2 * lo, lo + LOG_CHUNK, X + 1)
        omega_cofactor[lo:hi] = \
            omega_cofactor[np.arange(lo, hi) // spf_all[lo:hi]] + 1
        lo = hi
    # only n_q's length is read from here on, so its buffer takes the
    # cofactors
    np.floor_divide(n_q, spf_all[n_q], out=n_q)
    omega_n = omega_cofactor[n_q] + 1
    del omega_cofactor

    gt1 = ratio > 1.0
    few = omega_n <= 11
    edges = np.arange(0.0, 2.3001, 0.1)
    hist, _ = np.histogram(ratio, bins=edges)
    counters = {"qualifiers": int(len(n_q)),
                "ratio_gt_1": int(np.sum(gt1)),
                "omega_n_le_11": int(np.sum(few)),
                "ratio_gt_1_and_omega_le_11": int(np.sum(gt1 & few))}
    for lo_edge, count in zip(edges[:-1], hist):
        counters[f"hist_{lo_edge:.1f}"] = int(count)
    return ExperimentReport(
        name="dartyge_survey",
        params={"X": X, "u": u},
        counters=counters,
        aggregates={"ratio_mean": float(np.mean(ratio)) if len(n_q) else 0.0,
                    "ratio_max": float(np.max(ratio)) if len(n_q) else 0.0},
        notes="histogram bins are [lo, lo + 0.1) over the ratio; report-grade")
