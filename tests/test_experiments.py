"""Window experiments: congruence counts, identities, and exhaustive checks."""

import ast
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sievekit import experiments, primes
from sievekit.experiments import (
    MAX_SQUARE_SIEVE_L,
    SHARP,
    A_d_count,
    A_d_model,
    OverflowGuardError,
    Q_ell,
    Q_ell_brute,
    Q_ell_u,
    SmoothWeight,
    almost_prime_survey,
    bt_exception_count,
    bv_error_average,
    chebyshev_decomposition,
    dartyge_survey,
    gpf_survey,
    iter_quadratic_strikes,
    phi_sifted,
    phi_sifted_coprime,
    quadratic_window_stats,
    square_sieve_count,
    strike_large_primes,
    weight_eval,
    weighted_sieve_experiment,
    weil_exhaustive,
    weil_prime_sums,
    weil_sum_check,
    wolke_error_average,
)
from sievekit.primes import (
    factorize,
    jacobi,
    jacobi_table,
    multiplicative_suite,
    rho,
    roots_mod,
    sieve_primes,
    x_flat,
)
from sievekit.reports import to_json
from sievekit.theorems import WeightedSieveParams, solve_delta

BUMP = SmoothWeight(mode="bump")
PLATEAU = SmoothWeight(mode="plateau")
MODES = (SHARP, BUMP, PLATEAU)


# -------------------------------------------------------------------- weights

def test_weight_masses():
    assert SHARP.mass == 1.0
    assert BUMP.mass == pytest.approx(0.007029858406683736, abs=1e-9)
    # symmetric ramps cancel: the plateau mass is the plateau width plus
    # exactly one full ramp
    assert PLATEAU.mass == pytest.approx(0.9, abs=1e-10)


def test_weight_values():
    assert weight_eval(SHARP, 1.0) == 0.0
    assert weight_eval(SHARP, 1.5) == 1.0
    assert weight_eval(SHARP, 2.0) == 1.0
    assert weight_eval(SHARP, 2.0001) == 0.0
    for w in (BUMP, PLATEAU):
        assert weight_eval(w, 1.0) == 0.0
        assert weight_eval(w, 2.0) == 0.0
        assert 0.0 < weight_eval(w, 1.5) <= 1.0
    # plateau is flat at 1 between the ramps; the ramp midpoint sits at 1/2
    assert weight_eval(PLATEAU, 1.5) == 1.0
    assert weight_eval(PLATEAU, 1.0 + 0.5 * PLATEAU.epsilon0) == pytest.approx(
        0.5, abs=1e-12)


def test_weight_symmetry():
    xs = np.linspace(1.0, 2.0, 101)
    for w in (BUMP, PLATEAU):
        vals = w.values(xs)
        assert np.allclose(vals, vals[::-1], atol=1e-12)


def test_weight_validation():
    with pytest.raises(ValueError):
        SmoothWeight(mode="box")
    with pytest.raises(ValueError):
        SmoothWeight(mode="plateau", epsilon0=0.5)


# ----------------------------------------------------------- congruence counts

def test_q_ell_hand_examples(prime_table):
    # window (10, 20]: primes 11, 13, 17, 19; p^2+1 = 122, 170, 290, 362
    assert Q_ell(10, 5, SHARP, prime_table) == 2.0   # 170, 290
    assert Q_ell(10, 1, SHARP, prime_table) == 4.0
    assert Q_ell(10, 3, SHARP, prime_table) == 0.0
    assert Q_ell(2000, 13, SHARP, prime_table) == 41.0
    # the 64-bit window guard rejects X before touching the table
    Q_ell(10 ** 6, 5, SHARP, prime_table)
    with pytest.raises(OverflowGuardError):
        Q_ell(10 ** 9 + 1, 5, SHARP, prime_table)


def test_q_ell_rejects_window_beyond_table():
    # (X, 2X] must lie inside the spf table the progressions are read from
    short = sieve_primes(1000)
    assert Q_ell(500, 5, SHARP, short) == Q_ell_brute(500, 5, SHARP, short)
    with pytest.raises(OverflowGuardError, match=r"X must be in \[1, 500\]"):
        Q_ell(501, 5, SHARP, short)


def test_q_ell_matches_brute_exactly(prime_table):
    for X in (10, 100, 1000, 10000):
        for ell in (1, 2, 5, 13, 25, 65, 101, 169, 200):
            for w in MODES:
                assert Q_ell(X, ell, w, prime_table) == Q_ell_brute(
                    X, ell, w, prime_table)


@given(st.integers(10, 10 ** 4), st.integers(1, 200),
       st.sampled_from(MODES))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_q_ell_brute_property(prime_table, X, ell, w):
    assert Q_ell(X, ell, w, prime_table) == Q_ell_brute(X, ell, w, prime_table)


def test_q_ell_u_hand_examples(prime_table):
    # (10, 20]: n = 18 has 25 | 325; spf(18)=2 fails the u=13 cut for no n?
    # brute: n with 25 | n^2+1 in (10,20] is n=18 only; spf(18)=2 > 18^(1/13)
    assert Q_ell_u(10, 25, 13.0, SHARP, prime_table) == 1.0
    assert Q_ell_u(10, 5, 1.0, SHARP, prime_table) == 0.0
    with pytest.raises(ValueError):
        Q_ell_u(10, 5, 0.5, SHARP, prime_table)


def test_q_ell_u_brute(prime_table):
    X, spf = 500, prime_table.smallest_prime_factor
    for ell in (1, 5, 13):
        for u in (2.0, 5.0, 11.2):
            brute = [n for n in range(X + 1, 2 * X + 1)
                     if (n * n + 1) % ell == 0
                     and spf[n] > n ** (1.0 / u)]
            assert Q_ell_u(X, ell, u, SHARP, prime_table) == float(len(brute))


def test_q_ell_u_large_u_recovers_all(prime_table):
    # n^(1/50) < 2 for every window n here, so nothing is sifted
    all_n = Q_ell_u(1000, 13, 50.0, SHARP, prime_table)
    brute = sum(1 for n in range(1001, 2001) if (n * n + 1) % 13 == 0)
    assert all_n == float(brute)


def test_phi_sifted_hand_examples(prime_table):
    assert phi_sifted(10, 2.0, 1, 1, SHARP, prime_table) == 5.0
    assert phi_sifted(10, 4.0, 1, 1, SHARP, prime_table) == 4.0
    with pytest.raises(ValueError):
        phi_sifted(10, 2.0, 4, 2, SHARP, prime_table)
    with pytest.raises(ValueError):
        phi_sifted(10, 1.5, 1, 1, SHARP, prime_table)


def test_phi_sifted_brute(prime_table):
    X, z, d = 300, 7.0, 5
    spf = prime_table.smallest_prime_factor
    for a in (1, 2, 3, 4):
        brute = [n for n in range(X + 1, 2 * X + 1)
                 if n % d == a and spf[n] > z]
        assert phi_sifted(X, z, d, a, SHARP, prime_table) == float(len(brute))


def test_phi_sifted_coprime_is_sum_over_residues(prime_table):
    X, z, d = 400, 5.0, 6
    total = phi_sifted_coprime(X, z, d, SHARP, prime_table)
    parts = sum(phi_sifted(X, z, d, a, SHARP, prime_table)
                for a in (1, 5))
    assert total == parts


def test_a_d_count_hand_examples(prime_table):
    # (10, 20]: 5 | n^2+1 at n in {12, 13, 17, 18}; of these 3 | n at n=12, 18
    assert A_d_count(10, 5, 3, SHARP, prime_table) == 2.0
    assert A_d_model(10, 5, 3, SHARP, prime_table) == pytest.approx(
        20.0 / 15.0, abs=1e-15)


def test_a_d_count_brute(prime_table):
    X = 200
    for ell in (1, 2, 5, 13, 25, 65):
        for d in (1, 2, 3, 4, 5, 6, 10, 13, 15):
            brute = np.asarray([n for n in range(X + 1, 2 * X + 1)
                                if (n * n + 1) % ell == 0 and n % d == 0],
                               dtype=np.float64)
            assert A_d_count(X, ell, d, SHARP, prime_table) == len(brute)
            for w in MODES:
                # summed in ascending n, as the fast path sums
                want = float(np.sum(w.values(brute / X)))
                assert A_d_count(X, ell, d, w, prime_table) == want, (
                    ell, d, w.mode)


def test_a_d_count_shared_factor_is_zero(prime_table):
    # a prime dividing d and ell would divide both n and n^2 + 1
    for ell, d in ((5, 5), (65, 13), (10, 4), (2, 2), (325, 15)):
        assert A_d_count(10 ** 4, ell, d, PLATEAU, prime_table) == 0.0


@pytest.mark.parametrize("d", [0, -3])
@pytest.mark.parametrize("count", [
    lambda d, t: A_d_count(100, 5, d, SHARP, t),
    lambda d, t: phi_sifted(100, 2.0, d, 1, SHARP, t),
    lambda d, t: phi_sifted_coprime(100, 2.0, d, SHARP, t),
], ids=["A_d_count", "phi_sifted", "phi_sifted_coprime"])
def test_modulus_d_below_one_is_rejected(prime_table, count, d):
    with pytest.raises(ValueError, match=f"d must be >= 1, got {d}"):
        count(d, prime_table)


def _square_sieve_pairs(X, L):
    """Oracle: the pairs (ell, n), ell in (L, 2L], n in (X, 2X], with
    ell^2 | n^2 + 1, tested one by one."""
    return sum((n * n + 1) % (ell * ell) == 0
               for n in range(X + 1, 2 * X + 1)
               for ell in range(L + 1, 2 * L + 1))


def test_square_sieve_count(prime_table):
    assert square_sieve_count(10, 2, prime_table) == 0
    assert square_sieve_count(10, 4, prime_table) == 1
    # pairs, not n: two n in (3000, 6000] have both 13^2 and 17^2 dividing
    assert square_sieve_count(3000, 9, prime_table) == 55
    for X, L in [(1000, 3), (4000, 7), (3000, 9), (2500, 13), (3500, 15),
                 (4000, 20), (4000, 100)]:
        want = _square_sieve_pairs(X, L)
        assert want > 0, (X, L)
        assert square_sieve_count(X, L, prime_table) == want, (X, L)


def test_square_sieve_factors_each_ell_from_the_table(monkeypatch):
    # ell <= 2L <= 2X lies in the table, so no ell^2 needs a search: with
    # the trial-division table cut to {2}, any factorization beyond the
    # given table would reach the primality test or Pollard-Brent
    def refuse(n):
        raise AssertionError(f"searched for a factor of {n}")
    monkeypatch.setattr(primes, "is_prime", refuse)
    monkeypatch.setattr(primes, "_pollard_brent", refuse)
    monkeypatch.setattr(primes, "_small_table", lambda: sieve_primes(2))
    for X, L in [(1000, 3), (3000, 9), (4000, 100)]:
        table = sieve_primes(2 * X)
        assert square_sieve_count(X, L, table) == _square_sieve_pairs(X, L)


def test_square_sieve_refuses_l_above_the_work_cap():
    # the refusal comes before any table read, so a tiny table will do
    L = MAX_SQUARE_SIEVE_L + 1
    with pytest.raises(OverflowGuardError) as err:
        square_sieve_count(L, L, sieve_primes(2))
    assert str(err.value) == (
        f"L must be <= 500000, got L={L}: the count factors each ell in "
        f"(L, 2L], and the cap bounds that work")


# -------------------------------------------------------- strikes and windows

def test_strikes_reconstruct_factorizations(prime_table):
    X = 300
    n = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    acc = np.ones(X, dtype=object)
    for ell, k, q, idx, _slices in iter_quadratic_strikes(X, prime_table):
        assert q == ell ** k
        acc[idx] *= ell
    for i, nv in enumerate(map(int, n)):
        m = nv * nv + 1
        rem = m // int(acc[i])
        assert m % int(acc[i]) == 0
        assert rem == 1 or (rem > 2 * X and factorize(rem).pairs[0][1] == 1
                            and len(factorize(rem).pairs) == 1)


def test_window_stats_match_brute(prime_table):
    X = 500
    stats = quadratic_window_stats(X, prime_table)
    assert len(stats.omega_m) == X
    for i, nv in enumerate(range(X + 1, 2 * X + 1)):
        fac = factorize(nv * nv + 1)
        assert stats.omega_m[i] == len(fac.pairs)
        assert stats.big_omega_m[i] == sum(e for _, e in fac.pairs)
        assert stats.p_plus_m[i] == fac.pairs[-1][0]


def test_window_stats_cached(prime_table):
    a = quadratic_window_stats(800, prime_table)
    b = quadratic_window_stats(800, prime_table)
    assert a is b


def test_window_memo_holds_only_the_last_window(prime_table):
    quadratic_window_stats(800, prime_table)
    b = quadratic_window_stats(900, prime_table)
    assert list(prime_table._window) == [900]
    assert prime_table._window[900] is b


def test_window_memo_survives_a_refused_x():
    table = sieve_primes(2000)
    a = quadratic_window_stats(1000, table)
    for X in (0, 5000):  # outside [1, table.limit // 2]
        with pytest.raises(OverflowGuardError):
            quadratic_window_stats(X, table)
        assert table._window == {1000: a}
    assert quadratic_window_stats(1000, table) is a


def test_window_memo_frees_the_old_window_before_the_memory_check(
        monkeypatch):
    table = sieve_primes(2000)
    quadratic_window_stats(1000, table)
    held = []
    check = experiments._check_window_memory

    def record(X, bytes_per_n):
        held.append(dict(table._window))
        return check(X, bytes_per_n)
    monkeypatch.setattr(experiments, "_check_window_memory", record)
    b = quadratic_window_stats(900, table)
    assert held == [{}] and table._window == {900: b}


def test_window_memo_is_per_table():
    first, second = sieve_primes(4000), sieve_primes(4000)
    a = quadratic_window_stats(1000, first)
    b = quadratic_window_stats(1000, second)
    assert a is not b
    assert first._window[1000] is a and second._window[1000] is b


def test_window_memo_has_no_size_cap():
    table = sieve_primes(2_000_002)
    a = quadratic_window_stats(1_000_001, table)
    assert quadratic_window_stats(1_000_001, table) is a


def test_window_memo_arrays_are_read_only(prime_table):
    stats = quadratic_window_stats(800, prime_table)
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError):
                value[0] = 0


def _memo_arrays(stats):
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), np.ndarray)}


def test_window_memo_owns_at_most_10_bytes_per_n(prime_table):
    # the memo holds the shape of n^2 + 1 alone: primality and spf(n) are
    # read from the table, which the memo neither copies nor locks
    X = 20001
    stats = quadratic_window_stats(X, prime_table)
    assert [f.name for f in dataclasses.fields(stats)] == [
        "X", "omega_m", "big_omega_m", "p_plus_m"]
    arrays = _memo_arrays(stats)
    assert sum(a.nbytes for a in arrays.values()) <= 10 * X
    assert all(a.base is None for a in arrays.values())
    assert prime_table.smallest_prime_factor.flags.writeable


def test_int8_holds_omega_of_every_window_value():
    # Omega(n^2 + 1) <= log2(n^2 + 1) with n <= 2X <= 2 X_FACTOR_CAP
    cap = experiments.X_FACTOR_CAP
    assert math.log2(4 * cap * cap + 1) < 49 <= np.iinfo(np.int8).max


def test_no_window_consumer_builds_the_full_n(prime_table, monkeypatch):
    # on a warm memo no consumer takes an arange as long as the window:
    # each reads n's facts from the table and walks n in chunks
    X = 20001
    assert X > experiments.LOG_CHUNK
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=min(solve_delta(), 0.622), r=4)
    quadratic_window_stats(X, prime_table)

    def arange(*args, **kwargs):
        out = np.arange(*args, **kwargs)
        assert len(out) < X, "a consumer built the full n"
        return out
    monkeypatch.setattr(experiments, "np",
                        types.SimpleNamespace(**{**vars(np),
                                                 "arange": arange}))
    almost_prime_survey(X, 4, prime_table)
    gpf_survey(X, 0.847, prime_table)
    dartyge_survey(X, 11.2, prime_table)
    weighted_sieve_experiment(X, params, SHARP, prime_table)
    with pytest.raises(AssertionError, match="full n"):
        experiments.np.arange(X)


def test_window_stats_refuse_a_window_beyond_available_memory(monkeypatch):
    # the estimate alone decides: numpy is never reached, nothing allocated
    monkeypatch.setattr(primes, "_mem_available_bytes",
                        lambda: 50 * 2 ** 20)
    monkeypatch.setattr(experiments, "np", None)
    X = 4 * 10 ** 6
    table = types.SimpleNamespace(limit=2 * X, _window={})
    with pytest.raises(experiments.WindowMemoryError,
                       match=r"^the window of X = 4000000 needs about 99 "
                             r"MiB, more than the 50 MiB available$"):
        quadratic_window_stats(X, table)


def test_weighted_sieve_refuses_a_window_beyond_available_memory(
        monkeypatch):
    # its own estimate decides before the window's: nothing allocated
    monkeypatch.setattr(primes, "_mem_available_bytes",
                        lambda: 100 * 2 ** 20)
    monkeypatch.setattr(experiments, "np", None)
    X = 4 * 10 ** 6
    table = types.SimpleNamespace(limit=2 * X, _window={})
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=min(solve_delta(), 0.622), r=4)
    with pytest.raises(experiments.WindowMemoryError,
                       match=r"^the window of X = 4000000 needs about 126 "
                             r"MiB, more than the 100 MiB available$"):
        weighted_sieve_experiment(X, params, SHARP, table)


def test_window_byte_constants_bound_the_measured_peaks():
    # measured <= constant <= 1.25 measured, so a change that moves a peak
    # must move the constant that guards it too; each run gets a table of
    # its own, so it builds the window and the table's root column afresh,
    # as a window job does, and the weighted sieve's constant covers every
    # weight mode
    X = 10 ** 6
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=min(solve_delta(), 0.622), r=4)
    runs = [(experiments.WINDOW_BYTES_PER_N,
             lambda t: quadratic_window_stats(X, t)),
            (experiments._DARTYGE_BYTES_PER_N,
             lambda t: dartyge_survey(X, 11.2, t)),
            (experiments._CHEBYSHEV_BYTES_PER_N,
             lambda t: chebyshev_decomposition(X, 0.847, SHARP, t)),
            (experiments._WEIGHTED_BYTES_PER_N,
             lambda t: weighted_sieve_experiment(X, params, SHARP, t)),
            (experiments._WEIGHTED_BYTES_PER_N,
             lambda t: weighted_sieve_experiment(X, params, PLATEAU, t))]
    for constant, run in runs:
        table = sieve_primes(2 * X)
        tracemalloc.start()
        try:
            run(table)
            peak = tracemalloc.get_traced_memory()[1] / X
        finally:
            tracemalloc.stop()
        del table
        assert peak <= constant <= 1.25 * peak, (constant, peak)


def test_count_byte_constant_bounds_the_measured_peaks():
    # one estimate covers the five counts: each one's peak at its widest
    # progression (ell = 1 or d = 1, the whole window) under its heaviest
    # weight, on a table of its own, so it includes the spf column where
    # the count builds one (8 B per n), lies below it, and the largest lies
    # within a factor 1.25 of it
    X = 10 ** 6
    runs = {"q-ell": lambda t: Q_ell(X, 1, PLATEAU, t),
            "q-ell-u": lambda t: Q_ell_u(X, 1, 11.2, PLATEAU, t),
            "phi": lambda t: phi_sifted(X, 2.0, 1, 1, PLATEAU, t),
            "phi-coprime": lambda t: phi_sifted_coprime(X, 2.0, 1, PLATEAU,
                                                        t),
            "a-d": lambda t: A_d_count(X, 1, 1, PLATEAU, t)}
    constant = experiments._COUNT_BYTES_PER_N
    peaks = {}
    for name, run in runs.items():
        table = sieve_primes(2 * X)
        tracemalloc.start()
        try:
            run(table)
            peaks[name] = tracemalloc.get_traced_memory()[1] / X
        finally:
            tracemalloc.stop()
        del table
        assert peaks[name] <= constant, (name, constant, peaks[name])
    assert constant <= 1.25 * max(peaks.values()), (constant, peaks)


@pytest.mark.parametrize("count", [
    lambda t: Q_ell(4 * 10 ** 6, 5, SHARP, t),
    lambda t: Q_ell_u(4 * 10 ** 6, 5, 11.2, SHARP, t),
    lambda t: phi_sifted(4 * 10 ** 6, 10.0, 1, 1, SHARP, t),
    lambda t: phi_sifted_coprime(4 * 10 ** 6, 10.0, 1, SHARP, t),
    lambda t: A_d_count(4 * 10 ** 6, 5, 1, SHARP, t)],
    ids=["q-ell", "q-ell-u", "phi", "phi-coprime", "a-d"])
def test_counts_refuse_a_window_beyond_available_memory(monkeypatch, count):
    # the count's estimate decides before its spf column or any window
    # array: numpy is never reached
    monkeypatch.setattr(primes, "_mem_available_bytes",
                        lambda: 50 * 2 ** 20)
    monkeypatch.setattr(experiments, "np", None)
    monkeypatch.setattr(primes, "np", None)
    table = types.SimpleNamespace(limit=8 * 10 ** 6)
    with pytest.raises(experiments.WindowMemoryError,
                       match=r"^the window of X = 4000000 needs about 103 "
                             r"MiB, more than the 50 MiB available$"):
        count(table)


def _spf_builds(monkeypatch, limit):
    """The list of builds of the spf column of a table to limit, appended
    to as each one starts; primes._small_table()'s own build is not one."""
    builds = []
    check = primes._check_memory

    def record(need, what, *args):
        if what == f"the smallest-prime-factor column to {limit}":
            builds.append(what)
        return check(need, what, *args)
    monkeypatch.setattr(primes, "_check_memory", record)
    return builds


SPF_READERS = {
    "dartyge": lambda X, t: dartyge_survey(X, 11.2, t),
    "bt": lambda X, t: bt_exception_count(X, 0.55, SHARP, t),
    "q-ell": lambda X, t: Q_ell(X, 5, SHARP, t),
}
SPF_FREE = {
    "chebyshev": lambda X, t: chebyshev_decomposition(X, 0.847, SHARP, t),
    "weighted": lambda X, t: weighted_sieve_experiment(
        X, WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                               delta=min(solve_delta(), 0.622), r=4),
        SHARP, t),
    "almost-prime": lambda X, t: almost_prime_survey(X, 4, t),
    "gpf": lambda X, t: gpf_survey(X, 0.847, t),
    # d <= X^(1/2) and ell = 5 are factored from primes._small_table()
    "bv": lambda X, t: bv_error_average(X, 1, SHARP, t),
    "a-d": lambda X, t: A_d_count(X, 5, 1, SHARP, t),
}


@pytest.mark.parametrize("name", [*SPF_READERS, *SPF_FREE])
def test_spf_column_is_built_only_where_n_is_factored(monkeypatch, name):
    # on a fresh table the spf column is built on its first read, once,
    # and never by the experiments that read only the primes or factor
    # only n <= 10^5
    X = 20001
    builds = _spf_builds(monkeypatch, 2 * X)
    table = sieve_primes(2 * X)
    run = {**SPF_READERS, **SPF_FREE}[name]
    first = run(X, table)
    assert run(X, table) == first
    reads = name in SPF_READERS
    assert len(builds) == reads
    assert ("smallest_prime_factor" in vars(table)) == reads


def test_window_memory_check_is_skipped_when_unreadable(monkeypatch):
    monkeypatch.setattr(primes, "_mem_available_bytes", lambda: None)
    table = sieve_primes(600)
    assert len(quadratic_window_stats(300, table).p_plus_m) == 300


@pytest.mark.parametrize("X", [1, 2, 3, 300, 20001])
def test_almost_prime_levels_match_masks(prime_table, X):
    # the seven masks the one-pass bincount replaced
    stats = quadratic_window_stats(X, prime_table)
    n = np.arange(X + 1, 2 * X + 1)
    odd_prime = (prime_table.smallest_prime_factor[n] == n) & (n % 2 == 1)
    omega_half = stats.big_omega_m.astype(np.int64) - 1
    for r in (1, 4, 7, 1000):
        counters = almost_prime_survey(X, r, prime_table).counters
        want = {"window_odd_primes": int(np.sum(odd_prime))}
        for j in range(1, 7):
            want[f"r={j}"] = int(np.sum(odd_prime & (omega_half <= j)))
        want["count"] = int(np.sum(odd_prime & (omega_half <= r)))
        assert counters == want, r


def test_window_memo_hits_match_fresh_tables(monkeypatch):
    # the survey battery at two windows, the weighted sieve at the first
    X1, X2 = 20000, 30001
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=min(solve_delta(), 0.622), r=4)
    surveys = [lambda X, t: almost_prime_survey(X, 4, t),
               lambda X, t: gpf_survey(X, 0.847, t),
               lambda X, t: dartyge_survey(X, 11.2, t)]
    jobs = [(X1, job) for job in surveys] + [
        (X1, lambda X, t: weighted_sieve_experiment(X, params, SHARP, t))
    ] + [(X2, job) for job in surveys]
    passes = []
    real = experiments.strike_large_primes
    monkeypatch.setattr(experiments, "strike_large_primes",
                        lambda X, *a: passes.append(X) or real(X, *a))
    table = sieve_primes(2 * X2)
    shared = [to_json(job(X, table)) for X, job in jobs]
    assert passes == [X1, X2]  # one strike pass per window
    for (X, job), got in zip(jobs, shared):
        assert to_json(job(X, sieve_primes(2 * X2))) == got


# ------------------------------------- split strike pass against the generator

# 13, 85 and 19405 put the split itself, isqrt(2X) = 5, 13 and 197, on a
# prime = 1 (mod 4), which the generator strikes and the chunks do not
ORACLE_WINDOWS = [1, 2, 3, 7, 13, 85, 300, 19405, 20000, 20001]
SEVERAL_CHUNKS_X = 120_000   # the batched part of both consumers spans chunks


def _generator_window_stats(X, table):
    """Window stats from the per-ell generator alone, all the way to 2X."""
    n = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    rem = n * n + 1
    omega = np.zeros(X, dtype=np.int8)
    big_omega = np.zeros(X, dtype=np.int8)
    p_plus = np.ones(X, dtype=np.int64)
    for ell, k, _q, idx, _slices in iter_quadratic_strikes(X, table):
        rem[idx] //= ell
        big_omega[idx] += 1
        if k == 1:
            omega[idx] += 1
        p_plus[idx] = ell
    tail = rem > 1
    omega[tail] += 1
    big_omega[tail] += 1
    p_plus[tail] = rem[tail]
    return {"omega_m": omega, "big_omega_m": big_omega, "p_plus_m": p_plus}


def _generator_chebyshev(X, vartheta, w, table, flat):
    """The aggregates of chebyshev_decomposition folded per ell, ell <= 2X."""
    lo = X + 1
    nf = np.arange(lo, 2 * X + 1, dtype=np.int64).astype(np.float64)
    lam_w = np.zeros(X, dtype=np.float64)
    g_p = np.zeros(X, dtype=np.float64)
    p_win = table.primes_between(X, 2 * X)
    idx_p = (p_win - lo).astype(np.int64)
    g_vals = w.values(p_win.astype(np.float64) / X)
    lam_w[idx_p] = np.log(p_win.astype(np.float64)) * g_vals
    g_p[idx_p] = g_vals
    for p in map(int, table.primes_between(1, math.isqrt(2 * X))):
        power = p * p
        while power <= 2 * X:
            if power > X:
                lam_w[power - lo] = math.log(p) * weight_eval(w, power / X)
            power *= p
    H_direct = float(np.sum(lam_w * np.log(nf * nf + 1.0)))
    level = X ** vartheta
    rem = np.arange(lo, 2 * X + 1, dtype=np.int64) ** 2 + 1
    H_dual = 0.0
    H = [0.0, 0.0, 0.0, 0.0]
    model_sum = 0.0
    for ell, k, q, idx, _slices in iter_quadratic_strikes(X, table):
        rem[idx] //= ell
        log_ell = math.log(ell)
        H_dual += log_ell * float(np.sum(lam_w[idx]))
        s_g = log_ell * float(np.sum(g_p[idx]))
        if q <= flat:
            H[0] += s_g
            rho_q = 1 if ell == 2 else 2
            model_sum += log_ell * rho_q / (q - q // ell)
        elif k == 1 and ell <= level:
            H[1] += s_g
        elif k == 1:
            H[2] += s_g
        else:
            H[3] += s_g
    tail = rem > 1
    tail_logs = np.log(rem[tail].astype(np.float64))
    H_dual += float(np.sum(lam_w[tail] * tail_logs))
    H[2] += float(np.sum(g_p[tail] * tail_logs))
    return {"H_direct": H_direct, "H_dual": H_dual, "H1": H[0], "H2": H[1],
            "H3": H[2], "H4": H[3],
            "H1_model": w.mass * X * model_sum / math.log(X)}


def _record_chunks(monkeypatch):
    """Per batched pass: [visited chunks, most level-1 hits of one prime,
    ell_min, most hits of one prime on a level k >= 2]."""
    passes = []
    real = experiments.strike_large_primes

    def recorded(X, table, ell_min, rem, visit):
        passes.append([0, 0, ell_min, 0])

        def visit_recorded(ells, levels):
            most = [int(np.bincount(slot).max()) for slot, _ in levels]
            passes[-1][0] += 1
            passes[-1][1] = max(passes[-1][1], most[0])
            passes[-1][3] = max([passes[-1][3], *most[1:]])
            visit(ells, levels)
        real(X, table, ell_min, rem, visit_recorded)
    monkeypatch.setattr(experiments, "strike_large_primes", recorded)
    return passes


def _assert_stats_match_generator(X, table):
    stats = quadratic_window_stats(X, table)
    for name, want in _generator_window_stats(X, table).items():
        got = getattr(stats, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("X", ORACLE_WINDOWS)
def test_window_stats_match_generator(prime_table, X):
    prime_table._window.clear()
    _assert_stats_match_generator(X, prime_table)


def test_window_stats_match_generator_across_chunks(prime_table, monkeypatch):
    prime_table._window.clear()
    passes = _record_chunks(monkeypatch)
    _assert_stats_match_generator(SEVERAL_CHUNKS_X, prime_table)
    assert passes[0][0] >= 3
    # a tiny chunk bound puts chunk boundaries inside a small window too
    monkeypatch.setattr(experiments, "STRIKE_CHUNK_HITS", 64)
    _assert_stats_match_generator(20001, prime_table)
    assert passes[1][0] > 100


# ---------------------------------------------- window stats against factorize

def _oracle_x(lo):
    """Any X in [lo, 4000], or one there where isqrt(2X) is a prime
    = 1 (mod 4), the split's boundary class (X = 13, 85)."""
    boundary = [p for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89)
                if p * (p + 2) // 2 >= lo]
    return st.one_of(st.integers(lo, 4000), st.sampled_from(boundary).flatmap(
        lambda p: st.integers(max(lo, (p * p + 1) // 2),
                              min(p * (p + 2) // 2, 4000))))


_ORACLE_X = _oracle_x(1)


@functools.cache
def _pairs_of_n2_plus_1(n):
    """factorize(n^2 + 1).pairs, which takes no root of -1: trial division
    and Pollard-Brent beyond the table."""
    return factorize(n * n + 1).pairs


def _shape_of_n2_plus_1(n):
    """(omega, Omega, P+) of n^2 + 1."""
    pairs = _pairs_of_n2_plus_1(n)
    return len(pairs), sum(e for _p, e in pairs), pairs[-1][0]


@functools.cache
def _big_omega(n):
    return sum(e for _p, e in factorize(n).pairs)


def _window_with_chunk(chunk, run):
    """run() with STRIKE_CHUNK_HITS set to chunk, unless chunk is None."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(experiments, "STRIKE_CHUNK_HITS", chunk)
        return run()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(X=_ORACLE_X, chunk=st.sampled_from([None, 1, 7, 64]))
def test_window_stats_match_factorize_per_n(X, chunk):
    stats = _window_with_chunk(
        chunk, lambda: quadratic_window_stats(X, sieve_primes(2 * X)))
    want = np.array([_shape_of_n2_plus_1(n) for n in range(X + 1, 2 * X + 1)])
    assert np.array_equal(stats.omega_m, want[:, 0])
    assert np.array_equal(stats.big_omega_m, want[:, 1])
    assert np.array_equal(stats.p_plus_m, want[:, 2])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(X=_ORACLE_X, chunk=st.sampled_from([None, 1, 7, 64]),
       r=st.integers(1, 8), vartheta=st.sampled_from([0.5, 0.847, 1.2]),
       u=st.sampled_from([2.0, 3.0, 5.5, 11.2, 20.0]))
def test_surveys_match_factorize_per_n(X, chunk, r, vartheta, u):
    # primality and spf(n) from the table, n^2 + 1 and n from factorize;
    # the float thresholds and logs are taken over arrays, as numpy does
    table = sieve_primes(2 * X)
    almost, gpf, dartyge = _window_with_chunk(chunk, lambda: [
        almost_prime_survey(X, r, table).counters,
        gpf_survey(X, vartheta, table).counters,
        dartyge_survey(X, u, table).counters])
    spf = table.smallest_prime_factor
    n = np.arange(X + 1, 2 * X + 1)
    p = n[spf[n] == n]
    # p^2 + 1 = 2 (mod 4) for odd p, so (p^2 + 1)/2 has one factor fewer
    omega_half = [_shape_of_n2_plus_1(v)[1] - 1 for v in p.tolist() if v > 2]
    want = {"window_odd_primes": len(omega_half)}
    want.update({f"r={j}": sum(o <= j for o in omega_half)
                 for j in range(1, 7)})
    want["count"] = sum(o <= r for o in omega_half)
    assert almost == want

    p_plus = np.array([_shape_of_n2_plus_1(v)[2] for v in p.tolist()],
                      dtype=np.float64)
    assert gpf == {"window_primes": len(p), "qualifiers": int(np.sum(
        p_plus > p.astype(np.float64) ** vartheta))}

    q = n[spf[n] > n.astype(np.float64) ** (1.0 / u)]
    ratio = np.log(np.array([_shape_of_n2_plus_1(v)[2] for v in q.tolist()],
                            dtype=np.float64)) / np.log(q.astype(np.float64))
    few = np.array([_big_omega(v) <= 11 for v in q.tolist()], dtype=bool)
    hist, _ = np.histogram(ratio, bins=np.arange(0.0, 2.3001, 0.1))
    want = {"qualifiers": len(q), "ratio_gt_1": int(np.sum(ratio > 1.0)),
            "omega_n_le_11": int(np.sum(few)),
            "ratio_gt_1_and_omega_le_11": int(np.sum((ratio > 1.0) & few))}
    want.update({f"hist_{k / 10:.1f}": int(c) for k, c in enumerate(hist)})
    assert dartyge == want


_WEIGHTED_COUNTERS = ("survivors", "positive_weight", "omega_le_r",
                      "squarefree_checked", "weight_bound_violations")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(X=_ORACLE_X, chunk=st.sampled_from([None, 1, 7, 64]),
       alpha=st.sampled_from([1.0 / 12.0, 0.2, 0.3, 0.4]),
       beta=st.sampled_from([0.55, 0.622, 0.66]),
       r=st.sampled_from([3, 4, 5]), w=st.sampled_from(MODES))
def test_weighted_sieve_matches_factorize_per_n(X, chunk, alpha, beta, r, w):
    # each odd window prime p is checked on m = (p^2 + 1)/2 from factorize
    params = WeightedSieveParams(alpha=alpha, beta=beta,
                                 delta=min(solve_delta(), beta), r=r)
    table = sieve_primes(2 * X)
    rep = _window_with_chunk(
        chunk, lambda: weighted_sieve_experiment(X, params, w, table))
    z, y, eta = X ** alpha, X ** beta, params.eta
    log_y = math.log(y)
    spf = table.smallest_prime_factor
    p = [v for v in range(max(X, 2) + 1, 2 * X + 1) if spf[v] == v]
    g = w.values(np.asarray(p, dtype=np.float64) / X)
    want = dict.fromkeys(_WEIGHTED_COUNTERS, 0)
    for p_i, g_i in zip(p, g):
        pairs = _pairs_of_n2_plus_1(p_i)[1:]  # drop the single 2
        if any(q < z for q, _ in pairs):
            continue
        want["survivors"] += 1
        inner = 0.0
        for q, _ in pairs:
            if q < y:
                inner += 1.0 - math.log(q) / log_y
        if not (g_i > 0.0 and inner < eta):
            continue
        want["positive_weight"] += 1
        omega_m = sum(e for _, e in pairs)
        want["omega_le_r"] += omega_m <= r
        if all(e == 1 for _, e in pairs):
            want["squarefree_checked"] += 1
            log_m = math.log(float(p_i) ** 2 + 1.0) - math.log(2.0)
            want["weight_bound_violations"] += omega_m >= eta + log_m / log_y
    assert {k: rep.counters[k] for k in _WEIGHTED_COUNTERS} == want


@settings(derandomize=True, max_examples=40, deadline=None)
@given(X=_oracle_x(650), chunk=st.sampled_from([None, 1, 7, 64]),
       vartheta=st.sampled_from([0.51, 0.6, 0.847, 0.99]),
       w=st.sampled_from(MODES))
def test_chebyshev_matches_factorize_per_n(X, chunk, vartheta, w):
    # Each prime power n = p^j in the window adds Lambda(n) g(n/X) log ell
    # to H_dual, and each prime n adds g(n/X) log ell to one of H1..H4, for
    # every ell^k dividing n^2 + 1 by factorize: ell^k <= X^flat gives H1,
    # else k > 1 gives H4, else ell <= X^vartheta gives H2, else H3.  The
    # code sums by modulus, this by n, so they agree to roundoff: within
    # 1e-12 of H_direct, which bounds each sum.  X starts at 650, the
    # least X with X^flat >= 2.
    table = sieve_primes(2 * X)
    rep = _window_with_chunk(
        chunk, lambda: chebyshev_decomposition(X, vartheta, w, table))
    flat, level = x_flat(X), X ** vartheta
    spf = table.smallest_prime_factor
    want = dict.fromkeys(("H_direct", "H_dual", "H1", "H2", "H3", "H4"), 0.0)
    for n in range(X + 1, 2 * X + 1):
        p, m = int(spf[n]), n
        while m % p == 0:
            m //= p
        if m != 1:
            continue  # not a prime power: Lambda(n) = 0
        g = weight_eval(w, n / X)
        want["H_direct"] += math.log(p) * g * math.log(n * n + 1)
        for ell, e in _pairs_of_n2_plus_1(n):
            for k in range(1, e + 1):
                want["H_dual"] += math.log(p) * g * math.log(ell)
                if n != p:
                    continue
                part = ("H1" if ell ** k <= flat else "H4" if k > 1
                        else "H2" if ell <= level else "H3")
                want[part] += g * math.log(ell)
    tol = 1e-12 * rep.aggregates["H_direct"]
    for name, value in want.items():
        assert abs(rep.aggregates[name] - value) <= tol, name


def _assert_chebyshev_matches_generator(X, table, w=SHARP, flat=None):
    rep = chebyshev_decomposition(X, 0.847, w, table)
    want = _generator_chebyshev(X, 0.847, w, table,
                                x_flat(X) if flat is None else flat)
    for name, value in want.items():
        # bitwise: the batched fold must add in the generator's order
        assert rep.aggregates[name] == value, name


@pytest.mark.parametrize("X", [19405, 20000, 20001])
def test_chebyshev_matches_generator_fold(prime_table, X):
    _assert_chebyshev_matches_generator(X, prime_table)


@pytest.mark.parametrize("X", [2, 3, 5, 7, 13, 21, 85, 300])
def test_chebyshev_matches_generator_fold_small(prime_table, monkeypatch, X):
    # Below X ~ 700 no modulus lies under X^flat, so H1_model is 0 and the
    # report divides by it.  A level of 2 puts ell = 2 in H1 and lets the
    # folds be compared.  X = 5 and 21 have a level-2 hit above the cutoff
    # X // 3 (5^2 | 7^2 + 1, 17^2 | 38^2 + 1).
    monkeypatch.setattr(experiments, "x_flat", lambda X: 2.0)
    _assert_chebyshev_matches_generator(X, prime_table, flat=2.0)


@pytest.mark.parametrize("consumer", [
    lambda X, t: quadratic_window_stats(X, t),
    lambda X, t: chebyshev_decomposition(X, 0.847, SHARP, t)],
    ids=["stats", "chebyshev"])
def test_leftover_check_guards_both_window_consumers(monkeypatch, consumer):
    # With the primes above sqrt(2X) left unstruck, composite and small
    # leftovers remain.  Chebyshev's dual identity cannot see them: it
    # would fold them into H3 at roundoff.
    monkeypatch.setattr(experiments, "strike_large_primes",
                        lambda *args: None)
    with pytest.raises(ArithmeticError, match="leftover cofactor"):
        consumer(20001, sieve_primes(2 * 20001))


def test_chebyshev_window_of_one_raises(prime_table):
    with pytest.raises(ValueError):
        chebyshev_decomposition(1, 0.847, SHARP, prime_table)


@pytest.mark.parametrize("X", [2, 21, 300, 649])
def test_chebyshev_without_model_modulus_raises(prime_table, X):
    # H1_model sums over the prime powers q <= X^flat; the least, q = 2,
    # first fits at X = 650, so below it the report would divide by 0
    assert x_flat(X) < 2.0
    with pytest.raises(ValueError, match="no prime power at or below"):
        chebyshev_decomposition(X, 0.847, SHARP, prime_table)
    rep = chebyshev_decomposition(650, 0.847, SHARP, prime_table)
    assert rep.aggregates["H1_model"] > 0.0


def test_chebyshev_matches_generator_across_chunks(prime_table, monkeypatch):
    passes = _record_chunks(monkeypatch)
    _assert_chebyshev_matches_generator(SEVERAL_CHUNKS_X, prime_table)
    monkeypatch.setattr(experiments, "STRIKE_CHUNK_HITS", 16)
    _assert_chebyshev_matches_generator(20001, prime_table, PLATEAU)
    assert passes[0][0] >= 2 and passes[1][0] > 100
    # the batched part starts above sqrt(2X), as in quadratic_window_stats
    assert [ell_min for _, _, ell_min, _ in passes] == [
        math.isqrt(2 * SEVERAL_CHUNKS_X), math.isqrt(2 * 20001)]
    # a level-1 run above 128 entries takes np.sum's pairwise branch...
    assert passes[0][1] > 128
    # ...while a deeper level holds at most 2 entries per prime
    assert max(deep for _, _, _, deep in passes) <= 2
    assert passes[0][3] >= 1


def _window_weights(X, w, table):
    """lam_w = Lambda(n) g(n/X) and g_p = g(p/X) over the window."""
    lo = X + 1
    lam_w = np.zeros(X, dtype=np.float64)
    g_p = np.zeros(X, dtype=np.float64)
    p_win = table.primes_between(X, 2 * X)
    g_vals = w.values(p_win.astype(np.float64) / X)
    lam_w[p_win - lo] = np.log(p_win.astype(np.float64)) * g_vals
    g_p[p_win - lo] = g_vals
    for p in map(int, table.primes_between(1, math.isqrt(2 * X))):
        power = p * p
        while power <= 2 * X:
            if power > X:
                lam_w[power - lo] = math.log(p) * weight_eval(w, power / X)
            power *= p
    return lam_w, g_p


@pytest.mark.parametrize("X,w", [(SEVERAL_CHUNKS_X, SHARP), (20001, PLATEAU)])
def test_batched_chebyshev_terms_match_generator(prime_table, monkeypatch, X,
                                                 w):
    # An ulp of one term lies far below an ulp of the sum it joins, and two
    # swapped terms seldom change a rounded sum, so the aggregates can hide
    # a misrounded or misplaced term.  Each call of the fold, one for the
    # per-ell loop and one per batched chunk, hands its terms to six left
    # folds (H_dual, H1..H4, the H1 model sum); together they must be the
    # terms of a per-ell loop over every ell <= 2X, in its order.
    folds = []
    real = experiments._left_fold

    def recorded(start, terms):
        folds.append(terms.tolist())
        return real(start, terms)
    monkeypatch.setattr(experiments, "_left_fold", recorded)
    chebyshev_decomposition(X, 0.847, w, prime_table)
    lam_w, g_p = _window_weights(X, w, prime_table)
    flat = x_flat(X)
    want = [[], [], [], [], [], []]
    for ell, k, q, idx, _slices in iter_quadratic_strikes(X, prime_table):
        log_ell = math.log(ell)
        want[0].append(log_ell * float(np.sum(lam_w[idx])))
        part = 1 if q <= flat else 4 if k > 1 else \
            2 if ell <= X ** 0.847 else 3
        want[part].append(log_ell * float(np.sum(g_p[idx])))
        if q <= flat:
            want[5].append(log_ell * (1 if ell == 2 else 2) / (q - q // ell))
    assert len(folds) > 6 and len(folds) % 6 == 0
    assert [sum(folds[j::6], []) for j in range(6)] == want
    assert min(map(len, want)) > 0


def test_strike_window_is_the_generators_one_caller(monkeypatch):
    # Every window consumer reaches the generator through _strike_window
    # alone, and a weighted sieve on a warm memo runs no strike pass.
    src = os.path.dirname(os.path.abspath(experiments.__file__))
    callers = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            callers |= {f.name for f in ast.walk(tree)
                        if isinstance(f, ast.FunctionDef)
                        and f.name != "iter_quadratic_strikes"
                        and "iter_quadratic_strikes" in {
                            getattr(node, "id", getattr(node, "attr", None))
                            for node in ast.walk(f)}}
    assert callers == {"_strike_window"}

    X = 20001
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=min(solve_delta(), 0.622), r=4)
    seen = []
    real = experiments.iter_quadratic_strikes

    def recorded(*args, **kwargs):
        seen.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)
    monkeypatch.setattr(experiments, "iter_quadratic_strikes", recorded)
    table = sieve_primes(2 * X)
    quadratic_window_stats(X, table)
    chebyshev_decomposition(X, 0.847, SHARP, table)
    assert seen == ["_strike_window", "_strike_window"]
    for run in (lambda: weighted_sieve_experiment(X, params, PLATEAU, table),
                lambda: almost_prime_survey(X, 4, table),
                lambda: gpf_survey(X, 0.847, table),
                lambda: dartyge_survey(X, 11.2, table)):
        run()  # the memo is warm: no pass at all
    assert seen == ["_strike_window", "_strike_window"]
    # a cold memo strikes once, through the engine
    weighted_sieve_experiment(X, params, SHARP, sieve_primes(2 * X))
    assert seen[2:] == ["_strike_window"]


def _refuse(*_args):
    raise AssertionError("a window consumer read idx")


# Stands in for a yield's idx: reading an attribute, converting, indexing,
# iterating, testing, hashing or computing with it raises.
_Untouchable = type("_Untouchable", (), {name: _refuse for name in (
    "__getattr__", "__array__", "__len__", "__iter__", "__getitem__",
    "__bool__", "__index__", "__int__", "__float__", "__hash__", "__eq__",
    "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__",
    "__sub__", "__rsub__", "__mul__", "__rmul__", "__floordiv__", "__mod__")})


@pytest.mark.parametrize("X", [650, 20001, SEVERAL_CHUNKS_X])
def test_no_window_consumer_reads_idx(monkeypatch, X):
    # The consumers read only the slices of a yield; idx is yielded for the
    # oracle tests and the benchmark's hit count.
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=min(solve_delta(), 0.622), r=4)

    def run():
        table = sieve_primes(2 * X)
        stats = quadratic_window_stats(X, table)
        arrays = [(name, a.dtype.str, a.tobytes())
                  for name, a in vars(stats).items() if name != "X"]
        return (arrays,
                to_json(chebyshev_decomposition(X, 0.847, PLATEAU, table)),
                to_json(weighted_sieve_experiment(X, params, SHARP, table)))
    want = run()
    real = experiments.iter_quadratic_strikes

    def untouchable_idx(*args, **kwargs):
        for ell, k, q, _idx, slices in real(*args, **kwargs):
            yield ell, k, q, _Untouchable(), slices
    monkeypatch.setattr(experiments, "iter_quadratic_strikes",
                        untouchable_idx)
    assert run() == want


def test_row_sums_are_the_one_dimensional_sums():
    # The batched Chebyshev fold sums each prime's level-1 run as a row of
    # one (rows, L) matrix; the per-ell loop sums it as a 1-D array.  Runs
    # above 8 entries take numpy's pairwise branch, and above 128 its
    # recursion, so this pins the order of np.sum(axis=1) on those rows.
    rng = np.random.default_rng(13)
    for run in [*range(1, 301), 500, 1000, 2345, 5000]:
        mat = rng.random((1 + run % 11, run)) * 14.0
        mat[rng.random(mat.shape) < 0.9] = 0.0  # mostly zeros, as lam_w
        rows = np.sum(mat, axis=1)
        for i, row in enumerate(mat):
            assert rows[i] == np.sum(row.copy()), (run, i)


def test_second_chebyshev_imports_nothing():
    # A module imported mid-pass (np.unique loads numpy.ma) pins freed heap
    # and raises the peak RSS of a long session; a fresh interpreter shows
    # what the passes import.
    script = """
import sys
import sievekit as sk
table = sk.sieve_primes(2 * 30011)
sk.quadratic_window_stats(30011, table)
for X in (30011, 20011):
    before = set(sys.modules)
    sk.chebyshev_decomposition(X, 0.847, sk.SHARP, table)
    print(X, sorted(set(sys.modules) - before))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        experiments.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["30011 []", "20011 []"]


@pytest.mark.parametrize("X", [300, 2000])
def test_strike_large_primes_levels_match_generator(prime_table, monkeypatch,
                                                    X):
    # every odd prime batched, so 5^3 | n^2 + 1 and deeper levels occur
    monkeypatch.setattr(experiments, "STRIKE_CHUNK_HITS", 50)
    n = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    want_rem = n * n + 1
    want = {}
    for ell, k, _q, idx, _slices in iter_quadratic_strikes(X, prime_table):
        want_rem[idx] //= ell
        if ell > 2:
            want[ell, k] = idx.tolist()
    rem = n * n + 1
    rem[n % 2 == 1] //= 2  # ell = 2 is never batched
    got = {}

    def visit(ells, levels):
        for k, (slot, idx) in enumerate(levels, 1):
            for ell, i in zip(ells[slot].tolist(), idx.tolist()):
                got.setdefault((ell, k), []).append(i)
    strike_large_primes(X, prime_table, 2, rem, visit)
    assert np.array_equal(rem, want_rem)
    assert max(k for _, k in got) >= 3
    assert got.keys() == want.keys()
    for key, idx in want.items():
        # level 1 keeps the generator's order; deeper levels hold <= 2 n
        assert (got[key] == idx) if key[1] == 1 \
            else sorted(got[key]) == sorted(idx), key


def test_progression_slices_rebuild_every_yield(prime_table):
    # X = 1 yields an empty ell = 2 level, and small windows have levels
    # where only one root's progression falls inside
    shapes = set()
    for X in [1, 2, 3, 5, 21, 650, 20000]:
        window = np.arange(X, dtype=np.int64)
        for _ell, _k, q, idx, slices in iter_quadratic_strikes(X,
                                                               prime_table):
            assert idx.dtype == np.int64
            assert np.array_equal(
                np.concatenate([window[s] for s in slices]), idx), (X, q)
            assert np.all(((X + 1 + idx) ** 2 + 1) % q == 0), (X, q)
            # the smaller root's progression comes first
            roots = [(X + 1 + s.start) % q for s in slices]
            assert all(s.step == q for s in slices) and roots == sorted(roots)
            shapes.add((len(idx) > 0, len(slices), q == 2))
    # empty; ell = 2; one odd progression; two odd progressions
    assert shapes == {(False, 1, True), (True, 1, True), (True, 1, False),
                      (True, 2, False)}


@pytest.mark.parametrize("block", [primes.ROOT_BLOCK, 1000])
def test_root_column_is_built_once_per_table(monkeypatch, block):
    monkeypatch.setattr(primes, "ROOT_BLOCK", block)
    calls = []
    real = primes.sqrt_minus_one_batch

    def counted(p):
        calls.append(np.asarray(p).copy())
        return real(p)
    monkeypatch.setattr(primes, "sqrt_minus_one_batch", counted)
    # above 2^14 primes = 1 (mod 4), so both block sizes make several calls
    table = sieve_primes(10 ** 6)
    ells = table.primes[table.primes % 4 == 1]
    X, small_X = SEVERAL_CHUNKS_X, 20001
    _assert_stats_match_generator(X, table)
    assert len(calls) == -(-len(ells) // block) > 1
    assert all(0 < len(c) <= block for c in calls)
    assert np.array_equal(np.concatenate(calls), ells)
    # the column serves every later window of the table, whatever its X
    _assert_chebyshev_matches_generator(X, table)
    stats = quadratic_window_stats(small_X, table)
    cheb = chebyshev_decomposition(small_X, 0.847, SHARP, table)
    assert len(calls) == -(-len(ells) // block)
    # and strikes it exactly as a table of its own, sized to 2X, does
    fresh = sieve_primes(2 * small_X)
    fresh_stats = quadratic_window_stats(small_X, fresh)
    for name in ("omega_m", "big_omega_m", "p_plus_m"):
        assert np.array_equal(getattr(stats, name),
                              getattr(fresh_stats, name)), name
    assert cheb == chebyshev_decomposition(small_X, 0.847, SHARP, fresh)


def test_strike_large_primes_rejects_batching_two(prime_table):
    rem = np.arange(11, 21, dtype=np.int64) ** 2 + 1
    with pytest.raises(ValueError):
        strike_large_primes(10, prime_table, 1, rem, lambda ells, levels: None)


# ------------------------------------------------------------ average errors

def test_bv_error_average(prime_table):
    rep = bv_error_average(1000, 0, SHARP, prime_table)
    assert rep.counters["d_max"] == 2
    assert rep.aggregates["value"] == 0.0
    rep4 = bv_error_average(10 ** 4, 0, SHARP, prime_table)
    assert rep4.counters["d_max"] == 4
    assert rep4.counters["window_primes"] == 1033
    assert rep4.aggregates["value"] == 4.0
    rep41 = bv_error_average(10 ** 4, 1, SHARP, prime_table)
    assert rep41.aggregates["value"] == 8.5
    assert rep41.aggregates["ratio_to_X_log2"] == pytest.approx(
        0.07210581430250623, abs=1e-12)


def test_wolke_error_average(prime_table):
    rep = wolke_error_average(10 ** 4, 10.0, 0, SHARP, prime_table)
    assert rep.counters["d_max"] == 4
    assert rep.counters["rough_numbers"] == 2287
    assert rep.aggregates["value"] == 1.0
    rep3 = wolke_error_average(1000, 10.0, 0, SHARP, prime_table)
    assert rep3.aggregates["value"] == 0.0


def test_bt_exception_count(prime_table):
    rep = bt_exception_count(10 ** 5, 0.55, SHARP, prime_table)
    assert rep.counters["moduli"] == 562
    assert rep.counters["exceptions"] == 0
    assert rep.aggregates["fraction"] == 0.0


def test_bt_exception_count_needs_log_x_positive(prime_table):
    with pytest.raises(ValueError, match="X must be >= 2"):
        bt_exception_count(1, 0.55, SHARP, prime_table)
    assert bt_exception_count(2, 0.55, SHARP, prime_table).counters[
        "moduli"] == 1


def _bt_isin_oracle(X, theta, weights, table):
    """Reference scan: an isin mask over every window prime per modulus.

    Returns, per weight, the (ell, q_val) of each modulus with a root and
    the exception count.
    """
    level = experiments.gamma_theta(theta)
    L = int(X ** theta)
    p = table.primes_between(X, 2 * X)
    vals = [w.values(p.astype(np.float64) / X) for w in weights]
    q_vals = [[] for _ in weights]
    exceptions = [0 for _ in weights]
    for ell in range(L + 1, 2 * L + 1):
        roots = roots_mod(ell, table).roots
        if not roots:
            continue
        mask = np.isin(p % ell, np.asarray(roots))
        phi_ell = multiplicative_suite(ell, table)["phi"]
        for i, w in enumerate(weights):
            q_val = float(np.sum(vals[i][mask]))
            q_vals[i].append((ell, q_val))
            scale = 2.0 / level * w.mass * X / math.log(X)
            if q_val > scale * len(roots) / phi_ell:
                exceptions[i] += 1
    return q_vals, exceptions


def _bt_recorded(monkeypatch, X, theta, w, table):
    """Run the scan, recording the q_val it computes for every modulus."""
    seen = []
    inner = experiments._Q_on_progressions

    def record(X, roots, ell, w, table):
        q_val = inner(X, roots, ell, w, table)
        seen.append((ell, q_val))
        return q_val

    with monkeypatch.context() as m:
        m.setattr(experiments, "_Q_on_progressions", record)
        rep = bt_exception_count(X, theta, w, table)
    return seen, rep.counters["exceptions"]


def _hex_rows(rows):
    return [(ell, q.hex()) for ell, q in rows]


@pytest.mark.parametrize("X,theta", [
    (10 ** 4, 0.5), (10 ** 4, 0.55), (10 ** 4, 0.7), (10 ** 4, 0.9),
    (10 ** 5, 0.5), (10 ** 5, 0.55), (10 ** 5, 0.7), (10 ** 5, 0.9),
    (10 ** 6, 0.55),
])
def test_bt_q_vals_bitwise_equal_isin_loop(prime_table, monkeypatch, X,
                                           theta):
    want, want_exc = _bt_isin_oracle(X, theta, MODES, prime_table)
    for w, rows, exc in zip(MODES, want, want_exc):
        seen, got_exc = _bt_recorded(monkeypatch, X, theta, w, prime_table)
        assert len(rows) > 0
        assert _hex_rows(seen) == _hex_rows(rows), w.mode
        assert got_exc == exc, w.mode


@pytest.mark.parametrize("level", [1.2, 2.0, 3.0, 30.0])
def test_bt_exception_branch_matches_isin_loop(prime_table, monkeypatch,
                                               level):
    # gamma(0.7) = 0.465 leaves no exceptions here; a larger level shrinks
    # the bound so that the compare-and-count branch fires for some moduli.
    monkeypatch.setattr(experiments, "gamma_theta", lambda theta: level)
    X, theta = 10 ** 4, 0.7
    rows, want = _bt_isin_oracle(X, theta, MODES, prime_table)
    for w, exc in zip(MODES, want):
        rep = bt_exception_count(X, theta, w, prime_table)
        assert rep.counters["exceptions"] == exc, w.mode
    assert 0 < min(want) and max(want) < len(rows[0])


def _bt_independent_oracle(X, theta, w, table):
    """The scan rebuilt without its roots_mod, multiplicative_suite or
    progression code: the roots by testing every a < ell, phi by a gcd
    count, and q_val from Q_ell_brute's direct test of ell | p^2 + 1, which
    sums through _weighted_sum and so is bitwise the progression sum.

    Returns the (ell, q_val) of each modulus with a root and the exception
    count.
    """
    L = int(X ** theta)
    scale = 2.0 / experiments.gamma_theta(theta) * w.mass * X / math.log(X)
    rows, exceptions = [], 0
    for ell in range(L + 1, 2 * L + 1):
        a = np.arange(ell, dtype=np.int64)
        n_roots = int(np.count_nonzero((a * a + 1) % ell == 0))
        if not n_roots:
            continue
        phi = int(np.count_nonzero(np.gcd(a, ell) == 1))
        q_val = Q_ell_brute(X, ell, w, table)
        rows.append((ell, q_val))
        exceptions += q_val > scale * n_roots / phi
    return rows, exceptions


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(X=st.integers(2, 4000), theta=st.floats(0.5, 0.9),
       w=st.sampled_from(MODES), level=st.sampled_from([None, 3.0, 30.0]))
def test_bt_scan_matches_independent_oracle(prime_table, monkeypatch, X,
                                            theta, w, level):
    # a level above gamma(theta) shrinks the bound so that exceptions occur
    with monkeypatch.context() as m:
        if level is not None:
            m.setattr(experiments, "gamma_theta", lambda theta: level)
        rows, want = _bt_independent_oracle(X, theta, w, prime_table)
        seen, got = _bt_recorded(monkeypatch, X, theta, w, prime_table)
    assert _hex_rows(seen) == _hex_rows(rows)
    assert got == want


# ------------------------------------------------------- chebyshev identity

def test_chebyshev_small_window(prime_table):
    rep = chebyshev_decomposition(10 ** 4, 0.847, SHARP, prime_table)
    assert rep.residuals["identity_rel"] == 0.0
    assert rep.aggregates["H_direct"] == pytest.approx(
        191224.08991919883, abs=1e-6)
    assert rep.aggregates["H1"] == pytest.approx(716.0210375184234, abs=1e-6)
    assert rep.aggregates["H2"] == pytest.approx(6112.965081389076, abs=1e-6)
    assert rep.aggregates["H3"] == pytest.approx(12683.626291235782, abs=1e-6)
    assert rep.aggregates["H4"] == pytest.approx(306.0240853613265, abs=1e-6)
    assert rep.aggregates["H1_over_model"] == pytest.approx(
        0.9514281604251397, abs=1e-9)
    # partition property: the four parts cover the prime-supported sum
    # sum_p g(p/X) log(p^2 + 1) exactly once
    p = prime_table.primes_between(10 ** 4, 2 * 10 ** 4).astype(np.float64)
    prime_mass = float(np.sum(np.log(p * p + 1.0)))
    total = sum(rep.aggregates[k] for k in ("H1", "H2", "H3", "H4"))
    assert total == pytest.approx(prime_mass, rel=1e-12)


def test_chebyshev_identity_scales(prime_table):
    rep = chebyshev_decomposition(10 ** 5, 0.847, SHARP, prime_table)
    assert rep.residuals["identity_rel"] < 1e-9
    assert rep.aggregates["H1_over_model"] == pytest.approx(
        0.9675254589687714, abs=1e-9)
    assert rep.aggregates["H4_over_X"] == pytest.approx(
        0.024416849751022696, abs=1e-12)


def test_chebyshev_smooth_weight_identity(prime_table):
    rep = chebyshev_decomposition(10 ** 4, 0.847, PLATEAU, prime_table)
    assert rep.residuals["identity_rel"] < 1e-9


# -------------------------------------------------------------- weighted sieve

def test_weighted_sieve_small(prime_table):
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=solve_delta(), r=4)
    rep = weighted_sieve_experiment(10 ** 5, params, SHARP, prime_table)
    assert rep.counters["survivors"] == 8392
    assert rep.counters["positive_weight"] == 7876
    assert rep.counters["omega_le_r"] == 7521
    assert rep.counters["squarefree_checked"] == 6958
    assert rep.counters["weight_bound_violations"] == 0
    assert rep.residuals["psi_identity_rel"] < 1e-9
    assert "sifts nothing" in rep.notes  # z = 2.610 < 3 here


@pytest.mark.parametrize("alpha", [0.2, 0.3])
def test_weighted_sieve_sifting_matches_brute_force(prime_table, alpha):
    # z = X^alpha is 7.25 and 19.5, so the odd primes 5, 13 and 17 below z
    # sift; each odd window prime p is checked on m = (p^2 + 1)/2 directly
    X = 20001
    params = WeightedSieveParams(alpha=alpha, beta=0.622,
                                 delta=solve_delta(), r=4)
    rep = weighted_sieve_experiment(X, params, SHARP, prime_table)
    z, y, eta = X ** alpha, X ** params.beta, params.eta
    log_y = math.log(y)
    p = [int(q) for q in prime_table.primes_between(X, 2 * X) if q % 2]
    g = SHARP.values(np.asarray(p, dtype=np.float64) / X)
    survivors = positive = few = 0
    for p_i, g_i in zip(p, g):
        pairs = factorize((p_i * p_i + 1) // 2, prime_table).pairs
        if any(q < z for q, _ in pairs):
            continue
        survivors += 1
        inner = 0.0
        for q, _ in pairs:
            if q < y:
                inner += 1.0 - math.log(q) / log_y
        if g_i > 0.0 and inner < eta:
            positive += 1
            few += sum(e for _, e in pairs) <= params.r
    assert z > 5.0
    assert rep.counters["survivors"] == survivors
    assert rep.counters["positive_weight"] == positive
    assert rep.counters["omega_le_r"] == few
    assert rep.counters["weight_bound_violations"] == 0
    assert rep.residuals["psi_identity_rel"] < 1e-9


def test_weighted_sieve_psi_identity_smooth(prime_table):
    params = WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                 delta=solve_delta(), r=4)
    rep = weighted_sieve_experiment(10 ** 4, params, BUMP, prime_table)
    assert rep.residuals["psi_identity_rel"] < 1e-9
    assert rep.counters["weight_bound_violations"] == 0


# -------------------------------------------------------------------- surveys

def test_almost_prime_survey(prime_table):
    rep = almost_prime_survey(10 ** 4, 4, prime_table)
    assert rep.counters["window_odd_primes"] == 1033
    assert rep.counters["r=1"] == 117
    assert rep.counters["r=2"] == 464
    assert rep.counters["r=3"] == 803
    assert rep.counters["r=4"] == 974
    assert rep.counters["r=5"] == 1025
    assert rep.counters["r=6"] == 1031
    assert rep.counters["count"] == 974
    assert rep.aggregates["fraction"] == pytest.approx(974 / 1033, abs=1e-12)
    with pytest.raises(ValueError):
        almost_prime_survey(10 ** 4, 0, prime_table)


def test_almost_prime_monotone_in_r(prime_table):
    rep = almost_prime_survey(2000, 1, prime_table)
    counts = [rep.counters[f"r={j}"] for j in range(1, 7)]
    assert counts == sorted(counts)
    assert counts[-1] <= rep.counters["window_odd_primes"]


def test_almost_prime_brute(prime_table):
    X, r = 600, 3
    rep = almost_prime_survey(X, r, prime_table)
    spf = prime_table.smallest_prime_factor
    brute = 0
    for p in range(X + 1, 2 * X + 1):
        if p % 2 == 1 and spf[p] == p:
            m = (p * p + 1) // 2
            if sum(e for _, e in factorize(m).pairs) <= r:
                brute += 1
    assert rep.counters["count"] == brute


def test_gpf_survey(prime_table):
    rep = gpf_survey(10 ** 4, 0.847, prime_table)
    spf = prime_table.smallest_prime_factor
    brute = 0
    for p in range(10 ** 4 + 1, 2 * 10 ** 4 + 1):
        if spf[p] == p:
            fac = factorize(p * p + 1)
            if fac.pairs[-1][0] > p ** 0.847:
                brute += 1
    assert rep.counters["qualifiers"] == brute
    assert rep.aggregates["fraction"] == pytest.approx(
        rep.counters["qualifiers"] / rep.counters["window_primes"], abs=1e-15)
    with pytest.raises(ValueError):
        gpf_survey(10 ** 4, 2.5, prime_table)


def test_dartyge_survey_reference(prime_table):
    rep = dartyge_survey(10 ** 5, 11.2, prime_table)
    assert rep.counters["qualifiers"] == 50000
    assert rep.counters["ratio_gt_1"] == 37389
    assert rep.counters["omega_n_le_11"] == 50000
    assert rep.counters["ratio_gt_1_and_omega_le_11"] == 37389
    expected_hist = {0.3: 4, 0.4: 88, 0.5: 569, 0.6: 1509, 0.7: 2705,
                     0.8: 3364, 0.9: 4372, 1.0: 4782, 1.1: 4303, 1.2: 3920,
                     1.3: 3731, 1.4: 3411, 1.5: 3483, 1.6: 2643, 1.7: 1709,
                     1.8: 3486, 1.9: 5921}
    for lo in [x / 10.0 for x in range(23)]:
        key = f"hist_{lo:.1f}"
        if key in rep.counters:
            assert rep.counters[key] == expected_hist.get(lo, 0), key
    assert sum(v for k, v in rep.counters.items()
               if k.startswith("hist_")) == 50000
    with pytest.raises(ValueError):
        dartyge_survey(10 ** 4, 1.0, prime_table)


def test_dartyge_survey_qualifier_rule(prime_table):
    X, u = 2000, 11.2
    rep = dartyge_survey(X, u, prime_table)
    spf = prime_table.smallest_prime_factor
    brute = sum(1 for n in range(X + 1, 2 * X + 1)
                if spf[n] > n ** (1.0 / u))
    assert rep.counters["qualifiers"] == brute


def test_dartyge_omega_matches_per_n_loop(prime_table):
    # u > 12 lets n with Omega(n) > 11 qualify (2^11 * 3, 2^13 in the window)
    X, u = 4096, 20.0
    rep = dartyge_survey(X, u, prime_table)
    qualifiers = [n for n in range(X + 1, 2 * X + 1)
                  if prime_table.smallest_prime_factor[n] > n ** (1.0 / u)]
    omega = [sum(e for _, e in factorize(n, prime_table).pairs)
             for n in qualifiers]
    assert rep.counters["qualifiers"] == len(qualifiers)
    assert rep.counters["omega_n_le_11"] == sum(o <= 11 for o in omega)
    assert rep.counters["omega_n_le_11"] < len(qualifiers)


@pytest.mark.parametrize("u", [2.0, 3.0, 11.2, 20.0])
def test_u_rough_mask_matches_float_expression(prime_table, u):
    # the one-temporary mask equals the three-temporary expression it
    # replaced, including u = 2, where the power becomes a square root
    for X in (2000, 10 ** 5):
        n = np.arange(X + 1, 2 * X + 1)
        want = prime_table.smallest_prime_factor[n].astype(np.float64) \
            > n.astype(np.float64) ** (1.0 / u)
        assert np.array_equal(experiments._u_rough(X, prime_table, u), want)


# ----------------------------------------------------------------- weil sums

def _weil_prime_sums_loop(p):
    """The O(p^2) scan: sum_v (1 + leg(v)) leg(a v - 1) for each a."""
    leg = np.full(p, -1, dtype=np.int64)
    leg[0] = 0
    leg[(np.arange(1, p, dtype=np.int64) ** 2) % p] = 1
    weights = 1 + leg
    v = np.arange(p, dtype=np.int64)
    out = np.empty(p, dtype=np.int64)
    for a in range(p):
        out[a] = int(np.sum(weights * leg[(a * v - 1) % p]))
    return out


def test_weil_prime_sums_match_quadratic_loop():
    odd = [int(p) for p in sieve_primes(200).primes if p > 2]
    for p in odd + [1009, 1999]:
        got = weil_prime_sums(p)
        assert got.dtype == np.int64
        assert np.array_equal(got, _weil_prime_sums_loop(p)), p


def test_weil_prime_sums_at_zero():
    for p in (3, 5, 7, 11, 13, 1009, 1999):
        assert weil_prime_sums(p)[0] == p * jacobi(p - 1, p)


def test_weil_peak_matches_the_row():
    for p in sieve_primes(2000).primes.tolist()[1:]:
        assert experiments._weil_peak(p) == \
            int(np.max(np.abs(weil_prime_sums(p)[1:]))), p


@pytest.mark.parametrize("p", [2, 9, 1])
def test_weil_prime_sums_rejects_non_odd_prime(p):
    with pytest.raises(ValueError):
        weil_prime_sums(p)


def test_weil_exhaustive_counts_violations(monkeypatch):
    # Inflate S_p(a) for 3 <= a <= p - 2, residues that the literal checks
    # at m = 1, 2, pq - 1 never read, so some pairs break the bound; the
    # count must equal a per-m count over the coprime m < pq.  The peaks
    # come without rows, so they are inflated alike.
    real = experiments.weil_prime_sums

    def inflated(p):
        row = real(p)
        row[3:p - 1] *= 7
        return row
    monkeypatch.setattr(experiments, "weil_prime_sums", inflated)
    monkeypatch.setattr(experiments, "_weil_peak",
                        lambda p: int(np.max(np.abs(inflated(p)[1:]))))
    rep = weil_exhaustive(400)
    want, worst = 0, 0.0
    for p, q in ((p, q) for p in (3, 5, 7, 11, 13, 17, 19)
                 for q in sieve_primes(400).primes.tolist()
                 if p < q and p * q <= 400):
        sp, sq = inflated(p), inflated(q)
        values = [abs(int(sp[m % p]) * int(sq[m % q])) for m in range(p * q)
                  if math.gcd(m, p * q) == 1]
        want += sum(v > math.sqrt(p * q) for v in values)
        worst = max(worst, max(values) / math.sqrt(p * q))
    assert rep.counters["violations"] == want > 0
    assert rep.aggregates["worst_ratio"] == worst

def test_weil_sum_check_small(prime_table):
    rep = weil_sum_check(3, 5, 1)
    assert rep.aggregates["S"] == 1.0
    assert rep.counters["bound_holds"] == 1
    # brute: sum of jacobi(m ell^2 - 1, 15) over ell mod 15
    brute = sum(jacobi((ell * ell - 1) % 15, 15) for ell in range(15))
    assert rep.aggregates["S"] == float(brute)


def _weil_sum_reference(m, pq):
    return sum(jacobi((m * ell * ell - 1) % pq, pq) for ell in range(pq))


# 131 * 137 = 17947 spans two chunks of ell; m = 10^30 needs reduction
# before int64, and m = 0, pq, p are degenerate.
@pytest.mark.parametrize("p,q", [(3, 5), (7, 11), (131, 137)])
def test_literal_weil_sum_matches_reference(p, q):
    pq = p * q
    chi = jacobi_table(pq)
    for m in (-1, 0, 1, p, pq - 1, pq, pq + 1, 10 ** 30):
        assert experiments._literal_weil_sum(m, pq, chi) == \
            _weil_sum_reference(m, pq), m


def test_weil_literal_sums_read_one_jacobi_table_per_modulus(monkeypatch):
    moduli = []
    real = experiments.jacobi_table
    monkeypatch.setattr(experiments, "jacobi_table",
                        lambda n: moduli.append(n) or real(n))
    weil_sum_check(3, 5, 1)
    assert moduli == [15]
    moduli.clear()
    rep = weil_exhaustive(400)
    assert rep.counters["direct_checks"] == 12
    assert moduli == [15, 21, 33, 391]  # first three pairs and the last


def test_weil_sum_degenerate(prime_table):
    rep = weil_sum_check(3, 5, 5)  # gcd(m, pq) > 1
    assert rep.counters["degenerate"] == 1


def test_weil_prime_sums_bound_and_crt(prime_table):
    for p in (5, 13, 17, 29):
        sums = weil_prime_sums(p)
        assert len(sums) == p
        assert np.max(np.abs(sums[1:])) <= math.sqrt(p) + 1e-9
    # complete-sum factorization: S(m; pq) = S_p(m mod p) * S_q(m mod q)
    for (p, q) in ((3, 5), (5, 13), (7, 11)):
        sp, sq = weil_prime_sums(p), weil_prime_sums(q)
        for m in (1, 2, 3):
            if math.gcd(m, p * q) != 1:
                continue
            direct = sum(jacobi((m * ell * ell - 1) % (p * q), p * q)
                         for ell in range(p * q))
            assert sp[m % p] * sq[m % q] == pytest.approx(
                float(direct), abs=1e-9)


def test_weil_exhaustive_small(prime_table):
    rep = weil_exhaustive(1000)
    assert rep.counters["violations"] == 0
    assert rep.counters["pairs"] > 0
    assert rep.aggregates["worst_ratio"] <= 1.0
    with pytest.raises(ValueError):
        weil_exhaustive(10)
