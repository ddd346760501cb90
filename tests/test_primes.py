"""Prime tables, factorization, and the a^2 + 1 congruence machinery."""

import math
import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievekit import primes
from sievekit.primes import (
    MAX_INT64_SQUARE_ROOT,
    CongruenceRootSet,
    factorize,
    is_prime,
    jacobi,
    jacobi_table,
    multiplicative_suite,
    rho,
    roots_mod,
    sieve_primes,
    sqrt_minus_one,
    sqrt_minus_one_batch,
    sqrt_minus_one_lifts,
    x_flat,
)


def segmented_prime_count(lo: int, hi: int) -> int:
    """Count primes in (lo, hi] by an independent segmented sieve."""
    if hi <= lo:
        return 0
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p:: p] = False
    base_primes = np.nonzero(base)[0]
    count = 0
    span = 1 << 20
    for start in range(lo + 1, hi + 1, span):
        stop = min(start + span, hi + 1)
        seg = np.ones(stop - start, dtype=bool)
        for p in base_primes:
            first = max(p * p, (start + p - 1) // p * p)
            if first < stop:
                seg[first - start:: p] = False
        if start <= 1:
            seg[: min(2 - start, stop - start)] = False
        count += int(np.count_nonzero(seg))
    return count


def test_prime_counts(prime_table):
    assert len(prime_table.primes_between(0, 10 ** 6)) == 78498
    assert len(prime_table.primes_between(0, 10)) == 4
    assert len(prime_table.primes_between(0, 2)) == 1
    assert len(prime_table.primes_between(0, 1)) == 0


def test_prime_count_beyond_limit_raises(prime_table):
    limit = prime_table.limit
    assert len(prime_table.primes_between(0, limit)) == len(prime_table.primes)
    with pytest.raises(ValueError):
        prime_table.primes_between(0, limit + 1)


def test_primes_between(prime_table):
    window = prime_table.primes_between(10, 30)
    assert list(window) == [11, 13, 17, 19, 23, 29]
    assert list(prime_table.primes_between(23, 29)) == [29]
    with pytest.raises(ValueError):
        prime_table.primes_between(0, prime_table.limit + 1)


def test_smallest_prime_factor(prime_table):
    spf = prime_table.smallest_prime_factor
    assert spf[1] == 1
    assert spf[2] == 2
    assert spf[9] == 3
    assert spf[97] == 97
    assert spf[91] == 7


def test_segmented_count_matches_table(prime_table):
    assert segmented_prime_count(0, 10 ** 6) == 78498
    lo, hi = 500_000, 600_000
    expected = len(prime_table.primes_between(lo, hi))
    assert segmented_prime_count(lo, hi) == expected
    assert segmented_prime_count(10, 10) == 0


def test_is_prime_small_and_edge():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)


def test_is_prime_matches_sieve(prime_table):
    spf = prime_table.smallest_prime_factor
    for n in range(2, 20_000):
        assert is_prime(n) == (spf[n] == n)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)  # Mersenne prime
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_factorize_examples():
    assert factorize(170).pairs == ((2, 1), (5, 1), (17, 1))
    assert factorize(1).pairs == ()
    assert factorize(2 ** 10).pairs == ((2, 10),)
    assert factorize(97).pairs == ((97, 1),)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).pairs == ((p, 1), (q, 1))


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2 ** 63)


@given(st.integers(2, 10 ** 6))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_factorize_product_invariant(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.pairs:
        assert is_prime(p)
        prod *= p ** e
    assert prod == n
    assert list(fac.pairs) == sorted(fac.pairs)


def test_multiplicative_suite_rows():
    assert multiplicative_suite(170) == {"phi": 64, "tau": 8}
    assert multiplicative_suite(9) == {"phi": 6, "tau": 3}
    assert multiplicative_suite(1) == {"phi": 1, "tau": 1}


def test_multiplicative_suite_brute(prime_table):
    for n in range(1, 300):
        row = multiplicative_suite(n, prime_table)
        assert row["phi"] == sum(1 for k in range(1, n + 1)
                                 if math.gcd(k, n) == 1)
        assert row["tau"] == sum(1 for k in range(1, n + 1) if n % k == 0)


def test_jacobi_matches_legendre(prime_table):
    # Euler criterion on odd primes: (a/p) = a^((p-1)/2) mod p
    for p in map(int, prime_table.primes_between(2, 200)):
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert jacobi(a, p) == expected


@given(st.integers(-10 ** 6, 10 ** 6),
       st.integers(0, 10 ** 4).map(lambda k: 2 * k + 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_jacobi_multiplicative(a, n):
    assert jacobi(a, n) == jacobi(a % n, n)
    assert jacobi(a * a, n) in ((1,) if math.gcd(a, n) == 1 else (0,))


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    for n in (0, -3, 10):
        with pytest.raises(ValueError):
            jacobi_table(n)


# 315 = 3^2 5 7 has a square factor; 87097 = 251 * 347 and 99991 (prime)
# sit below the small table's limit, 198907 = 443 * 449 above it.  3^7 and
# 7^4 are prime powers, 99989 is a prime = 1 (mod 4), and with 45 = 3^2 5
# every odd class mod 8 holds a prime and a composite modulus.
@pytest.mark.parametrize("n", [1, 3, 15, 45, 315, 2187, 2401, 15015, 99989,
                               99991, 87097, 198907])
def test_jacobi_table_matches_jacobi_at_every_residue(n):
    chi = jacobi_table(n)
    assert chi.dtype == np.int8
    assert chi.tolist() == [jacobi(a, n) for a in range(n)]


@given(st.integers(0, 1499).map(lambda k: 2 * k + 1))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_jacobi_table_matches_jacobi_at_small_odd_moduli(n):
    assert jacobi_table(n).tolist() == [jacobi(a, n) for a in range(n)]


def test_jacobi_table_makes_no_scalar_jacobi_call(monkeypatch):
    def refuse(a, n):
        raise AssertionError(f"scalar jacobi({a}, {n}) called")

    monkeypatch.setattr(primes, "jacobi", refuse)
    for n, factors in ((15015, [3, 5, 7, 11, 13]), (198907, [443, 449])):
        chi = jacobi_table(n)
        assert not chi[factors].any()
        # nonzero exactly on the units, and a nontrivial character (n is
        # not a square) sums to 0 over them
        assert np.count_nonzero(chi) == sum(
            1 for a in range(n) if math.gcd(a, n) == 1)
        assert int(chi.sum(dtype=np.int64)) == 0


def test_pow_mod_matches_builtin_pow():
    top = MAX_INT64_SQUARE_ROOT
    m = np.array([2, 3, 7, 1000003, top - 2, top - 1, top] * 3, dtype=np.int64)
    rng = np.random.default_rng(5)
    base = rng.integers(0, m)
    base[:7] = m[:7] - 1  # the largest residue squares to the largest product
    e = np.concatenate([np.zeros(7, dtype=np.int64), rng.integers(1, 64, 7),
                        rng.integers(2 ** 40, 2 ** 62, 7)])
    got = primes._pow_mod(base, e.copy(), m)
    assert got.dtype == np.int64
    assert got.tolist() == [pow(int(b), int(k), int(q))
                            for b, k, q in zip(base, e, m)]
    assert primes._pow_mod(*[np.array([], dtype=np.int64)] * 3).shape == (0,)


def test_sqrt_minus_one_examples():
    assert sqrt_minus_one(5) == 2
    assert sqrt_minus_one(13) == 5
    assert sqrt_minus_one(17) == 4
    with pytest.raises(ValueError):
        sqrt_minus_one(7)


def test_sqrt_minus_one_all_small(prime_table):
    for p in map(int, prime_table.primes_between(2, 10_000)):
        if p % 4 != 1:
            continue
        r = sqrt_minus_one(p)
        assert (r * r + 1) % p == 0
        assert 0 < r <= (p - 1) // 2


def test_sqrt_minus_one_batch_matches_scalar(prime_table):
    p = prime_table.primes[prime_table.primes % 4 == 1]
    assert p[-1] > 1_999_000
    want = np.array([sqrt_minus_one(int(v)) for v in p], dtype=np.int64)
    got = sqrt_minus_one_batch(p)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_root_column_holds_the_scalar_roots(prime_table):
    column = prime_table.root_of_minus_one
    assert column.dtype == np.int32 and not column.flags.writeable
    assert len(column) == len(prime_table.primes)
    one_mod_four = prime_table.primes % 4 == 1
    assert column[one_mod_four].tolist() == [
        sqrt_minus_one(p) for p in prime_table.primes[one_mod_four].tolist()]
    assert not column[~one_mod_four].any()
    assert prime_table.root_of_minus_one is column


def test_sqrt_minus_one_batch_at_the_int64_bound():
    # the largest primes = 1 (mod 4) whose square fits in int64
    top = []
    p = MAX_INT64_SQUARE_ROOT - (MAX_INT64_SQUARE_ROOT - 1) % 4
    while len(top) < 3:
        if is_prime(p):
            top.append(p)
        p -= 4
    assert list(sqrt_minus_one_batch(np.array(top))) \
        == [sqrt_minus_one(v) for v in top]


def test_sqrt_minus_one_batch_edges():
    assert sqrt_minus_one_batch(np.array([], dtype=np.int64)).shape == (0,)
    assert list(sqrt_minus_one_batch([5, 13, 17])) == [2, 5, 4]
    with pytest.raises(ValueError):
        sqrt_minus_one_batch(np.array([5, 7, 13]))
    with pytest.raises(ValueError):
        sqrt_minus_one_batch(np.array([3]))
    over = MAX_INT64_SQUARE_ROOT + 1
    over += (1 - over) % 4
    assert over ** 2 >= 2 ** 63 and over % 4 == 1
    with pytest.raises(ValueError):
        sqrt_minus_one_batch(np.array([5, over]))
    with pytest.raises(ValueError):
        sqrt_minus_one_batch(np.array([25]))  # not prime: no non-residue


def test_roots_mod_examples():
    assert roots_mod(13).roots == (5, 8)
    assert roots_mod(25).roots == (7, 18)
    assert roots_mod(3).roots == ()
    assert roots_mod(1).roots == (0,)
    assert roots_mod(2).roots == (1,)
    assert roots_mod(4).roots == ()
    assert roots_mod(65).roots == (8, 18, 47, 57)


def test_roots_mod_brute(prime_table):
    for d in range(1, 400):
        brute = tuple(a for a in range(d) if (a * a + 1) % d == 0)
        if d == 1:
            brute = (0,)
        assert roots_mod(d, prime_table).roots == brute


def test_sqrt_minus_one_lifts_every_level():
    # The one Hensel lift behind roots_mod and the window strike sieve,
    # checked at every level up to the roots_mod cap (the brute-force test
    # above stops short of 5^4).
    cap = 10 ** 12
    for p in (5, 13, 17, 29):
        levels = list(sqrt_minus_one_lifts(p, cap))
        assert [q for q, _ in levels] == [p ** k
                                          for k in range(1, len(levels) + 1)]
        assert levels[-1][0] * p > cap
        for q, r in levels:
            assert (r * r + 1) % q == 0
            assert r <= q / 2
            assert {r, q - r} == set(roots_mod(q).roots)


def test_congruence_root_set_validates():
    with pytest.raises(ValueError):
        CongruenceRootSet(modulus=13, roots=(4,))


def test_roots_mod_lifts_nothing_for_rootless_moduli(monkeypatch):
    # a factor 3 mod 4 empties the root set, so no root of -1 is lifted,
    # even mod an earlier factor 1 mod 4
    calls = []
    real = primes.sqrt_minus_one
    monkeypatch.setattr(primes, "sqrt_minus_one",
                        lambda p: calls.append(p) or real(p))
    assert roots_mod(35).roots == ()
    assert roots_mod(5 * 11 * 13).roots == ()
    assert calls == []
    assert roots_mod(5 * 13).roots == (8, 18, 47, 57)
    assert calls == [5, 13]


def test_rho_matches_roots(prime_table):
    # the root count is the product of the local counts rho(p^e)
    for d in range(1, 2000):
        local = math.prod(primes._local_root_count(p, e)
                          for p, e in factorize(d, prime_table).pairs)
        assert rho(d, prime_table) == local


def test_rho_by_residue_class(prime_table):
    for p in map(int, prime_table.primes_between(2, 10_000)):
        r = rho(p, prime_table)
        if p == 2:
            assert r == 1
        elif p % 4 == 1:
            assert r == 2
        else:
            assert r == 0


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_rho_multiplicative(a, b):
    if math.gcd(a, b) != 1:
        return
    assert rho(a * b) == rho(a) * rho(b)


def test_x_flat_values():
    assert x_flat(math.exp(4.0)) == pytest.approx(1.0, abs=1e-12)
    assert x_flat(10 ** 6) == pytest.approx(24.3086703232, abs=1e-9)
    with pytest.raises(ValueError):
        x_flat(1.0)


def test_x_flat_increasing_beyond_e4():
    xs = [math.exp(4.0) + 1.0 * k for k in range(100)]
    vals = [x_flat(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sieve_rejects_bad_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_sieve_refuses_a_table_beyond_available_memory(monkeypatch):
    # the estimate alone decides: numpy is never reached, nothing allocated
    monkeypatch.setattr(primes, "_mem_available_bytes", lambda: 50 * 2 ** 20)
    monkeypatch.setattr(primes, "np", None)
    with pytest.raises(ValueError, match=r"^a prime table to 50000000 needs "
                       r"about 57 MiB, more than the 50 MiB available$"):
        sieve_primes(5 * 10 ** 7)


def test_sieve_byte_constant_bounds_the_measured_peak():
    # measured <= constant <= 1.25 measured, so a change that moves the peak
    # must move the constant too
    for limit in (2 * 10 ** 6, 2 * 10 ** 7):
        tracemalloc.start()
        try:
            sieve_primes(limit)
            peak = tracemalloc.get_traced_memory()[1] / (limit + 1)
        finally:
            tracemalloc.stop()
        constant = primes.SIEVE_BYTES_PER_ENTRY
        assert peak <= constant <= 1.25 * peak, (limit, constant, peak)


def test_sieve_skips_the_memory_check_when_unreadable(monkeypatch):
    monkeypatch.setattr(primes, "_mem_available_bytes", lambda: None)
    assert len(sieve_primes(100).primes) == 25


def test_memory_check_trims_the_heap_before_reading_memavailable(
        monkeypatch):
    # trimmed first, so MemAvailable counts the pages handed back
    if platform.libc_ver()[0] == "glibc":
        assert primes._malloc_trim is not None
    calls = []
    monkeypatch.setattr(primes, "_malloc_trim",
                        lambda pad: calls.append(("trim", pad)))
    monkeypatch.setattr(primes, "_mem_available_bytes",
                        lambda: calls.append("read"))
    sieve_primes(100)
    assert calls == [("trim", 0), "read"]


MiB = 2 ** 20
HOST_FILES = {  # the shape of a host that sets no limit
    "/proc/meminfo": "MemTotal: 8000000 kB\nMemAvailable: 7000000 kB\n",
    "/proc/self/status": "VmSize:\t  409600 kB\nVmData:\t  102400 kB\n",
    "/proc/self/cgroup": "4:memory:/process_api/job\n0::/\n",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
    "/sys/fs/cgroup/memory/memory.usage_in_bytes": "104857600\n",
    "/sys/fs/cgroup/memory/memory.stat": "total_inactive_file 0\n",
}


def _limits(address_space="unlimited", data="unlimited"):
    rows = [("Limit", "Soft Limit", "Hard Limit", "Units"),
            ("Max data size", data, "unlimited", "bytes"),
            ("Max stack size", "8388608", "unlimited", "bytes"),
            ("Max address space", address_space, "unlimited", "bytes")]
    return "".join("%-25s %-20s %-20s %-10s\n" % row for row in rows)


def test_unlimited_values_leave_memavailable(monkeypatch):
    files = {**HOST_FILES, "/proc/self/limits": _limits(),
             "/sys/fs/cgroup/memory.max": "max\n",
             "/sys/fs/cgroup/memory.current": "104857600\n"}
    monkeypatch.setattr(primes, "_read_text", files.get)
    assert primes._mem_available_bytes() == 7000000 * 1024


def test_memory_readers_give_none_when_nothing_is_readable(monkeypatch):
    monkeypatch.setattr(primes, "_read_text", {}.get)
    assert primes._mem_available_bytes() is None


def test_rlimit_headroom_refuses_a_table_by_name(monkeypatch):
    # 512 MiB of address space left under RLIMIT_AS; MemAvailable is ample
    files = {**HOST_FILES, "/proc/meminfo": "MemAvailable: 67108864 kB\n",
             "/proc/self/limits": _limits(address_space=str(912 * MiB))}
    monkeypatch.setattr(primes, "_read_text", files.get)
    assert primes._mem_available_bytes() == 512 * MiB
    monkeypatch.setattr(primes, "np", None)
    with pytest.raises(ValueError, match=r"^a prime table to 1000000000 "
                       r"needs about 1144 MiB, more than the 512 MiB "
                       r"available$"):
        sieve_primes(10 ** 9)


def test_rlimit_data_counts_against_vmdata(monkeypatch):
    files = {**HOST_FILES, "/proc/self/limits": _limits(data=str(300 * MiB))}
    monkeypatch.setattr(primes, "_read_text", files.get)
    assert primes._mem_available_bytes() == 200 * MiB


@pytest.mark.parametrize("files,headroom", [
    ({"/proc/self/cgroup": "0::/job.scope\n",
      "/sys/fs/cgroup/job.scope/memory.max": f"{1024 * MiB}\n",
      "/sys/fs/cgroup/job.scope/memory.current": f"{900 * MiB}\n",
      "/sys/fs/cgroup/job.scope/memory.stat":
          f"anon {600 * MiB}\ninactive_file {300 * MiB}\n"}, 424 * MiB),
    # a cgroup namespace mounts the process's own group at the root
    ({"/sys/fs/cgroup/memory/memory.limit_in_bytes": f"{256 * MiB}\n",
      "/sys/fs/cgroup/memory/memory.usage_in_bytes": f"{200 * MiB}\n",
      "/sys/fs/cgroup/memory/memory.stat":
          f"inactive_file {99 * MiB}\ntotal_inactive_file {20 * MiB}\n"},
     76 * MiB),
])
def test_cgroup_headroom_counts_inactive_file_cache(monkeypatch, files,
                                                    headroom):
    monkeypatch.setattr(primes, "_read_text", {**HOST_FILES, **files}.get)
    assert primes._mem_available_bytes() == headroom


def _masked_fill_sieve(limit):
    """The earlier spf fill, kept as the oracle: each prime p up to
    sqrt(limit), ascending, marks only the still-empty entries of p*p::p."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    idx = np.arange(limit + 1, dtype=np.int32)
    unmarked = spf == 0
    spf[unmarked] = idx[unmarked]
    spf[1] = 1
    primes = np.nonzero(spf == idx)[0][2:].astype(np.int64)
    return primes, spf


# squares of odd primes and their neighbours, at both parities, where the
# sqrt(limit) bound moves and the first multiple p^2 // 2 is struck
SQUARE_LIMITS = sorted(
    {p * p + d for p in (3, 5, 7, 11) for d in (-1, 0, 1, 2)}
    | {2, 3, 4, 10201, 10 ** 5, 1_000_003, 2_010_000})


@pytest.mark.parametrize("limit", SQUARE_LIMITS)
def test_sieve_matches_the_masked_fill_bitwise(limit):
    want_primes, want_spf = _masked_fill_sieve(limit)
    table = sieve_primes(limit)
    assert "smallest_prime_factor" not in vars(table)
    assert table.primes.dtype == np.int64
    assert np.array_equal(table.primes, want_primes)
    spf = table.smallest_prime_factor
    assert spf.dtype == np.int32 and spf.flags.writeable
    assert np.array_equal(spf, want_spf)
    assert table.smallest_prime_factor is spf  # built once, then cached


def test_spf_byte_constant_bounds_the_measured_peak():
    # measured <= constant <= 1.25 measured at both limits, as for the sieve
    for limit in (2 * 10 ** 6, 2 * 10 ** 7):
        table = sieve_primes(limit)
        tracemalloc.start()
        try:
            table.smallest_prime_factor
            peak = tracemalloc.get_traced_memory()[1] / (limit + 1)
        finally:
            tracemalloc.stop()
        del table
        constant = primes.SPF_BYTES_PER_ENTRY
        assert peak <= constant <= 1.25 * peak, (limit, constant, peak)


def test_spf_column_refuses_beyond_available_memory(monkeypatch):
    # the primes are sieved, and the column is refused by its own estimate
    # before numpy allocates it
    table = sieve_primes(10 ** 6)
    monkeypatch.setattr(primes, "_mem_available_bytes", lambda: 2 ** 20)
    monkeypatch.setattr(primes, "np", None)
    with pytest.raises(ValueError, match=r"^the smallest-prime-factor column "
                       r"to 1000000 needs about 4 MiB, more than the 1 MiB "
                       r"available$"):
        table.smallest_prime_factor
    assert "smallest_prime_factor" not in vars(table)
