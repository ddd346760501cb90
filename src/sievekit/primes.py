"""Integer-arithmetic layer: prime tables, factorization, roots of a^2+1 = 0 (mod d)."""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

MAX_SIEVE_LIMIT = 10 ** 9
MAX_ROOTS_MODULUS = 10 ** 12
MAX_INT64_SQUARE_ROOT = math.isqrt(2 ** 63 - 1)  # p^2 < 2^63 up to here
# Bound on the peak of sieve_primes per entry; the int32 spf table, a bool
# mask of the odd entries and the int64 prime list, twice while it is
# formed, measured 5.19 B at limit 2e6 and 5.02 B at 2e7 (tracemalloc).
SIEVE_BYTES_PER_ENTRY = 6
ROOT_BLOCK = 1 << 14  # primes per _pow_mod batch (root column, jacobi_table)

# Witness set is deterministic for every n < 3.3e24, far past the 2^63 input cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to limit plus a smallest-prime-factor array indexed 0..limit.

    root_of_minus_one is a column beside primes, built on first use and
    kept for the table's lifetime: the window strike passes read the roots
    of -1 mod ell from it instead of re-deriving them for every window.
    """
    limit: int
    primes: np.ndarray
    smallest_prime_factor: np.ndarray
    # experiments.quadratic_window_stats keeps its last window here
    _window: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    @functools.cached_property
    def root_of_minus_one(self) -> np.ndarray:
        """Read-only int32 column: sqrt_minus_one(p) at each p = 1 (mod 4)
        in primes and 0 at every other prime, 4 B per prime.

        Built once, by one sqrt_minus_one_batch call per block of
        ROOT_BLOCK primes = 1 (mod 4), so the batch's int64 transients stay
        small at any limit.  A root is below p / 2 <= MAX_SIEVE_LIMIT / 2,
        so int32 holds it.
        """
        column = np.zeros(len(self.primes), dtype=np.int32)
        at = np.flatnonzero(self.primes % 4 == 1)
        for a in range(0, len(at), ROOT_BLOCK):
            block = at[a:a + ROOT_BLOCK]
            column[block] = sqrt_minus_one_batch(self.primes[block])
        column.flags.writeable = False
        return column

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo < p <= hi, as a slice of the table."""
        if hi > self.limit:
            raise ValueError(f"range end {hi} exceeds table limit {self.limit}")
        i = int(np.searchsorted(self.primes, lo, side="right"))
        j = int(np.searchsorted(self.primes, hi, side="right"))
        return self.primes[i:j]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n as ascending (prime, exponent) pairs."""
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        for p, e in self.pairs:
            prod *= p ** e
        if prod != self.n:
            raise ValueError(f"factor product {prod} != {self.n}")


@dataclass(frozen=True)
class CongruenceRootSet:
    """Ascending residues a (mod d) with a^2 + 1 = 0 (mod d)."""
    modulus: int
    roots: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for a in self.roots:
            if (a * a + 1) % self.modulus != 0 and self.modulus != 1:
                raise ValueError(f"{a}^2+1 not divisible by {self.modulus}")


try:  # glibc only; elsewhere freed heap pages stay with the process
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


# A limit at or above this reads as none: cgroup v1 reports "no limit" as
# 2^63 rounded down to a page, and v2 as "max".
_UNLIMITED = 2 ** 62
# (controller in /proc/self/cgroup, mount, limit, usage, reclaimable cache)
_CGROUP_FILES = (
    ("", "/sys/fs/cgroup", "memory.max", "memory.current", "inactive_file"),
    ("memory", "/sys/fs/cgroup/memory", "memory.limit_in_bytes",
     "memory.usage_in_bytes", "total_inactive_file"),
)
# /proc/self/limits row -> the /proc/self/status field it limits
_RLIMIT_ROWS = {"Max address space": "VmSize", "Max data size": "VmData"}


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _read_fields(path: str) -> dict[str, int]:
    """The integer fields of a 'key value [kB]' file, in bytes for kB."""
    fields = {}
    for line in (_read_text(path) or "").splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1].isdigit():
            scale = 1024 if parts[2:] == ["kB"] else 1
            fields[parts[0].rstrip(":")] = int(parts[1]) * scale
    return fields


def _read_int(path: str) -> int | None:
    text = (_read_text(path) or "").strip()
    return int(text) if text.isdigit() else None


def _cgroup_headroom() -> Iterator[int]:
    """Limit minus usage plus inactive file cache, for each memory cgroup
    (v2, then v1) that sets a limit.  A cgroup namespace mounts the
    process's own group at the root, so the root is tried after its path."""
    paths = {}
    for line in (_read_text("/proc/self/cgroup") or "").splitlines():
        _, controllers, path = line.split(":", 2)
        for name in controllers.split(","):
            paths[name] = path.rstrip("/")
    for controller, mount, limit_file, usage_file, cache in _CGROUP_FILES:
        if controller not in paths:
            continue
        for group in (mount + paths[controller], mount):
            limit = _read_int(f"{group}/{limit_file}")
            usage = _read_int(f"{group}/{usage_file}")
            if limit is not None and usage is not None:
                if limit < _UNLIMITED:
                    stat = _read_fields(f"{group}/memory.stat")
                    yield limit - usage + stat.get(cache, 0)
                break


def _rlimit_headroom() -> Iterator[int]:
    """Each finite RLIMIT_AS / RLIMIT_DATA soft limit, as /proc/self/limits
    lists it, minus what the process already maps against it."""
    status = _read_fields("/proc/self/status")
    for line in (_read_text("/proc/self/limits") or "").splitlines():
        name, _, rest = line.partition("  ")  # names are padded to 25
        used = _RLIMIT_ROWS.get(name)
        soft = (rest.split() or [""])[0]
        if used in status and soft.isdigit() and int(soft) < _UNLIMITED:
            yield int(soft) - status[used]


def _mem_available_bytes() -> int | None:
    """The least of MemAvailable, the rlimit headroom and the cgroup
    headroom, skipping any that cannot be read or sets no limit; None where
    none can be read.  The cgroup's inactive file cache counts as free, as
    it does in MemAvailable, so a warm page cache refuses no small job."""
    meminfo = _read_fields("/proc/meminfo")
    found = [*_rlimit_headroom(), *_cgroup_headroom()]
    if "MemAvailable" in meminfo:
        found.append(meminfo["MemAvailable"])
    return max(min(found), 0) if found else None


def _check_memory(need: int, what: str, error=ValueError) -> None:
    """Raise error when what needs more than the process may still use:
    the least of MemAvailable and its rlimit and cgroup headroom.  The
    check is skipped where none of them can be read.

    Every prime table and window is allocated right after this check, so it
    first hands the C heap's free pages back to the system.  MemAvailable
    then counts them, and the new arrays fault in fresh pages instead of
    landing, or not, in holes an earlier window left resident.  Without the
    trim (glibc 2.36), one process surveying X = 5e5 and then 1e6 peaked
    at 66 to 74 MB depending on where its heap blocks happened to lie,
    down to the length of the checkout's path; with it, at 66 to 67 MB.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
    available = _mem_available_bytes()
    if available is not None and need > available:
        raise error(f"{what} needs about {need / 2 ** 20:.0f} MiB, more than "
                    f"the {available / 2 ** 20:.0f} MiB available")


def sieve_primes(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes with a smallest-prime-factor side table."""
    if not 2 <= limit <= MAX_SIEVE_LIMIT:
        raise ValueError(f"limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}")
    _check_memory((limit + 1) * SIEVE_BYTES_PER_ENTRY,
                  f"a prime table to {limit}")
    root = math.isqrt(limit)
    small = bytearray([1]) * (root + 1)  # primality up to sqrt(limit)
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[4::2] = 2
    # odd multiples only, descending, so the smallest odd prime factor of
    # each odd entry writes last
    for p in range(root, 2, -1):
        if small[p]:
            spf[p * p::2 * p] = p
    # the unmarked odd entries above 1 are the odd primes
    odd = np.flatnonzero(spf[3::2] == 0)
    primes = np.empty(len(odd) + 1, dtype=np.int64)
    primes[0] = 2
    np.multiply(odd, 2, out=primes[1:])
    primes[1:] += 3
    del odd
    spf[primes] = primes
    spf[1] = 1
    return PrimeTable(limit=limit, primes=primes, smallest_prime_factor=spf)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Deterministic Brent-cycle factor of composite odd n (not a prime power)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 256):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle search exhausted on {n}")


_SMALL_TABLE = sieve_primes(10 ** 5)


def factorize(n: int, table: PrimeTable | None = None) -> Factorization:
    """Full factorization for 1 <= n < 2^63."""
    if not 1 <= n < 2 ** 63:
        raise ValueError(f"n must be in [1, 2^63), got {n}")
    src = n
    found: dict[int, int] = {}
    tab = table if table is not None else _SMALL_TABLE
    if n <= tab.limit:
        spf = tab.smallest_prime_factor
        while n > 1:
            p = int(spf[n])
            found[p] = found.get(p, 0) + 1
            n //= p
    else:
        for p in map(int, _SMALL_TABLE.primes):
            if p * p > n:
                break
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
        stack = [n] if n > 1 else []
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                found[m] = found.get(m, 0) + 1
                continue
            d = _pollard_brent(m)
            stack.extend((d, m // d))
    return Factorization(n=src, pairs=tuple(sorted(found.items())))


def multiplicative_suite(n: int, table: PrimeTable | None = None) -> dict[str, int]:
    """Euler's phi and the divisor count tau of n."""
    phi, tau = 1, 1
    for p, e in factorize(n, table).pairs:
        phi *= (p - 1) * p ** (e - 1)
        tau *= e + 1
    return {"phi": phi, "tau": tau}


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"modulus must be odd positive, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def jacobi_table(n: int) -> np.ndarray:
    """Jacobi symbols (a/n) for every a in [0, n), as an int8 array.

    The primes p < n are filled in batches, with no scalar call per prime:
    (2/n) from n mod 8, and for odd p Euler's criterion gives
    (n/p) = (n mod p)^((p-1)/2) mod p in {0, 1, p - 1}, which quadratic
    reciprocity turns into (p/n): the sign flips when p = n = 3 (mod 4), and
    a p dividing n gets 0.  Every composite a takes (spf(a)/n) (a'/n) with
    a' = a / spf(a), by complete multiplicativity in the top argument, so n
    itself is never factored.  Composites are filled in doubling blocks
    [2^k, 2^(k+1)): a' <= a/2 and spf(a) <= a/2 lie in earlier blocks, which
    are complete by then.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"modulus must be odd positive, got {n}")
    tab = _SMALL_TABLE if n <= _SMALL_TABLE.limit else sieve_primes(n)
    chi = np.zeros(n, dtype=np.int8)
    chi[1 % n] = 1  # (1/n) = 1, and (0/n) = 0 except (0/1) = 1
    if n > 2:
        chi[2] = 1 if n % 8 in (1, 7) else -1
    # odd p < n <= MAX_SIEVE_LIMIT, so _pow_mod's int64 products fit;
    # blocks of ROOT_BLOCK keep its transients small at any n
    odd = tab.primes[1:np.searchsorted(tab.primes, n)]
    for a in range(0, len(odd), ROOT_BLOCK):
        p = odd[a:a + ROOT_BLOCK]
        r = _pow_mod(n % p, (p - 1) // 2, p)
        symbol = np.where(r > 1, -1, r)  # p - 1 > 1 stands for -1
        if n % 4 == 3:
            symbol[p % 4 == 3] *= -1
        chi[p] = symbol
    lo = 4
    while lo < n:
        a = np.arange(lo, min(2 * lo, n))
        spf = tab.smallest_prime_factor[lo:lo + len(a)]
        composite = spf != a
        a, spf = a[composite], spf[composite]
        chi[a] = chi[spf] * chi[a // spf]
        lo *= 2
    return chi


def sqrt_minus_one(p: int) -> int:
    """Smaller square root of -1 modulo a prime p = 1 (mod 4).

    c^((p-1)/2) = -1 for any non-residue c, so c^((p-1)/4) squares to -1.
    The non-residue search is an ascending scan, hence fully deterministic.
    """
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not 1 mod 4")
    c = 2
    while jacobi(c, p) != -1:
        c += 1
    r = pow(c, (p - 1) // 4, p)
    return min(r, p - r)


def sqrt_minus_one_batch(primes: np.ndarray) -> np.ndarray:
    """sqrt_minus_one(p) for every entry of an array of primes p = 1 (mod 4).

    The scalar routine's c is the least non-residue of p, which is prime.
    Candidates c = 2, 3, 5, ... are scanned with reciprocity, which for
    p = 1 (mod 4) makes (c/p) = (p mod c / c) for odd c and (2/p) = -1
    exactly when p = 5 (mod 8).  Then c^((p-1)/4) mod p comes from
    _pow_mod.  Each root is checked to satisfy r^2 = -1 (mod p).
    """
    p = np.asarray(primes, dtype=np.int64)
    if np.any(p % 4 != 1):
        raise ValueError("every p must be 1 mod 4")
    if np.any(p > MAX_INT64_SQUARE_ROOT):
        raise ValueError(f"every p must be <= {MAX_INT64_SQUARE_ROOT} "
                         f"so p^2 fits in int64")
    base = np.where(p % 8 == 5, np.int64(2), np.int64(0))
    c = 3
    while not base.all():
        todo = np.flatnonzero(base == 0)
        if c >= p[todo].min():
            raise ValueError("no non-residue below p: input not prime")
        non_residue = np.ones(c, dtype=bool)
        non_residue[np.arange(c) ** 2 % c] = False
        base[todo[non_residue[p[todo] % c]]] = c
        c += 2
        while not is_prime(c):
            c += 2
    r = _pow_mod(base, (p - 1) // 4, p)
    if np.any((r * r + 1) % p != 0):
        raise ValueError("no square root of -1: input not prime")
    return np.minimum(r, p - r)


def _pow_mod(base: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """base^e mod m entrywise over int64 arrays, for 0 <= base < m, e >= 0
    and 2 <= m <= MAX_INT64_SQUARE_ROOT.

    One vectorized square-and-multiply: residues stay below m, so every
    product stays below m^2 < 2^63.  e is shifted in place, which spares an
    array per bit, so pass one the caller no longer needs.
    """
    r = np.ones(len(m), dtype=np.int64)
    for _ in range(int(e.max(initial=0)).bit_length()):
        r = np.where(e & 1, r * base % m, r)
        base = base * base % m
        e >>= 1
    return r


def sqrt_minus_one_lifts(p: int, max_modulus: int
                         ) -> Iterator[tuple[int, int]]:
    """Yield (p^k, r) for k = 1, 2, ... while p^k <= max_modulus.

    Level k = 1 is always yielded.  r is the smaller root of r^2 + 1 = 0
    (mod p^k) for a prime p = 1 (mod 4), Hensel-lifted level by level from
    sqrt_minus_one(p); the other root is p^k - r.  A consumer may stop
    early, and no level beyond it is lifted.
    """
    q, r = p, sqrt_minus_one(p)
    while True:
        yield q, r
        q_next = q * p
        if q_next > max_modulus:
            return
        # Newton step for r^2 + 1; f'(r) = 2r is invertible mod odd p.
        inv = pow(2 * r % q_next, -1, q_next)
        r = (r - (r * r + 1) * inv) % q_next
        q = q_next
        r = min(r, q - r)


def _local_root_count(p: int, e: int) -> int:
    """rho(p^e): 1 at 2, 0 at 4 | p^e or p = 3 (mod 4), 2 at p = 1 (mod 4)."""
    if p == 2:
        return 1 if e == 1 else 0
    return 2 if p % 4 == 1 else 0


def roots_mod(d: int, table: PrimeTable | None = None) -> CongruenceRootSet:
    """All residues a (mod d) with a^2 + 1 = 0 (mod d)."""
    if not 1 <= d <= MAX_ROOTS_MODULUS:
        raise ValueError(f"modulus must be in [1, {MAX_ROOTS_MODULUS}], got {d}")
    return CongruenceRootSet(modulus=d,
                             roots=_roots_of(factorize(d, table).pairs))


def _roots_of(pairs) -> tuple[int, ...]:
    """Ascending roots of a^2 + 1 = 0 modulo the product of the p^e in
    pairs, by CRT over the roots mod each p^e."""
    if not all(_local_root_count(p, e) for p, e in pairs):  # before any lift
        return ()
    combined = [(1, 0)]
    for p, e in pairs:
        if p == 2:
            mod, local = 2, [1]
        else:
            *_, (mod, r) = sqrt_minus_one_lifts(p, p ** e)
            local = [r, mod - r]
        combined = [(m * mod, _crt(a, m, b, mod))
                    for m, a in combined for b in local]
    return tuple(sorted(a for _, a in combined))


def _crt(a: int, m: int, b: int, n: int) -> int:
    """Residue mod m*n matching a mod m and b mod n, for coprime m, n."""
    return (a + (b - a) * pow(m, -1, n) % n * m) % (m * n)


def rho(d: int, table: PrimeTable | None = None) -> int:
    """Number of solutions of a^2 + 1 = 0 (mod d); multiplicative in d."""
    return len(roots_mod(d, table).roots)


def x_flat(X: float) -> float:
    """The level X^(1/2) exp(-sqrt(log X)); increasing for X > e^4."""
    if X <= 1:
        raise ValueError(f"X must exceed 1, got {X}")
    return math.sqrt(X) * math.exp(-math.sqrt(math.log(X)))
