"""Session-scoped fixtures shared across the suite.

Every test module reuses the same prime table, the most expensive shared
object, and the same marched function tables at the default step.
"""

import pytest

from sievekit import build_buchstab_table, build_sieve_tables, sieve_primes

# Window experiments over (X, 2X] need the table to reach 2X; the largest
# acceptance window is X = 10**6.
PRIME_LIMIT = 2_000_000


@pytest.fixture(scope="session")
def prime_table():
    return sieve_primes(PRIME_LIMIT)


@pytest.fixture(scope="session")
def tables():
    return build_sieve_tables()


@pytest.fixture(scope="session")
def buchstab():
    return build_buchstab_table()
