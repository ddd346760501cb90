"""Certified sieve constants and window experiments for n^2 + 1 arithmetic.

The package has three layers: tabulated linear-sieve and Buchstab functions
with their closed-form branches (sieve_functions), the verification pipelines
that certify the headline constants with explicit margins (theorems), and
exact desk-scale counting experiments over windows (X, 2X] (experiments),
all on top of a vectorized prime toolkit (primes).
"""

import os

# sievekit makes no BLAS call, so numpy need not start an OpenBLAS thread pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .experiments import (SHARP, QuadraticWindowStats, SmoothWeight,
                          A_d_count, Q_ell, Q_ell_brute, Q_ell_u,
                          almost_prime_survey, bt_exception_count,
                          bv_error_average, chebyshev_decomposition,
                          dartyge_survey, gpf_survey, phi_sifted,
                          phi_sifted_coprime, quadratic_window_stats,
                          square_sieve_count, weight_eval,
                          weighted_sieve_experiment, weil_exhaustive,
                          weil_sum_check, wolke_error_average)
from .primes import (CongruenceRootSet, Factorization, PrimeTable, factorize,
                     is_prime, jacobi, jacobi_table, multiplicative_suite,
                     rho, roots_mod, sieve_primes, sqrt_minus_one, x_flat)
from .reports import ExperimentReport, TheoremReport, markdown_summary, to_json
from .sieve_functions import (BuchstabTable, SieveFunctionTable,
                              Sigma2DomainError, buchstab_w,
                              build_buchstab_table, build_sieve_tables,
                              eval_F, eval_f, selberg_sigma2)
from .theorems import (HypothesisViolationError, InfeasibilityError,
                       WeightedSieveParams, c1_integral, c2_integral,
                       compute_C, dartyge_margin, find_max_vartheta,
                       gamma_theta, optimize_beta, optimize_gamma12,
                       solve_delta, theorem2_integral)

__version__ = "0.1.0"

__all__ = [
    "A_d_count", "BuchstabTable", "CongruenceRootSet",
    "ExperimentReport", "Factorization",
    "HypothesisViolationError", "InfeasibilityError", "PrimeTable", "Q_ell",
    "Q_ell_brute", "Q_ell_u", "QuadraticWindowStats", "SieveFunctionTable",
    "SHARP", "Sigma2DomainError", "SmoothWeight", "TheoremReport",
    "WeightedSieveParams", "almost_prime_survey", "bt_exception_count",
    "buchstab_w", "build_buchstab_table", "build_sieve_tables",
    "bv_error_average", "c1_integral", "c2_integral",
    "chebyshev_decomposition", "compute_C", "dartyge_margin",
    "dartyge_survey", "eval_F", "eval_f", "factorize", "find_max_vartheta",
    "gamma_theta", "gpf_survey", "is_prime", "jacobi", "jacobi_table",
    "markdown_summary", "multiplicative_suite",
    "optimize_beta", "optimize_gamma12", "phi_sifted", "phi_sifted_coprime",
    "quadratic_window_stats", "rho", "roots_mod",
    "selberg_sigma2", "sieve_primes", "solve_delta", "sqrt_minus_one",
    "square_sieve_count", "theorem2_integral", "to_json", "weight_eval",
    "weighted_sieve_experiment", "weil_exhaustive", "weil_sum_check",
    "wolke_error_average", "x_flat",
]
