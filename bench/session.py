"""Library job of the survey-session workload: one process, one prime table.

    python3 bench/session.py --x1 X1 --x2 X2     # battery at X1, then X2
    python3 bench/session.py --x2 X2 --setup-only

Builds one prime table reaching 2*max(X1, X2), runs the full survey
battery at X1 (at most 1e6, where the window-stats cache serves the three
surveys and the weighted sieve from one strike pass) and the three surveys
at X2 (just above 1e6, where each survey strikes the window again), and
prints the reports as one JSON document.  Functions are looked up on the
``sievekit`` package at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import sys

import sievekit as sk


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="session.py")
    parser.add_argument("--x1", type=int)
    parser.add_argument("--x2", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    windows = [x for x in (args.x1, args.x2) if x is not None]
    table = sk.sieve_primes(2 * max(windows))
    if args.setup_only:
        return 0
    params = sk.WeightedSieveParams(alpha=1.0 / 12.0, beta=0.622,
                                    delta=min(sk.solve_delta(), 0.622), r=4)
    reports = []
    for X in windows:
        reports += [sk.almost_prime_survey(X, 4, table),
                    sk.gpf_survey(X, 0.847, table),
                    sk.dartyge_survey(X, 11.2, table)]
        if X == args.x1:
            reports += [
                sk.chebyshev_decomposition(X, 0.847, sk.SHARP, table),
                sk.weighted_sieve_experiment(X, params, sk.SHARP, table)]
    sys.stdout.write(sk.to_json(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
