#!/usr/bin/env python3
"""Degree-9 right Cayley-Hamilton instance: a sampled member of
M_3(E, rho_e, P^(e)) over Q(zeta_3) with k = 2.

Prints the 10 characteristic coefficients and the residual matrix, which
must be zero because the Grassmann algebra is Lie nilpotent of index 2.

Usage: python3 scripts/slow_cayley_hamilton.py [--g G] [--seed S]
"""

import argparse
import random
import sys

from lienil import charpoly, example_5_2, sample_supermatrix, shape


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=int, default=4,
                        help="number of Grassmann generators")
    parser.add_argument("--seed", type=int, default=20240515)
    args = parser.parse_args()

    spec = example_5_2(3, args.g)
    A = sample_supermatrix(spec, random.Random(args.seed), shape(spec))
    p = charpoly(A, 2)
    print(f"charpoly degree: {p.degree}")
    for i, c in enumerate(p.coeffs):
        print(f"  lambda_{i} = {c}")
    res = p.subst_matrix(A)
    zero = not any(e for row in res.rows for e in row)
    print(f"residual zero: {zero}")
    return 0 if zero else 1


if __name__ == "__main__":
    sys.exit(main())
