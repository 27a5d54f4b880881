#!/usr/bin/env python3
"""Census of exceptional primes across small fields.

For every surface over every prime power q <= bound, list the primes ell
where the Weil polynomial is the square of an irreducible quadratic mod
ell^2 while ell stays inert in the real quadratic subfield; these are the
primes whose B[ell]-gluing is blocked but whose B[ell^2]-gluing survives
on ordinary surfaces.

Usage: python scripts/exceptional_census.py [--max-q 13]
"""

import argparse

import polarglue as pg
from polarglue.localalg import is_exceptional
from polarglue.arith import is_probable_prime


def prime_powers(bound):
    for q in range(2, bound + 1):
        try:
            yield pg.field_param(q)
        except ValueError:
            continue


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=13)
    args = ap.parse_args()

    total = 0
    for field in prime_powers(args.max_q):
        for A in pg.enumerate_surfaces(field):
            disc = A.real_discriminant()
            ell = 2
            while ell * ell <= max(disc, 4):
                if (ell != field.p and is_probable_prime(ell)
                        and disc % (ell * ell) == 0):
                    flag, witness = is_exceptional(A, ell)
                    if flag:
                        total += 1
                        rank = pg.classify_p_rank(A).value
                        print(f"q={field.q:3d} (a1,a2)=({A.a1:3d},{A.a2:4d}) "
                              f"ell={ell}  disc(h)={disc:4d}  {rank:8s} "
                              f"sqrt mod ell^2: {list(witness)}")
                ell += 1
    print(f"{total} exceptional (surface, ell) pairs found")


if __name__ == "__main__":
    main()
