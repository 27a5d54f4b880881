#!/usr/bin/env python3
"""Check the 13-degree geometric-simplicity test against the exhaustive scan.

For every surface over every prime power q <= bound, compare
weil.is_geometrically_simple with oracle.geom_simple_scan (every base
change m <= 60) and print one line per field.  Exits 1 on any mismatch.

Usage: python scripts/check_geom_simple.py [--max-q 49]
"""

import argparse
import sys

import polarglue as pg
from polarglue import oracle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=49)
    args = ap.parse_args()

    mismatches = 0
    for q in range(2, args.max_q + 1):
        try:
            field = pg.field_param(q)
        except ValueError:
            continue
        surfaces = pg.enumerate_surfaces(field)
        bad = 0
        for f in surfaces:
            got = pg.is_geometrically_simple(f)
            want = oracle.geom_simple_scan(f)
            if got != want:
                bad += 1
                print(f"  q={q} (a1,a2)=({f.a1},{f.a2}): {got} != {want}")
        print(f"q={q:4d}: {len(surfaces):6d} surfaces, {bad} mismatches")
        mismatches += bad
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
