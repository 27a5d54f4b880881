#!/usr/bin/env python3
"""Check the geometric-simplicity test against the exhaustive scan.

weil.is_geometrically_simple answers ordinary surfaces in closed form
(Howe-Zhu) and searches 13 base-change degrees for mixed and
supersingular ones.  For every surface over every prime power q <= bound,
compare it with oracle.geom_simple_scan (every base change m <= 60), and
print per field, then in total, the surfaces and mismatches of each
p-rank, so each branch shows its own coverage.  Exits 1 on any mismatch.

Usage: python scripts/check_geom_simple.py [--max-q 49]
"""

import argparse
import sys

import polarglue as pg
from polarglue import oracle


def _report(label, counts):
    cells = "; ".join(
        f"{rank.value} {n:6d} surfaces {bad} mismatches"
        for rank, (n, bad) in counts.items()
    )
    print(f"{label}: {cells}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=49)
    args = ap.parse_args()

    totals = {rank: [0, 0] for rank in pg.PRank}
    for q in range(2, args.max_q + 1):
        try:
            field = pg.field_param(q)
        except ValueError:
            continue
        counts = {rank: [0, 0] for rank in pg.PRank}
        for f in pg.enumerate_surfaces(field):
            got = pg.is_geometrically_simple(f)
            want = oracle.geom_simple_scan(f)
            cell = counts[pg.classify_p_rank(f)]
            cell[0] += 1
            if got != want:
                cell[1] += 1
                print(f"  q={q} (a1,a2)=({f.a1},{f.a2}): {got} != {want}")
        _report(f"q={q:4d}", counts)
        for rank, (n, bad) in counts.items():
            totals[rank][0] += n
            totals[rank][1] += bad
    _report("total ", totals)
    return 1 if any(bad for _, bad in totals.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
