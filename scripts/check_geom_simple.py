#!/usr/bin/env python3
"""Check the geometric-simplicity test and base change against the oracle.

weil.is_geometrically_simple answers ordinary surfaces in closed form
(Howe-Zhu) and searches 13 base-change degrees for mixed and
supersingular ones.  For every surface over every prime power q <= bound,
compare it with oracle.geom_simple_scan (every base change m <= 60), and
compare weil.base_change(f, m) for each m in SPLITTING_DEGREES with the
oracle's power sums (a1_m = -p_m, a2_m = (p_m^2 - p_2m) / 2).  Print per
field, then in total, the surfaces of each p-rank with their simplicity
and base-change mismatches, so each branch shows its own coverage.
Exits 1 on any mismatch.

Usage: python scripts/check_geom_simple.py [--max-q 49]
"""

import argparse
import sys

import polarglue as pg
from polarglue import oracle


def _report(label, counts):
    cells = "; ".join(
        f"{rank.value} {n:6d} surfaces {bad} mismatches {bad_bc} base-change mismatches"
        for rank, (n, bad, bad_bc) in counts.items()
    )
    print(f"{label}: {cells}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=49)
    args = ap.parse_args()

    totals = {rank: [0, 0, 0] for rank in pg.PRank}
    degrees = pg.weil.SPLITTING_DEGREES
    for q in range(2, args.max_q + 1):
        try:
            field = pg.field_param(q)
        except ValueError:
            continue
        counts = {rank: [0, 0, 0] for rank in pg.PRank}
        for f in pg.enumerate_surfaces(field):
            got = pg.is_geometrically_simple(f)
            want = oracle.geom_simple_scan(f)
            cell = counts[pg.classify_p_rank(f)]
            cell[0] += 1
            if got != want:
                cell[1] += 1
                print(f"  q={q} (a1,a2)=({f.a1},{f.a2}): {got} != {want}")
            ps = oracle.power_sums(f.coefficients(), 2 * degrees[-1])
            for m in degrees:
                g = pg.base_change(f, m)
                pm, p2m = ps[m - 1], ps[2 * m - 1]
                want_bc = (-pm, (pm * pm - p2m) // 2)
                if (g.a1, g.a2) != want_bc:
                    cell[2] += 1
                    print(f"  q={q} (a1,a2)=({f.a1},{f.a2}) m={m}: "
                          f"base change {(g.a1, g.a2)} != {want_bc}")
        _report(f"q={q:4d}", counts)
        for rank, cell in counts.items():
            for i, n in enumerate(cell):
                totals[rank][i] += n
    _report("total ", totals)
    return 1 if any(bad or bad_bc for _, bad, bad_bc in totals.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
