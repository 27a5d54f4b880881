#!/usr/bin/env python3
"""Scan one finite field and summarize the verdict landscape.

Usage: python scripts/scan_field.py --q 8 [--show-inconclusive]

Exits 1 without a traceback if the reader closes stdout early.
"""

import argparse
from collections import Counter
from itertools import chain

import polarglue as pg
from _checkout import run_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--show-inconclusive", action="store_true")
    args = ap.parse_args()

    field = pg.field_param(args.q)
    rows = list(chain.from_iterable(pg.scan_pairs(field)))
    surfaces = {(r.surface.a1, r.surface.a2) for r in rows}
    print(f"F_{args.q}: {len(surfaces)} geometrically simple surfaces, "
          f"{len(rows)} pairs with irreducible elliptic curves")

    kinds = Counter(r.verdict.kind.value for r in rows)
    branches = Counter(r.verdict.branch.value for r in rows
                       if r.verdict.branch is not None)
    for kind, n in kinds.most_common():
        print(f"  {kind:24s} {n:6d}")
    print("existence branches:")
    for branch, n in branches.most_common():
        print(f"  {branch:24s} {n:6d}")

    exceptional = [r for r in rows if r.verdict.branch is pg.Branch.EXCEPTIONAL]
    if exceptional:
        print("rows glued through an exceptional prime:")
        for r in exceptional:
            print(f"  (a1,a2)=({r.surface.a1},{r.surface.a2}) b={r.elliptic.b} "
                  f"h(b)={r.h_b} ell={r.verdict.witness_ell}")

    if args.show_inconclusive:
        for r in rows:
            if r.verdict.kind is pg.VerdictKind.INCONCLUSIVE:
                why = "; ".join(
                    f"ell={f.ell}: {', '.join(f.reasons)}" for f in r.verdict.failures)
                print(f"  inconclusive (a1,a2)=({r.surface.a1},{r.surface.a2}) "
                      f"b={r.elliptic.b} h(b)={r.h_b}: {why}")


if __name__ == "__main__":
    run_main(main)
