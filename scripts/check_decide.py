#!/usr/bin/env python3
"""Check the scan's verdicts and exceptional primes against the oracle.

gluing.decide_from_invariants decides a pair by lookups in per-elliptic
and per-surface prime sets, built once per curve and once per surface.
For every scan row over every prime power q <= bound, compare the row
with oracle.decide_reference, which reruns the double-root and
exceptional tests at every prime of h(b) of every pair: the verdict
(kind, witness, branch, reason and failure texts) and the exceptional
primes of h(b).  Print per field, then in total, the rows with their
verdict and exceptional-prime mismatches.  Exits 1 on any mismatch.

Usage: python scripts/check_decide.py [--max-q 49]
"""

import argparse
import sys
from itertools import chain

import polarglue as pg
from polarglue import oracle


def _report(label, rows, bad, bad_exc):
    print(f"{label}: {rows:7d} rows {bad} verdict mismatches "
          f"{bad_exc} exceptional-prime mismatches", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=49)
    args = ap.parse_args()

    totals = [0, 0, 0]
    for q in range(2, args.max_q + 1):
        try:
            field = pg.field_param(q)
        except ValueError:
            continue
        counts = [0, 0, 0]
        for row in chain.from_iterable(pg.scan_pairs(field)):
            v = row.verdict
            got = (
                v.kind.value, v.witness_ell, v.branch and v.branch.value,
                v.reason and v.reason.value,
                tuple((f.ell, f.reasons) for f in v.failures),
            )
            want, want_exc = oracle.decide_reference(row.surface, row.elliptic)
            counts[0] += 1
            key = (row.surface.a1, row.surface.a2, row.elliptic.b)
            if got != want:
                counts[1] += 1
                print(f"  q={q} (a1,a2,b)={key}: {got} != {want}")
            if row.exceptional_primes != want_exc:
                counts[2] += 1
                print(f"  q={q} (a1,a2,b)={key}: exceptional primes "
                      f"{row.exceptional_primes} != {want_exc}")
        _report(f"q={q:4d}", *counts)
        totals = [t + n for t, n in zip(totals, counts)]
    _report("total ", *totals)
    return 1 if totals[1] or totals[2] else 0


if __name__ == "__main__":
    sys.exit(main())
