#!/usr/bin/env python3
"""Print the row count and SHA-256 of `polarglue scan` output for every
prime power q <= N, in csv and in json.

Usage: python scripts/scan_digests.py --max-q 49 > digests.txt

One line `q format rows sha256` per scan, in increasing q, csv before json.
Each scan runs as `python -m polarglue scan --q Q --format F` against the
`src/` directory of the checkout this script lives in, so running the
script in two checkouts and diffing the outputs compares their scan bytes.
Rows are the csv lines after the header, or the top-level records of the
json array.  Exits 1 if any scan exits non-zero, or quietly with 1 if
the reader closes stdout early.
"""

import argparse
import hashlib
import subprocess
import sys

from _checkout import child_env, run_main


def prime_powers(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def digest(q: int, fmt: str) -> tuple[int, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "polarglue", "scan", "--q", str(q), "--format", fmt],
        stdout=subprocess.PIPE, env=child_env(),
    )
    h = hashlib.sha256()
    lines = starts = 0
    for line in proc.stdout:
        h.update(line)
        lines += 1
        starts += line == b"  {\n"
    if proc.wait() != 0:
        raise SystemExit(f"scan --q {q} --format {fmt} exited {proc.returncode}")
    return (lines - 1 if fmt == "csv" else starts), h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, required=True)
    args = ap.parse_args()
    for q in prime_powers(args.max_q):
        for fmt in ("csv", "json"):
            rows, sha = digest(q, fmt)
            print(f"{q} {fmt} {rows} {sha}", flush=True)


if __name__ == "__main__":
    run_main(main)
