#!/usr/bin/env python3
"""Print the exit code and output digests of a fixed list of `polarglue`
invocations: `check`, `local`, `obstruct` and `--help`.

Usage: python scripts/cli_digests.py > cli.txt

One line `exit stdout-sha256 stderr-sha256 args...` per invocation, in the
order of INVOCATIONS.  The stdout digest skips the `"generated_at"` line,
the only one that changes from run to run.  Each invocation runs as
`python -m polarglue ARGS` against the `src/` directory of the checkout
this script lives in, with POLARGLUE_CONFIG unset and COLUMNS=80 (argparse
wraps help text to the terminal width), so running the script in two
checkouts and diffing the outputs compares what the commands print.
Exits quietly with 1 if the reader closes stdout early.
"""

import hashlib
import subprocess
import sys

from _checkout import child_env, run_main

_A211 = ("--q", "2", "--a1", "1", "--a2", "1")
_A11 = ("--q", "11", "--a1", "-2", "--a2", "5")

INVOCATIONS = [
    ("check", *_A211, "--b", "0"),
    ("check", *_A211, "--b", "1"),
    ("check", "--q", "7", "--a1", "-2", "--a2", "2", "--b", "5"),
    ("check", *_A11, "--b", "4"),
    ("check", *_A11, "--b", "4", "--pretty"),
    ("check", "--q", "7", "--a1", "-2", "--a2", "2", "--b", "5", "--pretty"),
    ("check", "--q", "2", "--a1", "0", "--a2", "4", "--b", "0"),
    ("check", "--q", "12", "--a1", "0", "--a2", "0", "--b", "0"),
    ("check", *_A211, "--b", "9"),
    ("check", *_A211),
    ("local", *_A11, "--ell", "3"),
    ("local", *_A211, "--ell", "3"),
    ("local", *_A211, "--ell", "5"),
    ("local", *_A211, "--ell", "2"),
    ("local", *_A11, "--ell", "9"),
    ("local", *_A11, "--ell", "1"),
    ("local", "--q", "1009", "--a1", "3", "--a2", "5", "--ell", "197"),
    ("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--s", "2", "--n", "1"),
    ("obstruct", "--q", "4", "--a1", "1", "--a2", "-3", "--s", "2"),
    ("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--s", "2", "--n", "0"),
    ("obstruct", *_A211, "--ss-surface"),
    ("obstruct", *_A211, "--ss-surface", "--hl2-strict"),
    ("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--ss-surface"),
    ("obstruct", *_A211, "--s", "1", "--n", "1"),
    ("obstruct", *_A211),
    ("obstruct", *_A211, "--ss-surface", "--s", "1"),
    ("obstruct", *_A211, "--ss-surface", "--n", "2"),
    ("obstruct", "--q", "4", "--a1", "1", "--a2", "1", "--s", "2", "--hl2-strict"),
    ("--help",),
    ("check", "--help"),
    ("local", "--help"),
    ("obstruct", "--help"),
]


def run(args: tuple[str, ...]) -> str:
    res = subprocess.run(
        [sys.executable, "-m", "polarglue", *args], capture_output=True,
        env={**child_env(), "COLUMNS": "80"},
    )
    stdout = b"".join(
        line for line in res.stdout.splitlines(keepends=True)
        if b'"generated_at":' not in line
    )
    return " ".join((
        str(res.returncode),
        hashlib.sha256(stdout).hexdigest(),
        hashlib.sha256(res.stderr).hexdigest(),
        *args,
    ))


def main():
    for args in INVOCATIONS:
        print(run(args), flush=True)


if __name__ == "__main__":
    run_main(main)
