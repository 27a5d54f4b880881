"""Each script under scripts/ runs at a small size, exits 0 and prints the
total it is meant to print, so a change to the library API cannot break a
script unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("POLARGLUE_CONFIG", None)
    return env


def run_script(name, *args):
    res = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, env=script_env(), timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_scan_field():
    lines = run_script("scan_field.py", "--q", "8")
    assert lines[0] == (
        "F_8: 140 geometrically simple surfaces, "
        "1540 pairs with irreducible elliptic curves")
    kinds = {}
    for line in lines[1:lines.index("existence branches:")]:
        kind, n = line.split()
        kinds[kind] = int(n)
    assert set(kinds) == {"irreducible_pp_exists", "no_irreducible_pp", "inconclusive"}
    assert sum(kinds.values()) == 1540


def test_exceptional_census():
    lines = run_script("exceptional_census.py", "--max-q", "13")
    assert lines[-1] == "28 exceptional (surface, ell) pairs found"


@pytest.mark.parametrize("script", ["check_decide.py", "check_geom_simple.py"])
def test_oracle_checks_find_no_mismatch(script):
    lines = run_script(script, "--max-q", "9")
    assert lines[-1].startswith("total :")
    counts = re.findall(r"(\d+) [a-z-]*\s?mismatches", lines[-1])
    assert counts and set(counts) == {"0"}, lines[-1]


def test_scan_digests():
    lines = run_script("scan_digests.py", "--max-q", "4")
    rows = [line.split() for line in lines]
    assert [(q, fmt) for q, fmt, _, _ in rows] == [
        (q, fmt) for q in ("2", "3", "4") for fmt in ("csv", "json")]
    assert [n for _, _, n, _ in rows] == ["40", "40", "126", "126", "238", "238"]
    assert all(len(sha) == 64 for *_, sha in rows)


def test_cli_digests():
    lines = run_script("cli_digests.py")
    rows = [line.split(maxsplit=3) for line in lines]
    assert len(rows) == 32
    assert all(len(out) == len(err) == 64 for _, out, err, _ in rows)
    codes = {args: int(code) for code, _, _, args in rows}
    assert codes["check --q 2 --a1 1 --a2 1 --b 0"] == 0
    assert codes["local --q 11 --a1 -2 --a2 5 --ell 9"] == 65
    assert codes["obstruct --q 2 --a1 1 --a2 1"] == 64
    assert codes["obstruct --q 4 --a1 1 --a2 1 --s 2 --hl2-strict"] == 64
    assert codes["--help"] == 0


@pytest.mark.parametrize("args", [
    ("scan_digests.py", "--max-q", "4"),
    ("cli_digests.py",),
    # about 210 kB, more than the pipe and stdout buffers hold
    ("scan_field.py", "--q", "25", "--show-inconclusive"),
])
def test_closed_stdout_exits_without_traceback(args):
    """A reader that stops after one line, as `| head -1` does: the script
    exits 1 and prints no traceback."""
    proc = subprocess.Popen(
        [sys.executable, str(REPO / "scripts" / args[0]), *args[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=script_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in stderr, stderr.decode()
