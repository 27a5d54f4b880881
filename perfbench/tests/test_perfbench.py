"""Tests of the benchmark itself (not of polarglue).

    python3 -m pytest -q perfbench/tests

They start real CLI children, so they take about half a minute.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import types
from math import isqrt
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("make", [queries.check_queries, queries.local_queries])
def test_same_seed_same_queries(make):
    assert take(make(7), 60) == take(make(7), 60)
    assert take(make(7), 60) != take(make(8), 60)
    # a longer run sees the same queries first
    assert take(make(7), 120)[:60] == take(make(7), 60)


def _sieve(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


PRIMES = _sieve(isqrt(2 * 10 ** 13) + 1)


def prime_power_base(q):
    """p if q = p^k, else None; by trial division, independent of queries.py."""
    for p in PRIMES:
        if p * p > q:
            return q
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    raise AssertionError("sieve too short")


def in_weil_bounds(q, a1, a2):
    """Both roots of t^2 + a1 t + (a2 - 2q) real and in [-2 sqrt q, 2 sqrt q]:
    real roots, vertex inside, and h(+-2 sqrt q) = (a2 + 2q) +- 2 a1 sqrt q >= 0."""
    u = a2 + 2 * q
    return (a1 * a1 - 4 * (a2 - 2 * q) >= 0 and a1 * a1 <= 16 * q
            and u >= 0 and u * u >= 4 * a1 * a1 * q)


def test_check_queries_inside_documented_bounds():
    for x in take(queries.check_queries(3), 100):
        assert 10 ** 9 <= x.q <= 1.1 * 10 ** 13
        assert prime_power_base(x.q) is not None, x
        assert in_weil_bounds(x.q, x.a1, x.a2), x
        assert x.b * x.b < 4 * x.q, x


def test_local_queries_inside_documented_bounds():
    for x in take(queries.local_queries(3), 100):
        assert prime_power_base(x.q) == x.q and 10 ** 3 <= x.q < 1.01 * 10 ** 6, x
        lo, hi = queries.LOCAL_ELL
        assert prime_power_base(x.ell) == x.ell and lo <= x.ell < hi + 50, x
        assert in_weil_bounds(x.q, x.a1, x.a2), x


def test_quadratic_factor_position_matches_a_plain_search():
    def divides(f, u, v, ell):
        r = list(f)
        for i in (4, 3, 2):
            c = r[i] % ell
            r[i - 1] -= c * u
            r[i - 2] -= c * v
        return r[0] % ell == 0 and r[1] % ell == 0

    rng = random.Random(0)
    for _ in range(300):
        ell = rng.choice([3, 5, 7, 11, 13, 17, 19, 23])
        f = [rng.randrange(ell) for _ in range(4)] + [1]
        first = next((u * ell + v for u in range(ell) for v in range(ell)
                      if divides(f, u, v, ell)), None)
        assert queries.quadratic_factor_position(f, ell) == first, (f, ell)


@pytest.fixture(scope="module")
def runner():
    return run.Runner()


@pytest.mark.parametrize("workload", ["check-large-q", "local-ell"])
def test_generated_queries_pass_on_the_cli(runner, workload):
    for op in take(run.WORKLOADS[workload].ops(5), 4):
        out = runner.do(op)
        assert out.error is None, out.error
    assert runner.failed == 0


def test_local_check_catches_a_wrong_factor(runner):
    op = next(run.WORKLOADS["local-ell"].ops(5))
    launched = run.launch(run.cli(*op.query.argv()), run.QUERY_TIMEOUT_S)
    rec = json.loads(launched.stdout)
    assert queries.check_local_output(op.query, 0, rec) is None
    rec["local_report"]["f_factors"][0]["coefficients"][0] += 1
    assert queries.check_local_output(op.query, 0, rec) is not None


# Runs the real CLI and changes one digit of its output, or none for k = -1.
MUTATE = """
import contextlib, io, sys
from polarglue import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(sys.argv[2:])
data = bytearray(buf.getvalue().encode())
if sys.argv[1] != "-1":
    k = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[k] = ord("0") + (data[k] - ord("0") + 1) % 10
sys.stdout.buffer.write(bytes(data))
sys.exit(code)
"""


@pytest.mark.parametrize("mutate", [False, True])
def test_one_byte_change_to_scan_output_fails(runner, mutate):
    flag = "0" if mutate else "-1"
    out = run.Scan(27, "json").run(
        lambda *args: [sys.executable, "-c", MUTATE, flag, *args], runner)
    if mutate:
        assert out.error is not None and "sha256" in out.error
    else:
        assert out.error is None, out.error


def test_tracer_reproduces_seed_counts_for_scan_json(runner):
    out = run.Scan(27, "json").run(run.traced_cli, runner)
    assert out.error is None, out.error
    assert out.trace["missing"] == []
    fi = out.trace["functions"]["oracle.factor_integer"]
    assert (fi["calls"], fi["distinct"]) == (47_432, 371)
    assert out.trace["functions"]["enumeration.scan_pairs"]["calls"] == 1


def _module(name, **attrs):
    mod = types.ModuleType(name)
    vars(mod).update(attrs)
    return mod


def test_resolve_follows_a_moved_function_and_reports_a_vanished_one():
    def factor_integer(n):
        return n

    factor_integer.__module__ = "polarglue.arith"
    spec = tracer.Spec("oracle", "factor_integer")
    moved = {"polarglue.arith": _module("polarglue.arith", factor_integer=factor_integer),
             "polarglue.oracle": _module("polarglue.oracle")}
    assert tracer._resolve(spec, moved) is factor_integer
    gone = {"polarglue.oracle": _module("polarglue.oracle")}
    assert tracer._resolve(spec, gone) is None


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in bench["per_layer"]}
    expected = {"trace.wall_s", "trace.overhead_s"}
    for spec in tracer.SPECS:
        expected |= {f"{spec.name}.calls", f"{spec.name}.self_s"}
        if spec.distinct:
            expected.add(f"{spec.name}.distinct")
        if spec.extra:
            expected.add(f"{spec.name}.{spec.extra[0]}")
    assert layer_names == expected
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
