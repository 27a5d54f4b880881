#!/usr/bin/env python3
"""polarglue benchmark: run one workload against the real CLI and report.

    python3 perfbench/run.py --workload scan-csv --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the directory above this file.  Every
operation is one `python -m polarglue` child process with this checkout's
src/ on PYTHONPATH, started only after the previous one ended (closed loop,
one client).  Each output is checked, and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same operations run once
plainly and once under perfbench/tracer.py, and the metrics are per layer.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "output.v1.json"

sys.path.insert(0, str(HERE))
import queries  # noqa: E402
import tracer  # noqa: E402

SETUP_LAUNCHES = 11
MIN_QUERIES = 100  # p90 then has ten samples beyond it
SCAN_TIMEOUT_S = 60.0
QUERY_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 5.0
# An operation starts only if it would end by then even at its timeout,
# so a run always ends within three minutes.
HARD_LIMIT_S = 170.0

JSON_ROW_MARKER = b'"command": "scan-row"'


# --- one child process ------------------------------------------------------

def child_env() -> dict:
    """Hermetic environment: this checkout's src, no config file, fixed hashing."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "POLARGLUE_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Launch:
    code: int | None  # None when killed at the timeout
    wall_s: float
    rss_mb: float  # peak RSS of this child alone, from wait4
    digest: str
    marks: int  # occurrences of the requested byte marker in stdout
    stdout: bytes  # kept only when asked for
    stderr: str


def launch(argv: list[str], timeout: float, keep: bool = True,
           marker: bytes | None = None) -> Launch:
    """Run one child to completion, streaming and hashing its stdout."""
    digest = hashlib.sha256()
    kept: list[bytes] = []
    marks, tail = 0, b""
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with tempfile.TemporaryFile(dir=HERE) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            with proc.stdout:
                for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                    digest.update(chunk)
                    if keep:
                        kept.append(chunk)
                    if marker:
                        buf = tail + chunk
                        marks += buf.count(marker)
                        tail = buf[len(buf) - len(marker) + 1:]
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                _, status, usage = os.wait4(proc.pid, 0)
                state["reaped"] = True
        finally:
            timer.cancel()
            if not state["reaped"]:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Launch(
        code=None if state["killed"] else proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        digest=digest.hexdigest(),
        marks=marks,
        stdout=b"".join(kept),
        stderr=stderr,
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "polarglue", *args]


def traced_cli(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), *args]


# --- operations -------------------------------------------------------------

@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    rows: int  # output records written; 0 when the operation failed
    error: str | None
    trace: dict | None = None


def _trace_report(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(tracer.MARKER):
            return json.loads(line[len(tracer.MARKER):])
    return None


def _finish(run: Launch, error: str | None, rows: int) -> Outcome:
    if run.code is None:
        error = "timed out"
    elif error is None and run.code not in (0, 1, 2):
        error = f"exit {run.code}: {run.stderr.strip()[-300:]}"
    return Outcome(run.wall_s, run.rss_mb, 0 if error else rows, error,
                   _trace_report(run.stderr))


@dataclass(frozen=True)
class Scan:
    q: int
    fmt: str
    timeout = SCAN_TIMEOUT_S

    def args(self) -> list[str]:
        return ["scan", "--q", str(self.q), "--format", self.fmt]

    def run(self, wrap: Callable, runner: Runner) -> Outcome:
        ref = runner.refs[f"scan-{self.fmt}-q{self.q}"]
        marker = b"\n" if self.fmt == "csv" else JSON_ROW_MARKER
        run = launch(wrap(*self.args()), self.timeout, keep=False, marker=marker)
        rows = run.marks - 1 if self.fmt == "csv" else run.marks  # csv has a header
        return _finish(run, scan_error(run.code, run.digest, rows, ref), rows)


def scan_error(code: int | None, digest: str, rows: int, ref: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    if rows != ref["rows"]:
        return f"{rows} rows, expected {ref['rows']}"
    if digest != ref["sha256"]:
        return f"sha256 {digest} differs from the reference"
    return None


@dataclass(frozen=True)
class Query:
    query: queries.CheckQuery | queries.LocalQuery
    checker: Callable
    timeout = QUERY_TIMEOUT_S

    def run(self, wrap: Callable, runner: Runner) -> Outcome:
        run = launch(wrap(*self.query.argv()), self.timeout)
        return _finish(run, query_error(self, run, runner.validator), 1)


def query_error(op: Query, run: Launch, validator) -> str | None:
    if run.code is None:
        return None
    try:
        rec = json.loads(run.stdout)
    except ValueError:
        return f"exit {run.code}, stdout is not JSON: {run.stderr.strip()[-300:]}"
    problems = [e.message for e in validator.iter_errors(rec)]
    if problems:
        return "schema: " + problems[0]
    return op.checker(op.query, run.code, rec)


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], Iterator]  # seed -> endless stream of operations
    batch: int  # the fewest operations a timed run makes; a traced run makes exactly this many


def _scans(q: int, fmt: str) -> Callable[[int], Iterator]:
    return lambda seed: itertools.repeat(Scan(q, fmt))


def _queries(stream: Callable, checker: Callable) -> Callable[[int], Iterator]:
    return lambda seed: (Query(x, checker) for x in stream(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-csv", _scans(49, "csv"), 1),
        Workload("scan-json", _scans(27, "json"), 1),
        Workload("check-large-q", _queries(queries.check_queries, queries.check_check_output),
                 MIN_QUERIES),
        Workload("local-ell", _queries(queries.local_queries, queries.check_local_output),
                 MIN_QUERIES),
    )
}


class Runner:
    def __init__(self):
        import jsonschema

        self.start = time.perf_counter()
        self.refs = json.loads((HERE / "references.json").read_text())
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def do(self, op, wrap: Callable = cli) -> Outcome:
        out = op.run(wrap, self)
        self.attempted += 1
        if out.error:
            self.failed += 1
            self.errors.append(f"{op}: {out.error}")
        return out

    def has_time_for(self, op) -> bool:
        return time.perf_counter() - self.start + op.timeout <= HARD_LIMIT_S

    def loop(self, ops: Iterator, seconds: float, batch: int) -> list[Outcome]:
        """Closed loop: the next operation starts only after the last one
        ended.  Once `batch` ran, another starts only if it should end
        within half an operation of `seconds`, so a run lasts about
        `seconds` even when one operation takes a large share of it."""
        start = time.perf_counter()
        done: list[Outcome] = []
        for op in ops:
            elapsed = time.perf_counter() - start
            if not self.has_time_for(op) or (
                    len(done) >= batch and elapsed + elapsed / len(done) / 2 >= seconds):
                break
            done.append(self.do(op))
        return done

    def run_all(self, ops: list, wrap: Callable = cli) -> list[Outcome]:
        return [self.do(op, wrap) for op in ops if self.has_time_for(op)]

    def setup_times(self) -> list[float]:
        """Wall time of `polarglue --help`, after one untimed launch that
        fills the bytecode cache."""
        walls = []
        for i in range(SETUP_LAUNCHES + 1):
            run = launch(cli("--help"), SETUP_TIMEOUT_S)
            self.attempted += 1
            if run.code != 0 or b"usage: polarglue" not in run.stdout:
                self.failed += 1
                self.errors.append(f"--help: exit {run.code}")
            if i:
                walls.append(run.wall_s)
        return walls


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(runner: Runner, workload: Workload, seed: int, seconds: float):
    setup = runner.setup_times()
    ops = runner.loop(workload.ops(seed), seconds, workload.batch)
    walls = [o.wall_s for o in ops]
    n = len(ops)
    rows = sum(o.rows for o in ops)
    metrics = {
        "rows_per_s": (rows / sum(walls), "1/s", f"{rows} records / {sum(walls):.2f} s of CLI wall time"),
        "query_p50_ms": (1000 * statistics.median(walls), "ms", f"n={n}"),
        "query_p90_ms": (1000 * nearest_rank(walls, 0.9), "ms", f"n={n}, nearest rank"),
        "peak_rss_mb": (max(o.rss_mb for o in ops), "MB", f"max over n={n} children"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of n={len(setup)} launches of --help"),
    }
    return metrics


def per_layer(runner: Runner, workload: Workload, seed: int):
    ops = list(itertools.islice(workload.ops(seed), workload.batch))
    plain = runner.run_all(ops)
    traced = runner.run_all(ops, traced_cli)
    totals: dict[str, dict] = {}
    missing: set[str] = set()
    for out in traced:
        if out.trace is None:
            continue
        missing.update(out.trace["missing"])
        for fn, fields in out.trace["functions"].items():
            acc = totals.setdefault(fn, {})
            for field, value in fields.items():
                acc[field] = acc.get(field, 0) + value
    metrics = {}
    for spec in tracer.SPECS:
        if spec.name not in totals:
            continue
        for field, value in totals[spec.name].items():
            unit = "s" if field == "self_s" else "count"
            metrics[f"{spec.name}.{field}"] = (value, unit, f"over n={len(traced)} traced runs")
    traced_s = sum(o.wall_s for o in traced)
    plain_s = sum(o.wall_s for o in plain)
    metrics["trace.wall_s"] = (traced_s, "s", "CLI wall time of the traced runs")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s", f"traced minus untraced ({plain_s:.2f} s)")
    return metrics, sorted(missing)


# --- provenance -------------------------------------------------------------

def machine() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "polarglue").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (SRC / "polarglue" / "__init__.py", SCHEMA):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run inside a polarglue checkout",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    runner = Runner()
    info = machine()
    print(f"polarglue benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        metrics, missing = per_layer(runner, workload, args.seed)
        if missing:
            print("missing (no longer found in polarglue): " + ", ".join(missing))
    else:
        metrics = end_to_end(runner, workload, args.seed, args.seconds)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    ratio = runner.failed / runner.attempted
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} {'':<6} "
          f"{runner.failed} failed / {runner.attempted} CLI launches")
    for line in runner.errors[:20]:
        print("  FAILED " + line)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
