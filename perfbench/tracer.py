"""Run the polarglue CLI in this interpreter with spans around layer calls.

    PYTHONPATH=src python3 perfbench/tracer.py scan --q 27 --format json

The CLI's own output goes to stdout exactly as `python -m polarglue` would
write it.  When the CLI returns, one line `PERFBENCH-TRACE <json>` goes to
stderr with, per traced function, its call count, its self time (span time
minus the time of traced spans it caused on the same thread) and, where
asked for, the number of distinct argument tuples.  Nothing under src/ is
changed: each traced function is found by name in every polarglue module
that binds it, and every such binding is replaced by one timing wrapper,
so a function that moves to another module keeps its metric name.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _primes_tested(verdict) -> int:
    """Primes `decide` examined: the failures plus the witness, if any."""
    return len(verdict.failures) + (verdict.witness_ell is not None)


@dataclass(frozen=True)
class Spec:
    module: str
    function: str
    distinct: bool = False
    extra: tuple[str, Callable] | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


SPECS = (
    Spec("weil", "is_geometrically_simple", distinct=True),
    Spec("oracle", "factor_integer", distinct=True),
    Spec("localalg", "is_exceptional"),
    Spec("localalg", "double_root_condition"),
    Spec("weil", "fundamental_discriminant"),
    Spec("gluing", "decide", extra=("primes_tested", _primes_tested)),
    Spec("enumeration", "scan_pairs"),
    Spec("enumeration", "enumerate_surfaces"),
    Spec("cli", "main"),
    Spec("weil", "field_param"),
    Spec("weil", "make_surface"),
    Spec("localalg", "factor_mod_prime"),
    Spec("localalg", "classify_prime_ideals"),
)

MARKER = "PERFBENCH-TRACE "


class _ThreadStats:
    """Span stack and per-function totals of one thread; no locking needed."""

    def __init__(self):
        self.stack: list[float] = []  # per open span: time of its traced children
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, int] = {}
        self.distinct: dict[str, set] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self.found: list[Spec] = []
        self.missing: list[str] = []

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, fn: Callable, spec: Spec) -> Callable:
        key = spec.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stats()
            st.stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                st.calls[key] = st.calls.get(key, 0) + 1
                st.self_s[key] = st.self_s.get(key, 0.0) + dt - children
                if spec.distinct:
                    st.distinct.setdefault(key, set()).add(
                        (args, tuple(sorted(kwargs.items())))
                    )
            if spec.extra is not None:
                st.extra[key] = st.extra.get(key, 0) + spec.extra[1](result)
            return result

        return wrapper

    def install(self, specs=SPECS) -> dict:
        """Wrap every binding of each traced function; return the modules."""
        import polarglue

        modules = {"polarglue": polarglue}
        for info in pkgutil.walk_packages(polarglue.__path__, "polarglue."):
            if not info.name.endswith("__main__"):
                modules[info.name] = importlib.import_module(info.name)
        for spec in specs:
            target = _resolve(spec, modules)
            if target is None:
                self.missing.append(spec.name)
                continue
            wrapper = self.wrap(target, spec)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)
            self.found.append(spec)
        return modules

    def report(self) -> dict:
        out: dict = {"missing": self.missing, "functions": {}}
        for spec in self.found:
            key = spec.name
            entry = {
                "calls": sum(t.calls.get(key, 0) for t in self._threads),
                "self_s": sum(t.self_s.get(key, 0.0) for t in self._threads),
            }
            if spec.distinct:
                seen: set = set()
                for t in self._threads:
                    seen |= t.distinct.get(key, set())
                entry["distinct"] = len(seen)
            if spec.extra is not None:
                entry[spec.extra[0]] = sum(t.extra.get(key, 0) for t in self._threads)
            out["functions"][key] = entry
        return out


def _resolve(spec: Spec, modules: dict) -> Callable | None:
    """The function named spec.function: the one defined in spec.module if it
    still exists, else the only one of that name anywhere in the package."""
    candidates = {}
    for mod in modules.values():
        obj = vars(mod).get(spec.function)
        if callable(obj) and getattr(obj, "__name__", None) == spec.function:
            candidates[id(obj)] = obj
    for obj in candidates.values():
        if getattr(obj, "__module__", None) == f"polarglue.{spec.module}":
            return obj
    if len(candidates) == 1:
        return next(iter(candidates.values()))
    return None


def main(argv: list[str]) -> int:
    tracer = Tracer()
    modules = tracer.install()
    try:
        code = modules["polarglue.cli"].main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.report()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
