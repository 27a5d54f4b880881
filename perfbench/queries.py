"""Seeded query generation and output checks for the polarglue benchmark.

Nothing here imports polarglue: the benchmark draws its inputs and checks
the CLI's answers with its own few lines of arithmetic, so a bug in the
engine cannot vouch for itself.

Query streams are stratified on what sets a query's cost.  Every
consecutive block of BLOCK queries draws exactly one value from each of
BLOCK equal-width strata of log q for `check`; for `local` it holds fixed
numbers of each factor pattern of f mod ell, and ell is stratified within
each pattern.  Blocks are shuffled.  Any run that finishes whole blocks
therefore sees the same cost distribution whatever the seed, which keeps
the p50 and p90 steady from seed to seed while the queries still differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

BLOCK = 50

# check-large-q: q log-uniform in [10^9, 10^13]; every tenth stratum is a
# prime square or cube so non-prime fields are exercised too.
CHECK_LOG10_Q = (9.0, 13.0)

# local-ell: ell a prime in 100..200, q a prime up to 10^6.  The
# factor pattern of f mod ell decides whether factor_mod_prime stops after
# its O(ell) root search or goes on to O(ell^2) quadratic trial division,
# so each block holds the pattern shares of a generic Weil quartic (its
# Galois group is the dihedral group of order 8, so by Chebotarev 1/4 of
# primes leave it irreducible, 3/8 split it into two quadratics and 3/8
# give a root).
LOCAL_ELL = (100, 200)
LOCAL_LOG10_Q = (3.0, 6.0)
LOCAL_PATTERNS = {"irreducible": 12, "two-quadratics": 19, "root": 19}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (far above any q drawn here)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


@dataclass(frozen=True)
class CheckQuery:
    q: int
    a1: int
    a2: int
    b: int

    def argv(self) -> list[str]:
        return ["check", "--q", str(self.q), "--a1", str(self.a1),
                "--a2", str(self.a2), "--b", str(self.b)]


@dataclass(frozen=True)
class LocalQuery:
    q: int
    a1: int
    a2: int
    ell: int
    pattern: str  # factor pattern of f mod ell, from quartic_pattern

    def argv(self) -> list[str]:
        return ["local", "--q", str(self.q), "--a1", str(self.a1),
                "--a2", str(self.a2), "--ell", str(self.ell)]


def h_at(q: int, a1: int, a2: int, x: int) -> int:
    """Real companion h(x) = x^2 + a1 x + a2 - 2q; h(b) is the gluing number."""
    return x * x + a1 * x + a2 - 2 * q


def a2_range(q: int, a1: int) -> tuple[int, int]:
    """Exact bounds 2|a1|sqrt(q) - 2q <= a2 <= a1^2/4 + 2q."""
    m = isqrt(4 * a1 * a1 * q)
    low = (m if m * m == 4 * a1 * a1 * q else m + 1) - 2 * q
    return low, a1 * a1 // 4 + 2 * q


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def draw_surface(rng: random.Random, q: int) -> tuple[int, int]:
    """(a1, a2) uniform over the Weil-bound region, by rejection from its
    bounding box.  a1 = 0 and a real companion reducible over Q are
    redrawn: such surfaces can split over an extension, which puts them
    outside `check`'s domain (exit 65), and they occur with probability
    about 1/sqrt(q) anyway."""
    bound1 = isqrt(16 * q)
    while True:
        a1 = rng.randint(-bound1, bound1)
        a2 = rng.randint(-2 * q, 6 * q)
        low, high = a2_range(q, a1)
        if not low <= a2 <= high or a1 == 0:
            continue
        if _is_square(a1 * a1 - 4 * a2 + 8 * q):
            continue
        return a1, a2


def _stratified(rng: random.Random):
    """Endless (stratum, u) pairs, u in [0, 1): one per stratum in each block."""
    while True:
        strata = list(range(BLOCK))
        rng.shuffle(strata)
        for s in strata:
            yield s, (s + rng.random()) / BLOCK


def check_queries(seed: int) -> Iterator[CheckQuery]:
    """Endless seeded stream of `check` queries; the same seed, the same stream."""
    rng = random.Random(f"check-large-q:{seed}")
    lo, hi = CHECK_LOG10_Q
    for stratum, u in _stratified(rng):
        target = int(10 ** (lo + u * (hi - lo)))
        if stratum % 10 == 9:
            k = 2 if stratum % 20 == 9 else 3
            q = next_prime(round(target ** (1 / k))) ** k
        else:
            q = next_prime(target)
        bound_b = isqrt(4 * q - 1)
        while True:
            a1, a2 = draw_surface(rng, q)
            b = rng.randint(-bound_b, bound_b)
            if h_at(q, a1, a2, b) != 0:
                break
        yield CheckQuery(q, a1, a2, b)


def quadratic_factor_position(f: list[int], ell: int) -> int | None:
    """Index of the first monic t^2 + u t + v dividing f mod ell in the
    order u-major, v-minor, that is u * ell + v; None if there is none.

    That order is the one factor_mod_prime walks in its quadratic trial
    division, so the index counts the divisions it makes.  With t^2 = -u t - v
    the remainder of f = t^4 + a t^3 + b t^2 + c t + d is
    ((2u - a) v - u^3 + a u^2 - b u + c) t + (v^2 - (u^2 - a u + b) v + d),
    so each u has at most one candidate v unless 2u = a: O(ell) in all.
    """
    d, c, b, a = f[:4]
    for u in range(ell):
        lin, const = (2 * u - a) % ell, (-u ** 3 + a * u * u - b * u + c) % ell
        if lin:
            candidates = [-const * pow(lin, -1, ell) % ell]
        else:
            candidates = range(ell) if const == 0 else []
        for v in candidates:
            if (v * v - (u * u - a * u + b) * v + d) % ell == 0:
                return u * ell + v
    return None


def quartic_pattern(q: int, a1: int, a2: int, ell: int) -> tuple[str | None, int | None]:
    """Factor pattern of f = t^4 + a1 t^3 + a2 t^2 + q a1 t + q^2 mod an odd
    prime ell not dividing q, with the quadratic-factor position when it
    splits into two quadratics.  The pattern is "root", "two-quadratics",
    "irreducible", or None when f has a repeated factor mod ell: for a Weil
    quartic disc(f) = q^2 disc(h)^2 ((a2 + 2q)^2 - 4 a1^2 q).
    """
    if ((a1 * a1 - 4 * a2 + 8 * q) * ((a2 + 2 * q) ** 2 - 4 * a1 * a1 * q)) % ell == 0:
        return None, None
    f = [q * q % ell, q * a1 % ell, a2 % ell, a1 % ell, 1]
    if any((((r + f[3]) * r + f[2]) * r + f[1]) * r % ell == -f[0] % ell
           for r in range(ell)):
        return "root", None
    pos = quadratic_factor_position(f, ell)
    return ("irreducible", None) if pos is None else ("two-quadratics", pos)


def local_queries(seed: int) -> Iterator[LocalQuery]:
    """Endless seeded stream of `local` queries; the same seed, the same stream.

    Within each pattern ell is stratified.  For two quadratics the cost also
    grows with where the first factor sits in the search, pos / ell^2, which
    is about the smaller of two uniform numbers (CDF 1 - (1 - x)^2); its
    quantile is stratified too, in an order shuffled against ell.
    """
    rng = random.Random(f"local-ell:{seed}")
    lo, hi = LOCAL_ELL
    qlo, qhi = LOCAL_LOG10_Q
    while True:
        block = []
        for pattern, n in LOCAL_PATTERNS.items():
            where = list(range(n))
            rng.shuffle(where)
            block += [(pattern, (i + rng.random()) / n, where[i], n) for i in range(n)]
        rng.shuffle(block)
        for pattern, u, j, n in block:
            ell = next_prime(lo + int(u * (hi - lo)))
            low, high = (1 - (1 - k / n) ** 0.5 for k in (j, j + 1))
            while True:
                q = next_prime(int(10 ** rng.uniform(qlo, qhi)))
                a1, a2 = draw_surface(rng, q)
                got, pos = quartic_pattern(q, a1, a2, ell)
                if got == pattern and (pos is None or low <= pos / ell ** 2 < high):
                    break
            yield LocalQuery(q, a1, a2, ell, pattern)


# --- polynomials mod ell: coefficient lists by increasing power -----------

def poly_mul_mod(f: list[int], g: list[int], m: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, c in enumerate(g):
            out[i + j] = (out[i + j] + a * c) % m
    return out


def expand_factors(factors: list[dict], m: int) -> list[int]:
    """Product of each reported factor raised to its multiplicity, mod m."""
    out = [1]
    for fac in factors:
        for _ in range(fac["multiplicity"]):
            out = poly_mul_mod(out, fac["coefficients"], m)
    return out


# --- output checks: each returns None when the output is right -----------

VERDICT_EXIT = {"irreducible_pp_exists": 0, "no_irreducible_pp": 1, "inconclusive": 2}


def check_check_output(query: CheckQuery, code: int, rec: dict) -> str | None:
    verdict = rec.get("verdict") or {}
    if rec.get("command") != "check":
        return f"command is {rec.get('command')!r}"
    if rec.get("query") != {"q": query.q, "a1": query.a1, "a2": query.a2, "b": query.b}:
        return "query echoed wrongly"
    h_b = h_at(query.q, query.a1, query.a2, query.b)
    if rec.get("h_b") != h_b:
        return f"h_b = {rec.get('h_b')}, expected {h_b}"
    kind = verdict.get("kind")
    if VERDICT_EXIT.get(kind) != code:
        return f"exit {code} does not match verdict {kind!r}"
    if kind == "irreducible_pp_exists":
        ell = verdict.get("witness_ell")
        if not isinstance(ell, int) or not is_prime(ell) or h_b % ell:
            return f"witness_ell {ell} is not a prime divisor of h_b = {h_b}"
    elif kind == "no_irreducible_pp":
        if verdict.get("reason") == "hb_unit" and abs(h_b) != 1:
            return f"reason hb_unit but h_b = {h_b}"
    else:
        failures = verdict.get("failures") or []
        if not failures or any(h_b % f["ell"] for f in failures):
            return "inconclusive without failing prime divisors of h_b"
    return None


def check_local_output(query: LocalQuery, code: int, rec: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    if rec.get("command") != "local":
        return f"command is {rec.get('command')!r}"
    report = rec.get("local_report") or {}
    ell, q, a1, a2 = query.ell, query.q, query.a1, query.a2
    if report.get("ell") != ell:
        return f"report is for ell = {report.get('ell')}"
    f = [c % ell for c in (q * q, q * a1, a2, a1, 1)]
    h = [c % ell for c in (a2 - 2 * q, a1, 1)]
    for name, target in (("f_factors", f), ("h_factors", h)):
        factors = report.get(name) or []
        for fac in factors:
            coeffs = fac["coefficients"]
            if not coeffs or coeffs[-1] != 1 or any(not 0 <= c < ell for c in coeffs):
                return f"{name}: {coeffs} is not monic and reduced mod {ell}"
        if expand_factors(factors, ell) != target:
            return f"{name} do not multiply back to the polynomial mod {ell}"
    degrees = sorted(len(fac["coefficients"]) - 1 for fac in report["f_factors"])
    if degrees != PATTERN_DEGREES.get(query.pattern, degrees) or (
            query.pattern == "root" and 1 not in degrees):
        return f"f factor degrees {degrees} contradict the pattern {query.pattern}"
    return None


PATTERN_DEGREES = {"irreducible": [4], "two-quadratics": [2, 2]}
