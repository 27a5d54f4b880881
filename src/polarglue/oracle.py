"""Brute-force ground truth: integer factorization, Kronecker symbols,
schoolbook polynomial division over Z/ell^n, and the exhaustive
geometric-simplicity scan.

These routines are deliberately naive and self-contained so the test
suite can hold them against the analytic shortcuts elsewhere in the
package without sharing code paths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .weil import (
    WeilSurface,
    _elementary_from_power_sums,
    _weil_quartic_reducible,
    power_sums,
)


class FactorizationTimeout(RuntimeError):
    pass


@dataclass(frozen=True)
class PrimeFactorization:
    """Sign and (prime, exponent) pairs with strictly increasing primes."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p ** e
        return n

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


_TRIAL_BOUND = 10 ** 6


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 via fixed witness set."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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


def _pollard_rho(n: int, max_rounds: int = 64) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of odd composite n."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    for _ in range(max_rounds):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationTimeout(f"Pollard rho gave up on {n}")


def factor_integer(n: int) -> PrimeFactorization:
    """Complete factorization of a nonzero integer, certified by reconstruction."""
    if n == 0:
        raise ValueError("n must be nonzero")
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}

    def record(p: int):
        counts[p] = counts.get(p, 0) + 1

    for p in (2, 3, 5):
        while m % p == 0:
            record(p)
            m //= p
    d = 7
    while d <= _TRIAL_BOUND and d * d <= m:
        while m % d == 0:
            record(d)
            m //= d
        d += 2
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if is_probable_prime(c):
            record(c)
            continue
        g = _pollard_rho(c)
        stack.append(g)
        stack.append(c // g)
    result = PrimeFactorization(sign=sign, factors=tuple(sorted(counts.items())))
    if result.reconstruct() != n:
        raise ArithmeticError(f"factorization of {n} failed its own certificate")
    return result


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) with the standard 2 and -1 supplements."""
    if n == 0:
        raise ValueError("n must be nonzero")
    if n < 0:
        return (1 if a >= 0 else -1) * kronecker_symbol(a, -n)
    result = 1
    # strip the even part of n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi via reciprocity on the odd part
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def ell_adic_poly_divisibility(
    f_a: list[int], f_b: list[int], ell: int, n_max: int = 12
) -> int:
    """Largest n <= n_max with f_b | f_a in (Z/ell^n)[t], by plain long division.

    Polynomials are coefficient lists by increasing power; f_b must be monic.
    """
    if not f_b or f_b[-1] != 1:
        raise ValueError("f_b must be monic")
    best = 0
    for n in range(1, n_max + 1):
        mod = ell ** n
        rem = [c % mod for c in f_a]
        db = len(f_b) - 1
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - c * f_b[j]) % mod
        if any(rem):
            break
        best = n
    return best


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = square_part * squarefree_part with square_part a perfect square."""
    fact = factor_integer(n)
    square = 1
    free = fact.sign
    for p, e in fact.factors:
        square *= p ** (e - e % 2)
        if e % 2:
            free *= p
    return square, free


def is_squarefree(n: int) -> bool:
    return abs(squarefree_decompose(n)[0]) == 1


GEOM_SIMPLE_SCAN_BOUND = 60


def geom_simple_scan(
    f: WeilSurface, bound: int = GEOM_SIMPLE_SCAN_BOUND
) -> tuple[bool, int | None]:
    """Reference for weil.is_geometrically_simple: test every base change.

    Returns (False, m) with the smallest m <= bound whose base change to
    F_(q^m) is reducible over the rationals (m = 1 means f itself), else
    (True, None).  It shares weil's power sums and quartic
    reducibility test; what it checks is the choice of degrees, against
    the 13 degrees the engine tests.
    """
    q, a1, a2 = f.q, f.a1, f.a2
    if _weil_quartic_reducible(a1, a2, q):
        return (False, 1)
    ps = power_sums(f.coefficients(), 4 * bound)
    for m in range(2, bound + 1):
        pm = [ps[m * k - 1] for k in range(1, 5)]
        e = _elementary_from_power_sums(pm, 4)
        c3, c2 = -e[0], e[1]
        qm = q ** m
        if e[2] != qm * e[0] or e[3] != qm * qm:
            raise ArithmeticError("base change lost the functional equation")
        if _weil_quartic_reducible(c3, c2, qm):
            return (False, m)
    return (True, None)
