"""Exact integer arithmetic for the engine: primality, factorization,
Kronecker symbols and squarefree parts.

Factorization is one algorithm: Brent's Pollard rho splits every
composite cofactor and Miller-Rabin certifies the prime pieces.

This module is the one production home of these primitives.  oracle.py
holds independent brute-force versions that the tests hold these against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


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

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def squarefree_part(self) -> int:
        """Squarefree integer d0 with n = d0 * (square); sign preserved."""
        return self.sign * math.prod(p for p, e in self.factors if e % 2)


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


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho (Brent, BIT 20 (1980)): a nontrivial factor
    of composite n, 2 for even n; up to 64 rounds with fresh (y, c)."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    for _ in range(64):
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


def _prime_counts(m: int) -> dict[int, int]:
    """Prime -> exponent for m >= 1: split composite cofactors with Pollard
    rho until Miller-Rabin calls every piece prime."""
    counts: dict[int, int] = {}
    stack = [m]
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if is_probable_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        g = _pollard_rho(c)
        stack.append(g)
        stack.append(c // g)
    return counts


def factor_integer(n: int) -> PrimeFactorization:
    """Complete factorization of a nonzero integer, certified by reconstruction."""
    if n == 0:
        raise ValueError("n must be nonzero")
    result = PrimeFactorization(
        sign=-1 if n < 0 else 1, factors=tuple(sorted(_prime_counts(abs(n)).items()))
    )
    if result.reconstruct() != n:
        raise ArithmeticError(f"factorization of {n} failed its own certificate")
    return result


def squarefree_part(n: int) -> int:
    """Squarefree integer d0 with n = d0 * (square); sign preserved."""
    return factor_integer(n).squarefree_part


def is_squarefree(n: int) -> bool:
    return squarefree_part(n) == n


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
