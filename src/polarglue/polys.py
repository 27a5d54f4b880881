"""Exact integer polynomial arithmetic on coefficient lists.

A polynomial is a list of coefficients indexed by power: [c0, c1, c2]
is c0 + c1*t + c2*t^2.  The zero polynomial is [].  Everything here is
exact; no floats anywhere.
"""

from __future__ import annotations


def normalize(f: list[int]) -> list[int]:
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def degree(f: list[int]) -> int:
    """Degree of a normalized polynomial; -1 for the zero polynomial."""
    f = normalize(f)
    return len(f) - 1


def add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return normalize(out)


def sub(f: list[int], g: list[int]) -> list[int]:
    return add(f, [-c for c in g])


def mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def scale(f: list[int], c: int) -> list[int]:
    return normalize([c * a for a in f])


def evaluate(f: list[int], x: int) -> int:
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def derivative(f: list[int]) -> list[int]:
    return normalize([i * c for i, c in enumerate(f)][1:])


def reduce_mod(f: list[int], m: int) -> list[int]:
    return normalize([c % m for c in f])


def mul_mod(f: list[int], g: list[int], m: int) -> list[int]:
    return reduce_mod(mul(f, g), m)


def divmod_monic_mod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    """Division by a monic (over Z) divisor g, coefficients taken modulo m."""
    g = normalize(g)
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = [c % m for c in f]
    dg = len(g) - 1
    quot = [0] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - dg] = c
        for j, b in enumerate(g):
            rem[i - dg + j] = (rem[i - dg + j] - c * b) % m
    return normalize(quot), normalize(rem)


def monic_mod(f: list[int], ell: int) -> list[int]:
    """Rescale f to a monic polynomial modulo the prime ell."""
    f = reduce_mod(f, ell)
    if not f:
        return f
    inv = pow(f[-1], -1, ell)
    return reduce_mod(scale(f, inv), ell)


def eval_mod(f: list[int], x: int, m: int) -> int:
    out = 0
    for c in reversed(f):
        out = (out * x + c) % m
    return out


def pow_mod(f: list[int], e: int, g: list[int], ell: int) -> list[int]:
    """f^e modulo the monic g and the prime ell, by repeated squaring:
    O(log e) products of polynomials of degree < deg g."""
    result = divmod_monic_mod([1], g, ell)[1]
    base = divmod_monic_mod(f, g, ell)[1]
    while e:
        if e & 1:
            result = divmod_monic_mod(mul(result, base), g, ell)[1]
        e >>= 1
        if e:
            base = divmod_monic_mod(mul(base, base), g, ell)[1]
    return result


def gcd_mod(f: list[int], g: list[int], ell: int) -> list[int]:
    """Monic greatest common divisor of f and g modulo the prime ell
    (Euclid's algorithm); [] when both are zero mod ell."""
    f, g = reduce_mod(f, ell), reduce_mod(g, ell)
    while g:
        inv = pow(g[-1], -1, ell)
        g = [c * inv % ell for c in g]
        f, g = g, divmod_monic_mod(f, g, ell)[1]
    return monic_mod(f, ell)
