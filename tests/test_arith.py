"""The engine's integer arithmetic (polarglue.arith): examples, algebraic
properties, and exhaustive agreement with the brute force in oracle.py."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from polarglue import arith, oracle
from polarglue.arith import (
    factor_integer,
    is_probable_prime,
    is_squarefree,
    kronecker_symbol,
    squarefree_part,
)

nonzero = st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(lambda n: n != 0)


def test_factor_integer_examples():
    assert factor_integer(52).factors == ((2, 2), (13, 1))
    assert factor_integer(1).factors == ()
    assert factor_integer(9991).factors == ((97, 1), (103, 1))
    assert factor_integer(-12).sign == -1
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_integer_large_semiprime():
    n = 1000003 * 1000033
    assert factor_integer(n).factors == ((1000003, 1), (1000033, 1))


@given(nonzero)
@settings(max_examples=300)
def test_factorization_reconstructs(n):
    fact = factor_integer(n)
    assert fact.reconstruct() == n
    assert list(fact.primes) == sorted(fact.primes)
    for p, e in fact.factors:
        assert e >= 1 and is_probable_prime(p)


def test_factorization_matches_trial_division():
    for n in range(-20_000, 20_001):
        if n == 0:
            continue
        fact = factor_integer(n)
        assert fact.factors == oracle.trial_factor(n), n
        assert fact.sign == (-1 if n < 0 else 1)


def test_factorization_reaches_pollard_rho(monkeypatch):
    """With no trial-division stage, rho splits every composite cofactor,
    so the agreement test above exercises it."""
    calls = 0
    original = arith._pollard_rho

    def counted(n):
        nonlocal calls
        calls += 1
        return original(n)

    monkeypatch.setattr(arith, "_pollard_rho", counted)
    for n in range(1, 20_001):
        factor_integer(n)
    assert calls >= 40_000


@pytest.mark.parametrize("n", [
    999983 * 1000003,            # the primes either side of 10^6
    1000003 ** 2,
    2 ** 40 * (10 ** 12 + 39),
    7 ** 20,
    11 ** 13 * 13,
    561, 41041, 825265, 321197185, 5394826801,  # Carmichael numbers
])
def test_factorization_boundary_cases(n):
    fact = factor_integer(n)
    assert fact.reconstruct() == n
    assert all(is_probable_prime(p) and oracle.trial_is_prime(p) for p in fact.primes)
    if n < 10 ** 10:
        assert fact.factors == oracle.trial_factor(n)


def test_factoring_primes_above_10_to_12_is_fast():
    primes = []
    n = 10 ** 12
    while len(primes) < 100:
        n += 1
        if is_probable_prime(n):
            primes.append(n)
    start = time.perf_counter()
    for p in primes:
        assert factor_integer(p).factors == ((p, 1),)
    assert time.perf_counter() - start < 2.0


def test_primality_matches_trial_division():
    for n in range(-2, 100_000):
        assert is_probable_prime(n) == oracle.trial_is_prime(n), n


def test_strong_pseudoprimes_are_rejected():
    # the smallest strong pseudoprimes to every prime base <= 7 and <= 31
    for n in (3215031751, 3825123056546413051):
        assert not is_probable_prime(n)
        assert factor_integer(n).reconstruct() == n
        assert len(factor_integer(n).factors) > 1


def test_kronecker_examples():
    assert kronecker_symbol(2, 7) == 1
    assert kronecker_symbol(2, 3) == -1
    for a in (-5, -1, 0, 1, 7, 100):
        assert kronecker_symbol(a, 1) == 1
    assert kronecker_symbol(4, 2) == 0
    assert kronecker_symbol(-7, 2) == 1  # -7 = 1 mod 8
    with pytest.raises(ValueError):
        kronecker_symbol(3, 0)


@given(st.integers(-200, 200), st.integers(-200, 200), nonzero)
@settings(max_examples=200)
def test_kronecker_multiplicative_in_top(a, b, n):
    if n < 0 and a * b == 0:
        return  # the sign supplement at -1 is not multiplicative through 0
    assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


@given(st.integers(-200, 200), nonzero, nonzero)
@settings(max_examples=200)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


def test_kronecker_matches_euler_criterion():
    """Every odd prime p < 200 and every residue a mod p."""
    for p in range(3, 200):
        if not oracle.trial_is_prime(p):
            continue
        for a in range(p):
            assert kronecker_symbol(a, p) == oracle.kronecker_at_prime(a, p), (a, p)
    for a in range(-16, 17):
        assert kronecker_symbol(a, 2) == oracle.kronecker_at_prime(a, 2), a


def test_squarefree_part_examples():
    assert squarefree_part(72) == 2
    assert squarefree_part(-28) == -7
    assert squarefree_part(13) == 13
    assert is_squarefree(-30) and not is_squarefree(12)


@given(nonzero)
@settings(max_examples=200)
def test_squarefree_part_properties(n):
    free = squarefree_part(n)
    square, rem = divmod(n, free)
    assert rem == 0 and square > 0
    assert math.isqrt(square) ** 2 == square
    for _, e in factor_integer(free).factors:
        assert e == 1


def test_squarefree_matches_square_divisor_search():
    for n in range(-20_000, 20_001):
        if n == 0:
            continue
        assert squarefree_part(n) == oracle.trial_squarefree_part(n), n
        assert is_squarefree(n) == oracle.trial_is_squarefree(n), n
