"""The brute-force oracle checks itself on hand-computed examples; its
agreement with the engine's arithmetic is tested in test_arith.py."""

import pytest

import polarglue as pg
from polarglue.oracle import (
    divmod_monic,
    ell_adic_poly_divisibility,
    kronecker_at_prime,
    trial_factor,
    trial_is_prime,
    trial_is_squarefree,
    trial_squarefree_part,
)


def test_factor_integer_examples():
    assert trial_factor(52) == ((2, 2), (13, 1))
    assert trial_factor(1) == ()
    assert trial_factor(9991) == ((97, 1), (103, 1))
    assert trial_factor(-12) == ((2, 2), (3, 1))
    with pytest.raises(ValueError):
        trial_factor(0)


def test_primality_and_squarefree_examples():
    assert [n for n in range(-3, 30) if trial_is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert trial_squarefree_part(72) == 2
    assert trial_squarefree_part(-28) == -7
    assert trial_is_squarefree(-30) and not trial_is_squarefree(12)


def test_kronecker_examples():
    assert kronecker_at_prime(2, 7) == 1
    assert kronecker_at_prime(2, 3) == -1
    assert kronecker_at_prime(-1, 5) == 1 and kronecker_at_prime(-1, 7) == -1
    assert kronecker_at_prime(14, 7) == 0
    assert kronecker_at_prime(-7, 2) == 1 and kronecker_at_prime(5, 2) == -1
    assert kronecker_at_prime(4, 2) == 0


def test_divmod_monic_examples():
    # t^3 - 1 = (t - 1)(t^2 + t + 1)
    assert divmod_monic([-1, 0, 0, 1], [-1, 1]) == ([1, 1, 1], [])
    assert divmod_monic([5, 0, 1], [1, 1]) == ([-1, 1], [6])


def test_ell_adic_poly_divisibility_examples():
    F2 = pg.field_param(2)
    A = pg.make_surface(F2, 1, 1)
    assert ell_adic_poly_divisibility(A.coefficients(), [2, 0, 1], 3) == 1
    F11 = pg.field_param(11)
    A11 = pg.make_surface(F11, -2, 5)
    assert ell_adic_poly_divisibility(A11.coefficients(), [11, -4, 1], 3) == 2
    assert ell_adic_poly_divisibility(A.coefficients(), [2, -1, 1], 5) == 0
