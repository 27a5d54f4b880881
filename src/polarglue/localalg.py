"""Mod-ell and mod-ell^2 analysis of Weil polynomials.

Factorization patterns over F_ell, the Dedekind maximality test for
Z_ell[t]/f, splitting of ell in the real quadratic subfield, the
double-root divisibility condition, exceptional primes, and the
symmetric / generating classification of the prime ideals of Z[F, V]
lying over ell != p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Sequence

from . import polys
from .arith import is_probable_prime, kronecker_symbol
from .weil import ValidationError, WeilElliptic, WeilSurface


class CharacteristicPrime(ValidationError):
    """ell equals the field characteristic, where F is not invertible."""


class NotPrime(ValidationError):
    """ell is not a prime number."""


class ReducibleField(ValidationError):
    """The real companion polynomial is reducible, so K+ is not a field."""


def check_ell(ell: int, p: int | None = None) -> None:
    """Raise NotPrime unless ell is prime, then CharacteristicPrime if ell = p."""
    if not is_probable_prime(ell):
        raise NotPrime(f"ell = {ell} is not prime")
    if ell == p:
        raise CharacteristicPrime(f"ell = {ell} is the characteristic")


Factor = tuple[int, ...]


@dataclass(frozen=True)
class FactorPattern:
    """Irreducible factorization mod ell: (monic factor, multiplicity) pairs."""

    ell: int
    factors: tuple[tuple[Factor, int], ...]

    def expand(self) -> list[int]:
        out = [1]
        for g, mult in self.factors:
            for _ in range(mult):
                out = polys.mul_mod(out, list(g), self.ell)
        return out


_X = [0, 1]


def factor_mod_prime(f: Sequence[int], ell: int) -> FactorPattern:
    """Factor a monic integer polynomial of degree <= 4 into irreducibles mod ell.

    Distinct-degree factorisation plus Cantor-Zassenhaus equal-degree
    splitting (Math. Comp. 36 (1981)).  The distinct roots are the roots of
    gcd(g, x^ell - x), split into linear factors and each divided out as
    often as it divides.  A rootless rest of degree 2 or 3 is irreducible.
    A rootless quartic is h^2 when gcd(g, g') has degree 2 or g' = 0 (which
    happens only for ell = 2), a product of two distinct quadratics when
    x^(ell^2) = x mod g, and irreducible otherwise.  No step runs over the
    residues of ell: x^ell and x^(ell^2) take O(log ell) products of
    polynomials of degree < 4 reduced mod g, and so does each splitting
    attempt, which succeeds with probability about 1/2.  The cost is
    polynomial in log ell; the reference oracle.trial_factor_mod_prime
    searches all roots and monic quadratics, about ell^2 divisions.
    """
    check_ell(ell)
    g = polys.monic_mod(list(f), ell)
    if polys.degree(g) > 4:
        raise ValueError("degree must be <= 4")
    counts: dict[Factor, int] = {}

    def record(factor: list[int], mult: int = 1):
        key = tuple(factor)
        counts[key] = counts.get(key, 0) + mult

    x_ell = polys.pow_mod(_X, ell, g, ell)
    for root in _equal_degree_split(polys.gcd_mod(g, polys.sub(x_ell, _X), ell), 1, ell):
        quot, rem = polys.divmod_monic_mod(g, root, ell)
        while not rem:
            g = quot
            record(root)
            quot, rem = polys.divmod_monic_mod(g, root, ell)
    d = polys.degree(g)
    if d in (2, 3):
        record(g)
    elif d == 4:
        slope = polys.reduce_mod(polys.derivative(g), ell)
        if not slope:  # ell = 2 and g = x^4 + c2 x^2 + c0 = (x^2 + c2 x + c0)^2
            record([g[0], g[2], 1], 2)
        elif polys.degree(square_root := polys.gcd_mod(g, slope, ell)) == 2:
            record(square_root, 2)
        elif polys.pow_mod(x_ell, ell, g, ell) == _X:
            for quadratic in _equal_degree_split(g, 2, ell):
                record(quadratic)
        else:
            record(g)
    elif d == 1:
        raise ArithmeticError("a linear factor survived the root search")
    out = tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return FactorPattern(ell=ell, factors=out)


def _equal_degree_split(g: list[int], d: int, ell: int) -> list[list[int]]:
    """The monic irreducible factors of g, a squarefree product of distinct
    irreducibles of degree d mod ell (Cantor-Zassenhaus).

    For a random h of degree < deg g, gcd(g, w) is a proper factor with
    probability at least about 1/2, where w = h^((ell^d - 1)/2) - 1 for odd
    ell and w is the trace h + h^2 + ... + h^(2^(d-1)) for ell = 2.  The h
    come from a fixed seed, so every run draws the same ones.
    """
    n = polys.degree(g)
    if n <= d:
        return [g] if n == d else []
    rng = random.Random(0)
    while True:
        h = [rng.randrange(ell) for _ in range(n)]
        if ell == 2:
            w = power = polys.divmod_monic_mod(h, g, 2)[1]
            for _ in range(d - 1):
                power = polys.pow_mod(power, 2, g, 2)
                w = polys.add(w, power)
        else:
            w = polys.sub(polys.pow_mod(h, (ell**d - 1) // 2, g, ell), [1])
        u = polys.gcd_mod(g, w, ell)
        if 0 < polys.degree(u) < n:
            v = polys.divmod_monic_mod(g, u, ell)[0]
            return _equal_degree_split(u, d, ell) + _equal_degree_split(v, d, ell)


def _dedekind_defect(f: Sequence[int], pattern: FactorPattern) -> dict[Factor, bool]:
    """Per factor of f mod ell (pattern is factor_mod_prime(f, ell)): True
    iff Z_ell[t]/f is maximal at that factor.

    Radical form of the Dedekind criterion: with f = rad * cof mod ell,
    T = (lift(rad) lift(cof) - f)/ell, the order is maximal at a repeated
    factor g exactly when g does not divide T mod ell.
    """
    f = polys.normalize(list(f))
    if not f or f[-1] != 1:
        raise ValueError("f must be monic")
    ell = pattern.ell
    verdicts: dict[Factor, bool] = {}
    repeated = [(g, m) for g, m in pattern.factors if m >= 2]
    for g, _ in pattern.factors:
        verdicts[g] = True
    if not repeated:
        return verdicts
    rad = [1]
    cof = [1]
    for g, m in pattern.factors:
        rad = polys.mul(rad, list(g))
        for _ in range(m - 1):
            cof = polys.mul(cof, list(g))
    diff = polys.sub(polys.mul(rad, cof), list(f))
    if any(c % ell for c in diff):
        raise ArithmeticError("lifted factorization does not agree with f mod ell")
    t_bar = polys.reduce_mod([c // ell for c in diff], ell)
    for g, _ in repeated:
        _, rem = polys.divmod_monic_mod(t_bar, list(g), ell)
        verdicts[g] = bool(rem)
    return verdicts


def dedekind_is_maximal(f: Sequence[int], ell: int) -> bool:
    """True iff Z_ell[t]/f is the maximal order at ell (Dedekind criterion)."""
    return all(_dedekind_defect(f, factor_mod_prime(f, ell)).values())


class SplittingType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def splitting_in_real_subfield(disc: int, ell: int) -> SplittingType:
    """Splitting of ell in the maximal order of K+ = Q[t]/h, disc = disc(h).

    This is the splitting in the ring of integers; the order Z[t]/h itself
    may be smaller at ell.  Write disc = ell^v * m with ell not dividing
    m: ell ramifies when v is odd, or when ell = 2 and m = 3 mod 4;
    otherwise (m | ell) = 1 means split and -1 inert.  Nothing is factored.
    """
    check_ell(ell)
    if disc >= 0 and isqrt(disc) ** 2 == disc:
        raise ReducibleField(f"disc(h) = {disc} is a perfect square")
    v, m = 0, disc
    while m % ell == 0:
        m //= ell
        v += 1
    if v % 2 or (ell == 2 and m % 4 == 3):
        return SplittingType.RAMIFIED
    return SplittingType.SPLIT if kronecker_symbol(m, ell) == 1 else SplittingType.INERT


def is_exceptional(f: WeilSurface, ell: int) -> tuple[bool, Factor | None]:
    """Test whether f is congruent to the square of an irreducible quadratic
    mod ell^2 while ell stays inert in the real subfield.

    Returns the square root t^2 - s t + q (coefficients mod ell^2) as witness.
    A surface whose real companion h is reducible over Q (disc(h) a square)
    has no quadratic real subfield and is never exceptional.
    """
    check_ell(ell, f.field.p)
    disc = f.real_discriminant()
    if disc % (ell * ell) != 0:
        return (False, None)
    if isqrt(disc) ** 2 == disc:
        return (False, None)
    if splitting_in_real_subfield(disc, ell) is not SplittingType.INERT:
        return (False, None)
    q = f.q
    ell2 = ell * ell
    if ell == 2:
        # squares mod 4 only depend on the residue mod 2, so f is a square
        # mod 4 iff it matches (t^2 + t + 1)^2 coefficientwise
        if [c % 4 for c in f.coefficients()] != [1, 2, 3, 2, 1]:
            return (False, None)
        s = 1
    else:
        s = (-f.a1 * pow(2, -1, ell2)) % ell2
        if kronecker_symbol(s * s - 4 * q, ell) != -1:
            return (False, None)
    witness = ((q % ell2), (-s) % ell2, 1)
    square = polys.mul_mod(list(witness), list(witness), ell2)
    if square != polys.reduce_mod(f.coefficients(), ell2):
        raise ArithmeticError("witness square does not reproduce f mod ell^2")
    return (True, witness)


class DoubleRoot(Enum):
    NO_DOUBLE_ROOT = "no_double_root"
    SATISFIED = "satisfied"
    FAILS = "fails"


def double_root_condition(B: WeilElliptic, ell: int) -> tuple[DoubleRoot, int | None]:
    """If f_B is a square (t - t1)^2 mod ell, test whether ell^2 | f_B(t1).

    The answer does not depend on the lift of t1 since f_B'(t1) = 0 mod ell.
    """
    check_ell(ell, B.field.p)
    b, q = B.b, B.q
    if ell == 2:
        if b % 2 != 0:
            return (DoubleRoot.NO_DOUBLE_ROOT, None)
        t1 = q % 2
    else:
        if (b * b - 4 * q) % ell != 0:
            return (DoubleRoot.NO_DOUBLE_ROOT, None)
        t1 = b * pow(2, -1, ell) % ell
    value = t1 * t1 - b * t1 + q
    if value % (ell * ell) == 0:
        return (DoubleRoot.SATISFIED, t1)
    return (DoubleRoot.FAILS, t1)


def q_reciprocal(g: Factor, q: int, ell: int) -> Factor:
    """Monic image of g under x -> q/x on roots: t^deg g * g(q/t) / g(0)."""
    d = len(g) - 1
    flipped = [g[d - j] * pow(q, d - j, ell) % ell for j in range(d + 1)]
    return tuple(polys.monic_mod(flipped, ell))


@dataclass(frozen=True)
class IdealRecord:
    """Classification of one maximal ideal of Z[F, V] over ell != p."""

    factor: Factor
    multiplicity: int
    symmetric: bool
    generating: bool
    maximal_at: bool
    exceptional: bool
    conjugate_partner: Factor | None


@dataclass(frozen=True)
class LocalPrimeReport:
    """The ideals over ell; exceptional_witness is is_exceptional's witness."""

    ell: int
    factor_pattern: FactorPattern
    h_pattern: FactorPattern
    ideals: tuple[IdealRecord, ...]
    exceptional_witness: Factor | None


def classify_prime_ideals(f: WeilSurface, ell: int) -> LocalPrimeReport:
    """Full per-ideal report at ell != p.

    Away from p the Frobenius order is Z_ell[t]/f, so maximal ideals
    correspond to irreducible factors of f mod ell; the involution pairs a
    factor with its q-reciprocal.  A symmetric factor g is generating when g
    does not divide t^2 - q mod ell: x -> q/x is an automorphism of
    F_ell[x]/(g) of order 1 or 2, trivial exactly when x^2 = q.
    """
    check_ell(ell, f.field.p)
    q = f.q
    pattern = factor_mod_prime(f.coefficients(), ell)
    h_pattern = factor_mod_prime(f.real_coefficients(), ell)
    maximality = _dedekind_defect(f.coefficients(), pattern)
    witness = is_exceptional(f, ell)[1]
    witness_mod_ell = tuple(c % ell for c in witness) if witness else None
    records = []
    for g, mult in pattern.factors:
        partner = q_reciprocal(g, q, ell)
        symmetric = partner == g
        _, rem = polys.divmod_monic_mod([-q, 0, 1], list(g), ell)
        generating = symmetric and bool(rem)
        records.append(
            IdealRecord(
                factor=g,
                multiplicity=mult,
                symmetric=symmetric,
                generating=generating,
                maximal_at=maximality[g],
                exceptional=g == witness_mod_ell,
                conjugate_partner=None if symmetric else partner,
            )
        )
    return LocalPrimeReport(
        ell=ell, factor_pattern=pattern, h_pattern=h_pattern,
        ideals=tuple(records), exceptional_witness=witness,
    )
