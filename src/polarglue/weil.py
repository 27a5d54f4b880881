"""Weil polynomial data for abelian surfaces and elliptic curves over F_q.

A surface is stored as the coefficient pair (a1, a2) of
f(t) = t^4 + a1*t^3 + a2*t^2 + q*a1*t + q^2, an elliptic curve as the
trace b of f(t) = t^2 - b*t + q.  Validation, the real (degree-halved)
companion polynomial, base change, p-rank classification and the
geometric-simplicity test all use exact integer arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterator

from .arith import PrimeFactorization, factor_integer, is_probable_prime


class ValidationError(ValueError):
    pass


class OutOfWeilBounds(ValidationError):
    """Raised when coefficients violate the root-location bounds.

    Carries every violated inequality, not just the first one.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class ReducibleInput(ValidationError):
    pass


class NotPrimePower(ValidationError):
    """q is not the cardinality of a finite field."""


@dataclass(frozen=True)
class FieldParam:
    """A finite field F_q with q = p^a."""

    q: int
    p: int
    a: int

    def __post_init__(self):
        if self.a < 1 or not is_probable_prime(self.p) or self.p ** self.a != self.q:
            raise NotPrimePower(f"q={self.q} is not p^a for p={self.p}, a={self.a}")

    @property
    def is_square(self) -> bool:
        return self.a % 2 == 0

    @property
    def sqrt_q(self) -> int:
        """Integer square root of q; only meaningful when q is a square."""
        return self.p ** (self.a // 2)


def field_param(q: int) -> FieldParam:
    """Build a FieldParam from a prime-power cardinality."""
    if q < 2 or len(factors := factor_integer(q).factors) != 1:
        raise NotPrimePower(f"q={q} is not a prime power")
    (p, a), = factors
    return FieldParam(q=q, p=p, a=a)


class PRank(Enum):
    ORDINARY = "ordinary"
    MIXED = "mixed"
    SUPERSINGULAR = "supersingular"


@dataclass(frozen=True)
class WeilSurface:
    """Validated quartic Weil polynomial t^4 + a1 t^3 + a2 t^2 + q a1 t + q^2,
    with its real companion h(t) = t^2 + a1 t + (a2 - 2q), whose roots are
    pi + q/pi over the Weil numbers pi."""

    field: FieldParam
    a1: int
    a2: int

    @property
    def q(self) -> int:
        return self.field.q

    def coefficients(self) -> list[int]:
        q = self.q
        return [q * q, q * self.a1, self.a2, self.a1, 1]

    def h(self, x: int) -> int:
        """The real companion h at x."""
        return x * x + self.a1 * x + self.a2 - 2 * self.q

    def real_coefficients(self) -> list[int]:
        """Coefficients of h by increasing power."""
        return [self.a2 - 2 * self.q, self.a1, 1]

    def real_discriminant(self) -> int:
        """Discriminant a1^2 - 4*a2 + 8*q of h."""
        return self.a1 * self.a1 - 4 * self.a2 + 8 * self.q


@dataclass(frozen=True)
class WeilElliptic:
    """Validated quadratic Weil polynomial t^2 - b t + q."""

    field: FieldParam
    b: int
    irreducible: bool

    @property
    def q(self) -> int:
        return self.field.q

    def coefficients(self) -> list[int]:
        return [self.q, -self.b, 1]

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.q


def sqrt_ge_zero(u: int, v: int, q: int) -> bool:
    """Exact test of u + v*sqrt(q) >= 0 by sign analysis and squaring."""
    if v >= 0:
        return u >= 0 or v * v * q >= u * u
    return u >= 0 and u * u >= v * v * q


def make_surface(field: FieldParam, a1: int, a2: int) -> WeilSurface:
    """Validate (a1, a2) as an abelian-surface Weil polynomial over F_q.

    The real companion t^2 + a1 t + (a2 - 2q) must have two real roots in
    [-2*sqrt(q), 2*sqrt(q)]; all conditions are checked without floats.
    """
    q = field.q
    violations = []
    if a1 * a1 > 16 * q:
        violations.append(f"a1^2 = {a1 * a1} exceeds 16q = {16 * q}")
    disc = a1 * a1 - 4 * a2 + 8 * q
    if disc < 0:
        violations.append(f"real companion has complex roots: a1^2 - 4 a2 + 8q = {disc} < 0")
    # h(2 sqrt q) = (a2 + 2q) + 2 a1 sqrt q, h(-2 sqrt q) = (a2 + 2q) - 2 a1 sqrt q
    if not sqrt_ge_zero(a2 + 2 * q, 2 * a1, q):
        violations.append("real companion negative at 2*sqrt(q): a2 < -2 a1 sqrt(q) - 2q")
    if not sqrt_ge_zero(a2 + 2 * q, -2 * a1, q):
        violations.append("real companion negative at -2*sqrt(q): a2 < 2 a1 sqrt(q) - 2q")
    if violations:
        raise OutOfWeilBounds(violations)
    return WeilSurface(field=field, a1=a1, a2=a2)


def make_elliptic(field: FieldParam, b: int) -> WeilElliptic:
    """Validate a trace b with b^2 <= 4q; irreducible means b^2 < 4q."""
    q = field.q
    if b * b > 4 * q:
        raise OutOfWeilBounds([f"b^2 = {b * b} exceeds 4q = {4 * q}"])
    return WeilElliptic(field=field, b=b, irreducible=b * b < 4 * q)


def _lucas(
    a1: int, a2: int, q: int, last: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, a1_k, a2_k, q^k) for k = 1..last: the surface (a1, a2)
    over F_(q^k).

    The roots of h(t) = t^2 + a1 t + c, c = a2 - 2q, are beta = pi + q/pi,
    and pi^k + (q/pi)^k = V_k(beta) with V_0 = 2, V_1 = beta and
    V_(k+1) = beta V_k - q V_(k-1).  V_k = x + y beta is kept in
    Z[beta]/(h), so the roots of h_k are x + y beta_i, with sum
    2x - a1 y = -a1_k and product x^2 - a1 x y + c y^2 = a2_k - 2 q^k.
    """
    c = a2 - 2 * q
    x0, y0, x, y, qk = 2, 0, 0, 1, q
    for k in range(1, last + 1):
        yield k, a1 * y - 2 * x, x * x - a1 * x * y + c * y * y + 2 * qk, qk
        # beta (x + y beta) = -c y + (x - a1 y) beta, as beta^2 = -a1 beta - c
        x0, y0, x, y = x, y, -c * y - q * x0, x - a1 * y - q * y0
        qk *= q


def base_change(f: WeilSurface | WeilElliptic, m: int) -> WeilSurface | WeilElliptic:
    """Weil polynomial of the same variety over F_{q^m}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return f
    ext = FieldParam(q=f.field.q ** m, p=f.field.p, a=f.field.a * m)
    if isinstance(f, WeilSurface):
        *_, (_, a1, a2, _) = _lucas(f.a1, f.a2, f.q, m)
        return make_surface(ext, a1, a2)
    # E x E has h = (t - b)^2, i.e. a1 = -2b and a2 = b^2 + 2q, so that
    # a1_m = -2 V_m(b) = -2 b_m
    *_, (_, a1, _, _) = _lucas(-2 * f.b, f.b * f.b + 2 * f.q, f.q, m)
    return make_elliptic(ext, -a1 // 2)


def classify_p_rank(f: WeilSurface | WeilElliptic) -> PRank:
    """Ordinary / mixed / supersingular from p-adic valuations of the coefficients."""
    p = f.field.p
    if isinstance(f, WeilElliptic):
        return PRank.SUPERSINGULAR if f.b % p == 0 else PRank.ORDINARY
    a = f.field.a
    if f.a2 % p != 0:
        return PRank.ORDINARY
    # all Newton slopes are 1/2 iff v_p(a1) >= a/2 and v_p(a2) >= a
    if _vp_at_least(f.a1, p, (a + 1) // 2) and _vp_at_least(f.a2, p, a):
        return PRank.SUPERSINGULAR
    return PRank.MIXED


def _vp_at_least(n: int, p: int, k: int) -> bool:
    if n == 0:
        return True
    return n % p ** k == 0


def fundamental_discriminant_of(d: int | PrimeFactorization) -> int:
    """Fundamental discriminant of Q(sqrt(d)), d given or factored; 1 for a square."""
    d0 = (d if isinstance(d, PrimeFactorization) else factor_integer(d)).squarefree_part
    return d0 if d0 % 4 == 1 else 4 * d0


def fundamental_discriminant(B: WeilElliptic) -> int:
    """Discriminant of the imaginary quadratic endomorphism algebra of B."""
    if not B.irreducible:
        raise ReducibleInput(f"b^2 = 4q: t^2 - {B.b} t + {B.q} is a square")
    return fundamental_discriminant_of(B.discriminant())


def _weil_quartic_reducible(c3: int, c2: int, qm: int) -> bool:
    """Reducibility over Q of a quartic all of whose roots have |.| = sqrt(qm).

    Any monic quadratic factor then has constant term +-qm, so only finitely
    many factor shapes need checking.  A rational root r = +-sqrt(qm) needs
    no test of its own: 2r is then an integer root of the real companion
    t^2 + c3 t + (c2 - 2 qm), so its discriminant is the square that the
    first shape tests.
    """
    # (t^2 + x t + qm)(t^2 + y t + qm): x + y = c3, x y = c2 - 2 qm
    d = c3 * c3 - 4 * (c2 - 2 * qm)
    if d >= 0 and isqrt(d) ** 2 == d:
        return True
    # (t^2 + x t - qm)(t^2 - x t - qm): forces c3 = 0, x^2 = -(c2 + 2 qm)
    if c3 == 0:
        e = -(c2 + 2 * qm)
        if e >= 0 and isqrt(e) ** 2 == e:
            return True
    return False


# Orders n > 1 of the roots of unity with phi(n) | 8; see is_geometrically_simple.
SPLITTING_DEGREES = (2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30)


def is_geometrically_simple(f: WeilSurface) -> tuple[bool, int | None]:
    """Smallest m whose base change to F_(q^m) is reducible over Q.

    Returns (False, m) for that m (m = 1 means f itself), else (True, None).

    Ordinary surfaces (p does not divide a2) are settled in closed form by
    Howe and Zhu, J. Number Theory 92 (2002), Thm 6: a simple ordinary
    surface is absolutely simple unless a1 = 0 (it splits over F_(q^2)),
    a1^2 = a2 + q (over F_(q^3)), a1^2 = 2*a2 (over F_(q^4)) or
    a1^2 = 3*a2 - 3q (over F_(q^6)).  For an ordinary a2 these four cases
    exclude one another, and each m named is the smallest.

    Mixed and supersingular surfaces test m = 1 and then the degrees in
    SPLITTING_DEGREES.  Let f be irreducible with roots pi_1..pi_4.  The
    roots come in pairs {pi, q/pi}, so the Galois group lies in the
    dihedral group D4 and the splitting field L has degree dividing 8.
    The base change f^(m) is the characteristic polynomial of pi^m on
    Q(pi), a power of its minimal polynomial, so it is reducible exactly
    when pi_i^m = pi_j^m for some i != j.  That happens exactly when
    zeta = pi_j/pi_i is a root of unity whose order n divides m.  Since
    Q(zeta_n) lies in L, phi(n) divides 8, which leaves n in
    {1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30}, and n = 1 is
    excluded because f is separable.  The smallest reducing m is the
    smallest such n over all pairs i != j, so it always lies in
    SPLITTING_DEGREES, and testing those degrees in increasing order gives
    the same answer as testing every m.  The base changes come from one
    walk of the Lucas recurrence on the real companion h (_lucas, which
    base_change also uses) up to m = 30; the quartic is tested for
    reducibility only at those degrees.

    oracle.geom_simple_scan keeps the scan over every m <= 60 as the
    reference for both branches.
    """
    q, a1, a2 = f.q, f.a1, f.a2
    if _weil_quartic_reducible(a1, a2, q):
        return (False, 1)
    if a2 % f.field.p:
        return _howe_zhu(a1, a2, q)
    return _splitting_degree(a1, a2, q)


def _howe_zhu(a1: int, a2: int, q: int) -> tuple[bool, int | None]:
    """Howe-Zhu Thm 6 for an irreducible ordinary quartic."""
    s = a1 * a1
    if a1 == 0:
        return (False, 2)
    if s == a2 + q:
        return (False, 3)
    if s == 2 * a2:
        return (False, 4)
    if s == 3 * a2 - 3 * q:
        return (False, 6)
    return (True, None)


def _splitting_degree(a1: int, a2: int, q: int) -> tuple[bool, int | None]:
    """The SPLITTING_DEGREES search for an irreducible quartic."""
    for m, c3, c2, qm in _lucas(a1, a2, q, SPLITTING_DEGREES[-1]):
        if m in SPLITTING_DEGREES and _weil_quartic_reducible(c3, c2, qm):
            return (False, m)
    return (True, None)
