"""The verdict engine: obstruction tests for ordinary x supersingular
products, and the three-way decision on whether the isogeny class of
(surface x elliptic) contains an abelian threefold with an irreducible
principal polarization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt
from typing import NamedTuple

from . import polys
from .arith import PrimeFactorization, factor_integer, is_squarefree, kronecker_symbol
from .localalg import (
    DoubleRoot,
    SplittingType,
    check_ell,
    double_root_condition,
    is_exceptional,
)
from .weil import (
    PRank,
    ValidationError,
    WeilElliptic,
    WeilSurface,
    classify_p_rank,
    fundamental_discriminant_of,
    is_geometrically_simple,
)


class InseparableInput(ValidationError):
    pass


class NotASquare(ValidationError):
    pass


class NotOrdinary(ValidationError):
    pass


class SquareField(ValidationError):
    pass


class SmallPrime(ValidationError):
    pass


class NotGeometricallySimple(ValidationError):
    pass


class ReducibleEllipticInput(ValidationError):
    pass


class NonPositivePower(ValidationError):
    pass


def ss_quadratic_gluing_valuation(A: WeilSurface, s: int, ell: int) -> int:
    """Largest n with ell^(2n) | f(s) and ell^n | f'(s), for square q = s^2.

    This is the ell-adic gluing depth against the supersingular curve with
    Weil polynomial (t - s)^2.  ell must be a prime other than p.
    """
    q = A.q
    if s * s != q:
        raise NotASquare(f"s^2 = {s * s} differs from q = {q}")
    check_ell(ell, A.field.p)
    if A.real_discriminant() == 0 or A.h(2 * s) == 0 or A.h(-2 * s) == 0:
        raise InseparableInput("surface Weil polynomial has a repeated root")
    f = A.coefficients()
    f_s = polys.evaluate(f, s)
    fprime_s = polys.evaluate(polys.derivative(f), s)
    n = 0
    while f_s % ell ** (2 * (n + 1)) == 0 and fprime_s % ell ** (n + 1) == 0:
        n += 1
    return n


class Obstruction(Enum):
    OBSTRUCTED = "obstructed"
    NO_CONCLUSION = "no_conclusion"


def hl_obstruction(A: WeilSurface, s: int, n: int) -> Obstruction:
    """Squarefree h(2s) blocks any irreducible principal polarization on
    (ordinary A) x (supersingular elliptic with trace 2s)^n, q a square."""
    if n < 1:
        raise NonPositivePower(f"n = {n}: the power of the elliptic curve must be >= 1")
    if not A.field.is_square or s * s != A.q:
        raise NotASquare(f"q = {A.q} is not the square of s = {s}")
    if classify_p_rank(A) is not PRank.ORDINARY:
        raise NotOrdinary("the surface must be ordinary")
    h2s = A.h(2 * s)
    if is_squarefree(h2s):
        return Obstruction.OBSTRUCTED
    return Obstruction.NO_CONCLUSION


@dataclass(frozen=True)
class LambdaDivisibility:
    """Divisibility of h(2 sqrt q) = u + v sqrt(q) by ell in Z_ell[t]/(t^2 - q).

    Inert t^2 - q: divisibility means ell | u and ell | v.  Split: the ring
    is Z_ell x Z_ell, u + v t maps to the components u +- v r (r^2 = q),
    and divisibility means ell divides one of them, i.e. ell | N = u^2 - q v^2.
    divides_square is the same test mod ell^2: the components differ by
    2 v r, so ell divides both only if ell | v, and then ell^2 divides one
    of them iff ell^3 | N; otherwise iff ell^2 | N.
    """

    ell: int
    u: int
    v: int
    divides: bool
    divides_square: bool
    splitting: SplittingType


def divides_in_lambda(A: WeilSurface, ell: int) -> LambdaDivisibility:
    """Lambda_ell divisibility data for h(2s) = (a2 + 2q) + 2*a1*sqrt(q), at
    an odd prime ell != p, where t^2 - q is split or inert."""
    if A.field.is_square:
        raise SquareField("q must not be a square")
    if ell == 2:
        raise SmallPrime("ell = 2 ramifies in Z[t]/(t^2 - q)")
    check_ell(ell, A.field.p)
    q = A.q
    u = A.a2 + 2 * q
    v = 2 * A.a1
    ell2 = ell * ell
    if kronecker_symbol(q, ell) == 1:
        norm = u * u - q * v * v
        divides = norm % ell == 0
        return LambdaDivisibility(
            ell=ell, u=u, v=v, divides=divides,
            divides_square=divides and norm % (ell2 * ell if v % ell == 0 else ell2) == 0,
            splitting=SplittingType.SPLIT,
        )
    return LambdaDivisibility(
        ell=ell, u=u, v=v,
        divides=u % ell == 0 and v % ell == 0,
        divides_square=u % ell2 == 0 and v % ell2 == 0,
        splitting=SplittingType.INERT,
    )


def hl2_obstruction(A: WeilSurface, strict: bool = False) -> Obstruction:
    """Obstruction against (ordinary A) x (simple supersingular surface),
    q not a square.

    Obstructed when every prime dividing h(2s) in the Lambda_ell sense is odd
    and does so to the first power only.  With strict=True the test refuses
    to conclude whenever any prime divisor exists at all.
    """
    if A.field.is_square:
        raise SquareField("q must not be a square")
    if classify_p_rank(A) is not PRank.ORDINARY:
        raise NotOrdinary("the surface must be ordinary")
    q = A.q
    u = A.a2 + 2 * q
    v = 2 * A.a1
    factors = factor_integer(u * u - q * v * v)
    if strict and factors.factors:
        return Obstruction.NO_CONCLUSION
    for ell in factors.primes:
        if ell == 2:
            return Obstruction.NO_CONCLUSION
        if divides_in_lambda(A, ell).divides_square:
            return Obstruction.NO_CONCLUSION
    return Obstruction.OBSTRUCTED


class VerdictKind(Enum):
    IRREDUCIBLE_PP_EXISTS = "irreducible_pp_exists"
    NO_IRREDUCIBLE_PP = "no_irreducible_pp"
    INCONCLUSIVE = "inconclusive"


class Branch(Enum):
    GENERIC = "generic"
    REDUCIBLE_MOD_L = "reducible_mod_l"
    EXCEPTIONAL = "exceptional"
    P_BRANCH = "p_branch"


class NoPPReason(Enum):
    HB_UNIT = "hb_unit"
    HL_OBSTRUCTION = "hl_obstruction"
    HL2_OBSTRUCTION = "hl2_obstruction"


@dataclass(frozen=True)
class PrimeFailure:
    ell: int
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class GluingVerdict:
    kind: VerdictKind
    witness_ell: int | None = None
    branch: Branch | None = None
    reason: NoPPReason | None = None
    failures: tuple[PrimeFailure, ...] = field(default_factory=tuple)
    jacobian_text: str = ""


_HB_UNIT = GluingVerdict(kind=VerdictKind.NO_IRREDUCIBLE_PP, reason=NoPPReason.HB_UNIT)

_EXISTS: dict[tuple[int, int], GluingVerdict] = {}


def _exists(ell: int, branch: Branch) -> GluingVerdict:
    """The one verdict object for witness ell on this branch, shared by
    every row it decides (verdicts are immutable)."""
    # keyed on id(branch) (members live forever): hashing an Enum runs Python code
    if (v := _EXISTS.get((ell, id(branch)))) is None:
        v = _EXISTS[ell, id(branch)] = GluingVerdict(
            VerdictKind.IRREDUCIBLE_PP_EXISTS, ell, branch, jacobian_text=(
                "the isogeny class contains an abelian threefold with an irreducible "
                f"principal polarization (glued at ell = {ell}); that threefold or its "
                "quadratic twist is the Jacobian of a smooth curve of genus 3"))
    return v


def _factored(memo: dict[int, PrimeFactorization] | None, n: int) -> PrimeFactorization:
    """factor_integer(n), kept in memo (n -> factorization) if one is given."""
    if memo is None:
        return factor_integer(n)
    if (f := memo.get(n)) is None:
        f = memo[n] = factor_integer(n)
    return f


@dataclass(frozen=True)
class EllipticInvariants:
    """What the verdict needs from the elliptic curve: its p-rank and the
    primes ell != p of b^2 - 4q, the only ones where Delta_B = -ell or a
    double root can occur.  failures maps each ell failing either test to
    its reasons; reducible holds each ell whose double-root test holds."""

    elliptic: WeilElliptic
    p_rank: PRank
    failures: dict[int, tuple[str, ...]]
    reducible: frozenset[int]

    @classmethod
    def of(cls, B: WeilElliptic, factored: dict | None = None) -> "EllipticInvariants":
        disc = _factored(factored, B.discriminant())
        delta = fundamental_discriminant_of(disc)
        failures, reducible = {}, set()
        for ell in disc.primes:
            if ell == B.field.p:
                continue
            reasons = [f"Delta_B = {delta} equals -ell"] if delta == -ell else []
            status, t1 = double_root_condition(B, ell)
            if status is DoubleRoot.FAILS:
                value = t1 * t1 - B.b * t1 + B.q
                reasons.append(f"double root t1 = {t1}: {ell}^2 does not divide f_B(t1) = {value}")
            elif status is DoubleRoot.SATISFIED:
                reducible.add(ell)
            if reasons:
                failures[ell] = tuple(reasons)
        return cls(B, classify_p_rank(B), failures, frozenset(reducible))


@dataclass(frozen=True)
class SurfaceInvariants:
    """What the verdict needs from the surface: its p-rank and its
    exceptional primes ell != p, among those with ell^2 | disc(h); none
    when disc(h) is 0 or a square (h reducible).  h(b) comes from the
    surface itself."""

    surface: WeilSurface
    p_rank: PRank
    exceptional: frozenset[int]

    @classmethod
    def of(cls, A: WeilSurface, factored: dict | None = None) -> "SurfaceInvariants":
        disc = A.real_discriminant()
        exceptional = frozenset() if isqrt(disc) ** 2 == disc else frozenset(
            ell for ell, e in _factored(factored, disc).factors
            if e >= 2 and ell != A.field.p and is_exceptional(A, ell)[0]
        )
        return cls(A, classify_p_rank(A), exceptional)


def decide_from_invariants(
    A: SurfaceInvariants, B: EllipticInvariants, hb: PrimeFactorization
) -> GluingVerdict:
    """The verdict for A x B from its three pieces: the surface and elliptic
    invariants, and the factorization of h(b) != 0.

    Returns the first prime of h(b) satisfying all gluing conditions, by set
    lookups only: ell = p follows the ordinary / supersingular case split;
    any other ell fails with B.failures[ell], plus a reason if ell is in
    A.exceptional and A is not ordinary, and otherwise glues on the
    exceptional, reducible_mod_l or generic branch.  If no prime qualifies
    the verdict is Inconclusive with a per-prime failure log.  Geometric
    simplicity is the caller's to enforce.  Conclusive verdicts are shared
    objects; only an Inconclusive verdict is built per call.
    """
    if not hb.factors:
        return _HB_UNIT
    p = B.elliptic.field.p
    failures: list[PrimeFailure] = []
    for ell, _ in hb.factors:
        if ell == p:
            if B.p_rank is PRank.ORDINARY or A.p_rank is PRank.MIXED:
                return _exists(ell, Branch.P_BRANCH)
            reasons: tuple[str, ...] = (
                "p-branch needs an ordinary elliptic curve, or a "
                "supersingular one against a mixed surface",
            )
        else:
            reasons = B.failures.get(ell, ())
            if ell in A.exceptional:
                if A.p_rank is not PRank.ORDINARY:
                    reasons += (f"{ell} is exceptional but the surface is {A.p_rank.value}",)
                elif not reasons:
                    return _exists(ell, Branch.EXCEPTIONAL)
            elif not reasons:
                return _exists(
                    ell, Branch.REDUCIBLE_MOD_L if ell in B.reducible else Branch.GENERIC
                )
        failures.append(PrimeFailure(ell=ell, reasons=reasons))
    return GluingVerdict(kind=VerdictKind.INCONCLUSIVE, failures=tuple(failures))


class ScanRow(NamedTuple):
    """One decided pair: h(b), the verdict, both p-ranks, and the prime
    divisors of h(b) other than p that are exceptional for the surface.

    geometrically_simple is False only for a row decide_pair returns for a
    split surface, whose verdict is then Inconclusive."""

    surface: WeilSurface
    elliptic: WeilElliptic
    h_b: int
    verdict: GluingVerdict
    surface_p_rank: PRank
    elliptic_p_rank: PRank
    exceptional_primes: tuple[int, ...]
    geometrically_simple: bool = True


def evaluate_pair(
    A: SurfaceInvariants, B: EllipticInvariants, factored: dict[int, PrimeFactorization]
) -> ScanRow:
    """The row for A x B: h(b), its factorization (kept in the memo
    factored, so a scan sharing one memo factors each integer once), the
    verdict of decide_from_invariants and the primes of h(b) in
    A.exceptional.  h(b) != 0 is the caller's to ensure, as for geometric
    simplicity."""
    E = B.elliptic
    h_b = A.surface.h(E.b)
    if (hb := factored.get(h_b)) is None:
        hb = factored[h_b] = factor_integer(h_b)
    return ScanRow(
        A.surface, E, h_b, decide_from_invariants(A, B, hb), A.p_rank, B.p_rank,
        tuple(ell for ell, _ in hb.factors if ell in A.exceptional) if A.exceptional else (),
    )


def decide_pair(A: WeilSurface, B: WeilElliptic) -> ScanRow:
    """The validated row for one pair A x B, factoring each integer once.

    A surface that fails the geometric-simplicity test is rejected whenever
    the verdict would assert anything, and whenever h(b) = 0; an
    Inconclusive outcome asserts nothing, so it is returned, flagged as not
    geometrically simple.  A geometrically simple surface has an
    irreducible f_A, which shares no root with f_B, so h(b) != 0 there.
    """
    if not B.irreducible:
        raise ReducibleEllipticInput("f_B must be irreducible: b^2 < 4q")
    simple, witness_m = is_geometrically_simple(A)
    if simple or A.h(B.b) != 0:
        memo: dict[int, PrimeFactorization] = {}
        row = evaluate_pair(SurfaceInvariants.of(A, memo), EllipticInvariants.of(B, memo), memo)
        if simple or row.verdict.kind is VerdictKind.INCONCLUSIVE:
            return row._replace(geometrically_simple=simple)
    raise NotGeometricallySimple(f"surface splits after base change to F_(q^{witness_m})")


def decide(A: WeilSurface, B: WeilElliptic) -> GluingVerdict:
    """Three-way verdict for the isogeny class of A x B (see decide_pair)."""
    return decide_pair(A, B).verdict
