import math
import signal
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import polarglue as pg
from polarglue import oracle, polys
from polarglue.gluing import (
    Branch,
    NoPPReason,
    NotASquare,
    NotGeometricallySimple,
    NotOrdinary,
    Obstruction,
    ReducibleEllipticInput,
    SmallPrime,
    SquareField,
    VerdictKind,
    decide,
    divides_in_lambda,
    hl2_obstruction,
    hl_obstruction,
    ss_quadratic_gluing_valuation,
)
from polarglue.localalg import (
    NotPrime,
    SplittingType,
    classify_prime_ideals,
    dedekind_is_maximal,
    double_root_condition,
    factor_mod_prime,
    is_exceptional,
    splitting_in_real_subfield,
)

from conftest import surfaces

F2 = pg.field_param(2)
F4 = pg.field_param(4)
F7 = pg.field_param(7)
F11 = pg.field_param(11)

A211 = pg.make_surface(F2, 1, 1)


def test_ss_quadratic_gluing_valuation_examples():
    assert ss_quadratic_gluing_valuation(pg.make_surface(F4, 1, 1), 2, 13) == 0
    assert ss_quadratic_gluing_valuation(pg.make_surface(F4, 1, -3), 2, 3) == 1
    assert ss_quadratic_gluing_valuation(pg.make_surface(F4, 1, 1), 2, 11) == 0
    with pytest.raises(NotASquare):
        ss_quadratic_gluing_valuation(A211, 1, 3)


def test_hl_obstruction_examples():
    assert hl_obstruction(pg.make_surface(F4, 1, 1), 2, 1) is Obstruction.OBSTRUCTED
    assert hl_obstruction(pg.make_surface(F4, 1, -3), 2, 1) is Obstruction.NO_CONCLUSION
    with pytest.raises(NotASquare):
        hl_obstruction(A211, 1, 1)
    with pytest.raises(NotOrdinary):
        hl_obstruction(pg.make_surface(F4, 0, 2), 2, 1)


def test_divides_in_lambda_examples():
    lam = divides_in_lambda(A211, 17)
    assert (lam.divides, lam.divides_square, lam.splitting) == (
        True, False, SplittingType.SPLIT)
    lam5 = divides_in_lambda(pg.make_surface(F2, 0, 1), 5)
    assert (lam5.divides, lam5.divides_square, lam5.splitting) == (
        True, False, SplittingType.INERT)
    lam3 = divides_in_lambda(A211, 3)
    assert lam3.divides is False
    with pytest.raises(SquareField):
        divides_in_lambda(pg.make_surface(F4, 1, 1), 3)


def _raise_timeout(signum, frame):
    raise TimeoutError("no answer within 5 s")


def test_local_helpers_reject_non_prime_ell():
    """Every per-prime entry point refuses a non-prime ell at once; under a
    5 s alarm, so a loop that never ends (ell = 1 once did) fails instead of
    hanging.  divides_in_lambda names ell = 2 with SmallPrime even where it
    is the characteristic."""
    A = pg.make_surface(F4, 1, -3)
    A27 = pg.make_surface(pg.field_param(27), 1, 1)
    entry_points = (
        lambda ell: ss_quadratic_gluing_valuation(A, 2, ell),
        lambda ell: divides_in_lambda(A27, ell),
        lambda ell: factor_mod_prime(A.coefficients(), ell),
        lambda ell: dedekind_is_maximal(A.coefficients(), ell),
        lambda ell: splitting_in_real_subfield(72, ell),
        lambda ell: is_exceptional(A, ell),
        lambda ell: double_root_condition(pg.make_elliptic(F4, 1), ell),
        lambda ell: classify_prime_ideals(A, ell),
    )
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(5)
    try:
        for ell in (0, 1, 9, 15):
            for entry_point in entry_points:
                with pytest.raises(NotPrime):
                    entry_point(ell)
        with pytest.raises(SmallPrime):
            divides_in_lambda(pg.make_surface(pg.field_param(8), 1, 1), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_divides_in_lambda_matches_root_search():
    """The norm test agrees with the square-root search and Hensel lift it
    replaced, on every surface over every non-square q <= 27 and every odd
    prime ell < 60 other than p."""
    odd_primes = [ell for ell in range(3, 60) if oracle.trial_is_prime(ell)]
    split = 0
    for q in (2, 3, 5, 7, 8, 11, 13, 17, 19, 23, 27):
        field = pg.field_param(q)
        for A in pg.enumerate_surfaces(field):
            for ell in odd_primes:
                if ell == field.p:
                    continue
                lam = divides_in_lambda(A, ell)
                expected = oracle.lambda_divisibility_by_roots(q, lam.u, lam.v, ell)
                assert (lam.divides, lam.divides_square) == expected, (A, ell)
                split += lam.splitting is SplittingType.SPLIT
    assert split > 10_000


def test_hl2_obstruction_examples():
    assert hl2_obstruction(A211) is Obstruction.OBSTRUCTED
    assert hl2_obstruction(pg.make_surface(F2, 0, 1)) is Obstruction.OBSTRUCTED
    with pytest.raises(SquareField):
        hl2_obstruction(pg.make_surface(F4, 1, 1))
    # strict mode refuses whenever any prime divisor exists at all
    assert hl2_obstruction(A211, strict=True) is Obstruction.NO_CONCLUSION


def test_hl2_even_divisor_blocks():
    # q = 3, a2 even: 2 divides h(2s) in the Lambda sense
    A = pg.make_surface(pg.field_param(3), 1, 2)
    assert hl2_obstruction(A) is Obstruction.NO_CONCLUSION


def test_decide_named_instances():
    v = decide(A211, pg.make_elliptic(F2, 0))
    assert (v.kind, v.witness_ell, v.branch) == (
        VerdictKind.IRREDUCIBLE_PP_EXISTS, 3, Branch.GENERIC)
    assert "irreducible principal polarization" in v.jacobian_text
    assert "or its quadratic twist" in v.jacobian_text

    v = decide(A211, pg.make_elliptic(F2, 1))
    assert (v.kind, v.reason) == (VerdictKind.NO_IRREDUCIBLE_PP, NoPPReason.HB_UNIT)
    assert v.jacobian_text == ""

    v = decide(pg.make_surface(F11, -2, 5), pg.make_elliptic(F11, 4))
    assert (v.kind, v.witness_ell, v.branch) == (
        VerdictKind.IRREDUCIBLE_PP_EXISTS, 3, Branch.EXCEPTIONAL)

    v = decide(pg.make_surface(F7, -2, 2), pg.make_elliptic(F7, 5))
    assert v.kind is VerdictKind.INCONCLUSIVE
    assert len(v.failures) == 1 and v.failures[0].ell == 3
    assert len(v.failures[0].reasons) == 2


def test_decide_rejects_bad_inputs():
    with pytest.raises(ReducibleEllipticInput):
        decide(A211, pg.make_elliptic(pg.field_param(9), 6))
    # a geometrically split surface may not claim existence
    with pytest.raises(NotGeometricallySimple):
        decide(pg.make_surface(F7, 0, -4), pg.make_elliptic(F7, 1))


def test_decide_p_branch():
    # q=2, (-1,0) is mixed; b=-2 supersingular with h(-2) = 2: glued at p
    A = pg.make_surface(F2, -1, 0)
    v = decide(A, pg.make_elliptic(F2, -2))
    assert (v.witness_ell, v.branch) == (2, Branch.P_BRANCH)
    # ordinary elliptic through the p-branch
    v = decide(A, pg.make_elliptic(F2, -1))
    assert (v.witness_ell, v.branch) == (2, Branch.P_BRANCH)


def test_decide_is_deterministic():
    a = decide(pg.make_surface(F7, -2, 2), pg.make_elliptic(F7, 5))
    b = decide(pg.make_surface(F7, -2, 2), pg.make_elliptic(F7, 5))
    assert a == b


@given(surfaces(fields=(F2, pg.field_param(3), F4, pg.field_param(5))), st.data())
@settings(max_examples=120, deadline=None)
def test_decide_converse_and_witness_divides(f, data):
    bound = math.isqrt(4 * f.q)
    b = data.draw(st.integers(min_value=-bound, max_value=bound))
    B = pg.make_elliptic(f.field, b)
    if not B.irreducible:
        return
    try:
        v = decide(f, B)
    except NotGeometricallySimple:
        return
    hb = f.h(b)
    if v.kind is VerdictKind.IRREDUCIBLE_PP_EXISTS:
        assert abs(hb) not in (0, 1)
        assert hb % v.witness_ell == 0
        assert v.jacobian_text
    else:
        assert v.jacobian_text == ""
    if v.kind is VerdictKind.INCONCLUSIVE:
        assert v.failures


def test_exceptional_branch_coherence():
    """Exceptional witnesses come with ell^2 | h(b), f == f_B^2 mod ell, and
    the exceptional square root congruent to f_B mod ell."""
    seen = 0
    for q in (5, 7, 8, 9, 11, 13):
        field = pg.field_param(q)
        for row in chain.from_iterable(pg.scan_pairs(field)):
            v = row.verdict
            if v.kind is not VerdictKind.IRREDUCIBLE_PP_EXISTS:
                continue
            if v.branch is not Branch.EXCEPTIONAL:
                continue
            seen += 1
            ell = v.witness_ell
            A, B = row.surface, row.elliptic
            assert row.h_b % (ell * ell) == 0
            diff = polys.sub(A.coefficients(), polys.mul(B.coefficients(), B.coefficients()))
            assert all(c % ell == 0 for c in diff)
            flag, witness = is_exceptional(A, ell)
            assert flag
            assert polys.reduce_mod(B.coefficients(), ell) == [c % ell for c in witness]
            square = polys.mul_mod(list(witness), list(witness), ell * ell)
            assert square == polys.reduce_mod(A.coefficients(), ell * ell)
    assert seen >= 80


def test_hl_consistency_with_valuation():
    for q in (4, 9):
        field = pg.field_param(q)
        s = field.sqrt_q
        for A in pg.enumerate_surfaces(field, ordinary=True):
            h2s = A.h(2 * s)
            if not oracle.trial_is_squarefree(h2s):
                continue
            assert hl_obstruction(A, s, 1) is Obstruction.OBSTRUCTED
            for ell, _ in oracle.trial_factor(h2s):
                if ell != field.p:
                    assert ss_quadratic_gluing_valuation(A, s, ell) == 0


def test_rows_are_decided_by_lookups_only(monkeypatch):
    """Once the per-surface and per-elliptic invariants exist, deciding a
    row runs no local test, and the surface invariants hold no mutable
    state."""
    from dataclasses import fields

    from polarglue import gluing, localalg, weil

    field = pg.field_param(13)
    surfaces = [gluing.SurfaceInvariants.of(A)
                for A in pg.enumerate_surfaces(field, geometrically_simple=True)]
    elliptics = [gluing.EllipticInvariants.of(B)
                 for B in pg.enumerate_elliptics(field, irreducible=True)]
    assert [f.name for f in fields(gluing.SurfaceInvariants)] == [
        "surface", "p_rank", "exceptional"]
    assert all(type(S.exceptional) is frozenset for S in surfaces)

    def forbidden(*args):
        raise AssertionError(f"local test on the per-row path: {args}")

    for module in (gluing, localalg, weil):
        for name in ("double_root_condition", "is_exceptional",
                     "fundamental_discriminant", "fundamental_discriminant_of"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    primes_of = {}
    for S in surfaces:
        for E in elliptics:
            gluing.evaluate_pair(S, E, primes_of)
    assert len(surfaces) * len(elliptics) > 2000


def test_check_factors_no_integer_twice(monkeypatch):
    """One check factors q, b^2 - 4q, disc(h) and h(b), each once."""
    from polarglue import arith, gluing, weil

    seen = []

    def counting(n):
        seen.append(n)
        return arith.factor_integer(n)

    for module in (gluing, weil):
        monkeypatch.setattr(module, "factor_integer", counting)
    q = 10 ** 12 + 39
    field = weil.field_param(q)
    gluing.decide_pair(pg.make_surface(field, 3, 7), pg.make_elliptic(field, 5))
    assert len(seen) == len(set(seen)) == 4, seen


def test_scan_factors_no_integer_twice(monkeypatch):
    """One scan factors each of its integers once: b^2 - 4q, disc(h_A)
    (1,016 surfaces share 151 values at q = 25) and h(b) share one memo."""
    from polarglue import arith, gluing

    seen = []

    def counting(n):
        seen.append(n)
        return arith.factor_integer(n)

    monkeypatch.setattr(gluing, "factor_integer", counting)
    rows = list(chain.from_iterable(pg.scan_pairs(pg.field_param(25))))
    assert len(rows) > 0 and len(seen) > 0
    assert len(seen) == len(set(seen))
