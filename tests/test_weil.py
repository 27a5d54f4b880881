import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import polarglue as pg
from polarglue import oracle, polys
from polarglue.arith import squarefree_part
from polarglue.weil import NotPrimePower, OutOfWeilBounds, ReducibleInput

from conftest import FIELDS, SMALL_FIELDS, elliptics, surfaces

F2 = pg.field_param(2)
F3 = pg.field_param(3)
F4 = pg.field_param(4)
F7 = pg.field_param(7)
F9 = pg.field_param(9)
F11 = pg.field_param(11)


def test_field_param():
    assert (F9.p, F9.a, F9.is_square) == (3, 2, True)
    assert (F8 := pg.field_param(8)).a == 3 and not F8.is_square
    with pytest.raises(NotPrimePower):
        pg.field_param(6)
    with pytest.raises(NotPrimePower):
        pg.field_param(1)


def test_make_surface_examples():
    f = pg.make_surface(F2, 1, 1)
    assert f.coefficients() == [4, 2, 1, 1, 1]
    with pytest.raises(OutOfWeilBounds) as exc:
        pg.make_surface(F4, 9, 0)
    assert any("16q" in v for v in exc.value.violations)
    # lower root bound: 2|a1|sqrt(7) - 14 > 15
    with pytest.raises(OutOfWeilBounds):
        pg.make_surface(F7, 7, 15)


def test_make_surface_reports_every_violation():
    with pytest.raises(OutOfWeilBounds) as exc:
        pg.make_surface(F2, 9, -100)
    assert len(exc.value.violations) >= 2


@given(st.sampled_from(FIELDS), st.integers(-40, 40), st.integers(-120, 120))
@settings(max_examples=400)
def test_validation_matches_float_root_location(field, a1, a2):
    """Away from the boundary, acceptance agrees with a floating-point check
    that both roots of the real companion lie in [-2 sqrt q, 2 sqrt q]."""
    q = field.q
    disc = a1 * a1 - 4 * (a2 - 2 * q)
    edge = 2 * math.sqrt(q)
    if disc < 0:
        in_range = False
        margin = abs(disc)
    else:
        roots = ((-a1 - math.sqrt(disc)) / 2, (-a1 + math.sqrt(disc)) / 2)
        margin = min(abs(abs(r) - edge) for r in roots)
        in_range = all(-edge <= r <= edge for r in roots)
    if margin < 1e-6:
        return  # too close to the boundary for floats to referee
    try:
        pg.make_surface(field, a1, a2)
        accepted = True
    except OutOfWeilBounds:
        accepted = False
    assert accepted == in_range


def test_make_elliptic_examples():
    with pytest.raises(OutOfWeilBounds):
        pg.make_elliptic(F2, 3)
    e = pg.make_elliptic(F2, 2)
    assert e.irreducible and e.discriminant() == -4
    assert pg.classify_p_rank(e) is pg.PRank.SUPERSINGULAR
    boundary = pg.make_elliptic(F9, 6)
    assert not boundary.irreducible


def test_real_weil_examples():
    assert pg.make_surface(F2, 1, 1).real_coefficients() == [-3, 1, 1]
    assert pg.make_surface(F3, 0, 0).real_coefficients() == [-6, 0, 1]
    assert pg.make_surface(F11, -2, 5).real_coefficients() == [-17, -2, 1]


def test_eval_real_examples():
    A = pg.make_surface(F2, 1, 1)
    assert A.h(1) == -1
    assert A.h(0) == -3
    assert pg.make_surface(F11, -2, 5).h(4) == -9


def test_base_change_examples():
    f = pg.make_surface(F7, 0, -4)  # t^4 - 4 t^2 + 49
    g = pg.base_change(f, 2)
    # (t^2 - 4t + 49)^2 over F_49
    assert (g.q, g.a1, g.a2) == (49, -8, 114)
    assert pg.base_change(f, 1) is f
    e = pg.base_change(pg.make_elliptic(F3, 1), 2)
    assert (e.q, e.b) == (9, 1 - 2 * 3)


@given(surfaces(fields=SMALL_FIELDS), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_base_change_multiplicativity(f, m, n):
    assert pg.base_change(pg.base_change(f, m), n) == pg.base_change(f, m * n)


@given(surfaces(), st.integers(min_value=-60, max_value=60))
@settings(max_examples=200)
def test_real_companion_division_identity(f, r):
    """f(t) - t^2 h(r) is divisible by t^2 - r t + q, with the remainder of
    f alone being h(r)(r t - q)."""
    q = f.q
    h_r = f.h(r)
    _, rem = oracle.divmod_monic(polys.sub(f.coefficients(), [0, 0, h_r]), [q, -r, 1])
    assert rem == []
    _, rem2 = oracle.divmod_monic(f.coefficients(), [q, -r, 1])
    assert rem2 == polys.normalize([-q * h_r, r * h_r])


@given(surfaces(fields=tuple(F for F in FIELDS if F.is_square)))
@settings(max_examples=100)
def test_specialization_at_sqrt_q(f):
    s = f.field.sqrt_q
    assert polys.evaluate(f.coefficients(), s) == f.q * f.h(2 * s)


@given(surfaces() | elliptics())
@settings(max_examples=150)
def test_functional_equation(f):
    c = f.coefficients()
    g = (len(c) - 1) // 2
    q = f.q
    flipped = [Fraction(c[len(c) - 1 - i] * q ** (len(c) - 1 - i), q ** g)
               for i in range(len(c))]
    assert flipped == [Fraction(x) for x in c]


@given(surfaces())
@settings(max_examples=100)
def test_real_weil_round_trip(f):
    c0, c1, _ = f.real_coefficients()
    assert (c1, c0 + 2 * f.q) == (f.a1, f.a2)
    assert pg.make_surface(f.field, c1, c0 + 2 * f.q) == f


def test_classify_p_rank_examples():
    assert pg.classify_p_rank(pg.make_surface(F2, 1, 1)) is pg.PRank.ORDINARY
    assert pg.classify_p_rank(pg.make_elliptic(F2, 2)) is pg.PRank.SUPERSINGULAR
    assert pg.classify_p_rank(pg.make_elliptic(F2, 1)) is pg.PRank.ORDINARY
    # all slopes 1/2: t^4 + 2 t^2 + 4 over F_2
    assert pg.classify_p_rank(pg.make_surface(F2, 0, 2)) is pg.PRank.SUPERSINGULAR
    assert pg.classify_p_rank(pg.make_surface(F2, 0, 1)) is pg.PRank.ORDINARY
    assert pg.classify_p_rank(pg.make_surface(F2, 1, 2)) is pg.PRank.MIXED
    # q = 9 needs v_3(a2) >= 2, not just 3 | a2
    assert pg.classify_p_rank(pg.make_surface(F9, 0, 3)) is pg.PRank.MIXED
    assert pg.classify_p_rank(pg.make_surface(F9, 0, 9)) is pg.PRank.SUPERSINGULAR


@given(surfaces())
@settings(max_examples=150)
def test_ordinary_real_constant_term_is_p_unit(f):
    if pg.classify_p_rank(f) is pg.PRank.ORDINARY:
        assert math.gcd(f.h(0), f.field.p) == 1


@given(surfaces(), st.data())
@settings(max_examples=150)
def test_ordinary_times_supersingular_avoids_p(f, data):
    if pg.classify_p_rank(f) is not pg.PRank.ORDINARY:
        return
    p = f.field.p
    bound = math.isqrt(4 * f.q)
    b = data.draw(st.integers(min_value=-bound, max_value=bound).map(lambda k: k - k % p))
    if b * b > 4 * f.q:
        return
    assert f.h(b) % p != 0


def test_fundamental_discriminant_examples():
    assert pg.fundamental_discriminant(pg.make_elliptic(F11, 4)) == -7
    assert pg.fundamental_discriminant(pg.make_elliptic(F2, 0)) == -8
    assert pg.fundamental_discriminant(pg.make_elliptic(F2, 1)) == -7
    with pytest.raises(ReducibleInput):
        pg.fundamental_discriminant(pg.make_elliptic(F9, 6))


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n != 0))
def test_fundamental_discriminant_shape(d):
    d0 = squarefree_part(d)
    delta = pg.weil.fundamental_discriminant_of(d)
    assert delta % 4 in (0, 1)
    assert delta in (d0, 4 * d0)
    quotient, rem = divmod(d, d0)
    assert rem == 0 and math.isqrt(quotient) ** 2 == quotient


def test_is_geometrically_simple_examples():
    assert pg.is_geometrically_simple(pg.make_surface(F7, 0, -4)) == (False, 2)
    assert pg.is_geometrically_simple(pg.make_surface(F2, 1, 1)) == (True, None)
    # reducible over Q already: (t^2 - 2t + 4)(t^2 + 2t + 4) = t^4 + 4 t^2 + 16
    reducible = pg.make_surface(F4, 0, 4)
    assert pg.is_geometrically_simple(reducible) == (False, 1)


def test_geometric_simplicity_catches_late_splitting():
    # becomes the square of an irreducible quadratic only at m = 4
    f = pg.make_surface(F7, -2, 2)
    assert pg.is_geometrically_simple(f) == (False, 4)


@pytest.mark.parametrize(
    "q, a1, a2, rank, expected",
    [
        (5, 0, -9, pg.PRank.ORDINARY, (False, 2)),  # a1 = 0
        (5, -4, 11, pg.PRank.ORDINARY, (False, 3)),  # a1^2 = a2 + q
        (5, -4, 8, pg.PRank.ORDINARY, (False, 4)),  # a1^2 = 2 a2
        (5, -6, 17, pg.PRank.ORDINARY, (False, 6)),  # a1^2 = 3 a2 - 3q
        (9, -6, 21, pg.PRank.MIXED, (False, 6)),  # the degree search
    ],
)
def test_geometric_simplicity_howe_zhu_shapes(q, a1, a2, rank, expected):
    f = pg.make_surface(pg.field_param(q), a1, a2)
    assert pg.classify_p_rank(f) is rank
    assert pg.is_geometrically_simple(f) == expected == oracle.geom_simple_scan(f)


def test_geometric_simplicity_matches_exhaustive_scan():
    """The 13-degree test agrees with the scan over every m <= 60 on every
    surface over every prime power q <= 27 (FIELDS)."""
    for field in FIELDS:
        for f in pg.enumerate_surfaces(field):
            assert pg.is_geometrically_simple(f) == oracle.geom_simple_scan(f), f


@given(surfaces(fields=SMALL_FIELDS))
@settings(max_examples=40, deadline=None)
def test_geometric_simplicity_witness_is_minimal(f):
    simple, m = pg.is_geometrically_simple(f)
    if simple:
        assert m is None
    elif m == 1:
        pass
    else:
        c = pg.base_change(f, m)
        assert pg.weil._weil_quartic_reducible(c.a1, c.a2, c.q)
        for k in range(2, m):
            ck = pg.base_change(f, k)
            assert not pg.weil._weil_quartic_reducible(ck.a1, ck.a2, ck.q)


@given(surfaces(), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_power_sums_match_base_change_traces(f, m):
    ps = oracle.power_sums(f.coefficients(), 4 * m)
    assert ps[m - 1] == -pg.base_change(f, m).a1


def test_surface_base_change_matches_power_sums_exhaustively():
    """The Lucas recurrence against Newton's identities: over F_(q^m) the
    roots are pi^m, so a1_m = -p_m and a2_m = e_2 = (p_m^2 - p_2m) / 2, for
    every surface over every prime power q <= 27 (FIELDS) and m <= 12."""
    for field in FIELDS:
        for f in pg.enumerate_surfaces(field):
            ps = oracle.power_sums(f.coefficients(), 24)
            for m in range(1, 13):
                g = pg.base_change(f, m)
                pm, p2m = ps[m - 1], ps[2 * m - 1]
                assert (g.q, g.a1, g.a2) == (f.q ** m, -pm, (pm * pm - p2m) // 2), (f, m)


def test_elliptic_base_change_matches_power_sums_exhaustively():
    """b_m = pi^m + (q/pi)^m = p_m of t^2 - b t + q, for every trace over
    every prime power q <= 27 (FIELDS) and m <= 12."""
    for field in FIELDS:
        q = field.q
        for b in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
            e = pg.make_elliptic(field, b)
            ps = oracle.power_sums(e.coefficients(), 12)
            for m in range(1, 13):
                g = pg.base_change(e, m)
                assert (g.q, g.b) == (q ** m, ps[m - 1]), (e, m)


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return sorted(out)


def _quartic_irreducible_bruteforce(c3, c2, c1, c0):
    """Plain rational-root and divisor-pair factor search, no shortcuts."""
    for r in (s * d for d in _divisors(c0) for s in (1, -1)):
        if r ** 4 + c3 * r ** 3 + c2 * r * r + c1 * r + c0 == 0:
            return False
    for beta in (s * d for d in _divisors(c0) for s in (1, -1)):
        if c0 % beta:
            continue
        delta = c0 // beta
        if beta != delta:
            num, den = c1 - beta * c3, delta - beta
            if num % den:
                continue
            alpha = num // den
            gamma = c3 - alpha
            if beta + delta + alpha * gamma == c2 and alpha * delta + beta * gamma == c1:
                return False
        else:
            if c1 != beta * c3:
                continue
            disc = c3 * c3 - 4 * (c2 - 2 * beta)
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                return False
    return True


@given(surfaces())
@settings(max_examples=300)
def test_irreducibility_shortcut_matches_bruteforce(f):
    """The finite factor-shape search agrees with an exhaustive divisor-pair
    factorization attempt."""
    q = f.q
    irreducible = not pg.weil._weil_quartic_reducible(f.a1, f.a2, q)
    assert irreducible == _quartic_irreducible_bruteforce(f.a1, f.a2, q * f.a1, q * q)


def test_irreducibility_shortcut_matches_bruteforce_where_sqrt_qm_is_rational():
    """Every surface over the square fields q in {4, 9, 16, 25}, and the
    m = 2 base change of every surface with q <= 9: the quartics that could
    have a rational root +-sqrt(qm)."""
    cases = [f for q in (4, 9, 16, 25) for f in pg.enumerate_surfaces(pg.field_param(q))]
    cases += [pg.base_change(f, 2) for F in SMALL_FIELDS for f in pg.enumerate_surfaces(F)]
    for f in cases:
        q = f.q
        irreducible = not pg.weil._weil_quartic_reducible(f.a1, f.a2, q)
        assert irreducible == _quartic_irreducible_bruteforce(f.a1, f.a2, q * f.a1, q * q), f
