import hashlib
import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

import polarglue as pg
from polarglue import oracle, polys
from polarglue.localalg import (
    CharacteristicPrime,
    DoubleRoot,
    NotPrime,
    ReducibleField,
    SplittingType,
    _dedekind_defect,
    classify_prime_ideals,
    dedekind_is_maximal,
    double_root_condition,
    factor_mod_prime,
    is_exceptional,
    q_reciprocal,
    splitting_in_real_subfield,
)
from polarglue.weil import fundamental_discriminant_of

from conftest import ODD_PRIMES, PRIMES, surfaces, elliptics

F2 = pg.field_param(2)
F7 = pg.field_param(7)
F11 = pg.field_param(11)
F13 = pg.field_param(13)


def test_factor_mod_prime_examples():
    # t^4 + t^3 + t^2 + 2t + 4 = (t-1)(t+1)(t^2+t+2) mod 3
    pat = factor_mod_prime([4, 2, 1, 1, 1], 3)
    assert pat.factors == (((1, 1), 1), ((2, 1), 1), ((2, 1, 1), 1))
    assert factor_mod_prime([2, 0, 1], 3).factors == (((1, 1), 1), ((2, 1), 1))
    assert factor_mod_prime([13, -4, 1], 3).factors == (((1, 1), 2),)


def test_factor_mod_prime_irreducible_quartic():
    pat = factor_mod_prime([4, 2, 1, 1, 1], 5)
    assert pat.factors == (((4, 2, 1, 1, 1), 1),)


def test_factor_mod_prime_quadratic_square():
    # (t^2 + 1)^2 mod 3
    f = polys.mul([1, 0, 1], [1, 0, 1])
    assert factor_mod_prime(f, 3).factors == (((1, 0, 1), 2),)


def test_factor_mod_prime_matches_trial_search_exhaustively():
    """Against oracle.trial_factor_mod_prime: every monic polynomial of
    degree 1-4 mod ell for ell in {2, 3, 5, 7} (3,730 of them), then f_A
    and h_A of every surface with q <= 5 at every prime ell < 50, ell != p.
    Both sides read only g mod ell, so each residue class is checked once:
    the 9,184 pairs of the second set add 4,909 classes to the first."""
    cases = {}
    for ell in (2, 3, 5, 7):
        for deg in range(1, 5):
            for coeffs in itertools.product(range(ell), repeat=deg):
                cases[(coeffs + (1,), ell)] = list(coeffs) + [1]
    assert len(cases) == 3730
    ells = [ell for ell in range(2, 50) if oracle.trial_is_prime(ell)]
    for q in (2, 3, 4, 5):
        field = pg.field_param(q)
        for A in pg.enumerate_surfaces(field):
            for g in (A.coefficients(), A.real_coefficients()):
                for ell in ells:
                    if ell != field.p:
                        cases.setdefault((tuple(c % ell for c in g), ell), g)
    assert len(cases) == 3730 + 4909
    for (_, ell), g in cases.items():
        assert factor_mod_prime(g, ell).factors == oracle.trial_factor_mod_prime(g, ell), (g, ell)


def _expected_pattern(factors):
    return tuple(sorted(((tuple(g), m) for g, m in factors), key=lambda kv: (len(kv[0]), kv[0])))


@pytest.mark.parametrize("ell, a, b, quadratic, cubic", [
    (2, 0, 1, [1, 1, 1], [1, 1, 0, 1]),
    (3, 1, 2, [1, 0, 1], [1, 2, 0, 1]),
])
def test_factor_mod_prime_repeated_factors_in_small_characteristic(ell, a, b, quadratic, cubic):
    """(t-a)^4, (t-a)^2 (t-b)^2, (t-a)^3 (t-b), g^2 for an irreducible
    quadratic g, and a root times an irreducible cubic, at ell = 2 and 3."""
    ta, tb = [(-a) % ell, 1], [(-b) % ell, 1]
    cases = [
        [(ta, 4)],
        [(ta, 2), (tb, 2)],
        [(ta, 3), (tb, 1)],
        [(quadratic, 2)],
        [(ta, 1), (cubic, 1)],
    ]
    for factors in cases:
        f = [1]
        for g, m in factors:
            for _ in range(m):
                f = polys.mul_mod(f, g, ell)
        want = _expected_pattern(factors)
        assert factor_mod_prime(f, ell).factors == want, factors
        assert oracle.trial_factor_mod_prime(f, ell) == want, factors


@pytest.mark.parametrize("a1, a2, ell", [
    (-11, 51, 10007),
    (-8, 35, 1_000_000_000_039),
])
def test_local_at_large_ell_is_fast(a1, a2, ell, capsys):
    """f_A irreducible mod ell: the trial search would need about ell^2
    divisions; distinct-degree factorisation needs O(log ell) products."""
    from polarglue import cli

    start = time.perf_counter()
    assert cli.main(["local", "--q", "11", "--a1", str(a1), "--a2", str(a2), "--ell", str(ell)]) == 0
    assert time.perf_counter() - start < 1.0
    pattern = factor_mod_prime(pg.make_surface(F11, a1, a2).coefficients(), ell)
    assert [(len(g) - 1, m) for g, m in pattern.factors] == [(4, 1)]
    assert '"symmetric": true' in capsys.readouterr().out


# SHA-256 over repr(classify_prime_ideals(A, ell)) + "\n" for every surface
# with q <= 11 and every prime ell < 30 other than p, in enumeration order.
# Recorded with the exhaustive root and quadratic search in factor_mod_prime.
LOCAL_DIGEST = "45efe62bb4059c56b62c938d50adec4fc732a2993a72b93596b4c2442d38ea17"


def test_local_reports_match_recorded_digest():
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        field = pg.field_param(q)
        for A in pg.enumerate_surfaces(field):
            for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
                if ell != field.p:
                    digest.update(repr(classify_prime_ideals(A, ell)).encode() + b"\n")
    assert digest.hexdigest() == LOCAL_DIGEST


@given(surfaces(), st.sampled_from(PRIMES))
@settings(max_examples=200)
def test_factorization_multiplies_back(f, ell):
    pat = factor_mod_prime(f.coefficients(), ell)
    assert pat.expand() == polys.reduce_mod(f.coefficients(), ell)
    assert sum((len(g) - 1) * m for g, m in pat.factors) == 4


def test_dedekind_examples():
    assert dedekind_is_maximal([3, 0, 1], 3) is True
    assert dedekind_is_maximal([-18, 0, 1], 3) is False
    assert dedekind_is_maximal([2, 1, 1], 3) is True


def test_dedekind_two_distinct_repeated_factors():
    # two repeated linear factors mod 3: +9 keeps the order singular, +3 not
    base = polys.mul(polys.mul([-1, 1], [-1, 1]), polys.mul([1, 1], [1, 1]))
    assert dedekind_is_maximal(polys.add(base, [9]), 3) is False
    assert dedekind_is_maximal(polys.add(base, [3]), 3) is True


def _quadratic_maximal_by_discriminant(c: int, d: int, ell: int) -> bool:
    """Independent oracle: index^2 = disc / fundamental-disc, test v_ell."""
    disc = c * c - 4 * d
    if disc == 0:
        return False
    index_sq = disc // fundamental_discriminant_of(disc)
    index = 1
    while index * index < index_sq:
        index += 1
    assert index * index == index_sq
    return index % ell != 0


@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50),
       st.sampled_from((2, 3, 5, 7, 11, 13)))
@settings(max_examples=300)
def test_dedekind_matches_discriminant_oracle(c, d, ell):
    assert dedekind_is_maximal([d, c, 1], ell) == _quadratic_maximal_by_discriminant(c, d, ell)


def test_splitting_examples():
    d18 = 72  # disc(t^2 - 18)
    d13 = 13  # disc(t^2 + t - 3)
    assert splitting_in_real_subfield(d18, 3) is SplittingType.INERT
    assert splitting_in_real_subfield(d13, 3) is SplittingType.SPLIT
    assert splitting_in_real_subfield(d18, 2) is SplittingType.RAMIFIED
    with pytest.raises(ReducibleField):
        splitting_in_real_subfield(0, 3)  # disc(t^2)


def test_splitting_matches_fundamental_discriminant_exhaustively():
    """splitting_in_real_subfield reads only the ell-part of disc(h); the
    reference is the Kronecker symbol, by Euler's criterion, of the
    fundamental discriminant built from a trial-division squarefree part.
    Every non-square discriminant of a monic quadratic with |d| <= 20000,
    at every prime ell <= 13."""
    cases = 0
    for d in range(-20000, 20001):
        if d % 4 not in (0, 1) or (d >= 0 and math.isqrt(d) ** 2 == d):
            continue
        d0 = oracle.trial_squarefree_part(d)
        fundamental = d0 if d0 % 4 == 1 else 4 * d0
        for ell in (2, 3, 5, 7, 11, 13):
            symbol = oracle.kronecker_at_prime(fundamental, ell)
            want = {1: SplittingType.SPLIT, -1: SplittingType.INERT,
                    0: SplittingType.RAMIFIED}[symbol]
            assert splitting_in_real_subfield(d, ell) is want, (d, ell)
            cases += 1
    assert cases > 100_000


def test_splitting_rejects_non_prime_ell():
    for ell in (1, 0, -3):
        with pytest.raises(NotPrime):
            splitting_in_real_subfield(72, ell)


def test_double_root_examples():
    assert double_root_condition(pg.make_elliptic(F13, 4), 3) == (DoubleRoot.SATISFIED, 2)
    assert double_root_condition(pg.make_elliptic(F7, 5), 3) == (DoubleRoot.FAILS, 1)
    assert double_root_condition(pg.make_elliptic(F2, 0), 3) == (DoubleRoot.NO_DOUBLE_ROOT, None)
    with pytest.raises(CharacteristicPrime):
        double_root_condition(pg.make_elliptic(F2, 0), 2)


@given(elliptics(irreducible_only=True), st.sampled_from(PRIMES),
       st.integers(min_value=-8, max_value=8))
@settings(max_examples=200)
def test_double_root_well_defined_over_lifts(B, ell, k):
    """The ell^2-divisibility of f_B(t1) cannot depend on the lift of t1."""
    if ell == B.field.p:
        return
    status, t1 = double_root_condition(B, ell)
    if status is DoubleRoot.NO_DOUBLE_ROOT:
        return
    lifted = t1 + ell * k
    v0 = (t1 * t1 - B.b * t1 + B.q) % (ell * ell)
    v1 = (lifted * lifted - B.b * lifted + B.q) % (ell * ell)
    assert v0 == v1


def test_is_exceptional_examples():
    A11 = pg.make_surface(F11, -2, 5)
    flag, witness = is_exceptional(A11, 3)
    assert flag
    assert witness == (11 % 9, (-1) % 9, 1)  # t^2 - t + 11 mod 9
    A2 = pg.make_surface(F2, 1, 1)
    assert is_exceptional(A2, 3) == (False, None)
    assert is_exceptional(A2, 5) == (False, None)
    with pytest.raises(CharacteristicPrime):
        is_exceptional(A2, 2)


def test_is_exceptional_at_two():
    A9 = pg.make_surface(pg.field_param(9), 2, -1)
    flag, witness = is_exceptional(A9, 2)
    assert flag
    square = polys.mul_mod(list(witness), list(witness), 4)
    assert square == polys.reduce_mod(A9.coefficients(), 4)


@given(surfaces(), st.sampled_from(ODD_PRIMES))
@settings(max_examples=200)
def test_exceptional_implies_square_discriminant_divisor(f, ell):
    if ell == f.field.p:
        return
    flag, witness = is_exceptional(f, ell)
    if not flag:
        return
    assert f.real_discriminant() % (ell * ell) == 0
    assert splitting_in_real_subfield(f.real_discriminant(), ell) is SplittingType.INERT
    # the witness really is a square root of f mod ell^2 with constant q
    assert witness[0] == f.q % (ell * ell)
    square = polys.mul_mod(list(witness), list(witness), ell * ell)
    assert square == polys.reduce_mod(f.coefficients(), ell * ell)


def test_classify_prime_ideals_examples():
    rep = classify_prime_ideals(pg.make_surface(F2, 1, 1), 3)
    by_factor = {r.factor: r for r in rep.ideals}
    assert by_factor[(1, 1)].conjugate_partner == (2, 1)
    assert by_factor[(2, 1)].conjugate_partner == (1, 1)
    quad = by_factor[(2, 1, 1)]
    assert quad.symmetric and quad.generating and quad.maximal_at
    assert not quad.exceptional
    assert rep.h_pattern.factors == (((0, 1), 1), ((1, 1), 1))

    rep11 = classify_prime_ideals(pg.make_surface(F11, -2, 5), 3)
    assert len(rep11.ideals) == 1
    ideal = rep11.ideals[0]
    assert ideal.factor == (2, 2, 1) and ideal.multiplicity == 2
    assert ideal.symmetric and ideal.generating and ideal.exceptional
    assert not ideal.maximal_at

    rep5 = classify_prime_ideals(pg.make_surface(F2, 1, 1), 5)
    assert len(rep5.ideals) == 1
    ideal5 = rep5.ideals[0]
    assert len(ideal5.factor) == 5
    assert ideal5.symmetric and ideal5.generating and ideal5.maximal_at
    assert not ideal5.exceptional


def test_classify_rejects_characteristic():
    with pytest.raises(CharacteristicPrime):
        classify_prime_ideals(pg.make_surface(F2, 1, 1), 2)


@given(surfaces(), st.sampled_from(PRIMES))
@settings(max_examples=200)
def test_involution_pairs_factors(f, ell):
    if ell == f.field.p:
        return
    rep = classify_prime_ideals(f, ell)
    factors = {r.factor for r in rep.ideals}
    for r in rep.ideals:
        # applying the q-reciprocal twice is the identity
        assert q_reciprocal(q_reciprocal(r.factor, f.q, ell), f.q, ell) == r.factor
        if r.symmetric:
            assert r.conjugate_partner is None
        else:
            assert r.conjugate_partner in factors
            partner = next(x for x in rep.ideals if x.factor == r.conjugate_partner)
            assert partner.conjugate_partner == r.factor
            assert partner.multiplicity == r.multiplicity


@given(surfaces(), st.sampled_from(PRIMES))
@settings(max_examples=200)
def test_generating_needs_degree_doubling(f, ell):
    if ell == f.field.p:
        return
    for r in classify_prime_ideals(f, ell).ideals:
        if r.generating:
            assert r.symmetric
            assert len(r.factor) - 1 in (2, 4)
        if len(r.factor) - 1 == 1:
            assert not r.generating


@given(surfaces(), st.sampled_from(PRIMES))
@settings(max_examples=200)
def test_generating_matches_direct_rules(f, ell):
    """The generating flag (g symmetric and g not dividing t^2 - q) agrees
    with the closed-form rules for degrees 1, 2 and 4."""
    if ell == f.field.p:
        return
    q = f.q
    for r in classify_prime_ideals(f, ell).ideals:
        d = len(r.factor) - 1
        if d == 1:
            assert not r.generating
        elif d == 2:
            # residue field doubles over the real one iff constant term is q
            assert r.generating == (r.factor[0] == q % ell)
        elif d == 4 and r.symmetric:
            assert r.generating


def test_generating_matches_trace_minpoly_degree():
    """Every surface with q <= 11 and every prime ell < 20 other than p: the
    generating flag equals the oracle's rule, deg g = 2 deg(x + q/x)."""
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        field = pg.field_param(q)
        for f in pg.enumerate_surfaces(field):
            for ell in (2, 3, 5, 7, 11, 13, 17, 19):
                if ell == field.p:
                    continue
                for r in classify_prime_ideals(f, ell).ideals:
                    expected = r.symmetric and (
                        len(r.factor) - 1 == 2 * oracle._trace_minpoly_degree(r.factor, q, ell))
                    assert r.generating == expected, (q, f.a1, f.a2, ell, r.factor)
                    checked += 1
    assert checked > 20_000


@given(surfaces(), st.sampled_from(PRIMES))
@settings(max_examples=150)
def test_dedekind_defect_covers_all_factors(f, ell):
    pat = factor_mod_prime(f.coefficients(), ell)
    verdicts = _dedekind_defect(f.coefficients(), pat)
    assert set(verdicts) == {g for g, _ in pat.factors}
    for g, mult in pat.factors:
        if mult == 1:
            assert verdicts[g]


def test_local_computes_each_fact_once(monkeypatch, capsys):
    """One `local` query factors f and h mod ell once each and runs
    is_exceptional once."""
    from polarglue import cli, localalg

    calls = {"factor_mod_prime": 0, "is_exceptional": 0}
    for name in calls:
        original = getattr(localalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(localalg, name, counted)
    assert cli.main(["local", "--q", "11", "--a1", "-2", "--a2", "5", "--ell", "3"]) == 0
    assert calls == {"factor_mod_prime": 2, "is_exceptional": 1}
    assert '"exceptional": true' in capsys.readouterr().out
