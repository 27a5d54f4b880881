"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Run with `pytest -s tests/test_acceptance.py`
to see the lines."""

import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import jsonschema

import polarglue as pg
from polarglue import oracle, polys
from polarglue.gluing import Branch, Obstruction, VerdictKind
from polarglue.localalg import SplittingType, dedekind_is_maximal, is_exceptional, splitting_in_real_subfield
from polarglue.weil import fundamental_discriminant_of

REPO = Path(__file__).resolve().parent.parent
SCAN_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def _report(criterion: int, detail: str, elapsed: float, budget: float | None):
    line = f"ACCEPTANCE {criterion} PASS: {detail} [{elapsed:.2f}s"
    line += f" < {budget:.0f}s]" if budget else "]"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def _random_surface(rng: random.Random) -> pg.WeilSurface:
    field = pg.field_param(rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25)))
    q = field.q
    while True:
        a1 = rng.randint(-math.isqrt(16 * q), math.isqrt(16 * q))
        m = math.isqrt(4 * a1 * a1 * q)
        low = (m if m * m == 4 * a1 * a1 * q else m + 1) - 2 * q
        high = a1 * a1 // 4 + 2 * q
        if low <= high:
            return pg.make_surface(field, a1, rng.randint(low, high))


def test_criterion_1_division_identity():
    """500 random (surface, r) pairs satisfy the exact division identity."""
    rng = random.Random(20240817)
    start = time.monotonic()
    for _ in range(500):
        f = _random_surface(rng)
        r = rng.randint(-60, 60)
        q = f.q
        h_r = f.h(r)
        _, rem = oracle.divmod_monic(
            polys.sub(f.coefficients(), [0, 0, h_r]), [q, -r, 1])
        assert rem == [], (f, r)
        _, rem2 = oracle.divmod_monic(f.coefficients(), [q, -r, 1])
        assert rem2 == polys.normalize([-q * h_r, r * h_r]), (f, r)
    _report(1, "500 exact division identities", time.monotonic() - start, 1.0)


def test_criterion_2_gluing_exponent_oracle_equivalence():
    """v_ell(|h(b)|) equals mod-ell^n polynomial divisibility, exhaustively
    over q in {2,3,5}, all geometrically simple ordinary surfaces, all
    irreducible elliptic traces, all primes ell <= 50, ell != p."""
    start = time.monotonic()
    primes = [p for p in range(2, 51) if oracle.trial_is_prime(p)]
    checked = 0
    for q in (2, 3, 5):
        field = pg.field_param(q)
        surfaces = pg.enumerate_surfaces(field, ordinary=True, geometrically_simple=True)
        elliptics = pg.enumerate_elliptics(field, irreducible=True)
        for A in surfaces:
            f_a = A.coefficients()
            for B in elliptics:
                hb = abs(A.h(B.b))
                for ell in primes:
                    if ell == field.p:
                        continue
                    v, n = 0, hb
                    while n % ell == 0:
                        n //= ell
                        v += 1
                    assert v == oracle.ell_adic_poly_divisibility(
                        f_a, B.coefficients(), ell, 12), (q, A, B.b, ell)
                    checked += 1
    _report(2, f"{checked} valuation comparisons, zero mismatches",
            time.monotonic() - start, 30.0)


def test_criterion_3_exceptional_prime_consistency():
    """Every exceptional detection over q <= 13 satisfies the square
    discriminant divisor, inertness, non-maximality of Z[t]/h, and the
    square-root congruences whenever ell divides h(b).

    The congruence against an enumerated trace b is checked in its provable
    form: ell^2 | h(b), f_A = f_B^2 mod ell, and f_A = f0^2 mod ell^2 for
    the exceptional square root f0 = f_B mod ell.  (The coefficientwise
    f_A = f_B^2 mod ell^2 fails already at q=11, (a1,a2)=(-2,5), b=4.)"""
    start = time.monotonic()
    detections = []
    for q in SCAN_FIELDS:
        field = pg.field_param(q)
        elliptics = pg.enumerate_elliptics(field, irreducible=True)
        for A in pg.enumerate_surfaces(field):
            disc = A.real_discriminant()
            for ell in (2, 3, 5, 7, 11, 13):
                if ell == field.p or disc % (ell * ell) != 0:
                    continue
                flag, witness = is_exceptional(A, ell)
                if not flag:
                    continue
                detections.append((q, A.a1, A.a2, ell))
                assert disc % (ell * ell) == 0
                assert splitting_in_real_subfield(disc, ell) is SplittingType.INERT
                assert not dedekind_is_maximal(A.real_coefficients(), ell)
                for B in elliptics:
                    hb = A.h(B.b)
                    if hb % ell != 0:
                        continue
                    assert hb % (ell * ell) == 0, (q, A, ell, B.b)
                    diff = polys.sub(A.coefficients(),
                                     polys.mul(B.coefficients(), B.coefficients()))
                    assert all(c % ell == 0 for c in diff), (q, A, ell, B.b)
                    assert polys.reduce_mod(B.coefficients(), ell) == \
                        [c % ell for c in witness], (q, A, ell, B.b)
                    square = polys.mul_mod(list(witness), list(witness), ell * ell)
                    assert square == polys.reduce_mod(A.coefficients(), ell * ell)
    assert (11, -2, 5, 3) in detections, "named exceptional instance not detected"
    _report(3, f"{len(detections)} exceptional detections, zero violations",
            time.monotonic() - start, 10.0)


def test_criterion_4_converse_enforcement():
    """Across the full scan, |h(b)| = 1 never carries an existence verdict
    and every existence witness divides h(b)."""
    start = time.monotonic()
    rows = 0
    for q in SCAN_FIELDS:
        for row in chain.from_iterable(pg.scan_pairs(pg.field_param(q))):
            rows += 1
            assert row.verdict is not None
            if abs(row.h_b) == 1:
                assert row.verdict.kind is VerdictKind.NO_IRREDUCIBLE_PP, row
            if row.verdict.kind is VerdictKind.IRREDUCIBLE_PP_EXISTS:
                assert abs(row.h_b) > 1, row
                assert row.h_b % row.verdict.witness_ell == 0, row
    _report(4, f"{rows} scan rows, zero converse violations",
            time.monotonic() - start, None)


def test_criterion_5_hl_valuation_coherence():
    """Squarefree h(2s) forces zero gluing valuation at every odd divisor,
    and the two pinned q=4 instances behave as recorded."""
    start = time.monotonic()
    checked = 0
    for q in (4, 9):
        field = pg.field_param(q)
        s = field.sqrt_q
        for A in pg.enumerate_surfaces(field, ordinary=True):
            h2s = A.h(2 * s)
            if not oracle.trial_is_squarefree(h2s):
                continue
            assert pg.hl_obstruction(A, s, 1) is Obstruction.OBSTRUCTED
            for ell, _ in oracle.trial_factor(h2s):
                if ell == field.p:
                    continue
                assert pg.ss_quadratic_gluing_valuation(A, s, ell) == 0, (q, A, ell)
                checked += 1
    F4 = pg.field_param(4)
    assert pg.hl_obstruction(pg.make_surface(F4, 1, 1), 2, 1) is Obstruction.OBSTRUCTED
    assert pg.hl_obstruction(pg.make_surface(F4, 1, -3), 2, 1) is Obstruction.NO_CONCLUSION
    assert pg.ss_quadratic_gluing_valuation(pg.make_surface(F4, 1, -3), 2, 3) == 1
    _report(5, f"{checked} zero valuations plus pinned q=4 instances",
            time.monotonic() - start, None)


def test_criterion_6_dedekind_vs_discriminant_oracle():
    """Exhaustive agreement on monic quadratics with |coefficients| <= 50
    at ell in {2,3,5,7,11,13}."""
    start = time.monotonic()
    ells = (2, 3, 5, 7, 11, 13)
    mismatches = 0
    for c in range(-50, 51):
        for d in range(-50, 51):
            disc = c * c - 4 * d
            if disc == 0:
                by_disc = {ell: False for ell in ells}
            else:
                index_sq = disc // fundamental_discriminant_of(disc)
                index = math.isqrt(index_sq)
                assert index * index == index_sq
                by_disc = {ell: index % ell != 0 for ell in ells}
            for ell in ells:
                if dedekind_is_maximal([d, c, 1], ell) != by_disc[ell]:
                    mismatches += 1
    assert mismatches == 0
    _report(6, "61206 quadratic maximality decisions, zero mismatches",
            time.monotonic() - start, 10.0)


def test_criterion_7_named_instances():
    """The four pinned decisions."""
    start = time.monotonic()
    F2, F7, F11 = pg.field_param(2), pg.field_param(7), pg.field_param(11)
    v = pg.decide(pg.make_surface(F2, 1, 1), pg.make_elliptic(F2, 0))
    assert (v.kind, v.witness_ell) == (VerdictKind.IRREDUCIBLE_PP_EXISTS, 3)
    v = pg.decide(pg.make_surface(F2, 1, 1), pg.make_elliptic(F2, 1))
    assert v.kind is VerdictKind.NO_IRREDUCIBLE_PP
    v = pg.decide(pg.make_surface(F11, -2, 5), pg.make_elliptic(F11, 4))
    assert (v.kind, v.witness_ell, v.branch) == (
        VerdictKind.IRREDUCIBLE_PP_EXISTS, 3, Branch.EXCEPTIONAL)
    v = pg.decide(pg.make_surface(F7, -2, 2), pg.make_elliptic(F7, 5))
    assert v.kind is VerdictKind.INCONCLUSIVE
    _report(7, "4 decisions reproduced",
            time.monotonic() - start, None)


def test_criterion_8_cli_determinism_and_schema():
    """scan --q 2 is byte-identical across runs, fast, and schema-valid."""
    start = time.monotonic()
    env = dict(os.environ)
    env.pop("POLARGLUE_CONFIG", None)

    def scan():
        return subprocess.run(
            [sys.executable, "-m", "polarglue.cli", "scan", "--q", "2"],
            capture_output=True, env=env, check=True).stdout

    first = scan()
    second = scan()
    assert first == second
    schema = json.loads((REPO / "schemas" / "output.v1.json").read_text())
    records = json.loads(first)
    for rec in records:
        jsonschema.validate(rec, schema)
    _report(8, f"two byte-identical scans, {len(records)} schema-valid records",
            time.monotonic() - start, 10.0)
