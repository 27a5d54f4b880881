from itertools import chain

import polarglue as pg
from polarglue import oracle
from polarglue.enumeration import trace_occurs

F2 = pg.field_param(2)
F4 = pg.field_param(4)


def test_surface_enumeration_examples():
    filtered = [(f.a1, f.a2) for f in
                pg.enumerate_surfaces(F2, ordinary=True, geometrically_simple=True)]
    assert (1, 1) in filtered
    assert (0, 1) not in filtered  # splits over F_4 as a square
    assert all(a2 % 2 == 1 for _, a2 in
               ((f.a1, f.a2) for f in pg.enumerate_surfaces(F2, ordinary=True)))


def test_surface_enumeration_is_sorted_and_validated():
    all_surfaces = pg.enumerate_surfaces(F2)
    keys = [(f.a1, f.a2) for f in all_surfaces]
    assert keys == sorted(keys)
    for f in all_surfaces:
        assert pg.make_surface(F2, f.a1, f.a2) == f


def test_elliptic_enumeration_examples():
    assert [e.b for e in pg.enumerate_elliptics(F2, irreducible=True)] == [-2, -1, 0, 1, 2]
    bs4 = [e.b for e in pg.enumerate_elliptics(F4, irreducible=True)]
    assert 4 not in bs4 and -4 not in bs4
    admissible = [e.b for e in pg.enumerate_elliptics(F4, admissible=True)]
    assert 0 in admissible and 2 in admissible and -2 in admissible


def test_trace_occurrence_table():
    # q = 4: p = 2 is 3 mod 4 and 2 mod 3, so 0 and +-sqrt(q) all occur
    assert trace_occurs(F4, 0) and trace_occurs(F4, 2) and trace_occurs(F4, 4)
    # q = 25: p = 1 mod 4 and p = 2 mod 3
    F25 = pg.field_param(25)
    assert not trace_occurs(F25, 0)
    assert trace_occurs(F25, 5)
    F49 = pg.field_param(49)  # p = 1 mod 3
    assert not trace_occurs(F49, 7)
    assert trace_occurs(F49, 14)
    # odd a with p in {2, 3}
    F8 = pg.field_param(8)
    assert trace_occurs(F8, 4) and not trace_occurs(F8, 2)
    F27 = pg.field_param(27)
    assert trace_occurs(F27, 9) and not trace_occurs(F27, 3)
    assert trace_occurs(F27, 0)


def test_monotone_filters():
    base = {(f.a1, f.a2) for f in pg.enumerate_surfaces(F2)}
    ordinary = {(f.a1, f.a2) for f in pg.enumerate_surfaces(F2, ordinary=True)}
    both = {(f.a1, f.a2) for f in
            pg.enumerate_surfaces(F2, ordinary=True, geometrically_simple=True)}
    assert both <= ordinary <= base
    irr = {e.b for e in pg.enumerate_elliptics(F2, irreducible=True)}
    assert irr <= {e.b for e in pg.enumerate_elliptics(F2)}


def test_scan_shape_and_totality():
    rows = list(chain.from_iterable(pg.scan_pairs(F2)))
    n_surfaces = len(pg.enumerate_surfaces(F2, geometrically_simple=True))
    n_elliptics = len(pg.enumerate_elliptics(F2, irreducible=True))
    assert len(rows) == n_surfaces * n_elliptics
    for row in rows:
        assert row.verdict is not None
        assert row.h_b == row.surface.h(row.elliptic.b)
        if row.verdict.kind is pg.VerdictKind.INCONCLUSIVE:
            assert row.verdict.failures
    keys = [(r.surface.a1, r.surface.a2, r.elliptic.b) for r in rows]
    assert keys == sorted(keys)


def test_scan_row_example():
    rows = chain.from_iterable(pg.scan_pairs(F2))
    row = next(r for r in rows
               if (r.surface.a1, r.surface.a2, r.elliptic.b) == (1, 1, 0))
    assert row.verdict.kind is pg.VerdictKind.IRREDUCIBLE_PP_EXISTS
    assert row.verdict.witness_ell == 3
    assert row.h_b == -3
    assert row.surface_p_rank is pg.PRank.ORDINARY
    assert row.elliptic_p_rank is pg.PRank.SUPERSINGULAR


def test_scan_rows_match_decide():
    """The cached scan gives every row the verdict decide gives the pair,
    and lists exactly the exceptional primes of h(b)."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = pg.field_param(q)
        for row in chain.from_iterable(pg.scan_pairs(field)):
            assert row.verdict == pg.decide(row.surface, row.elliptic), row
            primes = [ell for ell, _ in oracle.trial_factor(row.h_b)]
            assert row.exceptional_primes == tuple(
                ell for ell in primes
                if ell != field.p and pg.is_exceptional(row.surface, ell)[0]
            ), row


def test_scan_is_deterministic():
    assert list(pg.scan_pairs(F2)) == list(pg.scan_pairs(F2))


def test_enumeration_is_complete():
    """Nothing inside the coefficient box validates without being listed."""
    from polarglue.weil import OutOfWeilBounds

    listed = {(f.a1, f.a2) for f in pg.enumerate_surfaces(F2)}
    q = F2.q
    for a1 in range(-12, 13):
        for a2 in range(-4 * q, 6 * q + 1):
            try:
                pg.make_surface(F2, a1, a2)
            except OutOfWeilBounds:
                assert (a1, a2) not in listed
            else:
                assert (a1, a2) in listed


DECIDE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)


def _row_values(row):
    """A scan row in the plain shape of oracle.decide_reference."""
    v = row.verdict
    verdict = (
        v.kind.value, v.witness_ell, v.branch and v.branch.value,
        v.reason and v.reason.value, tuple((f.ell, f.reasons) for f in v.failures),
    )
    return verdict, row.exceptional_primes


def test_scan_rows_match_decide_reference_exhaustively():
    """Every scan row over the test fields q <= 49 has the verdict (kind,
    witness, branch, reason and failure texts) and the exceptional primes
    of the per-(pair, prime) reference, which reruns the local tests at
    every prime of h(b) instead of reading the per-curve and per-surface
    prime sets."""
    rows = 0
    for q in DECIDE_FIELDS:
        for row in chain.from_iterable(pg.scan_pairs(pg.field_param(q))):
            want = oracle.decide_reference(row.surface, row.elliptic)
            assert _row_values(row) == want, row
            rows += 1
    assert rows > 100_000


def test_quadratic_twins_decide_alike():
    """(a1, a2, b) and (-a1, a2, -b) are quadratic twists of each other
    (f(t) -> f(-t)), so both rows are present and agree on h(b), p-ranks,
    exceptional primes and every decision field.  Only the failure texts
    may differ, since the printed double root t1 = b/2 mod ell changes
    sign with b; the failing primes must agree."""
    for q in (q for q in DECIDE_FIELDS if q <= 27):
        rows = {
            (r.surface.a1, r.surface.a2, r.elliptic.b): r
            for r in chain.from_iterable(pg.scan_pairs(pg.field_param(q)))
        }
        for (a1, a2, b), row in rows.items():
            twin = rows[(-a1, a2, -b)]
            v, w = row.verdict, twin.verdict
            assert (row.h_b, row.surface_p_rank, row.elliptic_p_rank,
                    row.exceptional_primes) == (twin.h_b, twin.surface_p_rank,
                                                twin.elliptic_p_rank, twin.exceptional_primes)
            assert (v.kind, v.witness_ell, v.branch, v.reason) == (
                w.kind, w.witness_ell, w.branch, w.reason), (q, a1, a2, b)
            assert [f.ell for f in v.failures] == [f.ell for f in w.failures]


COLUMN_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 49)


def test_scan_columns_agree_with_per_pair_rows(monkeypatch):
    """scan_pairs reads the verdict of a surface with no exceptional prime
    from a column per (p-rank, elliptic curve) indexed by h(b).  For every
    prime power q <= 32 and q = 49, each block equals, field by field
    (exceptional primes in order too), the rows of the per-pair path the
    columns replace: evaluate_pair on every pair, with invariants and a
    factoring memo of its own.

    At q = 49 decide_from_invariants runs exactly once per (p-rank, b,
    h(b)) on surfaces without exceptional primes.  Rows alone cannot show
    a column shared across p-ranks: no scanned pair has p | h(b) with an
    ordinary surface and a supersingular curve, the one case where the
    p-rank decides."""
    from collections import Counter

    from polarglue import gluing
    from polarglue.gluing import EllipticInvariants, SurfaceInvariants, evaluate_pair

    decided, slots = Counter(), set()
    decide = gluing.decide_from_invariants

    def counting(A, B, hb):
        if not A.exceptional:
            b = B.elliptic.b
            decided[A.p_rank, b, A.surface.h(b)] += 1
        return decide(A, B, hb)

    for q in COLUMN_FIELDS:
        field = pg.field_param(q)
        if q == 49:
            monkeypatch.setattr(gluing, "decide_from_invariants", counting)
        blocks = list(pg.scan_pairs(field))
        monkeypatch.undo()
        memo: dict = {}
        elliptics = [EllipticInvariants.of(B, memo)
                     for B in pg.enumerate_elliptics(field, irreducible=True)]
        surfaces = pg.enumerate_surfaces(field, geometrically_simple=True)
        assert [block[0].surface for block in blocks] == surfaces, q
        for A, block in zip(surfaces, blocks):
            surface = SurfaceInvariants.of(A, memo)
            assert block == [evaluate_pair(surface, B, memo) for B in elliptics], (q, A)
            if q == 49 and not surface.exceptional:
                slots.update((row.surface_p_rank, row.elliptic.b, row.h_b) for row in block)
    assert slots and decided == Counter(slots)
