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
    rows = list(pg.scan_pairs(F2))
    n_surfaces = len(pg.enumerate_surfaces(F2, geometrically_simple=True))
    n_elliptics = len(pg.enumerate_elliptics(F2, irreducible=True))
    assert len(rows) == n_surfaces * n_elliptics
    for row in rows:
        assert row.verdict is not None
        assert row.h_b == pg.eval_real(pg.real_weil(row.surface), row.elliptic.b)
        if row.verdict.kind is pg.VerdictKind.INCONCLUSIVE:
            assert row.verdict.failures
    keys = [(r.surface.a1, r.surface.a2, r.elliptic.b) for r in rows]
    assert keys == sorted(keys)


def test_scan_row_example():
    rows = pg.scan_pairs(F2)
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
        for row in pg.scan_pairs(field):
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
