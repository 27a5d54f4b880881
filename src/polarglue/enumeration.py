"""Exhaustive generation of admissible Weil data over a fixed F_q and
batch application of the verdict engine."""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from .gluing import EllipticInvariants, ScanRow, SurfaceInvariants, evaluate_pair
from .weil import (
    FieldParam,
    PRank,
    WeilElliptic,
    WeilSurface,
    classify_p_rank,
    is_geometrically_simple,
    make_elliptic,
    make_surface,
)


def enumerate_surfaces(
    field: FieldParam,
    ordinary: bool | None = None,
    geometrically_simple: bool | None = None,
) -> list[WeilSurface]:
    """All (a1, a2) passing the root-location bounds, in lexicographic order.

    Filters are tri-state: None keeps everything, True/False select the
    matching class.  Every candidate goes back through make_surface.
    """
    q = field.q
    out = []
    bound1 = isqrt(16 * q)
    for a1 in range(-bound1, bound1 + 1):
        # 2|a1|sqrt(q) - 2q <= a2 <= a1^2/4 + 2q, with an exact ceiling
        m = isqrt(4 * a1 * a1 * q)
        low = (m if m * m == 4 * a1 * a1 * q else m + 1) - 2 * q
        high = a1 * a1 // 4 + 2 * q
        for a2 in range(low, high + 1):
            f = make_surface(field, a1, a2)
            if ordinary is not None:
                if (classify_p_rank(f) is PRank.ORDINARY) != ordinary:
                    continue
            if geometrically_simple is not None:
                if is_geometrically_simple(f)[0] != geometrically_simple:
                    continue
            out.append(f)
    return out


def trace_occurs(field: FieldParam, b: int) -> bool:
    """Classical occurrence conditions for elliptic traces over F_q.

    This is standard Honda-Tate / Waterhouse data, not something derived
    here: traces prime to p always occur, and the p-divisible ones occur
    exactly in the listed square / non-square configurations.
    """
    q, p, a = field.q, field.p, field.a
    if b * b > 4 * q:
        return False
    if b % p != 0:
        return True
    if a % 2 == 0:
        s = field.sqrt_q
        if b in (2 * s, -2 * s):
            return True
        if b in (s, -s) and p % 3 != 1:
            return True
        if b == 0 and p % 4 != 1:
            return True
        return False
    if b == 0:
        return True
    if p in (2, 3) and b * b == p ** (a + 1):
        return True
    return False


def enumerate_elliptics(
    field: FieldParam,
    irreducible: bool | None = None,
    admissible: bool | None = None,
) -> list[WeilElliptic]:
    """All traces b with b^2 <= 4q, optionally filtered, in increasing order."""
    q = field.q
    out = []
    for b in range(-isqrt(4 * q), isqrt(4 * q) + 1):
        e = make_elliptic(field, b)
        if irreducible is not None and e.irreducible != irreducible:
            continue
        if admissible is not None and trace_occurs(field, b) != admissible:
            continue
        out.append(e)
    return out


def scan_pairs(field: FieldParam) -> Iterator[list[ScanRow]]:
    """Decide every (geometrically simple surface) x (irreducible elliptic)
    pair over F_q; yields one block per surface, the list of its rows in
    increasing b, so the rows run in lexicographic (a1, a2, b) order.

    One serial pass: elliptic invariants before the pair loop, surface
    invariants once per surface, and one memo for b^2 - 4q, disc(h_A) and
    h(b), so each integer is factored once per scan.

    A verdict reads the surface only through its p-rank and its
    exceptional set, so a surface with no exceptional prime reads its
    verdicts from one column per (p-rank, B), a list indexed by h(b):
    h(b) = (b - t1)(b - t2) with b, t1 and t2 in [-2 sqrt q, 2 sqrt q]
    lies in [-4q, 16q].  The first row to miss a slot fills it through
    evaluate_pair.  A slot is 8 bytes pointing at a shared verdict.
    Surfaces with an exceptional prime call evaluate_pair for every row.
    Pools of threads or processes measured slower, since the work is pure
    Python.
    """
    q = field.q
    factored: dict = {}
    elliptics = [
        EllipticInvariants.of(B, factored) for B in enumerate_elliptics(field, irreducible=True)
    ]
    # keyed on id(p_rank) (members live forever): hashing an Enum runs Python code
    columns: dict[int, list[list]] = {}
    for A in enumerate_surfaces(field, geometrically_simple=True):
        surface = SurfaceInvariants.of(A, factored)
        if surface.exceptional:
            yield [evaluate_pair(surface, B, factored) for B in elliptics]
            continue
        rank, a1, c = surface.p_rank, A.a1, A.a2 - 2 * q
        if (family := columns.get(id(rank))) is None:
            family = columns[id(rank)] = [[None] * (20 * q + 1) for _ in elliptics]
        block = []
        for B, column in zip(elliptics, family):
            E = B.elliptic
            h_b = E.b * (E.b + a1) + c
            if (v := column[h_b + 4 * q]) is None:
                row = evaluate_pair(surface, B, factored)
                column[h_b + 4 * q] = row.verdict
            else:
                row = ScanRow(A, E, h_b, v, rank, B.p_rank, ())
            block.append(row)
        yield block
