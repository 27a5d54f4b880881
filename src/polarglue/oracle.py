"""Brute-force ground truth for the tests: trial-division factoring and
primality, Euler's-criterion quadratic characters, a d^2 | n squarefree
test, schoolbook polynomial division over Z, divisibility in
Z_ell[t]/(t^2 - q) by a square-root search, the degree of x + q/x in a
residue field by linear algebra, factoring mod ell by a search over all
roots and monic quadratics, power sums of roots by Newton's identities,
the exhaustive geometric-simplicity scan, and the per-prime verdict rule.

These routines are deliberately naive and share no code with the
engine's arithmetic in arith.py, so agreement between the two is
evidence rather than tautology.  Only the engine's trivial helpers are
reused: divmod_monic and power_sums trim zeros with polys.normalize, and
geom_simple_scan takes WeilSurface and the quartic reducibility test
_weil_quartic_reducible from weil.  Its base changes come from its own
power_sums and _elementary_from_power_sums (Newton's identities), so it
checks the engine's base changes (a Lucas recurrence on the real
companion), its choice of base-change degrees and its closed form for
ordinary surfaces.  _trace_minpoly_degree, the reference
for the generating flag of the prime ideals over ell, multiplies and
reduces with polys.mul_mod and polys.divmod_monic_mod.
trial_factor_mod_prime, the reference for localalg.factor_mod_prime,
uses polys.monic_mod, polys.degree, polys.eval_mod and
polys.divmod_monic_mod; it shares neither polys.pow_mod nor
polys.gcd_mod, on which the engine's factorisation rests.

decide_reference, the reference for gluing.decide_from_invariants and a
scan row's exceptional primes, is the per-(pair, prime) rule that the
engine replaced with per-curve and per-surface prime sets: it factors
h(b) with trial_factor, takes Delta_B from trial_squarefree_part, and
runs the engine's local tests double_root_condition and is_exceptional
afresh at every prime of every pair (and classify_p_rank once per pair),
so what it checks is how the engine assembles them.
"""

from __future__ import annotations

from math import isqrt

from .localalg import DoubleRoot, double_root_condition, is_exceptional
from .polys import degree, divmod_monic_mod, eval_mod, monic_mod, mul_mod, normalize
from .weil import (
    PRank,
    WeilElliptic,
    WeilSurface,
    _weil_quartic_reducible,
    classify_p_rank,
)


def trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of |n| != 0 by trial division up to sqrt(|n|)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    m = abs(n)
    out = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def trial_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def kronecker_at_prime(a: int, p: int) -> int:
    """(a|p) for a prime p: Euler's criterion when p is odd, the a mod 8
    definition when p = 2."""
    if p == 2:
        return 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def trial_squarefree_part(n: int) -> int:
    """n divided by its largest square divisor d^2."""
    if n == 0:
        raise ValueError("n must be nonzero")
    d = next(d for d in range(isqrt(abs(n)), 0, -1) if n % (d * d) == 0)
    return n // (d * d)


def trial_is_squarefree(n: int) -> bool:
    """No d >= 2 with d^2 | n."""
    return all(n % (d * d) for d in range(2, isqrt(abs(n)) + 1))


def divmod_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Divide f by a monic g over the integers; returns (quotient, remainder)."""
    g = normalize(g)
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - dg] = c
        for j, b in enumerate(g):
            rem[i - dg + j] -= c * b
    return normalize(quot), normalize(rem)


def ell_adic_poly_divisibility(
    f_a: list[int], f_b: list[int], ell: int, n_max: int = 12
) -> int:
    """Largest n <= n_max with f_b | f_a in (Z/ell^n)[t], by plain long division.

    Polynomials are coefficient lists by increasing power; f_b must be monic,
    so the remainder over Z reduces to the remainder mod ell^n.
    """
    _, rem = divmod_monic(f_a, f_b)
    n = 0
    while n < n_max and all(c % ell ** (n + 1) == 0 for c in rem):
        n += 1
    return n


def lambda_divisibility_by_roots(q: int, u: int, v: int, ell: int) -> tuple[bool, bool]:
    """(ell | u + v t, ell^2 | u + v t) in Z_ell[t]/(t^2 - q), odd ell not
    dividing q: try every r < ell as a square root of q; with roots, test
    u + v r against both roots and their Hensel lifts mod ell^2, else ell
    is inert and the test is on u and v themselves."""
    ell2 = ell * ell
    roots = [r for r in range(1, ell) if r * r % ell == q % ell]
    if not roots:
        return (u % ell == 0 and v % ell == 0, u % ell2 == 0 and v % ell2 == 0)
    divides = divides_square = False
    for r0 in roots:
        lift = (r0 + ell * ((q - r0 * r0) // ell * pow(2 * r0, -1, ell))) % ell2
        if (q - lift * lift) % ell2 != 0:
            raise ArithmeticError("Hensel lift failed")
        divides = divides or (u + v * r0) % ell == 0
        divides_square = divides_square or (u + v * lift) % ell2 == 0
    return (divides, divides_square)


def _trace_minpoly_degree(g: tuple[int, ...], q: int, ell: int) -> int:
    """Degree over F_ell of beta = x + q/x in the field F_ell[x]/(g), by
    linear algebra on the powers of beta.  Reference for the generating
    flag of localalg.classify_prime_ideals: a symmetric factor g generates
    exactly when deg g = 2 * (this degree)."""
    d = len(g) - 1
    if d == 1:
        return 1
    g_list = list(g)
    inv_g0 = pow(g[0], -1, ell)
    # x^{-1} = -g0^{-1} (g1 + g2 x + ... + x^{d-1})
    x_inv = [(-inv_g0 * g_list[i + 1]) % ell for i in range(d)]
    beta = [(q * c) % ell for c in x_inv]
    beta[1] = (beta[1] + 1) % ell
    basis: list[list[int]] = []

    def reduce_vec(vec: list[int]) -> list[int]:
        v = list(vec)
        for w in basis:
            piv = next(i for i, c in enumerate(w) if c)
            if v[piv]:
                c = v[piv] * pow(w[piv], -1, ell) % ell
                v = [(a - c * b) % ell for a, b in zip(v, w)]
        return v

    power = [1] + [0] * (d - 1)
    for k in range(d + 1):
        vred = reduce_vec(power)
        if not any(vred):
            return k
        basis.append(vred)
        prod = mul_mod(power, beta, ell)
        _, power = divmod_monic_mod(prod, g_list, ell)
        power = (power + [0] * d)[:d]
    return d


def trial_factor_mod_prime(
    f: list[int], ell: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Reference for localalg.factor_mod_prime: the (monic factor,
    multiplicity) pairs of a monic polynomial of degree <= 4 mod ell, in
    the order of FactorPattern.factors.

    Roots are found by exhaustive search; a rootless quartic is split (or not)
    by exhaustive monic quadratic trial division.
    """
    g = monic_mod(list(f), ell)
    if degree(g) > 4:
        raise ValueError("degree must be <= 4")
    counts: dict[tuple[int, ...], int] = {}

    def record(factor: list[int], mult: int = 1):
        key = tuple(factor)
        counts[key] = counts.get(key, 0) + mult

    for r in range(ell):
        while degree(g) >= 1 and eval_mod(g, r, ell) == 0:
            g, rem = divmod_monic_mod(g, [-r, 1], ell)
            if rem:
                raise ArithmeticError("root division left a remainder")
            record([(-r) % ell, 1])
    d = degree(g)
    if d in (2, 3):
        record(g)
    elif d == 4:
        split = None
        for u in range(ell):
            for v in range(ell):
                quot, rem = divmod_monic_mod(g, [v, u, 1], ell)
                if not rem:
                    split = ([v, u, 1], quot)
                    break
            if split:
                break
        if split:
            cand, cof = split
            if cand == cof:
                record(cand, 2)
            else:
                record(cand)
                record(cof)
        else:
            record(g)
    elif d == 1:
        raise ArithmeticError("a linear factor survived the root search")
    return tuple(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))


def power_sums(coeffs: list[int], count: int) -> list[int]:
    """Power sums p_1..p_count of the roots of a monic integer polynomial.

    Newton's identities for k <= deg, then the linear recurrence from the
    coefficients; returns a list with p_k at index k-1.
    """
    c = normalize(coeffs)
    n = len(c) - 1
    if n < 1 or c[-1] != 1:
        raise ValueError("polynomial must be monic of positive degree")
    p: list[int] = []
    for k in range(1, count + 1):
        if k <= n:
            s = -k * c[n - k]
            for i in range(1, k):
                s -= c[n - i] * p[k - i - 1]
        else:
            s = 0
            for i in range(1, n + 1):
                s -= c[n - i] * p[k - i - 1]
        p.append(s)
    return p


def _elementary_from_power_sums(p: list[int], n: int) -> list[int]:
    """First n elementary symmetric functions from power sums p_1..p_n."""
    e = [1]
    for k in range(1, n + 1):
        s = 0
        for i in range(1, k + 1):
            s += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        if s % k != 0:
            raise ArithmeticError("power sums do not come from an integral root system")
        e.append(s // k)
    return e[1:]


GEOM_SIMPLE_SCAN_BOUND = 60


def geom_simple_scan(
    f: WeilSurface, bound: int = GEOM_SIMPLE_SCAN_BOUND
) -> tuple[bool, int | None]:
    """Reference for weil.is_geometrically_simple: test every base change.

    Returns (False, m) with the smallest m <= bound whose base change to
    F_(q^m) is reducible over the rationals (m = 1 means f itself), else
    (True, None).  Its base changes come from its own power sums, not
    from the engine's Lucas recurrence; it shares only weil's quartic
    reducibility test, so what it checks is the engine's base changes,
    its choice of degrees (13 against every m <= bound) and its closed
    form for ordinary surfaces.
    """
    q, a1, a2 = f.q, f.a1, f.a2
    if _weil_quartic_reducible(a1, a2, q):
        return (False, 1)
    ps = power_sums(f.coefficients(), 4 * bound)
    for m in range(2, bound + 1):
        pm = [ps[m * k - 1] for k in range(1, 5)]
        e = _elementary_from_power_sums(pm, 4)
        c3, c2 = -e[0], e[1]
        qm = q ** m
        if e[2] != qm * e[0] or e[3] != qm * qm:
            raise ArithmeticError("base change lost the functional equation")
        if _weil_quartic_reducible(c3, c2, qm):
            return (False, m)
    return (True, None)


def decide_reference(A: WeilSurface, B: WeilElliptic) -> tuple:
    """Reference verdict for A x B with h(b) != 0, as plain values:
    ((kind, witness ell, branch, reason, ((ell, reasons), ...)),
    exceptional primes of h(b) other than p).  The double-root and
    exceptional tests run at every prime of h(b) of every pair."""
    q, p = A.q, A.field.p
    hb = B.b * B.b + A.a1 * B.b + A.a2 - 2 * q
    primes = [ell for ell, _ in trial_factor(hb)]
    flags = {ell: is_exceptional(A, ell)[0] for ell in primes if ell != p}
    exceptional = tuple(ell for ell, flag in flags.items() if flag)
    if abs(hb) == 1:
        return ("no_irreducible_pp", None, None, "hb_unit", ()), exceptional
    rank_a, rank_b = classify_p_rank(A), classify_p_rank(B)
    d0 = trial_squarefree_part(B.b * B.b - 4 * q)
    delta = d0 if d0 % 4 == 1 else 4 * d0
    failures = []
    for ell in primes:
        reasons = []
        branch = None
        if ell == p:
            if rank_b is PRank.ORDINARY or rank_a is PRank.MIXED:
                branch = "p_branch"
            else:
                reasons.append(
                    "p-branch needs an ordinary elliptic curve, or a "
                    "supersingular one against a mixed surface"
                )
        else:
            if delta == -ell:
                reasons.append(f"Delta_B = {delta} equals -ell")
            status, t1 = double_root_condition(B, ell)
            if status is DoubleRoot.FAILS:
                value = t1 * t1 - B.b * t1 + q
                reasons.append(
                    f"double root t1 = {t1}: {ell}^2 does not divide f_B(t1) = {value}"
                )
            if flags[ell] and rank_a is not PRank.ORDINARY:
                reasons.append(f"{ell} is exceptional but the surface is {rank_a.value}")
            if not reasons:
                if flags[ell]:
                    branch = "exceptional"
                elif status is DoubleRoot.SATISFIED:
                    branch = "reducible_mod_l"
                else:
                    branch = "generic"
        if branch is not None:
            return ("irreducible_pp_exists", ell, branch, None, ()), exceptional
        failures.append((ell, tuple(reasons)))
    return ("inconclusive", None, None, None, tuple(failures)), exceptional
