"""Independent oracles the tests use to compute expected values.

These deliberately avoid the library's own code paths: factoring is plain
trial division, containment is exhaustive subset enumeration (in an etale
algebra over is_square, so only the one-element case of span_contains is
shared), the group law
oracle divides the intersection cubic by its known roots instead of using
the slope formulas, j comes from the cross-ratio of the roots, and integer
roots of cubics come from sign bisection instead of a p-adic lift.  The
point pool the tests draw from is a naive search over small heights.
"""

from fractions import Fraction
from math import gcd, isqrt

import mwglue.poly as P


def trial_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_square_class(q) -> tuple[bool, tuple[int, ...]]:
    q = Fraction(q)
    counts: dict[int, int] = {}
    for part in (abs(q.numerator), q.denominator):
        for p, e in trial_factor(part).items():
            counts[p] = counts.get(p, 0) + e
    return q < 0, tuple(sorted(p for p, e in counts.items() if e % 2))


def brute_force_contains(generators, target) -> bool:
    """Exhaustive check over all 2^k subset products."""
    from mwglue.arith import SquareClassTriple

    k = len(generators)
    for mask in range(1 << k):
        acc = SquareClassTriple.trivial()
        for i in range(k):
            if mask >> i & 1:
                acc = acc * generators[i]
        if acc == target:
            return True
    return False


def subset_search_contains(algebra, span, target, bounds):
    """Span containment in an etale algebra by 2^k squareness tests: the
    target times each subset product of the span is passed to is_square.

    Returns ("contained", subset) at the first square, ("not_contained",
    None) when every product is certified non-square, else ("unknown",
    None).
    """
    from mwglue.etale import NonSquare, Square, is_square

    k = len(span)
    unresolved = False
    for mask in range(1 << k):
        elem = target
        for i in range(k):
            if mask >> i & 1:
                elem = elem * span[i]
        decision = is_square(algebra, elem, bounds)
        if isinstance(decision, Square):
            return "contained", tuple(i for i in range(k) if mask >> i & 1)
        if not isinstance(decision, NonSquare):
            unresolved = True
    return ("unknown" if unresolved else "not_contained"), None


def chord_tangent_sum(curve, a, b):
    """A + B computed by dividing the intersection cubic by its known roots.

    Only usable when the connecting line is not vertical; the tests choose
    their inputs accordingly.
    """
    f = curve.f_poly()
    if (a.x, a.y) == (b.x, b.y):
        assert a.y != 0
        m = curve.f_derivative_at(a.x) / (2 * a.y)
    else:
        assert a.x != b.x
        m = (b.y - a.y) / (b.x - a.x)
    c = a.y - m * a.x
    line = P.poly([c, m])
    cubic = P.sub(f, P.mul(line, line))
    q, r = P.divmod_poly(cubic, P.poly([-a.x, 1]))
    assert r == P.ZERO
    q, r = P.divmod_poly(q, P.poly([-b.x, 1]))
    assert r == P.ZERO
    x3 = -q[0] / q[1]
    y3 = -(m * x3 + c)
    return x3, y3


def lambda_j(r1, r2, r3) -> Fraction:
    """j from the cross-ratio of the three roots: 256 (l^2-l+1)^3 / (l^2 (l-1)^2)."""
    r1, r2, r3 = Fraction(r1), Fraction(r2), Fraction(r3)
    lam = (r3 - r1) / (r2 - r1)
    return 256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)


def scan_nonresidue(f_int_coeffs: list[int], elem_int_coeffs: list[int], p: int):
    """First (root, value) with f(root) = 0 mod p and elem(root) a non-residue.

    Roots are scanned in increasing order; residues are recognized against
    the exhaustive set of squares mod p.
    """
    squares = {x * x % p for x in range(p)}

    def ev(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    for r in range(p):
        if ev(f_int_coeffs, r) == 0:
            v = ev(elem_int_coeffs, r)
            if v and v not in squares:
                return r, v
    return None


def naive_congruence_primes(l1: int, l2: int, bound: int, count: int) -> list[int]:
    """Primes p <= bound with p = l1+1 mod l1^2 and p = l2-1 mod l2^2."""
    out = []
    for n in range(2, bound + 1):
        if n % l1**2 == (l1 + 1) % l1**2 and n % l2**2 == (l2 - 1) % l2**2:
            if trial_is_prime(n):
                out.append(n)
                if len(out) == count:
                    break
    return out


def bisect_cubic_roots(a: int, b: int, c: int) -> list[int]:
    """All integer roots of x^3 + a x^2 + b x + c, repeated roots included.

    Exact sign bisection on the monotone pieces between the critical points;
    integers adjacent to the critical points are probed directly so repeated
    roots are not missed.
    """

    def g(x: int) -> int:
        return ((x + a) * x + b) * x + c

    m = 1 + max(abs(a), abs(b), abs(c))  # Cauchy bound for real roots
    cuts = {-m, m}
    d = a * a - 3 * b
    if d > 0:
        r = isqrt(d)
        for s in (-1, 1):
            k = (-a + s * r) // 3
            for t in (k - 1, k, k + 1, k + 2):
                if -m < t < m:
                    cuts.add(t)
    ordered = sorted(cuts)
    roots = set()
    for lo, hi in zip(ordered, ordered[1:]):
        glo, ghi = g(lo), g(hi)
        if glo == 0:
            roots.add(lo)
        if ghi == 0:
            roots.add(hi)
        if (glo < 0 < ghi) or (ghi < 0 < glo):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                gm = g(mid)
                if gm == 0:
                    roots.add(mid)
                    break
                if (gm < 0) == (glo < 0):
                    lo, glo = mid, gm
                else:
                    hi, ghi = mid, gm
    return sorted(roots)


def search_points(curve, bound: int) -> list:
    """All affine points of the curve with x = a/d^2, |a| <= bound,
    1 <= d <= bound.

    The parameterization is applied on the integral model, where every
    rational point has an x-coordinate of this shape.
    """
    from mwglue.ellcurve import ECPoint

    if bound < 1:
        raise ValueError("bound must be positive")
    model, u = curve.integral_model()
    found = set()
    for d in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, d) != 1:
                continue
            x = Fraction(a, d * d)
            y = P.sqrt_fraction(model.f_at(x))
            if y is None:
                continue
            found.add(ECPoint.affine(x / u**2, y / u**3))
            if y:
                found.add(ECPoint.affine(x / u**2, -y / u**3))
    return sorted(found, key=_torsion_key)


def _torsion_key(pt):
    return (0, 0, 0) if pt.is_infinity else (1, pt.x, pt.y)


def lutz_nagell_torsion(curve):
    """Reference torsion subgroup as (invariants, generators, points).

    Lutz-Nagell on the integral model: a torsion point there is integral with
    y = 0 or y^2 dividing the discriminant.  Every such y gives a cubic in x
    whose integer roots are candidates, and a candidate is kept when its
    multiples reach O within 12 steps (Mazur) while staying integral.  The
    structure and generators follow the library's documented choice: the
    smallest point of maximal order, and for full 2-torsion the smallest
    2-torsion point outside the cyclic factor.  It shares only factor() and
    the group law with the library, each tested on its own; its cubic roots
    come from bisect_cubic_roots(), and torsion_subgroup() does not factor.
    """
    from mwglue.arith import factor
    from mwglue.ellcurve import INFINITY, ECPoint

    model, u = curve.integral_model()
    a, b, c = int(model.c2), int(model.c1), int(model.c0)
    half = 1
    for p, e in factor(abs(int(model.discriminant))).items():
        half *= p ** (e // 2)
    ys = [1]
    for p, e in factor(half).items():
        ys = [d * p**k for d in ys for k in range(e + 1)]
    candidates = set()
    for y in [0] + ys:
        for x in bisect_cubic_roots(a, b, c - y * y):
            candidates.update((ECPoint.affine(x, y), ECPoint.affine(x, -y)))
    points = [INFINITY]
    for cand in candidates:
        q = cand
        for _ in range(12):
            if q.x.denominator != 1 or q.y.denominator != 1:
                break
            q = model.add(q, cand)
            if q.is_infinity:
                points.append(cand)
                break
    points = sorted(
        (q if q.is_infinity else ECPoint.affine(q.x / u**2, q.y / u**3) for q in points),
        key=_torsion_key,
    )

    def order(pt):
        n, q = 1, pt
        while not q.is_infinity:
            q, n = curve.add(q, pt), n + 1
        return n

    n = len(points)
    if n == 1:
        return (), (), tuple(points)
    two = [pt for pt in points if not pt.is_infinity and pt.y == 0]
    if len(two) == 3:
        if n == 4:
            return (2, 2), (two[0], two[1]), tuple(points)
        g1 = next(pt for pt in points if order(pt) == n // 2)
        inner = curve.mul(n // 4, g1)
        g2 = next(t for t in two if t != inner)
        return (2, n // 2), (g2, g1), tuple(points)
    g = next(pt for pt in points if order(pt) == n)
    return (n,), (g,), tuple(points)


def count_points_mod(coeffs, q: int) -> int:
    """#E(F_q) for y^2 = x^3 + c2 x^2 + c1 x + c0 by listing every (x, y)."""
    c0, c1, c2 = (int(c) % q for c in coeffs)
    return 1 + sum(
        1
        for x in range(q)
        for y in range(q)
        if (y * y - (x * x * x + c2 * x * x + c1 * x + c0)) % q == 0
    )
