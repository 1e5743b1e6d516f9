"""Independent oracles the tests use to compute expected values.

These deliberately avoid the library's own code paths: factoring is plain
trial division, containment is exhaustive subset enumeration (in an etale
algebra over is_square, so only the one-element case of span_contains is
shared), the group law
oracle divides the intersection cubic by its known roots instead of using
the slope formulas, and j comes from the cross-ratio of the roots.
"""

from fractions import Fraction

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
    2-torsion point outside the cyclic factor.  It shares only factor(),
    integer_roots_monic_cubic() and the group law with the library, each
    tested on its own; torsion_subgroup() itself uses none of the first two.
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
        for x in P.integer_roots_monic_cubic(a, b, c - y * y):
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
