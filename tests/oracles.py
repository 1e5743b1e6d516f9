"""Independent oracles the tests use to compute expected values.

These deliberately avoid the library's own code paths: factoring is plain
trial division, containment is exhaustive subset enumeration (in an etale
algebra over is_square, so only the one-element case of span_contains is
shared), the group law
oracle divides the intersection cubic by its known roots instead of using
the slope formulas, j comes from the cross-ratio of the roots, the
Fraction-only fraction_add, fraction_mul and fraction_j check the library's
int arithmetic against the plain formulas, and integer
roots of cubics come from sign bisection instead of a p-adic lift, and an
etale algebra element is lifted to Q[x]/(f) by the Chinese remainder theorem
instead of being mapped component by component, and a gluing's root
mapping and bijectivity are decided by reducing g(h) mod f and by a
determinant instead of by pairing components.  The division, gcd,
substitution and determinant those oracles need are written out here over
Fractions, so that they share none of the arithmetic of etale, glue and
squares, which they check.  The point pool the tests draw from is a naive
search over small heights.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

import mwglue.poly as P


def exact(value) -> Fraction:
    """An int, a poly.Rational or a Fraction as a Fraction, for the oracles'
    own arithmetic: fractions.Fraction() does not take a poly.Rational."""
    return Fraction(value.numerator, value.denominator)


def _fractions(p) -> list[Fraction]:
    """The coefficients of p as Fractions, trailing zeros dropped."""
    out = [exact(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def divmod_poly(p, q) -> tuple[P.Poly, P.Poly]:
    """(quotient, remainder) of p by q != 0, cancelling the leading term of
    the remainder until its degree drops below that of q."""
    r, q = _fractions(p), _fractions(q)
    quot = [Fraction(0)] * max(len(r) - len(q) + 1, 0)
    while len(r) >= len(q):
        shift, k = len(r) - len(q), r[-1] / q[-1]
        quot[shift] = k
        r = _fractions(r[:shift] + [a - k * b for a, b in zip(r[shift:], q)])
    return P.poly(quot), P.poly(r)


def mod_poly(p, q) -> P.Poly:
    return divmod_poly(p, q)[1]


def xgcd_poly(p, q) -> tuple[P.Poly, P.Poly, P.Poly]:
    """Monic g = gcd(p, q) with s, t such that s p + t q = g, for p, q not
    both zero, keeping r = s p + t q along Euclid's remainders."""
    old, new = (p, P.ONE, P.ZERO), (q, P.ZERO, P.ONE)
    while new[0]:
        k = divmod_poly(old[0], new[0])[0]
        old, new = new, tuple(P.sub(a, P.mul(k, b)) for a, b in zip(old, new))
    lead = exact(old[0][-1])
    return tuple(P.poly([exact(c) / lead for c in part]) for part in old)


def compose(p, q) -> P.Poly:
    """p(q), as the sum of the c_i q^i."""
    acc, power = P.ZERO, P.ONE
    for c in p:
        acc = P.add(acc, P.poly([exact(c) * a for a in _fractions(power)]))
        power = P.mul(power, q)
    return acc


def det(rows) -> Fraction:
    """The determinant of a square matrix, by Gaussian elimination."""
    m, out = [[exact(c) for c in row] for row in rows], Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot], out = m[pivot], m[i], -out
        out *= m[i][i]
        for r in range(i + 1, len(m)):
            k = m[r][i] / m[i][i]
            m[r] = [a - k * b for a, b in zip(m[r], m[i])]
    return out


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
    q = exact(q)
    counts: dict[int, int] = {}
    for part in (abs(q.numerator), q.denominator):
        for p, e in trial_factor(part).items():
            counts[p] = counts.get(p, 0) + e
    return q < 0, tuple(sorted(p for p, e in counts.items() if e % 2))


def brute_force_contains(generators, target) -> bool:
    """Exhaustive check over all 2^k subset products, each the sum of the
    generators' valuation coordinates mod 2."""
    gens = [_valuation_coordinates(g) for g in generators]
    goal = _valuation_coordinates(target)
    for mask in range(1 << len(gens)):
        acc = set()
        for i, g in enumerate(gens):
            if mask >> i & 1:
                acc ^= g
        if acc == goal:
            return True
    return False


def validate_containment_witness(generators, target, witness) -> bool:
    """Whether the witnessed generators multiply to the target."""
    gens = list(generators)
    acc = set()
    for i in witness:
        acc ^= _valuation_coordinates(gens[i])
    return acc == _valuation_coordinates(target)


def class_product(*classes):
    """The product of square classes: signs and odd primes add mod 2."""
    from mwglue.arith import SquareClass

    negative, primes = False, set()
    for c in classes:
        negative ^= c.negative
        primes ^= set(c.primes)
    return SquareClass(negative, tuple(sorted(primes)))


def triple_product(*triples):
    """The componentwise product of one or more class triples."""
    from mwglue.arith import SquareClassTriple

    return SquareClassTriple(*(class_product(*cs) for cs in zip(*(t.components for t in triples))))


def _valuation_coordinates(z) -> set:
    """(component, prime) for each odd valuation of a class triple, and
    (component, None) for each negative sign."""
    out = set()
    for i, c in enumerate(z.components):
        out.update((i, p) for p in c.primes)
        if c.negative:
            out.add((i, None))
    return out


def validate_noncontainment_certificate(generators, target, coords) -> bool:
    """Whether the coordinates meet every generator an even number of
    times and the target an odd number of times."""
    cs = set(coords)

    def parity(z) -> int:
        return len(cs & _valuation_coordinates(z)) & 1

    return all(parity(g) == 0 for g in generators) and parity(target) == 1


def subset_search_contains(algebra, span, target, cert_primes):
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
        decision = is_square(algebra, elem, cert_primes)
        if isinstance(decision, Square):
            return "contained", tuple(i for i in range(k) if mask >> i & 1)
        if not isinstance(decision, NonSquare):
            unresolved = True
    return ("unknown" if unresolved else "not_contained"), None


def crt_lift(elem) -> P.Poly:
    """The representative of degree < 3 modulo f of an etale algebra
    element, by the Chinese remainder theorem over its components."""
    algebra = elem.algebra
    acc = P.ZERO
    for i, (m, r) in enumerate(zip(algebra.components, elem.residues)):
        others = P.ONE
        for j, mj in enumerate(algebra.components):
            if j != i:
                others = P.mul(others, mj)
        g, s, _ = xgcd_poly(others, m)
        assert g == P.ONE, "components are not coprime"
        acc = P.add(acc, P.mul(r, P.mul(s, others)))
    return mod_poly(acc, algebra.f)


def identification_violations(E, F, psi, L):
    """The violations glue.validate_identification reports, decided
    without pairing components: h maps the roots of f to roots of g when
    g(h) = 0 mod f, and onto them when 1, h, h^2 span L, i.e. when their
    stacked residue coordinates in L's components have nonzero determinant."""
    from mwglue.glue import GEOMETRIC, NOT_BIJECTIVE, ROOTS_NOT_MAPPED, is_geometric_restriction

    if mod_poly(compose(F.f_poly(), psi.h), E.f_poly()):
        return (ROOTS_NOT_MAPPED,)
    rows = []
    for m, r in zip(L.components, L.element(psi.h).residues):
        powers = (P.ONE, r, mod_poly(P.mul(r, r), m))
        rows += ([c[i] if i < len(c) else Fraction(0) for c in powers] for i in range(P.degree(m)))
    if det(rows) == 0:
        return (NOT_BIJECTIVE,)
    if is_geometric_restriction(psi, L):
        return (GEOMETRIC,)
    return ()


def chord_tangent_sum(curve, a, b):
    """A + B computed by dividing the intersection cubic by its known roots.

    Only usable when the connecting line is not vertical; the tests choose
    their inputs accordingly.
    """
    f = curve.f_poly()
    ax, ay, bx, by = (exact(v) for v in (a.x, a.y, b.x, b.y))
    if (ax, ay) == (bx, by):
        assert ay != 0
        m = (3 * ax * ax + 2 * exact(curve.c2) * ax + curve.c1) / (2 * ay)
    else:
        assert ax != bx
        m = (by - ay) / (bx - ax)
    c = ay - m * ax
    line = P.poly([c, m])
    cubic = P.sub(f, P.mul(line, line))
    q, r = divmod_poly(cubic, P.poly([-a.x, 1]))
    assert r == P.ZERO
    q, r = divmod_poly(q, P.poly([-b.x, 1]))
    assert r == P.ZERO
    x3 = -exact(q[0]) / q[1]
    y3 = -(m * x3 + c)
    return x3, y3


def fraction_add(curve, a, b):
    """A + B by the slope formulas, every value a Fraction.  A point is an
    (x, y) pair, and None is the point at infinity."""
    if a is None or b is None:
        return b if a is None else a
    c1, c2 = exact(curve.c1), exact(curve.c2)
    (ax, ay), (bx, by) = (map(exact, a), map(exact, b))
    if ax == bx:
        if ay == -by:
            return None
        m = (3 * ax * ax + 2 * c2 * ax + c1) / (2 * ay)
    else:
        m = (by - ay) / (bx - ax)
    x = m * m - c2 - ax - bx
    return x, m * (ax - x) - ay


def fraction_mul(curve, n: int, a):
    """n A by repeated fraction_add."""
    if n < 0 and a is not None:
        a = (a[0], -exact(a[1]))
    acc = None
    for _ in range(abs(n)):
        acc = fraction_add(curve, acc, a)
    return acc


def fraction_j(curve) -> Fraction:
    """j = c4^3 / Delta from Tate's b-invariants of y^2 = x^3 + a2 x^2 + a4 x
    + a6, in Fractions: b2 = 4 a2, b4 = 2 a4, b6 = 4 a6, b8 = 4 a2 a6 - a4^2."""
    a2, a4, a6 = exact(curve.c2), exact(curve.c1), exact(curve.c0)
    b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 * a4
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return (b2 * b2 - 24 * b4) ** 3 / delta


def lambda_j(r1, r2, r3) -> Fraction:
    """j from the cross-ratio of the three roots: 256 (l^2-l+1)^3 / (l^2 (l-1)^2)."""
    r1, r2, r3 = exact(r1), exact(r2), exact(r3)
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


def integral_scaling(curve) -> tuple[tuple[int, int, int], int]:
    """((a, b, c), u) with y^2 = x^3 + a x^2 + b x + c integral and
    (x, y) -> (u^2 x, u^3 y) mapping the curve onto it: u is the lcm of the
    coefficient denominators, and (a, b, c) = (c2 u^2, c1 u^4, c0 u^6)."""
    c2, c1, c0 = exact(curve.c2), exact(curve.c1), exact(curve.c0)
    u = lcm(c2.denominator, c1.denominator, c0.denominator)
    return (int(c2 * u**2), int(c1 * u**4), int(c0 * u**6)), u


def cubic_disc(a: int, b: int, c: int) -> int:
    """The discriminant of x^3 + a x^2 + b x + c, by the plain formula."""
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


def search_points(curve, bound: int) -> list:
    """All affine points of the curve with x = a/d^2, |a| <= bound,
    1 <= d <= bound.

    The parameterization is applied on the integral model, where every
    rational point has an x-coordinate of this shape.
    """
    from mwglue.ellcurve import ECPoint

    if bound < 1:
        raise ValueError("bound must be positive")
    (a2, a4, a6), u = integral_scaling(curve)
    found = set()
    for d in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, d) != 1:
                continue
            x = Fraction(a, d * d)
            v = ((x + a2) * x + a4) * x + a6
            if v < 0:
                continue
            num, den = isqrt(v.numerator), isqrt(v.denominator)
            if num * num != v.numerator or den * den != v.denominator:
                continue
            y = Fraction(num, den)
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
    the group law with the library, each tested on its own: its integral
    model comes from integral_scaling() and its discriminant from
    cubic_disc(), its cubic roots come from bisect_cubic_roots(), and
    torsion_subgroup() does not factor.
    """
    from mwglue.arith import factor
    from mwglue.ellcurve import INFINITY, ECPoint, EllipticCurve

    (a, b, c), u = integral_scaling(curve)
    model = EllipticCurve(c, b, a)
    half = 1
    for p, e in factor(abs(16 * cubic_disc(a, b, c))).items():
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
        (q if q.is_infinity else ECPoint.affine(Fraction(q.x, u**2), Fraction(q.y, u**3)) for q in points),
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
