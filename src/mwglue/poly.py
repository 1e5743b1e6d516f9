"""Dense univariate polynomials over Q.

A polynomial is a tuple of Fractions in ascending degree order, trimmed of
trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import is_prime

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def poly(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def constant_value(p: Poly) -> Fraction:
    if len(p) > 1:
        raise ValueError("not a constant polynomial")
    return p[0] if p else Fraction(0)


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def pow_poly(p: Poly, n: int) -> Poly:
    out = ONE
    for _ in range(n):
        out = mul(out, p)
    return out


def eval_at(p: Poly, x) -> Fraction | int:
    """p(x), exactly; an int when x and the coefficients are ints."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def eval_mod(p, x: int, modulus: int) -> int | None:
    """p(x) mod modulus for rational or integer coefficients, or None when a
    denominator is not a unit mod modulus."""
    acc = 0
    for c in reversed(p):
        n, d = c.numerator, c.denominator
        if d != 1:
            if gcd(d, modulus) != 1:
                return None
            n *= pow(d, -1, modulus)
        acc = (acc * x + n) % modulus
    return acc


def lift_root(p, r: int, q: int, k: int) -> int:
    """Newton-lift a simple root r of p mod the prime q to the root mod q^k
    it determines; the precision doubles at each step.  The coefficients of
    p must be q-integral."""
    dp = derivative(p)
    e, root = 1, r % q
    while e < k:
        e = min(2 * e, k)
        modulus = q**e
        fv = eval_mod(p, root, modulus)
        root = (root - fv * pow(eval_mod(dp, root, modulus), -1, modulus)) % modulus
    return root


def roots_mod(p, q: int) -> list[int]:
    """Sorted roots in F_q, q prime, of a nonconstant polynomial whose
    coefficients are q-integral and whose leading coefficient is a unit mod
    q.  A linear polynomial is solved; a higher one is searched point by
    point."""
    cs = [c.numerator * pow(c.denominator, -1, q) % q for c in reversed(p)]
    if len(cs) == 2:
        return [-cs[1] * pow(cs[0], -1, q) % q]
    out = []
    for r in range(q):
        acc = 0
        for c in cs:
            acc = (acc * r + c) % q
        if not acc:
            out.append(r)
    return out


def integer_roots(p) -> list[int]:
    """Sorted integer roots of a nonconstant squarefree polynomial with
    integer coefficients, given in ascending degree order.

    Take an odd prime q that divides neither the leading coefficient nor p'
    at any root of p mod q.  Every integer root reduces to one of those
    simple roots and is its unique q-adic lift, so each root mod q is lifted
    until q^k exceeds twice a bound on the roots; the symmetric residue is
    then the only possible integer root above it, and each candidate is
    checked exactly.  The bound is Fujiwara's, 2 max |a_{n-i} / a_n|^(1/i),
    rounded up to a power of two from bit lengths.

    Every prime passed over divides lead * disc(p), and Mahler's bound gives
    |disc(p)| <= n^n ||p||_2^(2n-2).  Once the primes passed over multiply
    past |lead| times that bound, disc(p) = 0, and ValueError says that p is
    not squarefree.  Every caller passes a squarefree polynomial: the cubic
    of a nonsingular curve, a squarefree-checked algebra's cubic, a division
    polynomial, or a quartic with distinct roots.
    """
    if len(p) < 2 or p[-1] == 0:
        raise ValueError("expected a nonconstant polynomial with a nonzero leading coefficient")
    lead = p[-1]
    n, lead_bits = len(p) - 1, abs(lead).bit_length()
    bound = 2 ** (1 + max(
        (-((lead_bits - 1 - abs(c).bit_length()) // (n - i)) for i, c in enumerate(p[:-1]) if c),
        default=0,
    ))
    # bits of |lead| n^n ||p||_2^(2n-2), rounded up
    limit = lead_bits + n * n.bit_length() + (n - 1) * sum(c * c for c in p).bit_length()
    dp = derivative(p)
    q, passed = 1, 0
    while passed <= limit:
        q += 2
        if not is_prime(q):
            continue
        roots = roots_mod(p, q) if lead % q else None
        if roots is None or any(eval_mod(dp, r, q) == 0 for r in roots):
            passed += q.bit_length() - 1
            continue
        k, modulus = 1, q
        while modulus <= 2 * bound:
            k, modulus = k + 1, modulus * q
        out = []
        for r in roots:
            x = lift_root(p, r, q, k)
            if x > modulus // 2:
                x -= modulus
            if abs(x) < bound and eval_at(p, x) == 0:
                out.append(x)
        return sorted(out)
    raise ValueError(f"the polynomial is not squarefree: no odd prime up to {q} reduces it with simple roots")


def derivative(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    dq = degree(q)
    lead = q[-1]
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    for i in range(len(p) - 1, dq - 1, -1):
        c = r[i]
        if c:
            k = c / lead
            quot[i - dq] = k
            for j, b in enumerate(q):
                r[i - dq + j] -= k * b
    return poly(quot), poly(r)


def mod_poly(p: Poly, q: Poly) -> Poly:
    return divmod_poly(p, q)[1]


def monic(p: Poly) -> Poly:
    if not p:
        return ZERO
    return scale(p, 1 / p[-1])


def gcd_poly(p: Poly, q: Poly) -> Poly:
    while q:
        p, q = q, mod_poly(p, q)
    return monic(p)


def xgcd_poly(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g = gcd(p, q) together with s, t satisfying s*p + t*q = g."""
    r0, r1 = p, q
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        qt, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(qt, s1))
        t0, t1 = t1, sub(t0, mul(qt, t1))
    if not r0:
        return ZERO, ZERO, ZERO
    c = 1 / r0[-1]
    return scale(r0, c), scale(s0, c), scale(t0, c)


def compose(p: Poly, q: Poly) -> Poly:
    acc = ZERO
    for c in reversed(p):
        acc = add(mul(acc, q), poly([c]))
    return acc


def interpolate(points) -> Poly:
    """Lagrange interpolation through (x, y) pairs with distinct x values."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    acc = ZERO
    for i, (xi, yi) in enumerate(pts):
        num = poly([yi])
        for j, (xj, _) in enumerate(pts):
            if i != j:
                num = mul(num, scale(poly([-xj, 1]), Fraction(1) / (xi - xj)))
        acc = add(acc, num)
    return acc


def is_squarefree(p: Poly) -> bool:
    return degree(gcd_poly(p, derivative(p))) <= 0


def cubic_disc(f: Poly) -> Fraction:
    """Discriminant of a monic cubic x^3 + a x^2 + b x + c."""
    if degree(f) != 3 or f[3] != 1:
        raise ValueError("expected a monic cubic")
    c, b, a = f[0], f[1], f[2]
    return 18 * a * b * c - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 - 27 * c**2


def det(rows) -> Fraction:
    """Determinant of a square matrix of size 1, 2 or 3."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def denominators_lcm(p: Poly) -> int:
    out = 1
    for c in p:
        out = lcm(out, c.denominator)
    return out


def sqrt_fraction(q) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# Kept, and called for cubics, only because bench/spans.py times it by name.
def integer_roots_monic_cubic(a: int, b: int, c: int) -> list[int]:
    """All integer roots of the squarefree cubic x^3 + a x^2 + b x + c."""
    return integer_roots([c, b, a, 1])


def rational_roots_monic(f: Poly) -> list[Fraction]:
    """Sorted rational roots of a monic polynomial of degree <= 2, or of a
    squarefree monic cubic or quartic."""
    d = degree(f)
    if d <= 0:
        return []
    if d == 1:
        return [-f[0]]
    if d == 2:
        s = sqrt_fraction(f[1] * f[1] - 4 * f[0])
        if s is None:
            return []
        return sorted({(-f[1] + s) / 2, (-f[1] - s) / 2})
    if d > 4 or f[d] != 1:
        raise ValueError("expected a monic polynomial of degree <= 4")
    # x = t / m turns f into a monic polynomial in t with integer coefficients
    m = denominators_lcm(f)
    scaled = [int(c * m ** (d - i)) for i, c in enumerate(f)]
    if d == 3:
        roots = integer_roots_monic_cubic(scaled[2], scaled[1], scaled[0])
    else:
        roots = integer_roots(scaled)
    return sorted(Fraction(t, m) for t in roots)


def format_poly(p: Poly, var: str = "x") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            term = f"{coef}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
