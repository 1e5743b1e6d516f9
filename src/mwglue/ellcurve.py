"""Elliptic curves y^2 = x^3 + c2 x^2 + c1 x + c0 over Q with exact arithmetic.

Chord-tangent group law, rational 2-torsion, the full torsion subgroup from a
reduction bound and the integer roots of division polynomials, and the
j-invariant.

Curve coefficients and point coordinates are numbers as poly keeps them: an
int when the value is integral and a `poly.Rational` otherwise
(`poly.fraction`).
Every quotient, a slope or the j-invariant, comes from `poly.ratio`, so a
curve with integral coefficients and its integral points compute in int
arithmetic.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, isqrt, lcm

from . import poly as P
from .poly import Poly, Rational
from .record import Record

# Orders of rational torsion points above 1 (Mazur, 1977), in increasing order.
MAZUR_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
# Odd primes of good reduction whose point counts bound the torsion order.
BOUND_PRIMES = 10


class ECPoint(Record):
    x: int | Rational | None = None
    y: int | Rational | None = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None:
            object.__setattr__(self, "x", P.fraction(self.x))
            object.__setattr__(self, "y", P.fraction(self.y))

    @classmethod
    def infinity(cls) -> "ECPoint":
        return cls()

    @classmethod
    def affine(cls, x, y) -> "ECPoint":
        return cls(x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.x, -self.y)

    def __str__(self) -> str:
        return "O" if self.is_infinity else f"({self.x}, {self.y})"

    def to_json(self):
        if self.is_infinity:
            return "O"
        return {"x": str(self.x), "y": str(self.y)}

    @classmethod
    def from_json(cls, data, path: str = "") -> "ECPoint":
        if data == "O":
            return cls.infinity()
        if not isinstance(data, dict):
            raise ValueError(f'{path or "point"}: expected "O" or an object with the keys x and y')
        return cls(*P.json_object(data, path, {"x": P.rational, "y": P.rational}, "point"))


INFINITY = ECPoint.infinity()


def _point_key(pt: ECPoint):
    return (0, 0, 0) if pt.is_infinity else (1, pt.x, pt.y)


class TorsionGroup(Record):
    """The torsion subgroup with its reduction bound: #E(F_q) at odd primes q
    of good reduction.  Rational torsion injects into each E(F_q), so the
    order divides bound_gcd."""

    invariants: tuple[int, ...]
    generators: tuple[ECPoint, ...]
    points: tuple[ECPoint, ...]
    bound_primes: tuple[int, ...]
    bound_counts: tuple[int, ...]

    @property
    def bound_gcd(self) -> int:
        return gcd(*self.bound_counts)

    @property
    def order(self) -> int:
        return len(self.points)

    def label(self) -> str:
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.invariants)

    def to_json(self) -> dict:
        return {
            "structure": self.label(),
            "invariants": list(self.invariants),
            "order": self.order,
            "generators": [g.to_json() for g in self.generators],
            "points": [p.to_json() for p in self.points],
            "bound": {
                "primes": list(self.bound_primes),
                "counts": list(self.bound_counts),
                "gcd": self.bound_gcd,
            },
        }


class EllipticCurve(Record):
    c0: int | Rational
    c1: int | Rational
    c2: int | Rational

    def __post_init__(self):
        object.__setattr__(self, "c0", P.fraction(self.c0))
        object.__setattr__(self, "c1", P.fraction(self.c1))
        object.__setattr__(self, "c2", P.fraction(self.c2))
        # the cubic, built once: curves are frozen
        object.__setattr__(self, "_f", P.poly((self.c0, self.c1, self.c2, 1)))
        if self.disc_f == 0:
            raise ValueError("the cubic has a repeated root; the curve is singular")

    @classmethod
    def from_roots(cls, r1, r2, r3) -> "EllipticCurve":
        return cls(-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3))

    def f_poly(self) -> Poly:
        return self._f

    def f_at(self, x) -> int | Rational:
        return P.eval_at(self.f_poly(), x)

    def f_derivative_at(self, x) -> int | Rational:
        x = P.fraction(x)
        return (3 * x + 2 * self.c2) * x + self.c1

    @property
    def disc_f(self) -> int | Rational:
        return P.cubic_disc(self.f_poly())

    @property
    def discriminant(self) -> int | Rational:
        return 16 * self.disc_f

    def __str__(self) -> str:
        return f"y^2 = {P.format_poly(self.f_poly())}"

    def contains(self, pt: ECPoint) -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == self.f_at(pt.x)

    def _require_on_curve(self, pt: ECPoint):
        if not self.contains(pt):
            raise ValueError(f"point {P.shorten(str(pt))} is not on {P.shorten(str(self))}")

    def add(self, a: ECPoint, b: ECPoint) -> ECPoint:
        self._require_on_curve(a)
        self._require_on_curve(b)
        if a.is_infinity:
            return b
        if b.is_infinity:
            return a
        if a.x == b.x:
            if a.y == -b.y:
                return INFINITY
            m = P.ratio(self.f_derivative_at(a.x), 2 * a.y)
        else:
            m = P.ratio(b.y - a.y, b.x - a.x)
        x3 = m * m - self.c2 - a.x - b.x
        y3 = m * (a.x - x3) - a.y
        return ECPoint.affine(x3, y3)

    def mul(self, n: int, pt: ECPoint) -> ECPoint:
        if n < 0:
            return self.mul(-n, -pt)
        acc = INFINITY
        base = pt
        while n:
            if n & 1:
                acc = self.add(acc, base)
            n >>= 1
            if n:
                base = self.add(base, base)
        return acc

    def integral_model(self) -> tuple["EllipticCurve", int]:
        """(E', u) with E' integral and (x, y) -> (u^2 x, u^3 y) mapping onto it."""
        u = lcm(self.c2.denominator, self.c1.denominator, self.c0.denominator)
        if u == 1:
            return self, 1
        model = EllipticCurve(self.c0 * u**6, self.c1 * u**4, self.c2 * u**2)
        return model, u

    def torsion_subgroup(self) -> TorsionGroup:
        """The full rational torsion subgroup.

        On the integral model y^2 = g(x), the torsion order divides the gcd B
        of #E(F_q) over odd primes q of good reduction.  Torsion points there
        are integral (Lutz-Nagell): for m in Mazur's list with m | B, in
        increasing order, the integer roots x of g (for m = 2) and of the
        division polynomial f_m at which g(x) is a square.  A point of order
        d > 2 is a root of f_m exactly when d | m, so each point's order is the
        first m that finds it.  An order m is skipped when some proper divisor d > 1
        of m has no point, since a point of order m has a multiple of order d.
        The search stops once it has B points: the torsion order divides B and
        counts every point found, so it is B and no later m adds a point.
        """
        model, u = self.integral_model()
        g = model.f_poly()
        primes, counts = _reduction_bound(g)
        b = gcd(*counts)
        orders = {INFINITY: 1}
        division = _DivisionPolys(g)
        for m in MAZUR_ORDERS:
            if len(orders) == b:
                break
            if b % m or any(m % d == 0 and d not in orders.values() for d in range(2, m)):
                continue
            for x in P.integer_roots(g if m == 2 else division[m]):
                v = P.eval_at(g, x)
                y = isqrt(max(v, 0))
                if y * y == v:
                    orders.setdefault(ECPoint.affine(x, y), m)
                    orders.setdefault(ECPoint.affine(x, -y), m)
        back = orders if u == 1 else {
            q if q.is_infinity else ECPoint.affine(P.ratio(q.x, u**2), P.ratio(q.y, u**3)): order
            for q, order in orders.items()}
        return TorsionGroup(*_group_structure(self, back), primes, counts)

    def j_invariant(self) -> int | Rational:
        c4 = 16 * self.c2**2 - 48 * self.c1
        return P.ratio(c4**3, self.discriminant)

    def to_json(self) -> dict:
        return {"f": [str(self.c0), str(self.c1), str(self.c2)]}

    @classmethod
    def from_json(cls, data, path: str = "") -> "EllipticCurve":
        """The curve {"f": [c0, c1, c2]} at path in a file, such as E in a gluing."""
        (coeffs,) = P.json_object(data, path, {"f": lambda f, at: P.rationals(f, at, 3)}, "curve")
        return cls(*coeffs)


def _reduction_bound(g: Poly) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first BOUND_PRIMES odd primes q not dividing disc(g), and the
    point counts of y^2 = g(x) over them: #E(F_q) = 1 + sum over x of
    #{y : y^2 = g(x)}, where that number, 1 + (g(x)/q), comes from a table."""
    disc = P.cubic_disc(g)
    primes = tuple(islice((q for q in P.odd_primes() if disc % q), BOUND_PRIMES))
    counts = []
    for q in primes:
        roots = _square_roots(q)
        c, b, a = (coeff % q for coeff in g[:3])
        counts.append(1 + sum(roots[(((x + a) * x + b) * x + c) % q] for x in range(q)))
    return primes, tuple(counts)


def _square_roots(q: int) -> list[int]:
    """The number of square roots mod the odd prime q of each residue mod q:
    one of 0, and two of each y^2 for y = 1..(q - 1)/2, which are distinct."""
    roots = [0] * q
    roots[0] = 1
    for y in range(1, q // 2 + 1):
        roots[y * y % q] = 2
    return roots


class _DivisionPolys:
    """Division polynomials of y^2 = g(x), g monic with integer coefficients,
    built on demand with poly's arithmetic, which keeps their coefficients
    ints: f_m = psi_m for odd m and psi_m / psi_2 for even m, so every f_m is
    a polynomial in x.  With F = psi_2^2 = 4g the standard recurrence
    becomes f_{2k+1} = F^2 f_{k+2} f_k^3 - f_{k-1} f_{k+1}^3 for even k (the
    factor F^2 moves to the second term for odd k), and
    f_{2k} = f_k (f_{k+2} f_{k-1}^2 - f_{k-2} f_{k+1}^2).
    """

    def __init__(self, g: Poly):
        c, b, a = g[0], g[1], g[2]
        b2, b4, b6, b8 = 4 * a, 2 * b, 4 * c, 4 * a * c - b * b
        F = P.scale(g, 4)
        self._f_squared = P.mul(F, F)
        self._polys = {
            1: P.ONE,
            2: P.ONE,
            3: (b8, 3 * b6, 3 * b4, b2, 3),
            4: (b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2),
        }

    def __getitem__(self, n: int) -> Poly:
        if n not in self._polys:
            k = n // 2
            if n % 2:
                first = P.mul(self[k + 2], P.mul(self[k], P.mul(self[k], self[k])))
                second = P.mul(self[k - 1], P.mul(self[k + 1], P.mul(self[k + 1], self[k + 1])))
                if k % 2:
                    second = P.mul(self._f_squared, second)
                else:
                    first = P.mul(self._f_squared, first)
                self._polys[n] = P.sub(first, second)
            else:
                inner = P.sub(
                    P.mul(self[k + 2], P.mul(self[k - 1], self[k - 1])),
                    P.mul(self[k - 2], P.mul(self[k + 1], self[k + 1])),
                )
                self._polys[n] = P.mul(self[k], inner)
        return self._polys[n]


def _group_structure(curve: EllipticCurve, orders: dict[ECPoint, int]) -> tuple:
    """(invariants, generators, points) of the torsion group whose points
    map to their orders.  By Mazur's theorem the group is cyclic or
    Z/2 x Z/2m; each generator is the smallest point of its order."""
    ordered = tuple(sorted(orders, key=_point_key))
    n = len(ordered)
    if n == 1:
        return (), (), ordered
    first = {orders[pt]: pt for pt in reversed(ordered)}  # the smallest of each order
    two = [pt for pt in ordered if orders[pt] == 2]
    if len(two) < 3:
        return (n,), (first[n],), ordered
    m = n // 4
    if m == 1:
        return (2, 2), (two[0], two[1]), ordered
    g1 = first[2 * m]
    inner = curve.mul(m, g1)  # the unique 2-torsion point inside <g1>
    g2 = next(t for t in two if t != inner)
    return (2, 2 * m), (g2, g1), ordered
