"""Elliptic curves y^2 = x^3 + c2 x^2 + c1 x + c0 over Q with exact arithmetic.

Chord-tangent group law, rational 2-torsion, the full torsion subgroup from a
reduction bound and the integer roots of division polynomials, and the
j-invariant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import poly as P
from .arith import is_prime
from .poly import Poly
from .record import Record

# Orders of rational torsion points above 2 (Mazur, 1977), in increasing order.
MAZUR_ORDERS = (3, 4, 5, 6, 7, 8, 9, 10, 12)
# Odd primes of good reduction whose point counts bound the torsion order.
BOUND_PRIMES = 10


class ECPoint(Record):
    x: Fraction | None = None
    y: Fraction | None = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @classmethod
    def infinity(cls) -> "ECPoint":
        return cls()

    @classmethod
    def affine(cls, x, y) -> "ECPoint":
        return cls(Fraction(x), Fraction(y))

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
    def from_json(cls, data) -> "ECPoint":
        if data == "O":
            return cls.infinity()
        return cls.affine(Fraction(data["x"]), Fraction(data["y"]))


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
    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c0", Fraction(self.c0))
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        if self.disc_f == 0:
            raise ValueError("the cubic has a repeated root; the curve is singular")

    @classmethod
    def from_roots(cls, r1, r2, r3) -> "EllipticCurve":
        r1, r2, r3 = Fraction(r1), Fraction(r2), Fraction(r3)
        return cls(-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3))

    def f_poly(self) -> Poly:
        return (self.c0, self.c1, self.c2, Fraction(1))

    def f_at(self, x) -> Fraction:
        x = Fraction(x)
        return ((x + self.c2) * x + self.c1) * x + self.c0

    def f_derivative_at(self, x) -> Fraction:
        x = Fraction(x)
        return (3 * x + 2 * self.c2) * x + self.c1

    @property
    def disc_f(self) -> Fraction:
        return P.cubic_disc(self.f_poly())

    @property
    def discriminant(self) -> Fraction:
        return 16 * self.disc_f

    def __str__(self) -> str:
        return f"y^2 = {P.format_poly(self.f_poly())}"

    def contains(self, pt: ECPoint) -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == self.f_at(pt.x)

    def _require_on_curve(self, pt: ECPoint):
        if not self.contains(pt):
            raise ValueError(f"point {pt} is not on {self}")

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
            m = self.f_derivative_at(a.x) / (2 * a.y)
        else:
            m = (b.y - a.y) / (b.x - a.x)
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

    def two_torsion(self) -> list[ECPoint]:
        """The rational points of order 2, in increasing x order."""
        return [ECPoint.affine(r, 0) for r in P.rational_roots_monic(self.f_poly())]

    def integral_model(self) -> tuple["EllipticCurve", int]:
        """(E', u) with E' integral and (x, y) -> (u^2 x, u^3 y) mapping onto it."""
        u = lcm(self.c2.denominator, self.c1.denominator, self.c0.denominator)
        model = EllipticCurve(self.c0 * u**6, self.c1 * u**4, self.c2 * u**2)
        return model, u

    def torsion_subgroup(self) -> TorsionGroup:
        """The full rational torsion subgroup.

        On the integral model y^2 = g(x), the torsion order divides the gcd B
        of #E(F_q) over odd primes q of good reduction, and a point of order
        m (m in Mazur's list) has x a root of the division polynomial f_m.
        Torsion points there are integral (Lutz-Nagell), so the integer roots
        x of g and of each f_m with m | B at which g(x) is a square give every
        torsion point.  An order m is skipped when some proper divisor d > 1
        of m gave no point, since a point of order m has a multiple of order d.
        """
        model, u = self.integral_model()
        g = [int(model.c0), int(model.c1), int(model.c2), 1]
        primes, counts = _reduction_bound(g)
        b = gcd(*counts)
        points = {INFINITY}
        found = {1}
        if b % 2 == 0:
            two = [ECPoint.affine(x, 0) for x in P.integer_roots(g)]
            points.update(two)
            if two:
                found.add(2)
        division = _DivisionPolys(g)
        for m in MAZUR_ORDERS:
            if b % m or any(m % d == 0 and d not in found for d in range(2, m)):
                continue
            for x in P.integer_roots(division[m]):
                v = P.eval_at(g, x)
                y = isqrt(max(v, 0))
                if y * y == v:
                    points.update((ECPoint.affine(x, y), ECPoint.affine(x, -y)))
                    found.add(m)
        back = [
            INFINITY
            if q.is_infinity
            else ECPoint.affine(q.x / u**2, q.y / u**3)
            for q in points
        ]
        return TorsionGroup(*_group_structure(self, back), primes, counts)

    def j_invariant(self) -> Fraction:
        c4 = 16 * self.c2**2 - 48 * self.c1
        return c4**3 / self.discriminant

    def to_json(self) -> dict:
        return {"f": [str(self.c0), str(self.c1), str(self.c2)]}

    @classmethod
    def from_json(cls, data) -> "EllipticCurve":
        c0, c1, c2 = (Fraction(s) for s in data["f"])
        return cls(c0, c1, c2)


def _reduction_bound(g: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first BOUND_PRIMES odd primes q not dividing disc(g), and the
    point counts of y^2 = g(x) over them: #E(F_q) = 1 + sum over x of
    #{y : y^2 = g(x)}, where that number, 1 + (g(x)/q), comes from a table."""
    disc = P.cubic_disc(P.poly(g)).numerator
    primes, counts = [], []
    q = 1
    while len(primes) < BOUND_PRIMES:
        q += 2
        if disc % q == 0 or not is_prime(q):
            continue
        roots = [0] * q
        for y in range(q):
            roots[y * y % q] += 1
        c, b, a = (coeff % q for coeff in g[:3])
        primes.append(q)
        counts.append(1 + sum(roots[(((x + a) * x + b) * x + c) % q] for x in range(q)))
    return tuple(primes), tuple(counts)


def _imul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _isub(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    while out and out[-1] == 0:
        out.pop()
    return out


class _DivisionPolys:
    """Division polynomials of y^2 = g(x) as integer coefficient lists, built
    on demand: f_m = psi_m for odd m and psi_m / psi_2 for even m, so every
    f_m is a polynomial in x.  With F = psi_2^2 = 4g the standard recurrence
    becomes f_{2k+1} = F^2 f_{k+2} f_k^3 - f_{k-1} f_{k+1}^3 for even k (the
    factor F^2 moves to the second term for odd k), and
    f_{2k} = f_k (f_{k+2} f_{k-1}^2 - f_{k-2} f_{k+1}^2).
    """

    def __init__(self, g: list[int]):
        c, b, a = g[0], g[1], g[2]
        b2, b4, b6, b8 = 4 * a, 2 * b, 4 * c, 4 * a * c - b * b
        self._f_squared = _imul([4 * c, 4 * b, 4 * a, 4], [4 * c, 4 * b, 4 * a, 4])
        self._polys = {
            1: [1],
            2: [1],
            3: [b8, 3 * b6, 3 * b4, b2, 3],
            4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2],
        }

    def __getitem__(self, n: int) -> list[int]:
        if n not in self._polys:
            k = n // 2
            if n % 2:
                first = _imul(self[k + 2], _imul(self[k], _imul(self[k], self[k])))
                second = _imul(self[k - 1], _imul(self[k + 1], _imul(self[k + 1], self[k + 1])))
                if k % 2:
                    second = _imul(self._f_squared, second)
                else:
                    first = _imul(self._f_squared, first)
                self._polys[n] = _isub(first, second)
            else:
                inner = _isub(
                    _imul(self[k + 2], _imul(self[k - 1], self[k - 1])),
                    _imul(self[k - 2], _imul(self[k + 1], self[k + 1])),
                )
                self._polys[n] = _imul(self[k], inner)
        return self._polys[n]


def _group_structure(curve: EllipticCurve, pts: list[ECPoint]) -> tuple:
    """(invariants, generators, points) of the group the points form."""
    ordered = tuple(sorted(pts, key=_point_key))
    n = len(pts)
    if n == 1:
        return (), (), ordered
    orders: dict[ECPoint, int] = {}
    for pt in pts:
        if pt.is_infinity:
            orders[pt] = 1
            continue
        o, q = 1, pt
        while not q.is_infinity:
            q = curve.add(q, pt)
            o += 1
        orders[pt] = o
    two = sorted((pt for pt in pts if not pt.is_infinity and pt.y == 0), key=_point_key)
    if len(two) == 3:
        m = n // 4
        if m == 1:
            return (2, 2), (two[0], two[1]), ordered
        g1 = min((pt for pt in pts if orders[pt] == 2 * m), key=_point_key)
        inner = curve.mul(m, g1)  # the unique 2-torsion point inside <g1>
        g2 = min((t for t in two if t != inner), key=_point_key)
        return (2, 2 * m), (g2, g1), ordered
    gens = [pt for pt in pts if orders[pt] == n]
    if not gens:
        raise RuntimeError("torsion group is neither cyclic nor of full 2-torsion type")
    return (n,), (min(gens, key=_point_key),), ordered
