"""Elliptic curves y^2 = x^3 + c2 x^2 + c1 x + c0 over Q with exact arithmetic.

Chord-tangent group law and the j-invariant.  The rational torsion subgroup
is computed in `mwglue.torsion`, which loads only when it is asked for.

Curve coefficients and point coordinates are numbers as poly keeps them: an
int when the value is integral and a `poly.Rational` otherwise
(`poly.fraction`).
Every quotient, a slope or the j-invariant, comes from `poly.ratio`, so a
curve with integral coefficients and its integral points compute in int
arithmetic.
"""

from __future__ import annotations

from . import poly as P
from . import torsion
from .poly import Poly, Rational
from .record import Record


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

    def torsion_subgroup(self) -> torsion.TorsionGroup:
        return torsion.torsion_subgroup(self)

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
