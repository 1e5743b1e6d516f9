"""Built-in curves, gluing data, genus-2 models and cover maps of the example."""

from __future__ import annotations

from .ellcurve import ECPoint, EllipticCurve
from .etale import is_squarefree
from .glue import TwoTorsionIdentification
from .poly import ZERO, Poly, degree, json_object, poly, rational, rationals
from .record import Record


class GenusTwoCurve(Record):
    """A genus-2 model y^2 = h6(x) with h6 squarefree of degree 5 or 6."""

    h6: Poly

    def __post_init__(self):
        object.__setattr__(self, "h6", poly(self.h6))
        if degree(self.h6) not in (5, 6):
            raise ValueError("the right-hand side must have degree 5 or 6")
        if not is_squarefree(self.h6):
            raise ValueError("the right-hand side must be squarefree")

    def to_json(self) -> dict:
        return {"h6": [str(c) for c in self.h6]}

    @classmethod
    def from_json(cls, data, path: str) -> "GenusTwoCurve":
        return cls(*json_object(data, path, {"h6": rationals}))


class RationalMap(Record):
    """A rational function num/den with polynomial entries."""

    num: Poly
    den: Poly

    def __post_init__(self):
        object.__setattr__(self, "num", poly(self.num))
        object.__setattr__(self, "den", poly(self.den))
        if self.den == ZERO:
            raise ValueError("zero denominator")

    def to_json(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}

    @classmethod
    def from_json(cls, data, path: str) -> "RationalMap":
        return cls(*json_object(data, path, {"num": rationals, "den": rationals}))


# The bundled counterexample: E: y^2 = x^3 + 5x^2 + 6x + 1 (Mordell-Weil
# group generated by (-2, 1), infinite order) glued to F: y^2 = x^3 - 6x^2 +
# 5x - 1 (trivial Mordell-Weil group) along their 2-torsion by
# (alpha, 0) -> (h(alpha), 0) with h = x^2 + 5x + 6, i.e. alpha -> -1/alpha.
EXAMPLE_E = EllipticCurve(1, 6, 5)
EXAMPLE_F = EllipticCurve(-1, 5, -6)
EXAMPLE_PSI = TwoTorsionIdentification(poly([6, 5, 1]))
EXAMPLE_POINT = ECPoint.affine(-2, 1)

# The glued genus-2 curve y^2 = x^6 - 6x^4 + 5x^2 - 1, its unscaled model
# y^2 = 7^8 g(x^2), and the double covers onto E and F.
_G2 = (-1, 0, 5, 0, -6, 0, 1)
EXAMPLE_C = GenusTwoCurve(poly(_G2))
EXAMPLE_C_UNSCALED = GenusTwoCurve(poly([c * 7**8 for c in _G2]))
EXAMPLE_RESCALE = 7**4
COVER_TO_E = (
    RationalMap(poly([-1]), poly([0, 0, 1])),  # u = -1/x^2
    RationalMap(poly([1]), poly([0, 0, 0, 1])),  # v = 1/x^3
)
COVER_TO_F = (
    RationalMap(poly([0, 0, 1]), poly([1])),  # u = x^2
    RationalMap(poly([1]), poly([1])),  # v = 1
)

def example_fixtures() -> dict:
    """The default inputs of the bundled example as one mutable mapping."""
    return {
        "E": EXAMPLE_E,
        "F": EXAMPLE_F,
        "psi": EXAMPLE_PSI,
        "P": EXAMPLE_POINT,
        "C": EXAMPLE_C,
        "C_unscaled": EXAMPLE_C_UNSCALED,
        "rescale": EXAMPLE_RESCALE,
        "cover_to_E": COVER_TO_E,
        "cover_to_F": COVER_TO_F,
    }


def _cover(data, path: str) -> tuple[RationalMap, RationalMap]:
    """The maps u and v of a cover (x, y) -> (u(x), y v(x)) at path in the file."""
    return tuple(json_object(data, path, {"u": RationalMap.from_json, "v": RationalMap.from_json}))


def load_example_fixtures(data) -> dict:
    """Override the built-in example fixtures from a JSON object; missing
    keys keep their defaults, and the key h sets the fixture psi."""
    fx = example_fixtures()
    readers = {  # in the order of fx, h in the place of psi
        "E": EllipticCurve.from_json,
        "F": EllipticCurve.from_json,
        "h": TwoTorsionIdentification.from_json,
        "P": ECPoint.from_json,
        "C": GenusTwoCurve.from_json,
        "C_unscaled": GenusTwoCurve.from_json,
        "rescale": rational,
        "cover_to_E": _cover,
        "cover_to_F": _cover,
    }
    values = json_object(data, "", readers, "the fixtures file", dict(zip(readers, fx.values())))
    return dict(zip(fx, values))
