"""Gluing data (E, F, psi) and genus-2 cover verification.

A 2-torsion identification is stored as the rational polynomial h with
(alpha, 0) -> (h(alpha), 0); rationality of h is exactly Galois-equivariance
of the identification.  Validation and class transfer share one pairing of
the components of E's and F's algebras through h (component_pairing), and
algebra_map is the ring map h induces between the two algebras.
Construction also rejects identifications that extend to a geometric
isomorphism of the curves.  Genus-2 covers (fixtures.GenusTwoCurve and
fixtures.RationalMap) are verified as exact polynomial identities; the
artifact never derives the genus-2 model itself.
"""

from __future__ import annotations

from . import fixtures
from . import poly as P
from .ellcurve import EllipticCurve
from .etale import AlgebraElement, CubicEtaleAlgebra
from .poly import ZERO, Poly
from .record import Record

ROOTS_NOT_MAPPED = "roots_not_mapped"
NOT_BIJECTIVE = "not_bijective"
GEOMETRIC = "geometric_isomorphism"


class GluingError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid gluing data: " + ", ".join(self.violations))


class TwoTorsionIdentification(Record):
    """The 2-torsion identification (alpha, 0) -> (h(alpha), 0)."""

    h: Poly

    def __post_init__(self):
        object.__setattr__(self, "h", P.poly(self.h))
        if P.degree(self.h) > 2:
            raise ValueError("the identification polynomial must have degree <= 2")

    @classmethod
    def from_matching(cls, pairs) -> "TwoTorsionIdentification":
        """The identification interpolating a matching of x-coordinates."""
        pts = tuple((P.fraction(a), P.fraction(b)) for a, b in pairs)
        if len(pts) != 3 or len({a for a, _ in pts}) != 3:
            raise ValueError("a matching needs the three source roots exactly once")
        return cls(P.interpolate(pts))

    def to_json(self) -> list:
        return [str(c) for c in self.h]

    @classmethod
    def from_json(cls, data, path: str) -> "TwoTorsionIdentification":
        return cls(P.rationals(data, path))


def is_geometric_restriction(psi: TwoTorsionIdentification, L: CubicEtaleAlgebra) -> bool:
    """Whether the identification extends to a geometric curve isomorphism.

    On these models any geometric isomorphism acts on x-coordinates by an
    affine map, so psi is geometric exactly when h reduces to degree <= 1
    modulo f, the cubic of E and of its algebra L.
    """
    return P.degree(P.mod_poly(psi.h, L.f)) <= 1


def validate_identification(
    psi: TwoTorsionIdentification, L: CubicEtaleAlgebra, Lprime: CubicEtaleAlgebra
) -> tuple[str, ...]:
    """Check root mapping, bijectivity on 2-torsion (both read off the
    pairing of Lprime and L), and non-geometricity; the violations found."""
    pairing = component_pairing(Lprime, L, psi.h)
    if pairing is None:
        return (ROOTS_NOT_MAPPED,)
    if len(set(pairing)) < len(Lprime.components):
        return (NOT_BIJECTIVE,)
    return (GEOMETRIC,) if is_geometric_restriction(psi, L) else ()


def component_pairing(
    src: CubicEtaleAlgebra, dst: CubicEtaleAlgebra, h: Poly
) -> tuple[int, ...] | None:
    """For each component m of dst, the index of the one component n of src
    with n(h) = 0 mod m, or None when some m has none.

    By CRT, h maps the roots of dst.f to roots of src.f (src.f(h), the
    product of the n(h), vanishes mod dst.f) exactly when each m divides some
    n(h); n is unique as the n are coprime.  As h(alpha) lies in Q(alpha), n
    has degree dividing that of m, and the degrees sum to 3 on both sides, so
    h is one to one on roots exactly when every n is paired."""
    pairing = []
    for m in dst.components:
        hm = P.mod_poly(h, m)
        found = [i for i, n in enumerate(src.components) if not P.mod_poly(P.compose(n, hm), m)]
        if not found:
            return None
        pairing.append(found[0])
    return tuple(pairing)


def algebra_map(
    src: CubicEtaleAlgebra, dst: CubicEtaleAlgebra, h: Poly, elem: AlgebraElement
) -> AlgebraElement:
    """The ring map src -> dst sending the generator of src to h(generator),
    defined when component_pairing pairs every component m of dst with some
    n of src.  The residue r of elem at n maps to r(h mod m) mod m."""
    if elem.algebra != src:
        raise ValueError("the element does not belong to the source algebra")
    pairing = component_pairing(src, dst, h)
    if pairing is None:
        raise ValueError("h does not define a morphism between the algebras")
    return AlgebraElement(dst, tuple(
        P.mod_poly(P.compose(elem.residues[i], P.mod_poly(h, m)), m)
        for i, m in zip(pairing, dst.components)
    ))


def _algebra(f: Poly, given: CubicEtaleAlgebra | None) -> CubicEtaleAlgebra:
    """Q[x]/(f), or `given` if it is that algebra."""
    if given is None:
        return CubicEtaleAlgebra.from_cubic(f)
    if given.f != f:
        raise ValueError("the supplied algebra does not match the identification")
    return given


class GluingData(Record):
    E: EllipticCurve
    F: EllipticCurve
    psi: TwoTorsionIdentification
    L: CubicEtaleAlgebra
    Lprime: CubicEtaleAlgebra

    @classmethod
    def build(
        cls,
        E: EllipticCurve,
        F: EllipticCurve,
        psi: TwoTorsionIdentification,
        L: CubicEtaleAlgebra | None = None,
        Lprime: CubicEtaleAlgebra | None = None,
    ) -> "GluingData":
        """Validate psi and build the algebras of E and F.  A caller that
        already has one of them passes it as L or Lprime, in any component
        order: components are paired through h (component_pairing)."""
        L, Lprime = _algebra(E.f_poly(), L), _algebra(F.f_poly(), Lprime)
        violations = validate_identification(psi, L, Lprime)
        if violations:
            raise GluingError(violations)
        return cls(E, F, psi, L, Lprime)

    def to_json(self) -> dict:
        return {"E": self.E.to_json(), "F": self.F.to_json(), "h": self.psi.to_json()}

    @classmethod
    def from_json(cls, data) -> "GluingData":
        curve, h = EllipticCurve.from_json, TwoTorsionIdentification.from_json
        return cls.build(*P.json_object(data, "", {"E": curve, "F": curve, "h": h}, "gluing"))


def verify_cover_map(
    C: fixtures.GenusTwoCurve, target: EllipticCurve, u: fixtures.RationalMap, v: fixtures.RationalMap
) -> bool:
    """Whether (x, y) -> (u(x), y*v(x)) maps y^2 = h6 onto Y^2 = f.

    The defining identity f(u) = h6 * v^2 is cleared of denominators and
    checked as an exact polynomial identity.
    """
    f = target.f_poly()
    un, ud = u.num, u.den
    lhs_num = ZERO
    for i, c in enumerate(f):
        term = P.scale(P.mul(P.pow_poly(un, i), P.pow_poly(ud, 3 - i)), c)
        lhs_num = P.add(lhs_num, term)
    lhs = P.mul(lhs_num, P.mul(v.den, v.den))
    rhs = P.mul(P.mul(C.h6, P.mul(v.num, v.num)), P.pow_poly(ud, 3))
    return lhs == rhs


def verify_rescaling(C1: fixtures.GenusTwoCurve, C2: fixtures.GenusTwoCurve, c) -> bool:
    """Whether C1 is C2 with y rescaled by c, i.e. h6(C1) = c^2 h6(C2)."""
    c = P.fraction(c)
    if c == 0:
        raise ValueError("the rescaling factor must be nonzero")
    return C1.h6 == P.scale(C2.h6, c * c)
