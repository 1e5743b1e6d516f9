"""Descent classes of rational points and the glued-Jacobian membership test.

A rational point P on y^2 = f maps to the square class of x_P - X in
Q[x]/(f); this is a homomorphism killing doubles.  A point of order 2 maps
to the class that agrees with x_P - X away from its vanishing component,
with the rational component forced by the square-norm condition (it equals
the class of f'(x_P)).  Comparing classes across a gluing decides whether a
point pair is hit by the glued Jacobian's rational points, and an F2 span
computation decides whether a point escapes torsion plus the pushforward
image.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import itemgetter

from . import arith, glue, squares
from . import poly as P
from .ellcurve import ECPoint, EllipticCurve
from .etale import (
    CERT_PRIMES,
    AlgebraElement,
    AlgebraSquareClass,
    CubicEtaleAlgebra,
    NonSquare,
    NonSquareCertificate,
    Square,
    has_square_norm,
    is_square,
)
from .record import Record

IN_IMAGE = "in_image"
NOT_IN_IMAGE = "not_in_image"
UNKNOWN = "unknown"
CONTAINED = "contained"
NOT_CONTAINED = "not_contained"


# memoized: the checks of a family instance ask again for its points' classes,
# and the prime search and every instance for F's generators'.  The
# 15-instance `family --l1 3 --l2 5` run asks 165 times for 105 classes;
# without the cache it took 0.5 ms more in-process, of 11.5 ms, and with F's
# two generators 2.5 ms more, of 17.3 ms (medians of 15 processes, Python
# 3.11, a 2-core Xeon virtual machine)
@lru_cache(maxsize=256)
def descent_class(
    curve: EllipticCurve, algebra: CubicEtaleAlgebra, point: ECPoint
) -> AlgebraSquareClass:
    """The image of a rational point in the square classes of Q[x]/(f)."""
    if algebra.f != curve.f_poly():
        raise ValueError("the algebra was not built from the curve's cubic")
    if point.is_infinity:
        return AlgebraSquareClass.of(algebra.one())
    curve._require_on_curve(point)
    if point.y != 0:
        return AlgebraSquareClass.of(algebra.element([point.x, -1]))
    # order 2: x_P - X vanishes in the rational component x - x_P; that
    # component is forced by the square-norm condition to the product of the
    # other components' values at x_P, which is f'(x_P)
    elem = algebra.element([point.x, -1])
    forced = P.poly([curve.f_derivative_at(point.x)])
    return AlgebraSquareClass.of(
        algebra.element_from_components(r or forced for r in elem.residues)
    )


def transfer_class(gluing: glue.GluingData, cls: AlgebraSquareClass) -> AlgebraSquareClass:
    """Carry a square-norm class across the gluing, F side to E side, by
    alpha -> h(alpha); components are paired through h, so the result does
    not depend on either algebra's component order."""
    if cls.algebra != gluing.Lprime:
        raise ValueError("the class is not over the F-side algebra")
    if not has_square_norm(cls.rep):
        raise ValueError("the class is not in the square-norm kernel")
    return AlgebraSquareClass.of(
        glue.algebra_map(gluing.Lprime, gluing.L, gluing.psi.h, cls.rep)
    )


class MembershipVerdict(Record):
    verdict: str
    certificate: NonSquareCertificate | None = None
    cert_primes: int | None = None  # the squareness search bound that ran out

    def to_json(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = {"kind": "non_square", **self.certificate.to_json()}
        out = {"verdict": self.verdict, "certificate": cert}
        if self.verdict == UNKNOWN and self.cert_primes is not None:
            out["bounds"] = {"cert_primes": self.cert_primes}
        return out

    @classmethod
    def from_json(cls, data) -> "MembershipVerdict":
        cert = data.get("certificate")
        if cert is not None:
            if cert.get("kind") != "non_square":
                raise ValueError(f"unknown membership certificate kind {cert.get('kind')!r}")
            cert = NonSquareCertificate.from_json(cert)
        bounds = data.get("bounds")
        return cls(data["verdict"], cert, int(bounds["cert_primes"]) if bounds else None)


def membership(
    gluing: glue.GluingData,
    point_on_E: ECPoint,
    point_on_F: ECPoint,
    cert_primes: int = CERT_PRIMES,
) -> MembershipVerdict:
    """Decide whether the pair is in the image of the glued Jacobian's points.

    The pair is in the image exactly when the transferred F-side class equals
    the E-side class, i.e. when their product is a square.  The verdict can
    be Unknown when the squareness search exhausts its primes, over split
    gluings too, where a rational component's character is a Legendre symbol.
    """
    cp = descent_class(gluing.E, gluing.L, point_on_E)
    cq = descent_class(gluing.F, gluing.Lprime, point_on_F)
    diff = cp * transfer_class(gluing, cq)
    decision = is_square(gluing.L, diff.rep, cert_primes)
    if isinstance(decision, Square):
        return MembershipVerdict(IN_IMAGE)
    if isinstance(decision, NonSquare):
        return MembershipVerdict(NOT_IN_IMAGE, decision.certificate)
    return MembershipVerdict(UNKNOWN, cert_primes=cert_primes)


# The JSON keys of a certificate's entries in each form.
_COORDINATE_KEYS = ("component", "prime")
_CHARACTER_KEYS = ("p", "component", "root")


class ObstructionVerdict(Record):
    """A span decision in one of two forms.  Over a split gluing the span
    and target are class triples, and a certificate lists valuation
    coordinates (component, prime); otherwise they are unit representatives
    in the E-side algebra, and a certificate lists characters
    (p, component, root) that squares.validate_characters rechecks."""

    status: str
    span: tuple[arith.SquareClassTriple, ...] | tuple[AlgebraElement, ...]
    target: arith.SquareClassTriple | AlgebraElement
    witness: tuple[int, ...] | None = None
    certificate: tuple[arith.Coordinate, ...] | tuple[squares.Character, ...] | None = None
    cert_primes: int | None = None

    def to_json(self) -> dict:
        keys = _CHARACTER_KEYS if isinstance(self.target, AlgebraElement) else _COORDINATE_KEYS
        cert = self.certificate
        out = {
            "status": self.status,
            "span": [z.to_json() for z in self.span],
            "target": self.target.to_json(),
            "witness": list(self.witness) if self.witness is not None else None,
            "certificate": [dict(zip(keys, c)) for c in cert] if cert is not None else None,
        }
        if self.cert_primes is not None:
            out["bounds"] = {"cert_primes": self.cert_primes}
        return out

    @classmethod
    def from_json(cls, data, algebra: CubicEtaleAlgebra | None = None) -> "ObstructionVerdict":
        """Parse either form; the non-split form needs the E-side algebra."""
        if isinstance(data["target"][0], dict):
            elem, keys = arith.SquareClassTriple.from_json, _COORDINATE_KEYS
        elif algebra is None:
            raise ValueError("a non-split verdict needs its algebra")
        else:
            elem, keys = partial(AlgebraElement.from_json, algebra), _CHARACTER_KEYS
        cert, bounds = data.get("certificate"), data.get("bounds")
        return cls(
            data["status"],
            tuple(elem(z) for z in data["span"]),
            elem(data["target"]),
            tuple(data["witness"]) if data.get("witness") is not None else None,
            tuple(map(itemgetter(*keys), cert)) if cert is not None else None,
            int(bounds["cert_primes"]) if bounds else None,
        )


def surjectivity_obstruction(
    gluing: glue.GluingData,
    point: ECPoint,
    F_generators,
    torsion_generators,
    cert_primes: int = CERT_PRIMES,
) -> ObstructionVerdict:
    """Whether the point's class lies in the span of the classes of the
    supplied E-side torsion generators and the transferred classes of the
    supplied F-side generators.

    A not_contained verdict certifies that the point is outside the subgroup
    generated by those torsion points and the pushforward image; its
    soundness rests on the caller-supplied facts that the torsion generators
    generate E(Q)_tors and the F generators generate the F-side group.
    Split gluings decide over valuation coordinates and are always decided;
    otherwise squares.span_contains decides over quadratic characters.
    """
    target = descent_class(gluing.E, gluing.L, point)
    span = [descent_class(gluing.E, gluing.L, t) for t in torsion_generators]
    for g in F_generators:
        span.append(transfer_class(gluing, descent_class(gluing.F, gluing.Lprime, g)))
    if gluing.L.is_split:
        span, target = tuple(c.triple() for c in span), target.triple()
        decision = arith.subgroup_contains([z.coordinates() for z in span], target.coordinates())
    else:
        span, target = tuple(c.rep for c in span), target.rep
        decision = squares.span_contains(gluing.L, span, target, cert_primes)
    if decision.contained is None:
        return ObstructionVerdict(UNKNOWN, span, target, cert_primes=cert_primes)
    status = CONTAINED if decision.contained else NOT_CONTAINED
    return ObstructionVerdict(status, span, target, decision.witness, decision.certificate)
