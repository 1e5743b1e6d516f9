"""Cubic etale algebras Q[x]/(f) as products of number fields of degree <= 3.

Norms, the square-norm kernel test, square classes of units, and squareness
decisions with their certificates.  The scan that decides them, over
quadratic characters and exact square roots, lives in `mwglue.squares`,
which loads only when a squareness question is asked.  The maps a gluing's
h induces between two algebras live in `mwglue.glue`.
"""

from __future__ import annotations

from . import arith, squares
from . import poly as P
from .poly import ONE, Poly, Rational
from .record import Record


class NonUnitError(ValueError):
    """The operation needs an invertible algebra element."""


class CubicEtaleAlgebra(Record):
    f: Poly
    components: tuple[Poly, ...]

    @classmethod
    def from_cubic(cls, f, root_order=None) -> "CubicEtaleAlgebra":
        f = P.poly(f)
        if P.degree(f) != 3 or f[3] != 1:
            raise ValueError("the defining polynomial must be a monic cubic")
        given = None if root_order is None else [P.fraction(r) for r in root_order]
        # three distinct rationals at which the cubic vanishes are its roots,
        # and they prove it squarefree
        if given and len(given) == 3 == len(set(given)) and not any(P.eval_at(f, r) for r in given):
            roots = given
        else:
            if not P.is_squarefree(f):
                raise ValueError("the defining polynomial must be squarefree")
            roots = P.rational_roots_monic(f)
            if given is not None:
                raise ValueError(
                    "a root order needs a fully split cubic"
                    if len(roots) != 3
                    else "the root order must list the three roots of f"
                )
        # a cubic has 0, 1 or 3 rational roots: with none f is irreducible,
        # with one the cofactor is an irreducible quadratic
        comps = tuple(P.poly([-r, 1]) for r in roots)
        if len(comps) == 1:
            comps += (P.divmod_poly(f, comps[0])[0],)
        return cls(f, comps or (f,))

    @property
    def is_split(self) -> bool:
        return all(P.degree(c) == 1 for c in self.components)

    def element(self, coeffs) -> "AlgebraElement":
        """The element represented by a polynomial in the generator."""
        q = P.poly(coeffs)
        return AlgebraElement(self, tuple(P.mod_poly(q, m) for m in self.components))

    def element_from_components(self, residues) -> "AlgebraElement":
        res = tuple(P.poly(r) for r in residues)
        if len(res) != len(self.components):
            raise ValueError("one residue per component is required")
        for r, m in zip(res, self.components):
            if P.degree(r) >= P.degree(m):
                raise ValueError("residue degree must be below the component degree")
        return AlgebraElement(self, res)

    def one(self) -> "AlgebraElement":
        return self.element(ONE)


class AlgebraElement(Record):
    algebra: CubicEtaleAlgebra
    residues: tuple[Poly, ...]

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.algebra != other.algebra:
            raise ValueError("elements live in different algebras")
        return AlgebraElement(
            self.algebra,
            tuple(
                P.mod_poly(P.mul(a, b), m)
                for a, b, m in zip(self.residues, other.residues, self.algebra.components)
            ),
        )

    def component_norms(self) -> tuple[int | Rational, ...]:
        return tuple(
            _component_norm(m, r) for m, r in zip(self.algebra.components, self.residues)
        )

    def norm(self) -> int | Rational:
        out = 1
        for v in self.component_norms():
            out *= v
        return out

    @property
    def is_unit(self) -> bool:
        return all(v != 0 for v in self.component_norms())

    def to_json(self) -> list:
        return [[str(c) for c in r] for r in self.residues]

    @classmethod
    def from_json(cls, algebra: CubicEtaleAlgebra, data) -> "AlgebraElement":
        return algebra.element_from_components([P.rationals(r, "residue") for r in data])


def _mul_matrix(m: Poly, r: Poly) -> list[list[int | Rational]]:
    """Multiplication by r on the power basis of Q[x]/(m), one row per
    image r, r X, ..., r X^(d-1) reduced mod m (the transpose)."""
    d = P.degree(m)
    rows = [r]
    while len(rows) < d:
        rows.append(P.mod_poly(P.mul(rows[-1], P.X), m))
    return [[c[i] if i < len(c) else 0 for i in range(d)] for c in rows]


def _component_norm(m: Poly, r: Poly) -> int | Rational:
    """The norm of r from Q[x]/(m); over a linear m, r is a constant, its own norm."""
    if not r:
        return 0
    return r[0] if len(m) == 2 else P.det(_mul_matrix(m, r))


def has_square_norm(elem: AlgebraElement) -> bool:
    """Whether the element's norm lands in the trivial square class."""
    if not elem.is_unit:
        raise NonUnitError("the square-norm test needs an invertible element")
    return arith.square_class(elem.norm()).is_trivial


# ---------------------------------------------------------------------------
# squareness decisions


CERT_PRIMES = 200  # primes scanned for quadratic characters


class NonSquareCertificate(Record):
    p: int
    component: int
    root: int
    value: int

    def validate(self, algebra: CubicEtaleAlgebra, elem: AlgebraElement) -> bool:
        """Recheck every certificate condition from scratch: the one-character
        case of validate_characters, and the value at the root."""
        return squares.validate_characters(
            algebra, (), elem, [(self.p, self.component, self.root)]
        ) and P.eval_mod(elem.residues[self.component], self.root, self.p) == self.value % self.p

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data) -> "NonSquareCertificate":
        return cls(*(int(data[k]) for k in ("p", "component", "root", "value")))


class Square(Record):
    witness: AlgebraElement


class NonSquare(Record):
    certificate: NonSquareCertificate


class Unknown(Record):
    cert_primes: int


SquareDecision = Square | NonSquare | Unknown


def is_square(
    algebra: CubicEtaleAlgebra,
    elem: AlgebraElement,
    cert_primes: int = CERT_PRIMES,
) -> SquareDecision:
    """Decide squareness of a unit, the empty-span case of
    squares.span_contains: an exact witness, a one-character certificate at
    the smallest certifying prime, or Unknown."""
    decision = squares.span_contains(algebra, (), elem, cert_primes)
    if decision.contained:
        return Square(decision.root)
    if decision.contained is None:
        return Unknown(cert_primes)
    ((p, ci, r),) = decision.certificate
    return NonSquare(NonSquareCertificate(p, ci, r, P.eval_mod(elem.residues[ci], r, p)))


class AlgebraSquareClass(Record):
    """A square class of units of the algebra, shown as its unit
    representative over split and non-split algebras alike; classes are
    compared with squares.span_contains.  triple() factors the class into
    (Q*/Q*^2)^3 over a split algebra, for the split span obstruction."""

    rep: AlgebraElement

    @classmethod
    def of(cls, elem: AlgebraElement) -> "AlgebraSquareClass":
        if not elem.is_unit:
            raise NonUnitError("square classes are classes of units")
        return cls(elem)

    @property
    def algebra(self) -> CubicEtaleAlgebra:
        return self.rep.algebra

    def __mul__(self, other: "AlgebraSquareClass") -> "AlgebraSquareClass":
        if self.algebra != other.algebra:
            raise ValueError("classes live in different algebras")
        return AlgebraSquareClass.of(self.rep * other.rep)

    def triple(self) -> arith.SquareClassTriple:
        if not self.algebra.is_split:
            raise ValueError("class triples need a fully split algebra")
        return arith.SquareClassTriple.from_rationals(*(P.constant_value(r) for r in self.rep.residues))

    def to_json(self) -> dict:
        return {"rep": self.rep.to_json()}

