"""Cubic etale algebras Q[x]/(f) as products of number fields of degree <= 3.

Norms, the square-norm kernel test, and one sound decision procedure for
containment in the square classes of units, of which squareness is the
empty-span case:

  * A quadratic character (p, component, root), for an odd prime p dividing
    neither disc f nor any numerator or denominator of the elements and a
    root of the component mod p (from poly.roots_mod) at which no element
    vanishes, sends a unit to the Legendre symbol of its value there.  It is
    F2-linear on the group the elements generate, so characters that sum to
    1 on the target and to 0 on every span element prove non-containment;
    for squareness this is one character at which the element is a
    non-residue.
  * A containment witness is a span subset with an exact square root of the
    target times its product.  In each component the root is read off the
    characteristic polynomial: the symmetric functions of the root's
    conjugates are rational roots of a polynomial built from the element's,
    so no bound is needed, and every candidate is verified exactly.
  * Unknown is returned only when the scan exhausts its primes with neither
    a certificate nor a witness whose product has a root.

The scan walks primes in increasing order and decides over the characters
with arith.subgroup_contains, so the smallest certifying prime wins and
repeated runs are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod

from . import poly as P
from .arith import SquareClassTriple, first_primes, is_prime, square_class, subgroup_contains
from .poly import ONE, ZERO, Poly
from .record import Record


class NonUnitError(ValueError):
    """The operation needs an invertible algebra element."""


def _factor_monic_cubic(f: Poly) -> tuple[Poly, ...]:
    roots = P.rational_roots_monic(f)
    if not roots:
        return (f,)
    rest = f
    factors = []
    for r in roots:
        lin = P.poly([-r, 1])
        factors.append(lin)
        rest, rem = P.divmod_poly(rest, lin)
        if rem != ZERO:
            raise AssertionError("root division left a remainder")
    if P.degree(rest) == 0:
        return tuple(factors)
    # a cubic has 0, 1 or 3 rational roots, so the cofactor is an
    # irreducible quadratic here
    if P.degree(rest) != 2:
        raise AssertionError("unexpected degree pattern")
    return (*factors, rest)


class CubicEtaleAlgebra(Record):
    f: Poly
    components: tuple[Poly, ...]

    @classmethod
    def from_cubic(cls, f, root_order=None) -> "CubicEtaleAlgebra":
        f = P.poly(f)
        if P.degree(f) != 3 or f[3] != 1:
            raise ValueError("the defining polynomial must be a monic cubic")
        if not P.is_squarefree(f):
            raise ValueError("the defining polynomial must be squarefree")
        comps = _factor_monic_cubic(f)
        if root_order is not None:
            order = [Fraction(r) for r in root_order]
            if any(P.degree(c) != 1 for c in comps):
                raise ValueError("a root order needs a fully split cubic")
            if set(order) != {-c[0] for c in comps} or len(order) != 3:
                raise ValueError("the root order must list the three roots of f")
            comps = tuple(P.poly([-r, 1]) for r in order)
        return cls(f, comps)

    @property
    def is_split(self) -> bool:
        return all(P.degree(c) == 1 for c in self.components)

    def split_roots(self) -> tuple[Fraction, ...]:
        if not self.is_split:
            raise ValueError("the algebra is not split")
        return tuple(-c[0] for c in self.components)

    @cached_property
    def disc(self) -> Fraction:
        return P.cubic_disc(self.f)

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

    def _require_same(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(
            self.algebra,
            tuple(P.add(a, b) for a, b in zip(self.residues, other.residues)),
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(P.neg(r) for r in self.residues))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(
            self.algebra,
            tuple(
                P.mod_poly(P.mul(a, b), m)
                for a, b, m in zip(self.residues, other.residues, self.algebra.components)
            ),
        )

    def component_norms(self) -> tuple[Fraction, ...]:
        return tuple(
            _component_norm(m, r) for m, r in zip(self.algebra.components, self.residues)
        )

    def norm(self) -> Fraction:
        out = Fraction(1)
        for v in self.component_norms():
            out *= v
        return out

    @property
    def is_unit(self) -> bool:
        return all(v != 0 for v in self.component_norms())

    def lift(self) -> Poly:
        """The unique representative of degree < 3 modulo f (CRT)."""
        comps = self.algebra.components
        if len(comps) == 1:
            return self.residues[0]
        acc = ZERO
        for i, (m, r) in enumerate(zip(comps, self.residues)):
            others = ONE
            for j, mj in enumerate(comps):
                if j != i:
                    others = P.mul(others, mj)
            g, s, _ = P.xgcd_poly(others, m)
            if g != ONE:
                raise AssertionError("components are not coprime")
            basis = P.mod_poly(P.mul(s, others), self.algebra.f)
            acc = P.add(acc, P.mod_poly(P.mul(r, basis), self.algebra.f))
        return P.mod_poly(acc, self.algebra.f)

    def to_json(self) -> list:
        return [[str(c) for c in r] for r in self.residues]

    @classmethod
    def from_json(cls, algebra: CubicEtaleAlgebra, data) -> "AlgebraElement":
        return algebra.element_from_components(
            [[Fraction(c) for c in r] for r in data]
        )


def _mul_matrix(m: Poly, r: Poly) -> list[list[Fraction]]:
    """Multiplication by r on the power basis of Q[x]/(m), one row per
    image r, r X, ..., r X^(d-1) reduced mod m (the transpose)."""
    d = P.degree(m)
    rows = [r]
    while len(rows) < d:
        rows.append(P.mod_poly(P.mul(rows[-1], P.X), m))
    return [[c[i] if i < len(c) else Fraction(0) for i in range(d)] for c in rows]


def _component_norm(m: Poly, r: Poly) -> Fraction:
    return P.det(_mul_matrix(m, r)) if r else Fraction(0)


def has_square_norm(elem: AlgebraElement) -> bool:
    """Whether the element's norm lands in the trivial square class."""
    if not elem.is_unit:
        raise NonUnitError("the square-norm test needs an invertible element")
    return square_class(elem.norm()).is_trivial


# ---------------------------------------------------------------------------
# squareness decisions


class SquareSearchBounds(Record):
    cert_primes: int = 200  # primes scanned for quadratic characters


DEFAULT_BOUNDS = SquareSearchBounds()


class NonSquareCertificate(Record):
    p: int
    component: int
    root: int
    value: int

    def validate(self, algebra: CubicEtaleAlgebra, elem: AlgebraElement) -> bool:
        """Recheck every certificate condition from scratch: the one-character
        case of validate_characters, and the value at the root."""
        return validate_characters(
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
    bounds: SquareSearchBounds


SquareDecision = Square | NonSquare | Unknown

# A quadratic character of the unit group: alpha -> (alpha_component(root) / p).
Character = tuple[int, int, int]  # (p, component, root)


def _bad_modulus(algebra: CubicEtaleAlgebra, elems) -> int:
    """A nonzero integer divisible by every bad prime: the primes dividing
    disc(f), a denominator of a component, or a numerator or denominator of
    a coefficient of some element."""
    d = algebra.disc
    return prod([
        d.numerator * d.denominator,
        *(c.denominator for m in algebra.components for c in m),
        *(c.numerator * c.denominator for e in elems for r in e.residues for c in r if c),
    ])


def _euler(v: int, p: int) -> int:
    t = pow(v, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _component_sqrt(m: Poly, r: Poly) -> Poly | None:
    """The exact square root of alpha = r in the field Q[x]/(m), or None.

    A rational alpha = a has the root sqrt(a), and in a quadratic field also
    sqrt(a / D) (2x + m1) with D = m1^2 - 4 m0.  An irrational alpha has a
    root beta whose conjugates have rational symmetric functions s1, s2, s3:
      * degree 2: s2 = N(beta) = +-sqrt(N alpha) and s1 = Tr beta =
        +-sqrt(Tr alpha + 2 s2), nonzero, and beta = (alpha + s2) / s1;
      * degree 3: with alpha's characteristic polynomial X^3 - e1 X^2 +
        e2 X - e3, the sign of beta is fixed by s3 = sqrt(e3); s1 is a
        rational root of (s1^2 - e1)^2 - 8 s3 s1 - 4 e2, whose roots
        +-beta_1 +- beta_2 +- beta_3 (an even number of minus signs) are
        distinct, s2 = (s1^2 - e1) / 2, and beta = (s1 alpha + s3) /
        (alpha + s2).
    Each candidate is checked by squaring it.
    """
    d = P.degree(m)
    candidates = []
    if P.degree(r) <= 0:
        a = P.constant_value(r)
        c = P.sqrt_fraction(a / (m[1] * m[1] - 4 * m[0])) if d == 2 else None
        for b, k in ((ONE, P.sqrt_fraction(a)), (P.poly([m[1], 2]), c)):
            if k is not None:
                candidates.append(P.scale(b, k))
    else:
        mat = _mul_matrix(m, r)
        norm_root = P.sqrt_fraction(P.det(mat))  # +-N(beta)
        if norm_root is None:
            return None
        e1 = sum(mat[i][i] for i in range(d))
        if d == 2:
            for n in (norm_root, -norm_root):
                t = P.sqrt_fraction(e1 + 2 * n)
                if t:
                    candidates.append(P.scale(P.add(r, P.poly([n])), 1 / t))
        else:
            # Tr(alpha^2) is the trace of the squared matrix
            e2 = (e1 * e1 - sum(mat[i][j] * mat[j][i] for i in range(3) for j in range(3))) / 2
            quartic = P.poly([e1 * e1 - 4 * e2, -8 * norm_root, -2 * e1, 0, 1])
            for s1 in P.rational_roots_monic(quartic):
                _, inv, _ = P.xgcd_poly(P.add(r, P.poly([(s1 * s1 - e1) / 2])), m)
                candidates.append(P.mod_poly(P.mul(P.add(P.scale(r, s1), P.poly([norm_root])), inv), m))
    return next((b for b in candidates if P.mod_poly(P.sub(P.mul(b, b), r), m) == ZERO), None)


class SpanDecision(Record):
    """Whether a unit lies in the span of other units modulo squares.

    `contained` is True with `witness`, span indices, and `root`, an exact
    square root of the target times the witnessed span elements; False with
    `certificate`, characters that sum to 1 on the target and to 0 on every
    span element; None when the search bounds ran out.
    """

    contained: bool | None
    witness: tuple[int, ...] | None = None
    root: AlgebraElement | None = None
    certificate: tuple[Character, ...] | None = None


def span_contains(
    algebra: CubicEtaleAlgebra,
    span,
    target: AlgebraElement,
    bounds: SquareSearchBounds = DEFAULT_BOUNDS,
) -> SpanDecision:
    """Decide whether the unit target lies in the span of the units in span
    modulo squares.

    The exact root of the target times the witnessed span elements is tried
    first for the empty witness.  Then one scan over the first
    bounds.cert_primes primes gives each element the set of characters
    (p, component, root) at which it is a non-residue, and
    arith.subgroup_contains decides over those sets after each prime that
    adds one: the first not_contained answer is final, and each witness it
    proposes that has not been tried yet is tried for an exact root.  A
    character at which some element vanishes is dropped, since it is not a
    homomorphism on the group the elements generate.
    """
    elems = (*span, target)
    for e in elems:
        if e.algebra != algebra:
            raise ValueError("the element does not belong to the algebra")
        if not e.is_unit:
            raise NonUnitError("containment is only decided for units")
    tried = set()

    def exact(witness: tuple[int, ...]) -> SpanDecision | None:
        if witness in tried:
            return None
        tried.add(witness)
        product = target
        for i in witness:
            product = product * span[i]
        roots = []
        for m, r in zip(algebra.components, product.residues):
            got = _component_sqrt(m, r)
            if got is None:
                return None
            roots.append(got)
        root = algebra.element_from_components(roots)
        if (root * root).residues != product.residues:
            raise AssertionError("recovered square root failed the exact check")
        return SpanDecision(True, witness=witness, root=root)

    found = exact(())
    if found is not None:
        return found
    bad = _bad_modulus(algebra, elems)
    coords: list[set[Character]] = [set() for _ in elems]
    for p in first_primes(bounds.cert_primes):
        if p == 2 or bad % p == 0:
            continue
        added = False
        for ci, m in enumerate(algebra.components):
            for r in P.roots_mod(m, p):
                vals = [P.eval_mod(e.residues[ci], r, p) for e in elems]
                if 0 in vals:
                    continue
                for cs, v in zip(coords, vals):
                    if _euler(v, p) == -1:
                        cs.add((p, ci, r))
                        added = True
        if added:
            res = subgroup_contains(coords[:-1], coords[-1])
            if not res.contained:
                return SpanDecision(False, certificate=res.certificate)
            found = exact(res.witness)
            if found is not None:
                return found
    return SpanDecision(None)


def validate_characters(algebra: CubicEtaleAlgebra, span, target, characters) -> bool:
    """Recheck a character certificate from scratch: each (p, component,
    root) names an odd prime of good reduction for every element and a root
    of the component mod p at which no element vanishes, and the characters
    sum to 1 on the target and to 0 on every span element."""
    elems = (*span, target)
    bad = _bad_modulus(algebra, elems)
    odd = [False] * len(elems)
    for p, ci, r in characters:
        if p == 2 or not is_prime(p) or bad % p == 0 or not 0 <= ci < len(algebra.components):
            return False
        if P.eval_mod(algebra.components[ci], r, p) != 0:
            return False
        for j, e in enumerate(elems):
            v = P.eval_mod(e.residues[ci], r, p)
            if not v:
                return False
            odd[j] ^= _euler(v, p) == -1
    return odd[-1] and not any(odd[:-1])


def is_square(
    algebra: CubicEtaleAlgebra,
    elem: AlgebraElement,
    bounds: SquareSearchBounds = DEFAULT_BOUNDS,
) -> SquareDecision:
    """Decide squareness of a unit, the empty-span case of span_contains: an
    exact witness, a one-character certificate at the smallest certifying
    prime, or Unknown."""
    decision = span_contains(algebra, (), elem, bounds)
    if decision.contained:
        return Square(decision.root)
    if decision.contained is None:
        return Unknown(bounds)
    ((p, ci, r),) = decision.certificate
    return NonSquare(NonSquareCertificate(p, ci, r, P.eval_mod(elem.residues[ci], r, p)))


class AlgebraSquareClass(Record):
    """A square class of units of the algebra, kept as a raw representative;
    classes are compared with span_contains, and triple() gives the canonical
    form over a split algebra."""

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

    def triple(self) -> SquareClassTriple:
        if not self.algebra.is_split:
            raise ValueError("class triples need a fully split algebra")
        return SquareClassTriple.from_rationals(*(P.constant_value(r) for r in self.rep.residues))

    def to_json(self) -> dict:
        return {"rep": self.rep.to_json()}


def algebra_map(
    src: CubicEtaleAlgebra, dst: CubicEtaleAlgebra, h, elem: AlgebraElement
) -> AlgebraElement:
    """The ring map src -> dst sending the generator of src to h(generator).

    Requires the defining cubic of src to vanish on h modulo the cubic of
    dst, which makes the substitution well defined.
    """
    h = P.poly(h)
    if elem.algebra != src:
        raise ValueError("the element does not belong to the source algebra")
    if P.mod_poly(P.compose(src.f, h), dst.f) != ZERO:
        raise ValueError("h does not define a morphism between the algebras")
    return dst.element(P.compose(elem.lift(), h))
