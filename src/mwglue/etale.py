"""Cubic etale algebras Q[x]/(f) as products of number fields of degree <= 3.

Norms, the square-norm kernel test, and a sound decision procedure for
squareness of units:

  * A non-square certificate is a prime p (dividing neither disc f nor any
    numerator or denominator appearing in the element) together with a root
    of one component mod p at which the element reduces to a quadratic
    non-residue.  A unit square would reduce to a residue at every such
    root, so the certificate alone proves non-squareness in that component.
  * A square witness is an element whose square equals the input exactly.
    Witnesses are recovered by lifting a square root p-adically at a prime
    where the component splits, interpolating, and reconstructing rational
    coefficients below a height bound; the result is verified exactly.
  * Unknown is returned only when both searches exhaust their bounds.

The certificate scan walks primes in increasing order, so the smallest
certifying prime wins and repeated runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, isqrt

from . import poly as P
from .arith import SquareClassTriple, first_primes, is_prime, square_class
from .poly import ONE, ZERO, Poly


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


@dataclass(frozen=True)
class CubicEtaleAlgebra:
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

    @property
    def disc(self) -> Fraction:
        return P.cubic_disc(self.f)

    @property
    def degree_pattern(self) -> tuple[int, ...]:
        return tuple(P.degree(c) for c in self.components)

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

    def rational(self, c) -> "AlgebraElement":
        return self.element([c])

    def generator(self) -> "AlgebraElement":
        return self.element([0, 1])


@dataclass(frozen=True)
class AlgebraElement:
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

    def inverse(self) -> "AlgebraElement":
        out = []
        for m, r in zip(self.algebra.components, self.residues):
            g, s, _ = P.xgcd_poly(r, m)
            if g != ONE:
                raise NonUnitError("the element is not invertible")
            out.append(P.mod_poly(s, m))
        return AlgebraElement(self.algebra, tuple(out))

    def constant_at(self, i: int) -> Fraction:
        """The value in a degree-1 component."""
        if P.degree(self.algebra.components[i]) != 1:
            raise ValueError("the component is not rational")
        return P.constant_value(self.residues[i])

    def component_values(self) -> tuple[Fraction, ...]:
        return tuple(self.constant_at(i) for i in range(len(self.residues)))

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


def _component_norm(m: Poly, r: Poly) -> Fraction:
    """Determinant of multiplication by r on the power basis of Q[x]/(m)."""
    d = P.degree(m)
    if not r:
        return Fraction(0)
    if d == 1:
        return r[0]
    cols = []
    cur = r
    for _ in range(d):
        cols.append([cur[i] if i < len(cur) else Fraction(0) for i in range(d)])
        cur = P.mod_poly(P.mul(cur, P.X), m)
    if d == 2:
        return cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
    a, b, c = cols
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def has_square_norm(elem: AlgebraElement) -> bool:
    """Whether the element's norm lands in the trivial square class."""
    if not elem.is_unit:
        raise NonUnitError("the square-norm test needs an invertible element")
    return square_class(elem.norm()).is_trivial


# ---------------------------------------------------------------------------
# squareness decisions


@dataclass(frozen=True)
class SquareSearchBounds:
    cert_primes: int = 200  # primes scanned for non-residue certificates
    recon_height: int = 10**9  # numerator/denominator bound for recovered roots
    split_attempts: int = 3  # split primes tried per component recovery


DEFAULT_BOUNDS = SquareSearchBounds()


@dataclass(frozen=True)
class NonSquareCertificate:
    p: int
    component: int
    root: int
    value: int

    def validate(self, algebra: CubicEtaleAlgebra, elem: AlgebraElement) -> bool:
        """Recheck every certificate condition from scratch."""
        p = self.p
        if p == 2 or not is_prime(p):
            return False
        if _is_bad_prime(algebra, elem, p):
            return False
        if not 0 <= self.component < len(algebra.components):
            return False
        try:
            mc = _poly_mod_int(algebra.components[self.component], p)
            res = _poly_mod_int(elem.residues[self.component], p)
        except ZeroDivisionError:
            return False
        if _eval_mod(mc, self.root % p, p) != 0:
            return False
        v = _eval_mod(res, self.root % p, p)
        if v == 0 or v != self.value % p:
            return False
        return _euler(v, p) == -1

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "component": self.component,
            "root": self.root,
            "value": self.value,
        }

    @classmethod
    def from_json(cls, data) -> "NonSquareCertificate":
        return cls(
            int(data["p"]), int(data["component"]), int(data["root"]), int(data["value"])
        )


@dataclass(frozen=True)
class Square:
    witness: AlgebraElement


@dataclass(frozen=True)
class NonSquare:
    certificate: NonSquareCertificate


@dataclass(frozen=True)
class Unknown:
    bounds: SquareSearchBounds
    reason: str = ""


SquareDecision = Square | NonSquare | Unknown


def _is_bad_prime(algebra: CubicEtaleAlgebra, elem: AlgebraElement, p: int) -> bool:
    """p divides disc(f) or some numerator/denominator appearing in the element."""
    d = algebra.disc
    if d.numerator % p == 0 or d.denominator % p == 0:
        return True
    for r in elem.residues:
        for c in r:
            if c and (c.numerator % p == 0 or c.denominator % p == 0):
                return True
    return False


def _poly_mod_int(q: Poly, p: int) -> list[int]:
    out = []
    for c in q:
        if c.denominator % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    while out and out[-1] == 0:
        out.pop()
    return out


def _eval_mod(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _euler(v: int, p: int) -> int:
    t = pow(v, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    a %= p
    if a == 0:
        return 0
    if _euler(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _euler(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _quadratic_roots_mod(c0: int, c1: int, p: int) -> list[int]:
    """Roots of x^2 + c1 x + c0 mod an odd prime p."""
    s = _sqrt_mod_prime((c1 * c1 - 4 * c0) % p, p)
    if s is None:
        return []
    inv2 = pow(2, -1, p)
    return sorted({(-c1 + s) * inv2 % p, (-c1 - s) * inv2 % p})


def _roots_mod_p(m: Poly, p: int) -> list[int]:
    """Roots in F_p of a monic component polynomial of degree <= 3."""
    coeffs = _poly_mod_int(m, p)
    d = len(coeffs) - 1
    if d == 1:
        return [(-coeffs[0]) % p]
    if d == 2:
        return _quadratic_roots_mod(coeffs[0], coeffs[1], p)
    for r in range(p):
        if _eval_mod(coeffs, r, p) == 0:
            # synthetic division by (x - r), then the quadratic formula
            q1 = (coeffs[2] + r) % p
            q0 = (coeffs[1] + r * q1) % p
            return sorted({r, *_quadratic_roots_mod(q0, q1, p)})
    return []


def _certificate_scan(algebra, elem, primes) -> NonSquareCertificate | None:
    for p in primes:
        if p == 2 or _is_bad_prime(algebra, elem, p):
            continue
        for ci, m in enumerate(algebra.components):
            try:
                res = _poly_mod_int(elem.residues[ci], p)
                roots = _roots_mod_p(m, p)
            except ZeroDivisionError:
                break
            for r in roots:
                v = _eval_mod(res, r, p)
                if v and _euler(v, p) == -1:
                    return NonSquareCertificate(p, ci, r, v)
    return None


def _solve_vandermonde(xs: list[int], rhs: list[int], modulus: int) -> list[int] | None:
    d = len(xs)
    rows = [[pow(x, j, modulus) for j in range(d)] + [v] for x, v in zip(xs, rhs)]
    for col in range(d):
        piv = next((i for i in range(col, d) if gcd(rows[i][col], modulus) == 1), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, modulus)
        rows[col] = [v * inv % modulus for v in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                fct = rows[i][col]
                rows[i] = [(v - fct * w) % modulus for v, w in zip(rows[i], rows[col])]
    return [rows[i][d] % modulus for i in range(d)]


def _rat_recon(c: int, modulus: int, bound: int) -> Fraction | None:
    """Rational n/d with |n|, d <= bound congruent to c, verified, or None."""
    r0, r1 = modulus, c % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        qt = r0 // r1
        r0, r1 = r1, r0 - qt * r1
        t0, t1 = t1, t0 - qt * t1
    if t1 == 0:
        return None
    n, den = r1, t1
    if den < 0:
        n, den = -n, -den
    if den > bound or gcd(n, den) != 1:
        return None
    if (n - c * den) % modulus != 0:
        return None
    return Fraction(n, den)


def _lift_and_reconstruct(m: Poly, r: Poly, roots: list[int], p: int, height: int) -> Poly | None:
    d = len(roots)
    k, modulus = 1, p
    target = 2 * height * height
    while modulus <= target:
        modulus *= p
        k += 1
    lifted = [P.lift_root(m, rt, p, k) for rt in roots]
    vals = []
    for rt in lifted:
        v = P.eval_mod(r, rt, modulus)
        if v is None:
            return None
        vals.append(v)
    sqrts = []
    for v in vals:
        s = _sqrt_mod_prime(v % p, p)
        if not s:
            return None
        sqrts.append(P.lift_root((-v, 0, 1), s, p, k))  # the root of X^2 - v above s
    bound = isqrt(modulus // 2)
    for signs in iter_product(*([(1,)] + [(1, -1)] * (d - 1))):
        rhs = [s if e == 1 else modulus - s for s, e in zip(sqrts, signs)]
        solved = _solve_vandermonde(lifted, rhs, modulus)
        if solved is None:
            continue
        coeffs = []
        for cm in solved:
            fr = _rat_recon(cm, modulus, bound)
            if fr is None:
                break
            coeffs.append(fr)
        else:
            b = P.poly(coeffs)
            if P.mod_poly(P.sub(P.mul(b, b), r), m) == ZERO:
                return b
    return None


def _component_sqrt(algebra, elem, ci, primes, bounds):
    """Exact square root in one component, a certificate, or None."""
    m = algebra.components[ci]
    r = elem.residues[ci]
    if P.degree(m) == 1:
        s = P.sqrt_fraction(P.constant_value(r))
        return None if s is None else P.poly([s])
    d = P.degree(m)
    attempts = 0
    for p in primes:
        if attempts >= bounds.split_attempts:
            break
        if p == 2 or _is_bad_prime(algebra, elem, p):
            continue
        try:
            roots = _roots_mod_p(m, p)
            res = _poly_mod_int(r, p)
        except ZeroDivisionError:
            continue
        if len(roots) != d:
            continue
        vals = [_eval_mod(res, rt, p) for rt in roots]
        if any(v == 0 for v in vals):
            continue
        for rt, v in zip(roots, vals):
            if _euler(v, p) == -1:
                return NonSquareCertificate(p, ci, rt, v)
        attempts += 1
        got = _lift_and_reconstruct(m, r, roots, p, bounds.recon_height)
        if got is not None:
            return got
    return None


def is_square(
    algebra: CubicEtaleAlgebra,
    elem: AlgebraElement,
    bounds: SquareSearchBounds = DEFAULT_BOUNDS,
) -> SquareDecision:
    """Decide squareness of a unit: exact witness, certificate, or Unknown."""
    if elem.algebra != algebra:
        raise ValueError("the element does not belong to the algebra")
    if not elem.is_unit:
        raise NonUnitError("squareness is only decided for units")
    primes = first_primes(bounds.cert_primes)
    cert = _certificate_scan(algebra, elem, primes)
    if cert is not None:
        return NonSquare(cert)
    witnesses = []
    for ci in range(len(algebra.components)):
        got = _component_sqrt(algebra, elem, ci, primes, bounds)
        if isinstance(got, NonSquareCertificate):
            return NonSquare(got)
        if got is None:
            return Unknown(bounds, f"component {ci} unresolved within bounds")
        witnesses.append(got)
    witness = algebra.element_from_components(witnesses)
    if (witness * witness).residues != elem.residues:
        raise AssertionError("recovered witness failed the exact check")
    return Square(witness)


@dataclass(frozen=True)
class AlgebraSquareClass:
    """A square class of units of the algebra.

    For split algebras the representative is normalized componentwise to the
    canonical squarefree integer of its rational square class, so equality is
    structural; otherwise the raw representative is kept and comparisons go
    through is_square on ratios.
    """

    rep: AlgebraElement
    normalized: bool = False

    @classmethod
    def of(cls, elem: AlgebraElement) -> "AlgebraSquareClass":
        if not elem.is_unit:
            raise NonUnitError("square classes are classes of units")
        algebra = elem.algebra
        if algebra.is_split:
            reps = tuple(
                P.poly([square_class(P.constant_value(r)).representative()])
                for r in elem.residues
            )
            return cls(AlgebraElement(algebra, reps), True)
        return cls(elem, False)

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
        a, b, c = (square_class(P.constant_value(r)) for r in self.rep.residues)
        return SquareClassTriple(a, b, c)

    def is_trivial(self, bounds: SquareSearchBounds = DEFAULT_BOUNDS) -> bool | None:
        """True/False when decidable; None when the search bounds run out."""
        if self.algebra.is_split:
            return self.triple().is_trivial
        decision = is_square(self.algebra, self.rep, bounds)
        if isinstance(decision, Square):
            return True
        if isinstance(decision, NonSquare):
            return False
        return None

    def same_class_as(self, other, bounds: SquareSearchBounds = DEFAULT_BOUNDS) -> bool | None:
        return (self * other).is_trivial(bounds)

    def to_json(self) -> dict:
        return {"rep": self.rep.to_json(), "normalized": self.normalized}


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
