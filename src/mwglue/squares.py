"""The squareness scan: span containment in the square classes of units of a
cubic etale algebra, decided soundly.

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
repeated runs are deterministic.  Only a squareness question loads it.
"""

from __future__ import annotations

from itertools import islice
from math import prod

from . import arith, etale
from . import poly as P

# A quadratic character of the unit group: alpha -> (alpha_component(root) / p).
Character = tuple[int, int, int]  # (p, component, root)


def _bad_modulus(algebra: etale.CubicEtaleAlgebra, elems) -> int:
    """A nonzero integer divisible by every bad prime: the primes dividing
    disc(f), a denominator of a component, or a numerator or denominator of
    a coefficient of some element."""
    d = P.cubic_disc(algebra.f)
    return prod([
        d.numerator * d.denominator,
        *(c.denominator for m in algebra.components for c in m),
        *(c.numerator * c.denominator for e in elems for r in e.residues for c in r if c),
    ])


def _euler(v: int, p: int) -> int:
    t = pow(v, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def xgcd_poly(p: P.Poly, q: P.Poly) -> tuple[P.Poly, P.Poly, P.Poly]:
    """Monic g = gcd(p, q) together with s, t satisfying s*p + t*q = g."""
    r0, r1 = p, q
    s0, s1 = P.ONE, P.ZERO
    t0, t1 = P.ZERO, P.ONE
    while r1:
        qt, r = etale.divmod_poly(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, P.sub(s0, P.mul(qt, s1))
        t0, t1 = t1, P.sub(t0, P.mul(qt, t1))
    if not r0:
        return P.ZERO, P.ZERO, P.ZERO
    c = P.ratio(1, r0[-1])
    return P.scale(r0, c), P.scale(s0, c), P.scale(t0, c)


def _component_sqrt(m: P.Poly, r: P.Poly) -> P.Poly | None:
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
        a = etale.constant_value(r)
        c = etale.sqrt_fraction(P.ratio(a, m[1] * m[1] - 4 * m[0])) if d == 2 else None
        for b, k in ((P.ONE, etale.sqrt_fraction(a)), (P.poly([m[1], 2]), c)):
            if k is not None:
                candidates.append(P.scale(b, k))
    else:
        mat = etale._mul_matrix(m, r)
        norm_root = etale.sqrt_fraction(etale.det(mat))  # +-N(beta)
        if norm_root is None:
            return None
        e1 = sum(mat[i][i] for i in range(d))
        if d == 2:
            for n in (norm_root, -norm_root):
                t = etale.sqrt_fraction(e1 + 2 * n)
                if t:
                    candidates.append(P.scale(P.add(r, P.poly([n])), P.ratio(1, t)))
        else:
            # Tr(alpha^2) is the trace of the squared matrix
            e2 = P.ratio(e1 * e1 - sum(mat[i][j] * mat[j][i] for i in range(3) for j in range(3)), 2)
            quartic = P.poly([e1 * e1 - 4 * e2, -8 * norm_root, -2 * e1, 0, 1])
            for s1 in P.rational_roots_monic(quartic):
                _, inv, _ = xgcd_poly(P.add(r, P.poly([P.ratio(s1 * s1 - e1, 2)])), m)
                candidates.append(etale.mod_poly(P.mul(P.add(P.scale(r, s1), P.poly([norm_root])), inv), m))
    return next((b for b in candidates if etale.mod_poly(P.sub(P.mul(b, b), r), m) == P.ZERO), None)


def span_contains(
    algebra: etale.CubicEtaleAlgebra,
    span,
    target: etale.AlgebraElement,
    cert_primes: int = etale.CERT_PRIMES,
) -> arith.ContainmentResult:
    """Decide whether the unit target lies in the span of the units in span
    modulo squares.  A certificate lists characters (p, component, root),
    and a witness comes with its exact root.

    The exact root of the target times the witnessed span elements is tried
    first for the empty witness.  Then one scan over the first cert_primes
    primes gives each element the set of characters
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
            raise etale.NonUnitError("containment is only decided for units")
    tried = set()

    def exact(witness: tuple[int, ...]) -> arith.ContainmentResult | None:
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
        return arith.ContainmentResult(True, witness=witness, root=root)

    found = exact(())
    if found is not None:
        return found
    bad = _bad_modulus(algebra, elems)
    coords: list[set[Character]] = [set() for _ in elems]
    for p in islice(P.odd_primes(), max(cert_primes - 1, 0)):  # the first cert_primes primes but 2
        if bad % p == 0:
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
            res = arith.subgroup_contains(coords[:-1], coords[-1])
            if not res.contained:
                return res
            found = exact(res.witness)
            if found is not None:
                return found
    return arith.ContainmentResult(None)


def validate_characters(algebra: etale.CubicEtaleAlgebra, span, target, characters) -> bool:
    """Recheck a character certificate from scratch: each (p, component,
    root) names an odd prime of good reduction for every element and a root
    of the component mod p at which no element vanishes, and the characters
    sum to 1 on the target and to 0 on every span element."""
    elems = (*span, target)
    bad = _bad_modulus(algebra, elems)
    odd = [False] * len(elems)
    for p, ci, r in characters:
        if p == 2 or not arith.is_prime(p) or bad % p == 0 or not 0 <= ci < len(algebra.components):
            return False
        if P.eval_mod(algebra.components[ci], r, p) != 0:
            return False
        for j, e in enumerate(elems):
            v = P.eval_mod(e.residues[ci], r, p)
            if not v:
                return False
            odd[j] ^= _euler(v, p) == -1
    return odd[-1] and not any(odd[:-1])
