import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwglue.poly as P
from mwglue.arith import SquareClassTriple
from mwglue.etale import (
    AlgebraSquareClass,
    CubicEtaleAlgebra,
    NonSquare,
    NonSquareCertificate,
    NonUnitError,
    Square,
    Unknown,
    constant_value,
    has_square_norm,
    is_square,
    is_squarefree,
    sqrt_fraction,
)
from mwglue.family import FAMILY_F, build_instance, curve_for_prime, gluing_for_instance
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI
from mwglue.glue import algebra_map, compose, interpolate
from mwglue.squares import span_contains, validate_characters

from oracles import class_product, crt_lift, scan_nonresidue, subset_search_contains

K = CubicEtaleAlgebra.from_cubic(EXAMPLE_E.f_poly())  # a cubic field
KP = CubicEtaleAlgebra.from_cubic(EXAMPLE_F.f_poly())
SPLIT = CubicEtaleAlgebra.from_cubic(
    curve_for_prime(11).f_poly(), root_order=[0, -12, 10]
)
MIXED = CubicEtaleAlgebra.from_cubic(P.poly([1, 0, 0, 1]))  # x^3 + 1 = (x+1)(x^2-x+1)

FAST = 40

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def degrees(algebra):
    return tuple(P.degree(c) for c in algebra.components)


class TestFactorization:
    def test_irreducible(self):
        assert degrees(K) == (3,)
        assert not K.is_split

    def test_split_with_root_order(self):
        assert degrees(SPLIT) == (1, 1, 1)
        assert tuple(-m[0] for m in SPLIT.components) == (0, -12, 10)

    def test_any_order_of_the_roots(self):
        for order in itertools.permutations([0, -12, 10]):
            algebra = CubicEtaleAlgebra.from_cubic(SPLIT.f, root_order=order)
            assert algebra.components == tuple(P.poly([-r, 1]) for r in order)

    def test_mixed_pattern(self):
        # one rational root: its linear factor, then the quadratic quotient
        assert MIXED.components == (P.poly([1, 1]), P.poly([1, -1, 1]))
        lin, quad = P.poly([-Fraction(1, 2), 1]), P.poly([3, 0, 1])
        assert CubicEtaleAlgebra.from_cubic(P.mul(lin, quad)).components == (lin, quad)

    def test_components_multiply_to_f(self):
        for algebra in (K, SPLIT, MIXED):
            prod = P.ONE
            for m in algebra.components:
                prod = P.mul(prod, m)
            assert prod == algebra.f

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            CubicEtaleAlgebra.from_cubic(P.poly([0, 0, 0, 1]))  # x^3

    def test_root_order_requires_split(self):
        with pytest.raises(ValueError, match="needs a fully split cubic"):
            CubicEtaleAlgebra.from_cubic(K.f, root_order=[1, 2, 3])
        with pytest.raises(ValueError, match="needs a fully split cubic"):
            CubicEtaleAlgebra.from_cubic(MIXED.f, root_order=[-1, -1, -1])

    @pytest.mark.parametrize("order", [
        [0, -12],  # too short
        [0, -12, 11],  # 11 is not a root
        [0, 0, -12],  # a repeated root
        [0, -12, 10, 10],  # too long
        [10, 10, 10],  # one root three times
        [Fraction(1, 2), -12, 10],  # 1/2 is not a root
    ])
    def test_root_order_must_list_the_roots(self, order):
        with pytest.raises(ValueError, match="must list the three roots"):
            CubicEtaleAlgebra.from_cubic(SPLIT.f, root_order=order)


class TestNorm:
    def test_shift_of_generator(self):
        assert K.element([-2, -1]).norm() == 1

    def test_norm_of_one(self):
        assert K.one().norm() == 1

    def test_split_product(self):
        elem = SPLIT.element_from_components([[2], [3], [5]])
        assert elem.norm() == 30

    def test_shift_norm_equals_f_value(self):
        rng = random.Random(7)
        for algebra in (K, SPLIT, MIXED):
            for _ in range(20):
                c = Fraction(rng.randrange(-40, 41), rng.randrange(1, 9))
                elem = algebra.element([c, -1])
                assert elem.norm() == P.eval_at(algebra.f, c)

    @given(
        st.lists(small_fractions, min_size=3, max_size=3),
        st.lists(small_fractions, min_size=3, max_size=3),
    )
    @settings(max_examples=40)
    def test_multiplicative(self, acoeffs, bcoeffs):
        a = K.element(acoeffs)
        b = K.element(bcoeffs)
        assert (a * b).norm() == a.norm() * b.norm()


class TestSquareNormKernel:
    def test_generator_shift_in_kernel(self):
        assert has_square_norm(K.element([-2, -1]))

    def test_constant_two_not_in_kernel(self):
        # norm of the constant 2 in the cubic field is 8
        elem = K.element([2])
        assert elem.norm() == 8
        assert not has_square_norm(elem)

    def test_split_reciprocal_pattern(self):
        p = 11
        elem = SPLIT.element_from_components([[p + 1], [1], [Fraction(1, p + 1)]])
        assert has_square_norm(elem)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            has_square_norm(SPLIT.element_from_components([[0], [1], [1]]))


class TestIsSquare:
    def test_square_of_one_plus_x(self):
        elem = K.element([1, 1]) * K.element([1, 1])
        dec = is_square(K, elem, FAST)
        assert isinstance(dec, Square)
        assert (dec.witness * dec.witness).residues == elem.residues

    def test_example_nonsquare_certificate(self):
        elem = K.element([-2, -1])
        dec = is_square(K, elem)
        assert isinstance(dec, NonSquare)
        cert = dec.certificate
        assert cert.p == 13
        # the deterministic scan must agree with a brute-force scan mod 13
        root, value = scan_nonresidue([1, 6, 5, 1], [-2 % 13, 12], 13)
        assert (cert.root, cert.value) == (root, value)
        assert cert.validate(K, elem)

    def test_constant_four_is_square_everywhere(self):
        for algebra in (K, SPLIT, MIXED):
            dec = is_square(algebra, algebra.element([4]), FAST)
            assert isinstance(dec, Square)
            assert (dec.witness * dec.witness).residues == algebra.element([4]).residues

    def test_minus_generator_in_mixed_algebra(self):
        # -X is a square in Q[x]/(x^3+1): the quadratic component admits
        # (x - 1)^2 = -x, the rational component gives 1
        elem = MIXED.element([0, -1])
        dec = is_square(MIXED, elem, FAST)
        assert isinstance(dec, Square)

    def test_unknown_when_bounds_too_small(self):
        tiny = 2
        dec = is_square(K, K.element([-2, -1]), tiny)
        assert isinstance(dec, Unknown)

    def test_sign_only_nonsquare_certified(self):
        # (-1, -1, 1) is negative in two components; any usable prime
        # congruent to 3 mod 4 certifies, the smallest here being 7
        elem = SPLIT.element_from_components([[-1], [-1], [1]])
        dec = is_square(SPLIT, elem, FAST)
        assert isinstance(dec, NonSquare)
        assert dec.certificate.p == 7
        assert dec.certificate.validate(SPLIT, elem)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            is_square(SPLIT, SPLIT.element_from_components([[0], [1], [1]]), FAST)

    def test_random_squares_always_recovered(self):
        rng = random.Random(12)
        for algebra in (K, SPLIT, MIXED):
            done = 0
            while done < 34:
                coeffs = [rng.randrange(-9, 10) for _ in range(3)]
                b = algebra.element(coeffs)
                if not b.is_unit:
                    continue
                done += 1
                dec = is_square(algebra, b * b, FAST)
                assert isinstance(dec, Square), (degrees(algebra), coeffs)
                assert (dec.witness * dec.witness).residues == (b * b).residues

    def test_certificates_revalidate_from_json(self):
        elem = K.element([-2, -1])
        dec = is_square(K, elem)
        parsed = NonSquareCertificate.from_json(dec.certificate.to_json())
        assert parsed.validate(K, elem)

    def test_tampered_certificate_rejected(self):
        elem = K.element([-2, -1])
        cert = is_square(K, elem).certificate
        assert not NonSquareCertificate(cert.p, cert.component, cert.root, cert.value + 1).validate(K, elem)
        assert not NonSquareCertificate(7, cert.component, cert.root, cert.value).validate(K, elem)  # 7 | disc f

    def test_never_both_square_and_nonsquare(self):
        # decisions for one element under different bounds may differ only
        # between decided and Unknown, never between Square and NonSquare
        elems = [K.element([-2, -1]), K.element([1, 1]) * K.element([1, 1]), K.element([4])]
        for elem in elems:
            kinds = set()
            for cert_primes in (FAST, 100):
                dec = is_square(K, elem, cert_primes)
                if not isinstance(dec, Unknown):
                    kinds.add(type(dec))
            assert len(kinds) <= 1


class TestAlgebraSquareClass:
    def test_split_normalization(self):
        cls = AlgebraSquareClass.of(SPLIT.element_from_components([[8], [-18], [49]]))
        assert cls.triple() == SquareClassTriple.from_rationals(2, -2, 1)

    def test_triple(self):
        cls = AlgebraSquareClass.of(SPLIT.element_from_components([[-1], [11], [-11]]))
        trip = cls.triple()
        assert class_product(*trip.components).is_trivial
        assert [(c.negative, c.primes) for c in trip.components] == [(True, ()), (False, (11,)), (True, (11,))]

    def test_multiplication_cancels(self):
        cls = AlgebraSquareClass.of(SPLIT.element_from_components([[-6], [2], [-3]]))
        assert not (cls * cls).triple().coordinates()

    def test_field_case_trivial_detection(self):
        sq = AlgebraSquareClass.of(K.element([1, 1]) * K.element([1, 1]))
        assert isinstance(is_square(K, sq.rep, FAST), Square)
        nsq = AlgebraSquareClass.of(K.element([-2, -1]))
        assert isinstance(is_square(K, nsq.rep), NonSquare)

    def test_same_class_under_square_scaling(self):
        base = K.element([-2, -1])
        scaled = base * (K.element([1, 1]) * K.element([1, 1]))
        a = AlgebraSquareClass.of(base)
        b = AlgebraSquareClass.of(scaled)
        assert isinstance(is_square(K, (a * b).rep, FAST), Square)
        assert isinstance(is_square(K, (a * AlgebraSquareClass.of(K.one())).rep), NonSquare)


class TestAlgebraMap:
    def test_constant_fixed(self):
        img = algebra_map(KP, K, EXAMPLE_PSI.h, KP.element([7]))
        assert img.residues == K.element([7]).residues

    def test_generator_image(self):
        img = algebra_map(KP, K, EXAMPLE_PSI.h, KP.element([0, 1]))
        assert img.residues == K.element([6, 5, 1]).residues

    def test_linear_shift(self):
        c = Fraction(9, 2)
        img = algebra_map(KP, K, EXAMPLE_PSI.h, KP.element([c, -1]))
        expected = K.element(P.sub(P.poly([c]), EXAMPLE_PSI.h))
        assert img.residues == expected.residues

    def test_invalid_h_rejected(self):
        with pytest.raises(ValueError):
            algebra_map(KP, K, P.poly([0, 1]), KP.element([0, 1]))
        # h sends two roots of SPLIT to roots of src and the third, 10, to 7
        src = CubicEtaleAlgebra.from_cubic(P.mul(P.mul(P.poly([-1, 1]), P.poly([-5, 1])), P.poly([2, 1])))
        with pytest.raises(ValueError, match="does not define a morphism"):
            algebra_map(src, SPLIT, interpolate([(0, 1), (-12, 5), (10, 7)]), src.one())

    def test_split_norm_multiset_preserved(self):
        # a split-to-split map permutes components, so the value multiset is kept
        f_roots = [0, -12, 10]
        g_roots = [1, 5, -2]
        src = CubicEtaleAlgebra.from_cubic(
            P.mul(P.mul(P.poly([-1, 1]), P.poly([-5, 1])), P.poly([2, 1])),
            root_order=g_roots,
        )
        h = interpolate(list(zip(f_roots, g_roots)))  # maps SPLIT roots to src roots
        rng = random.Random(3)
        for _ in range(10):
            vals = [Fraction(rng.randrange(1, 30)) for _ in range(3)]
            elem = src.element_from_components([[v] for v in vals])
            img = algebra_map(src, SPLIT, h, elem)
            assert sorted(constant_value(r) for r in img.residues) == sorted(vals)

    @staticmethod
    def _gluing(name):
        if name == "example":  # cubic field to cubic field
            return KP, K, EXAMPLE_PSI.h
        if name == "mixed":  # h = -x^2 fixes x + 1 and conjugates x^2 - x + 1
            return MIXED, MIXED, P.poly([0, 0, -1])
        g = gluing_for_instance(build_instance(229), FAMILY_F)
        if name == "family":  # split to split, component i to component i
            return g.Lprime, g.L, g.psi.h
        # the same map with the source components in reverse order
        roots = [-m[0] for m in g.Lprime.components]
        src = CubicEtaleAlgebra.from_cubic(g.Lprime.f, root_order=roots[::-1])
        return src, g.L, g.psi.h

    @pytest.mark.parametrize("name", ["example", "mixed", "family", "family_reversed"])
    def test_matches_crt_lift_then_substitution(self, name):
        src, dst, h = self._gluing(name)
        rng = random.Random(11)
        for _ in range(20):
            elem = src.element(
                [Fraction(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in range(3)]
            )
            assert algebra_map(src, dst, h, elem) == dst.element(compose(crt_lift(elem), h))

    def test_element_json_round_trip(self):
        elem = MIXED.element([Fraction(1, 2), 3, -4])
        from mwglue.etale import AlgebraElement

        assert AlgebraElement.from_json(MIXED, elem.to_json()).residues == elem.residues


class TestSpanContains:
    @staticmethod
    def _product(target, span, witness):
        for i in witness:
            target = target * span[i]
        return target

    def test_agrees_with_subset_search(self):
        # random spans of up to 6 units of the example field, with targets
        # both inside (a subset product times a square) and at random
        rng = random.Random(20)
        pool = [K.element([a, -1]) for a in range(-6, 7)]
        pool += [K.element([rng.randrange(-4, 5) for _ in range(3)]) for _ in range(8)]
        pool = [e for e in pool if e.is_unit]
        cert_primes = 60
        counts = {}
        for trial in range(60):
            span = rng.sample(pool, rng.randint(0, 6))
            if trial % 2:
                chosen = [i for i in range(len(span)) if rng.random() < 0.5]
                b = K.element([rng.randrange(1, 4), rng.randrange(-2, 3)])
                target = self._product(b * b, span, chosen)
            else:
                target = rng.choice(pool)
            got = span_contains(K, span, target, cert_primes)
            status, _ = subset_search_contains(K, span, target, cert_primes)
            if got.contained is not None and status != "unknown":
                assert status == ("contained" if got.contained else "not_contained"), trial
            if got.contained is True:
                root = got.root
                assert (root * root).residues == self._product(target, span, got.witness).residues
            elif got.contained is False:
                assert validate_characters(K, span, target, got.certificate)
            counts[got.contained] = counts.get(got.contained, 0) + 1
        assert counts.get(True, 0) >= 20 and counts.get(False, 0) >= 20

    def test_vanishing_character_is_dropped(self):
        # 3 - X vanishes at the root 3 of f mod 13, where -2 - X is a
        # non-residue; the target (3 - X)(-2 - X)(1 + X)^2 vanishes there
        # too.  Counting the zero as a residue would make the target look
        # even at (13, 0, 3) while the span product is odd there.
        s, u, b = K.element([3, -1]), K.element([-2, -1]), K.element([1, 1])
        assert P.eval_mod(s.residues[0], 3, 13) == 0 and P.eval_mod(K.f, 3, 13) == 0
        for span, target in (((s,), s * b * b), ((s, u), s * u * b * b)):
            got = span_contains(K, span, target, FAST)
            assert got.contained is True
            assert got.witness == tuple(range(len(span)))
            assert (got.root * got.root).residues == self._product(target, span, got.witness).residues

    def test_certificate_checks(self):
        s, u = K.element([-2, -1]), K.element([5, -1])
        got = span_contains(K, (u,), s, FAST)
        assert got.contained is False
        chars = got.certificate
        assert validate_characters(K, (u,), s, chars)
        assert not validate_characters(K, (u,), s, ())
        assert not validate_characters(K, (s,), u * u, chars)  # wrong parities
        p, ci, r = chars[0]
        non_root = next(x for x in range(p) if P.eval_mod(K.f, x, p))
        bad = [(p, ci, non_root), (7, ci, r), (p, ci + 1, r), (2, ci, r), (p * p, ci, r)]
        for tampered in bad:
            assert not validate_characters(K, (u,), s, (tampered, *chars[1:]))
        # a character at which an element vanishes is rejected
        assert not validate_characters(K, (K.element([3, -1]),), s, ((13, 0, 3),))

    def test_foreign_or_non_unit_element_rejected(self):
        with pytest.raises(ValueError):
            span_contains(K, (KP.one(),), K.one(), FAST)
        with pytest.raises(NonUnitError):
            span_contains(SPLIT, (SPLIT.element_from_components([[0], [1], [1]]),), SPLIT.one(), FAST)


def _random_fields(rng, count):
    """Algebras with a random cubic field, and with a random quadratic
    field beside a rational component."""
    out = []
    while len(out) < count:
        a, b, c = (rng.randrange(-9, 10) for _ in range(3))
        if len(out) % 2:
            f = P.poly([c, b, a, 1])
            # a repeated root of a rational cubic is rational
            if not is_squarefree(f) or P.rational_roots_monic(f):
                continue
        else:
            if sqrt_fraction(a * a - 4 * b) is not None:
                continue
            f = P.mul(P.poly([-c, 1]), P.poly([b, a, 1]))
        out.append(CubicEtaleAlgebra.from_cubic(f))
    return out


def _random_unit(rng, algebra):
    while True:
        b = algebra.element([Fraction(rng.randrange(-30, 31), rng.randrange(1, 6)) for _ in range(3)])
        if b.is_unit:
            return b


class TestExactRoot:
    def test_square_gives_back_plus_or_minus_its_root(self):
        rng = random.Random(31)
        for algebra in [*_random_fields(rng, 20), MIXED]:
            assert sorted(degrees(algebra))[-1] >= 2
            for _ in range(8):
                b = _random_unit(rng, algebra)
                dec = is_square(algebra, b * b, 1)
                assert isinstance(dec, Square), (algebra.f, b)
                for got, want in zip(dec.witness.residues, b.residues):
                    assert got in (want, P.neg(want))

    def test_rational_elements_of_a_quadratic_field(self):
        # Q x Q[x]/(x^2 - 5): 5 = x^2 and 20 = (2x)^2 in the quadratic
        # component, while 3 is not a square there
        algebra = CubicEtaleAlgebra.from_cubic(P.poly([0, -5, 0, 1]))
        assert degrees(algebra) == (1, 2)
        for a in (5, 20):
            elem = algebra.element_from_components([[1], [a]])
            dec = is_square(algebra, elem, 1)
            assert isinstance(dec, Square)
            assert (dec.witness * dec.witness).residues == elem.residues
        elem = algebra.element_from_components([[1], [3]])
        dec = is_square(algebra, elem)
        assert isinstance(dec, NonSquare) and dec.certificate.validate(algebra, elem)

    def test_every_rejected_element_is_certified(self):
        # an element the exact root test rejects must be a non-square: at
        # 2000 primes each one gets a certificate.  Half of the elements are
        # b^2 f(c) (c - X), of norm f(c)^4 b^4, so the cubic test gets as far
        # as the quartic
        rng = random.Random(32)
        cert_primes = 2000
        kinds = []
        for algebra in [*_random_fields(rng, 10), K, MIXED]:
            for i in range(6):
                b = _random_unit(rng, algebra)
                c = rng.randrange(-20, 21)
                fc = P.eval_at(algebra.f, c)
                elem = b * b * algebra.element([c * fc, -fc]) if i % 2 else b
                if not elem.is_unit:
                    continue
                dec = is_square(algebra, elem, cert_primes)
                if isinstance(dec, Square):
                    assert (dec.witness * dec.witness).residues == elem.residues
                else:
                    assert isinstance(dec, NonSquare), (algebra.f, elem)
                    assert dec.certificate.validate(algebra, elem)
                kinds.append((type(dec), i % 2 and has_square_norm(elem)))
        assert kinds.count((NonSquare, True)) >= 20
