import json
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import mwglue.poly as P
from mwglue.arith import SquareClassTriple, square_class
from mwglue.descent import (
    CONTAINED,
    IN_IMAGE,
    NOT_CONTAINED,
    NOT_IN_IMAGE,
    UNKNOWN,
    MembershipVerdict,
    descent_class,
    membership,
    surjectivity_obstruction,
    transfer_class,
)
from mwglue.ellcurve import ECPoint, EllipticCurve, INFINITY
from mwglue.etale import (
    AlgebraSquareClass,
    CubicEtaleAlgebra,
    NonSquare,
    NonSquareCertificate,
    Square,
    has_square_norm,
    is_square,
)
from mwglue.family import (
    FAMILY_F,
    FAMILY_F_GENERATORS,
    build_instance,
    curve_for_prime,
    gluing_for_instance,
)
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_POINT, EXAMPLE_PSI
from mwglue.glue import GluingData, TwoTorsionIdentification
from mwglue.squares import validate_characters

from oracles import bisect_cubic_roots, class_product, crt_lift, search_points, triple_product

# the x-coordinates of the points of order 2 of FAMILY_F: y^2 = x^3 + 2x^2 - 3x
F_ROOTS = bisect_cubic_roots(2, -3, 0)

FAST = 40


def _algebra_for(p):
    return CubicEtaleAlgebra.from_cubic(
        curve_for_prime(p).f_poly(), root_order=[0, -p - 1, p - 1]
    )


def _point_pool(curve, bound):
    """Affine points of small height plus torsion and the identity."""
    pts = search_points(curve, bound)
    return pts + [INFINITY]


class TestDescentClass:
    def test_identity_maps_to_trivial_class(self, e3):
        cls = descent_class(e3, _algebra_for(3), INFINITY)
        assert not cls.triple().coordinates()

    @pytest.mark.parametrize("p", [3, 11, 229])
    def test_marked_point_formula(self, p):
        curve, algebra = curve_for_prime(p), _algebra_for(p)
        cls = descent_class(curve, algebra, ECPoint.affine(-1, p))
        assert cls.triple() == SquareClassTriple.from_rationals(-1, p, -p)

    @pytest.mark.parametrize("p", [3, 11, 229])
    def test_two_torsion_formulas(self, p):
        curve, algebra = curve_for_prime(p), _algebra_for(p)
        expected = {
            0: SquareClassTriple.from_rationals(-p * p + 1, p + 1, -p + 1),
            -p - 1: SquareClassTriple.from_rationals(-p - 1, 2 * p * (p + 1), -2 * p),
            p - 1: SquareClassTriple.from_rationals(p - 1, 2 * p, 2 * p * (p - 1)),
        }
        for x, want in expected.items():
            got = descent_class(curve, algebra, ECPoint.affine(x, 0))
            assert got.triple() == want

    def test_field_case_representative(self, example_e):
        K = CubicEtaleAlgebra.from_cubic(example_e.f_poly())
        cls = descent_class(example_e, K, EXAMPLE_POINT)
        assert cls.rep.residues == K.element([-2, -1]).residues
        assert has_square_norm(cls.rep)

    def test_off_curve_rejected(self, e3):
        with pytest.raises(ValueError):
            descent_class(e3, _algebra_for(3), ECPoint.affine(1, 1))

    def test_algebra_curve_mismatch_rejected(self, e3):
        with pytest.raises(ValueError):
            descent_class(e3, _algebra_for(11), INFINITY)

    def test_homomorphism_on_sampled_pairs(self):
        # at least 50 pairs across the two curves, 2-torsion included
        total = 0
        for p, bound in ((3, 10), (11, 13)):
            curve, algebra = curve_for_prime(p), _algebra_for(p)
            pool = _point_pool(curve, bound)
            for a, b in combinations(pool, 2):
                ca = descent_class(curve, algebra, a).triple()
                cb = descent_class(curve, algebra, b).triple()
                cab = descent_class(curve, algebra, curve.add(a, b)).triple()
                assert cab == triple_product(ca, cb)
                total += 1
        assert total >= 50

    def test_doubles_die_and_triples_survive(self):
        for p in (3, 11):
            curve, algebra = curve_for_prime(p), _algebra_for(p)
            for a in _point_pool(curve, 10):
                ca = descent_class(curve, algebra, a).triple()
                c2a = descent_class(curve, algebra, curve.mul(2, a)).triple()
                c3a = descent_class(curve, algebra, curve.mul(3, a)).triple()
                assert not c2a.coordinates()
                assert c3a == ca

    def test_every_image_lands_in_product_kernel(self):
        for p in (3, 11):
            curve, algebra = curve_for_prime(p), _algebra_for(p)
            for a in _point_pool(curve, 10):
                trip = descent_class(curve, algebra, a).triple()
                assert class_product(*trip.components).is_trivial

    def test_field_case_images_have_square_norm(self, example_e):
        K = CubicEtaleAlgebra.from_cubic(example_e.f_poly())
        for pt in search_points(example_e, 4) + [INFINITY]:
            assert has_square_norm(descent_class(example_e, K, pt).rep)

    def test_forced_component_is_class_of_derivative(self):
        for p in (3, 11, 229):
            curve, algebra = curve_for_prime(p), _algebra_for(p)
            roots = tuple(-m[0] for m in algebra.components)
            for i, e in enumerate(roots):
                trip = descent_class(curve, algebra, ECPoint.affine(e, 0)).triple()
                assert trip.components[i] == square_class(curve.f_derivative_at(e))
        # a 1+2 algebra, y^2 = (x + 3)(x^2 + x - 1), at its rational root
        curve = EllipticCurve(Fraction(-3), Fraction(2), Fraction(4))
        algebra = CubicEtaleAlgebra.from_cubic(curve.f_poly())
        rep = descent_class(curve, algebra, ECPoint.affine(-3, 0)).rep
        assert algebra.components[0] == P.poly([3, 1])
        assert square_class(P.constant_value(rep.residues[0])) == square_class(
            curve.f_derivative_at(-3)
        )
        assert rep.residues[1] == algebra.element([-3, -1]).residues[1]
        assert has_square_norm(rep)

    def test_three_torsion_is_trivial(self):
        # (0, 1) has order 3 on y^2 = x^3 + 1; its class must be a square
        curve = EllipticCurve(Fraction(1), Fraction(0), Fraction(0))
        algebra = CubicEtaleAlgebra.from_cubic(curve.f_poly())
        pt = ECPoint.affine(0, 1)
        assert curve.mul(3, pt) == INFINITY
        cls = descent_class(curve, algebra, pt)
        assert isinstance(is_square(algebra, cls.rep, FAST), Square)


class TestTransferClass:
    def test_trivial_goes_to_trivial(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        out = transfer_class(g, AlgebraSquareClass.of(g.Lprime.one()))
        assert isinstance(is_square(g.L, out.rep, FAST), Square)

    def test_split_case_acts_as_identity_on_triples(self):
        inst = build_instance(229)
        g = gluing_for_instance(inst, FAMILY_F)
        cls = descent_class(FAMILY_F, g.Lprime, ECPoint.affine(3, 6))
        assert transfer_class(g, cls).triple() == cls.triple()

    def test_verdicts_do_not_depend_on_the_F_side_order(self):
        # components are paired through h, so every order of F's
        # roots gives the same verdicts and certificates
        inst = build_instance(229)
        psi = gluing_for_instance(inst, FAMILY_F).psi
        torsion = inst.curve.torsion_subgroup().generators
        points = [inst.curve.mul(n, inst.P) for n in range(1, 5)]
        qs = (INFINITY, ECPoint.affine(3, 6), ECPoint.affine(0, 0))
        outputs = set()
        for order in permutations(F_ROOTS):
            Lprime = CubicEtaleAlgebra.from_cubic(FAMILY_F.f_poly(), root_order=order)
            g = GluingData.build(inst.curve, FAMILY_F, psi, L=inst.algebra, Lprime=Lprime)
            out = [membership(g, pt, q).to_json() for pt in points for q in qs]
            obstruction = surjectivity_obstruction(g, inst.P, FAMILY_F_GENERATORS, torsion)
            out.append(obstruction.to_json())
            outputs.add(json.dumps(out))
        assert len(outputs) == 1

    def test_field_case_matches_algebra_map(self):
        # (0 - X')(5 - X') has norm g(0) g(5) = (-1)(-1) = 1, so it lies in
        # the square-norm kernel; its image substitutes h for the generator
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        elem = g.Lprime.element([0, -1]) * g.Lprime.element([5, -1])
        cls = AlgebraSquareClass.of(elem)
        out = transfer_class(g, cls)
        expected = g.L.element(P.compose(crt_lift(elem), EXAMPLE_PSI.h))
        assert out.rep.residues == expected.residues

    def test_wrong_algebra_rejected(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        with pytest.raises(ValueError):
            transfer_class(g, AlgebraSquareClass.of(g.L.one()))

    def test_norm_condition_enforced(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        with pytest.raises(ValueError):
            transfer_class(g, AlgebraSquareClass.of(g.Lprime.element([2])))


class TestMembership:
    def test_identity_pair_in_image(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        assert membership(g, INFINITY, INFINITY, FAST).verdict == IN_IMAGE

    def test_example_multiples_decided_by_parity(self):
        # the class of (-2, 1) is not a square in the cubic field and every
        # even multiple's is; squares are decided at any height, here up to
        # a 4,964-bit denominator, at the default bounds
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        ns = {*range(1, 61), 100, 101, 199, 200}
        pt = INFINITY
        for n in range(1, max(ns) + 1):
            pt = EXAMPLE_E.add(pt, EXAMPLE_POINT)
            if n in ns:
                expected = IN_IMAGE if n % 2 == 0 else NOT_IN_IMAGE
                assert membership(g, pt, INFINITY).verdict == expected, n

    def test_example_pair_not_in_image(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        verdict = membership(g, EXAMPLE_POINT, INFINITY)
        assert verdict.verdict == NOT_IN_IMAGE
        assert isinstance(verdict.certificate, NonSquareCertificate)
        assert verdict.certificate.p == 13

    def test_split_doubles_in_image(self, e3):
        f_roots = sorted(F_ROOTS)
        psi = TwoTorsionIdentification.from_matching(zip([0, -4, 2], f_roots))
        g = GluingData.build(e3, FAMILY_F, psi)
        two_r = e3.mul(2, ECPoint.affine(-1, 3))
        two_s = FAMILY_F.mul(2, ECPoint.affine(3, 6))
        assert membership(g, two_r, two_s, FAST).verdict == IN_IMAGE

    def test_split_rejection_carries_witness(self):
        inst = build_instance(11)
        g = gluing_for_instance(inst, FAMILY_F)
        verdict = membership(g, inst.P, INFINITY, FAST)
        assert verdict.verdict == NOT_IN_IMAGE
        diff = descent_class(g.E, g.L, inst.P)
        assert verdict.certificate.validate(g.L, diff.rep)

    @pytest.mark.parametrize("p", [229, 1129])
    def test_family_multiples_decided_by_parity(self, p):
        # (nP, O) on a family gluing is decided by one Legendre symbol or an
        # exact root per component, with no factoring of the coordinates
        inst = build_instance(p)
        g = gluing_for_instance(inst, FAMILY_F)
        pt = INFINITY
        for n in range(1, 41):
            pt = g.E.add(pt, inst.P)
            verdict = membership(g, pt, INFINITY)
            assert verdict.verdict == (IN_IMAGE if n % 2 == 0 else NOT_IN_IMAGE), n
            parsed = MembershipVerdict.from_json(json.loads(json.dumps(verdict.to_json())))
            assert parsed == verdict
            if n % 2:
                cert = parsed.certificate
                assert P.degree(g.L.components[cert.component]) == 1
                assert cert.validate(g.L, descent_class(g.E, g.L, pt).rep)

    @pytest.mark.parametrize("p", [229, 1129])
    def test_split_verdicts_match_class_triples(self, p):
        # differential: the squareness engine against the valuation
        # coordinates of the factored class triple, at heights that factor
        inst = build_instance(p)
        g = gluing_for_instance(inst, FAMILY_F)
        points = [INFINITY, inst.P1, inst.P2, inst.P3]
        points += [g.E.add(t, g.E.mul(n, inst.P)) for n in range(1, 7) for t in points[:2]]
        two_s = FAMILY_F.mul(2, ECPoint.affine(3, 6))
        for pt in points:
            for q in (INFINITY, ECPoint.affine(3, 6), ECPoint.affine(0, 0), two_s):
                verdict = membership(g, pt, q)
                diff = descent_class(g.E, g.L, pt) * transfer_class(
                    g, descent_class(g.F, g.Lprime, q)
                )
                assert (verdict.verdict == IN_IMAGE) == (not diff.triple().coordinates()), (pt, q)

    def test_unknown_on_tiny_bounds(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        tiny = 2
        assert membership(g, EXAMPLE_POINT, INFINITY, tiny).verdict == "unknown"

    def test_agrees_with_is_square_on_field_case(self):
        # membership against the identity of F must match squareness of the class
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        K = g.L
        for pt in search_points(EXAMPLE_E, 4) + [INFINITY]:
            verdict = membership(g, pt, INFINITY)
            decision = is_square(K, descent_class(EXAMPLE_E, K, pt).rep)
            if verdict.verdict == IN_IMAGE:
                assert isinstance(decision, Square)
            elif verdict.verdict == NOT_IN_IMAGE:
                assert isinstance(decision, NonSquare)

    def test_verdict_json_round_trip(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        verdict = membership(g, EXAMPLE_POINT, INFINITY)
        parsed = MembershipVerdict.from_json(verdict.to_json())
        assert parsed.verdict == NOT_IN_IMAGE
        diff = descent_class(EXAMPLE_E, g.L, EXAMPLE_POINT)
        assert parsed.certificate.validate(g.L, diff.rep)
        # an unknown verdict carries the bounds that ran out
        unknown = membership(g, EXAMPLE_POINT, INFINITY, 2)
        assert unknown.verdict == UNKNOWN
        data = json.loads(json.dumps(unknown.to_json()))
        assert data["bounds"] == {"cert_primes": 2}
        assert MembershipVerdict.from_json(data) == unknown

    def test_verdict_json_rejects_other_certificate_kinds(self):
        data = {
            "verdict": NOT_IN_IMAGE,
            "certificate": {"kind": "odd_coordinate", "component": 0, "prime": None, "ratio": []},
        }
        with pytest.raises(ValueError, match="odd_coordinate"):
            MembershipVerdict.from_json(data)


class TestSurjectivityObstruction:
    def test_torsion_point_contained(self):
        inst = build_instance(229)
        g = gluing_for_instance(inst, FAMILY_F)
        res = surjectivity_obstruction(g, inst.P1, (), g.E.torsion_subgroup().generators)
        assert res.status == CONTAINED

    def test_trivial_class_contained(self, e3):
        inst = build_instance(3)
        g = gluing_for_instance(inst, FAMILY_F)
        double = e3.mul(2, ECPoint.affine(-1, 3))
        res = surjectivity_obstruction(g, double, (), g.E.torsion_subgroup().generators)
        assert res.status == CONTAINED and res.witness == ()

    def test_marked_point_escapes_for_229(self):
        inst = build_instance(229)
        g = gluing_for_instance(inst, FAMILY_F)
        res = surjectivity_obstruction(g, inst.P, (), g.E.torsion_subgroup().generators)
        assert res.status == NOT_CONTAINED
        # the exhaustive oracle agrees
        from oracles import brute_force_contains

        assert not brute_force_contains(list(res.span), res.target)

    def test_not_contained_certificate_revalidates(self):
        from oracles import validate_noncontainment_certificate

        inst = build_instance(1129)
        g = gluing_for_instance(inst, FAMILY_F)
        res = surjectivity_obstruction(g, inst.P, (), g.E.torsion_subgroup().generators)
        assert res.status == NOT_CONTAINED
        assert validate_noncontainment_certificate(res.span, res.target, res.certificate)

    def test_pushforward_generators_enlarge_span(self):
        # with honest generators of F(Q) the span picks up classes over F
        inst = build_instance(1231)
        g = gluing_for_instance(inst, FAMILY_F)
        gens = (ECPoint.affine(3, 6), ECPoint.affine(0, 0))
        res = surjectivity_obstruction(g, inst.P, gens, g.E.torsion_subgroup().generators)
        assert res.status == NOT_CONTAINED
        assert len(res.span) == 4

    def test_empty_torsion_span(self):
        inst = build_instance(229)
        g = gluing_for_instance(inst, FAMILY_F)
        res = surjectivity_obstruction(g, inst.P1, (), ())
        assert res.status == NOT_CONTAINED  # the span is empty without torsion

    def test_verdict_json_round_trip(self):
        from mwglue.descent import ObstructionVerdict

        inst = build_instance(229)
        g = gluing_for_instance(inst, FAMILY_F)
        for pt in (inst.P, inst.P1):  # not_contained, then contained
            res = surjectivity_obstruction(g, pt, (), g.E.torsion_subgroup().generators)
            data = json.loads(json.dumps(res.to_json()))
            assert "certificates" not in data and "bounds" not in data
            parsed = ObstructionVerdict.from_json(data)
            assert parsed.status == res.status
            assert parsed.span == res.span
            assert parsed.target == res.target
            assert parsed.certificate == res.certificate
            assert parsed == res


class TestNonSplitObstruction:
    def test_example_point_escapes_with_membership_character(self):
        # against the empty span the certificate is the one character that
        # membership reports for the same class
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        res = surjectivity_obstruction(g, EXAMPLE_POINT, (), ())
        assert res.status == NOT_CONTAINED
        assert res.certificate == ((13, 0, 3),)
        cert = membership(g, EXAMPLE_POINT, INFINITY).certificate
        assert (cert.p, cert.component, cert.root) == (13, 0, 3)
        assert validate_characters(g.L, res.span, res.target, res.certificate)

    def test_verdicts_round_trip_and_revalidate(self):
        from mwglue.descent import ObstructionVerdict

        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        double = EXAMPLE_E.mul(2, EXAMPLE_POINT)
        cases = [
            (EXAMPLE_POINT, (), NOT_CONTAINED),
            (double, (), CONTAINED),
            (EXAMPLE_E.mul(3, EXAMPLE_POINT), (EXAMPLE_POINT,), CONTAINED),
            (EXAMPLE_POINT, (double,), NOT_CONTAINED),
        ]
        for pt, torsion, status in cases:
            res = surjectivity_obstruction(g, pt, (), torsion)
            assert res.status == status
            data = json.loads(json.dumps(res.to_json()))
            assert "certificates" not in data
            parsed = ObstructionVerdict.from_json(data, g.L)
            assert parsed == res
            if status == NOT_CONTAINED:
                assert [set(c) for c in data["certificate"]] == [{"p", "component", "root"}]
                assert validate_characters(g.L, parsed.span, parsed.target, parsed.certificate)
            else:
                prod = parsed.target
                for i in parsed.witness:
                    prod = prod * parsed.span[i]
                assert isinstance(is_square(g.L, prod), Square)
        with pytest.raises(ValueError):
            ObstructionVerdict.from_json(data)  # the non-split form needs its algebra

    def test_unknown_verdict_carries_bounds(self):
        from mwglue.descent import ObstructionVerdict

        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        tiny = 2
        res = surjectivity_obstruction(g, EXAMPLE_POINT, (), (), tiny)
        assert res.status == UNKNOWN and res.cert_primes == tiny
        data = json.loads(json.dumps(res.to_json()))
        assert data["bounds"] == {"cert_primes": 2}
        assert ObstructionVerdict.from_json(data, g.L) == res
