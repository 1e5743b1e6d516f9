import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import mwglue.poly as P
from mwglue.ellcurve import EllipticCurve
from mwglue.etale import CubicEtaleAlgebra, mod_poly
from mwglue.family import FAMILY_F, curve_for_prime
from mwglue.fixtures import (
    COVER_TO_E,
    COVER_TO_F,
    EXAMPLE_C,
    EXAMPLE_C_UNSCALED,
    EXAMPLE_E,
    EXAMPLE_F,
    EXAMPLE_PSI,
    EXAMPLE_RESCALE,
    GenusTwoCurve,
    RationalMap,
)
from mwglue.glue import (
    GEOMETRIC,
    NOT_BIJECTIVE,
    ROOTS_NOT_MAPPED,
    GluingData,
    GluingError,
    TwoTorsionIdentification,
    algebra_map,
    compose,
    interpolate,
    is_geometric_restriction,
    validate_identification,
    verify_cover_map,
    verify_rescaling,
)

from oracles import identification_violations


def _family_pairs(p):
    e_roots = [Fraction(0), Fraction(-p - 1), Fraction(p - 1)]
    f_roots = [-m[0] for m in _L(FAMILY_F).components]
    return list(zip(e_roots, f_roots))


def _L(E):
    return CubicEtaleAlgebra.from_cubic(E.f_poly())


def _family_matching(p):
    return TwoTorsionIdentification.from_matching(_family_pairs(p))


class TestValidateIdentification:
    def test_example_data_ok(self):
        assert validate_identification(EXAMPLE_PSI, _L(EXAMPLE_E), _L(EXAMPLE_F)) == ()

    def test_family_matching_ok(self):
        psi, E = _family_matching(229), curve_for_prime(229)
        assert validate_identification(psi, _L(E), _L(FAMILY_F)) == ()

    def test_identity_map_rejected_as_geometric(self):
        psi = TwoTorsionIdentification(P.poly([0, 1]))
        assert GEOMETRIC in validate_identification(psi, _L(EXAMPLE_E), _L(EXAMPLE_E))
        with pytest.raises(GluingError):
            GluingData.build(EXAMPLE_E, EXAMPLE_E, psi)

    def test_unmapped_roots_rejected(self):
        psi = TwoTorsionIdentification(P.poly([1, 1]))
        assert validate_identification(psi, _L(EXAMPLE_E), _L(EXAMPLE_F)) == (ROOTS_NOT_MAPPED,)

    def test_collapsing_map_rejected(self):
        # constant h = 0 sends every root of f to the root 0 of g
        e3 = curve_for_prime(3)
        psi = TwoTorsionIdentification(P.ZERO)
        assert validate_identification(psi, _L(e3), _L(FAMILY_F)) == (NOT_BIJECTIVE,)

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            TwoTorsionIdentification(P.poly([0, 0, 0, 1]))


class TestValidateIdentificationDifferential:
    """validate_identification against oracles.identification_violations,
    which decides root mapping by g(h) mod f and bijectivity by a
    determinant instead of by pairing components."""

    @staticmethod
    def _agree(E, F, h):
        psi = TwoTorsionIdentification(h)
        got = validate_identification(psi, _L(E), _L(F))
        assert got == identification_violations(E, F, psi, _L(E))
        return got

    def test_every_map_of_family_roots(self):
        # the 27 maps from the roots of a family curve to those of F
        E = curve_for_prime(11)
        e_roots = [-m[0] for m in _L(E).components]
        f_roots = [-m[0] for m in _L(FAMILY_F).components]
        verdicts = Counter()
        for images in product(f_roots, repeat=3):
            h = TwoTorsionIdentification.from_matching(zip(e_roots, images)).h
            verdicts[self._agree(E, FAMILY_F, h)] += 1
        assert verdicts == {(): 6, (NOT_BIJECTIVE,): 21}

    @pytest.mark.parametrize("h", [[1, 1], [0, 2], [7], [0, 0, 1], [6, 5, 2]])
    def test_maps_missing_a_root_field_case(self, h):
        assert self._agree(EXAMPLE_E, EXAMPLE_F, P.poly(h)) == (ROOTS_NOT_MAPPED,)

    def test_map_missing_one_root_split_case(self):
        # 0 -> -3 and -12 -> 0 are roots of F; 10 -> 5 is not
        h = interpolate([(0, -3), (-12, 0), (10, 5)])
        assert self._agree(curve_for_prime(11), FAMILY_F, h) == (ROOTS_NOT_MAPPED,)

    @pytest.mark.parametrize("conjugate", [[0, 1], [-4, -4, -1], [-1, 3, 1]])
    def test_example_h_after_each_conjugate(self, conjugate):
        # alpha -> -1/sigma(alpha) for the three automorphisms sigma of Q(alpha)
        h = mod_poly(compose(EXAMPLE_PSI.h, P.poly(conjugate)), EXAMPLE_E.f_poly())
        assert self._agree(EXAMPLE_E, EXAMPLE_F, h) == ()

    @pytest.mark.parametrize("h,expected", [
        ([0, 0, -1], ()),  # permutes -1, -zeta, -zeta^2
        ([-1], (NOT_BIJECTIVE,)),  # every root to -1
        ([0, 0, 1], (ROOTS_NOT_MAPPED,)),  # -1 -> 1
        ([0, 1], (GEOMETRIC,)),
    ])
    def test_mixed_algebra(self, h, expected):
        # y^2 = x^3 + 1, whose algebra is Q x Q(zeta_3)
        mixed = EllipticCurve(1, 0, 0)
        assert self._agree(mixed, mixed, P.poly(h)) == expected

    def test_quadratic_component_onto_a_rational_root(self):
        # h = 1 - (x^2 - x + 1)/3 sends -1 to 0 and both roots of x^2 - x + 1
        # to 1: every component of E's algebra has a partner, F's -3 has none
        h = P.poly([Fraction(2, 3), Fraction(1, 3), Fraction(-1, 3)])
        assert self._agree(EllipticCurve(1, 0, 0), FAMILY_F, h) == (NOT_BIJECTIVE,)

    def test_split_to_mixed_collapses(self):
        # x^3 - x has three rational roots; x^3 + 1 has only -1
        split, mixed = EllipticCurve.from_roots(0, 1, -1), EllipticCurve(1, 0, 0)
        assert self._agree(split, mixed, P.poly([-1])) == (NOT_BIJECTIVE,)


class TestGeometricRestriction:
    def test_identity_is_geometric(self):
        psi = TwoTorsionIdentification(P.poly([0, 1]))
        assert is_geometric_restriction(psi, _L(EXAMPLE_E))

    def test_example_h_is_not(self):
        assert not is_geometric_restriction(EXAMPLE_PSI, _L(EXAMPLE_E))

    def test_affine_on_two_points_only(self):
        # interpolating through a matching that no affine map satisfies
        psi = _family_matching(3)
        assert P.degree(psi.h) == 2
        assert not is_geometric_restriction(psi, _L(curve_for_prime(3)))

    def test_affine_matching_detected(self):
        # E: roots 0, 1, 2 and F: roots 5, 7, 9 match by x -> 2x + 5
        e = EllipticCurve.from_roots(0, 1, 2)
        psi = TwoTorsionIdentification.from_matching([(0, 5), (1, 7), (2, 9)])
        assert P.degree(psi.h) == 1
        assert is_geometric_restriction(psi, _L(e))


class TestCoverMaps:
    def test_cover_to_e(self):
        assert verify_cover_map(EXAMPLE_C, EXAMPLE_E, *COVER_TO_E)

    def test_cover_to_f(self):
        assert verify_cover_map(EXAMPLE_C, EXAMPLE_F, *COVER_TO_F)

    def test_wrong_target_fails(self):
        assert not verify_cover_map(EXAMPLE_C, EXAMPLE_E, *COVER_TO_F)

    def test_sign_of_v_is_irrelevant(self):
        u, v = COVER_TO_E
        flipped = RationalMap(P.neg(v.num), v.den)
        assert verify_cover_map(EXAMPLE_C, EXAMPLE_E, u, flipped)

    def test_rescaling_example(self):
        assert verify_rescaling(EXAMPLE_C_UNSCALED, EXAMPLE_C, EXAMPLE_RESCALE)

    def test_rescaling_identity(self):
        assert verify_rescaling(EXAMPLE_C, EXAMPLE_C, 1)
        assert verify_rescaling(EXAMPLE_C, EXAMPLE_C, -1)

    def test_rescaling_wrong_factor(self):
        assert not verify_rescaling(EXAMPLE_C, EXAMPLE_C, 2)

    def test_rescaling_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_rescaling(EXAMPLE_C, EXAMPLE_C, 0)

    def test_rescaling_float_refused(self):
        with pytest.raises(TypeError):
            verify_rescaling(EXAMPLE_C_UNSCALED, EXAMPLE_C, float(EXAMPLE_RESCALE))

    def test_genus_two_model_must_be_squarefree(self):
        with pytest.raises(ValueError):
            GenusTwoCurve(P.poly([0, 0, 1, 0, 0, 0, 1]))  # x^2 (x^4 + 1)


class TestGluingData:
    def test_example_build(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        assert not g.L.is_split
        assert g.L.f == EXAMPLE_E.f_poly()
        assert g.Lprime.f == EXAMPLE_F.f_poly()

    def test_split_build_orders_roots_increasingly(self):
        psi = _family_matching(11)
        g = GluingData.build(curve_for_prime(11), FAMILY_F, psi)
        assert g.L.is_split
        assert tuple(-m[0] for m in g.L.components) == (-12, 0, 10)
        assert tuple(-m[0] for m in g.Lprime.components) == (-3, 0, 1)

    def test_json_round_trip_preserves_curves(self):
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        g2 = GluingData.from_json(g.to_json())
        assert g2.E == g.E and g2.F == g.F and g2.psi.h == g.psi.h

    def test_composition_with_inverse_is_identity_field_case(self):
        # the inverse matching beta -> -1/beta is interpolated by -x^2+6x-5
        g = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        h_inv = P.poly([-5, 6, -1])
        rng = random.Random(11)
        for _ in range(20):
            elem = g.Lprime.element([rng.randrange(-9, 10) for _ in range(3)])
            fwd = algebra_map(g.Lprime, g.L, g.psi.h, elem)
            back = algebra_map(g.L, g.Lprime, h_inv, fwd)
            assert back.residues == elem.residues

    def test_composition_with_inverse_is_identity_split_case(self):
        pairs = _family_pairs(11)
        psi = TwoTorsionIdentification.from_matching(pairs)
        g = GluingData.build(curve_for_prime(11), FAMILY_F, psi)
        inverse = TwoTorsionIdentification.from_matching([(b, a) for a, b in pairs])
        rng = random.Random(13)
        for _ in range(20):
            elem = g.Lprime.element([rng.randrange(-9, 10) for _ in range(3)])
            fwd = algebra_map(g.Lprime, g.L, g.psi.h, elem)
            back = algebra_map(g.L, g.Lprime, inverse.h, fwd)
            assert back.residues == elem.residues
