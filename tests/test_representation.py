"""Curves and points keep each number as poly.fraction does: an int when it
is integral, a poly.Rational with denominator > 1 otherwise, and never a
float or a fractions.Fraction.  On random integral and rational curves, and on points found
by search, the group law, torsion and the j-invariant agree with oracles
that compute in Fractions only."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwglue.ellcurve import INFINITY, ECPoint, EllipticCurve
from mwglue.poly import Rational

from oracles import fraction_add, fraction_j, fraction_mul, lutz_nagell_torsion, search_points


def _exact(value) -> bool:
    return type(value) is int or type(value) is Rational and value.denominator > 1


def _point(pt):
    """The point as the oracles take it: None at infinity, else (x, y), with
    both fields checked to be exact."""
    if pt.is_infinity:
        return None
    assert _exact(pt.x) and _exact(pt.y), pt
    return pt.x, pt.y


def _checked(curve: EllipticCurve) -> EllipticCurve:
    assert all(_exact(c) for c in (curve.c0, curve.c1, curve.c2)), curve
    return curve


def _curve(coeffs) -> EllipticCurve:
    try:
        curve = EllipticCurve(*coeffs)
    except ValueError:  # singular
        assume(False)
    return _checked(curve)


# Fraction(n, d) may be integral, such as Fraction(4, 2): the fields normalize it.
integers = st.integers(-20, 20)
rationals = st.builds(Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 4)))
coefficients = st.one_of(st.lists(integers, min_size=3, max_size=3),
                         st.lists(rationals, min_size=3, max_size=3))


@st.composite
def curves_with_a_point(draw):
    """A curve y^2 = x^3 + c2 x^2 + c1 x + c0 through a drawn point (x0, y0):
    c0 is solved for.  Integral or rational throughout."""
    numbers = draw(st.sampled_from((integers, rationals)))
    x0, y0, c1, c2 = (draw(numbers) for _ in range(4))
    curve = _curve((y0 * y0 - ((x0 + c2) * x0 + c1) * x0, c1, c2))
    return curve, ECPoint.affine(x0, y0)


@given(curves_with_a_point())
@settings(max_examples=60, deadline=None)
def test_group_law_matches_the_fraction_oracle(drawn):
    curve, point = drawn
    points = [INFINITY, point, -point, *search_points(curve, 2)]
    for a in points:
        for b in points[:4]:
            assert _point(curve.add(a, b)) == fraction_add(curve, _point(a), _point(b))
    for n in range(-3, 6):
        assert _point(curve.mul(n, point)) == fraction_mul(curve, n, _point(point))


@given(st.one_of(
    coefficients,
    # full 2-torsion, and torsion points with rational coordinates
    st.lists(st.one_of(integers, rationals), min_size=3, max_size=3, unique=True).map(
        lambda roots: EllipticCurve.from_roots(*roots)),
))
@settings(max_examples=40, deadline=None)
def test_torsion_and_j_match_the_references(drawn):
    curve = _checked(drawn) if isinstance(drawn, EllipticCurve) else _curve(drawn)
    torsion = curve.torsion_subgroup()
    assert torsion.points == lutz_nagell_torsion(curve)[2]
    for t in torsion.points:
        assert fraction_mul(curve, torsion.order, _point(t)) is None
    j = curve.j_invariant()
    assert _exact(j) and j == fraction_j(curve)
