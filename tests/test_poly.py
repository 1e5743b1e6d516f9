from fractions import Fraction
from itertools import islice
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mwglue.poly as P

from oracles import bisect_cubic_roots, trial_is_prime

ODD_PRIMES_TO_200 = [q for q in range(3, 200, 2) if trial_is_prime(q)]
# (x - 1)(x^2 + x + M - 2) with M the product of the odd primes below 1000:
# it has the double root 1 mod every one of them
M = prod(q for q in range(3, 1000, 2) if trial_is_prime(q))
BAD_BELOW_1000 = [2 - M, M - 3, 0, 1]


class TestIntegerRoots:
    def test_non_monic_with_rational_root(self):
        # (x - 3)(x + 5)(2x - 1)(x^2 + 1): 1/2 is a root but not an integer
        f = P.mul(P.mul(P.poly([-3, 1]), P.poly([5, 1])), P.mul(P.poly([-1, 2]), P.poly([1, 0, 1])))
        assert P.integer_roots([int(c) for c in f]) == [-5, 3]

    def test_large_roots(self):
        r, s = 10**30 + 7, -(10**25)
        f = P.mul(P.poly([-r, 1]), P.mul(P.poly([-s, 1]), P.poly([0, 1])))
        assert P.integer_roots([int(c) for c in f]) == [s, 0, r]

    def test_no_roots(self):
        assert P.integer_roots([2, 0, 1]) == []

    def test_constant_rejected(self):
        for p in ([5], []):
            with pytest.raises(ValueError):
                P.integer_roots(p)

    def test_every_prime_below_1000_reduces_with_a_double_root(self):
        assert P.integer_roots(BAD_BELOW_1000) == [1]

    def test_not_squarefree_rejected(self):
        # (x - 1)^2 (x + 2): the double root 1 survives every reduction
        with pytest.raises(ValueError, match="not squarefree"):
            P.integer_roots([2, -3, 0, 1])

    @given(
        st.lists(st.integers(-(2**80), 2**80), min_size=3, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_cubics_match_bisection(self, rs, split):
        # (x - r)(x - s)(x - t), or (x - r)(x^2 + s x + t)
        r, s, t = rs
        f = P.mul(P.poly([-r, 1]), P.mul(P.poly([-s, 1]), P.poly([-t, 1])) if split else P.poly([t, s, 1]))
        assume(P.cubic_disc(f) != 0)
        c, b, a = (int(x) for x in f[:3])
        assert P.integer_roots([c, b, a, 1]) == bisect_cubic_roots(a, b, c)


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def _legendre(a: int, q: int) -> int:
    t = pow(a, (q - 1) // 2, q)
    return -1 if t == q - 1 else t


class TestPrimes:
    def test_primes_up_to(self):
        for n in range(-1, 300):
            assert P.primes_up_to(n) == [q for q in range(n + 1) if trial_is_prime(q)]

    def test_odd_primes_across_sieve_ranges(self):
        # the sieved range doubles from 64, so these cross its ends at 64, 128, ..., 8192
        expected = [q for q in range(3, 9000, 2) if trial_is_prime(q)]
        assert list(islice(P.odd_primes(), len(expected))) == expected


class TestRootsMod:
    @given(st.lists(small_fractions, min_size=2, max_size=3), st.sampled_from(ODD_PRIMES_TO_200))
    @settings(max_examples=300, deadline=None)
    def test_roots_and_count(self, coeffs, q):
        m = P.poly([*coeffs, 1])
        if P.degree(m) == 2:
            disc = m[1] * m[1] - 4 * m[0]
        else:
            disc = P.cubic_disc(m)
        assume(disc.numerator % q and disc.denominator % q and all(c.denominator % q for c in m))
        d = disc.numerator * pow(disc.denominator, -1, q) % q
        roots = P.roots_mod(m, q)
        assert roots == sorted(set(roots))
        assert all(0 <= r < q and P.eval_mod(m, r, q) == 0 for r in roots)
        if P.degree(m) == 2:
            assert len(roots) == 1 + _legendre(d, q)
        else:
            # Stickelberger: (disc/q) = -1 exactly when the cubic splits as 1 + 2
            assert (len(roots) == 1) == (_legendre(d, q) == -1)

    @pytest.mark.parametrize("q", [17, 41, 73, 97])
    def test_square_roots_at_primes_1_mod_8(self, q):
        for a in range(1, q):
            roots = P.roots_mod(P.poly([-a, 0, 1]), q)
            assert len(roots) == 1 + _legendre(a, q)
            assert all(r * r % q == a for r in roots)

    def test_linear(self):
        assert P.roots_mod(P.poly([Fraction(1, 3), 2]), 7) == [1]  # 2 + 1/3 = 7/3


class TestRationalRootsMonic:
    def test_quartic_with_rational_roots(self):
        # (x - 1/2)(x + 3/4)(x^2 + 2)
        f = P.mul(P.mul(P.poly([-Fraction(1, 2), 1]), P.poly([Fraction(3, 4), 1])), P.poly([2, 0, 1]))
        assert P.rational_roots_monic(f) == [Fraction(-3, 4), Fraction(1, 2)]
        assert P.rational_roots_monic(P.poly([2, 0, 3, 0, 1])) == []  # (x^2 + 1)(x^2 + 2)

    def test_cubic_matches_quartic_path(self):
        cubic = P.poly([Fraction(-3, 8), Fraction(-1, 4), Fraction(3, 2), 1])  # roots 1/2, -1/2, -3/2
        quartic = P.mul(cubic, P.poly([7, 1]))
        assert P.rational_roots_monic(cubic) == [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)]
        assert P.rational_roots_monic(quartic) == [-7, *P.rational_roots_monic(cubic)]

    @pytest.mark.parametrize("f", [
        [1],  # constant
        [-3, 1],  # x - 3
        [-4, 0, 1],  # x^2 - 4
        [0, 1, 0, 0, 0, 1],  # x^5 + x
        [-2, 0, 0, 2],  # 2x^3 - 2
    ])
    def test_rejects_all_but_monic_cubics_and_quartics(self, f):
        with pytest.raises(ValueError):
            P.rational_roots_monic(P.poly(f))


def _lcm_scaled_roots(f) -> list[Fraction]:
    """The rational roots of a monic f found after scaling x = t / m by the
    lcm m of all its coefficient denominators."""
    d = P.degree(f)
    m = lcm(*(c.denominator for c in f))
    return sorted(Fraction(t, m) for t in P.integer_roots([int(c * m ** (d - i)) for i, c in enumerate(f)]))


class TestRootScaling:
    @given(
        st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1, max_size=4),
        st.lists(small_fractions, min_size=3, max_size=3),
        st.sampled_from([3, 4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_monic_cubics_and_quartics_match_lcm_scaling(self, roots, cofactor, d):
        # (x - r_1) ... (x - r_k) times a random monic cofactor of degree d - k
        roots = roots[:d]
        f = P.poly([*cofactor[: d - len(roots)], 1])
        for r in roots:
            f = P.mul(f, P.poly([-r, 1]))
        assume(P.is_squarefree(f))
        found = P.rational_roots_monic(f)
        assert found == _lcm_scaled_roots(f)
        assert set(roots) <= set(found)

    def test_quartic_of_a_large_multiple_matches_lcm_scaling(self, monkeypatch):
        # membership of 200.(-2, 1) on the example gluing reads a square root
        # off a quartic whose coefficient denominators have thousands of bits
        from mwglue.descent import IN_IMAGE, membership
        from mwglue.ellcurve import INFINITY
        from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_POINT, EXAMPLE_PSI
        from mwglue.glue import GluingData

        seen, original = [], P.rational_roots_monic
        monkeypatch.setattr(P, "rational_roots_monic", lambda f: seen.append(f) or original(f))
        gluing = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
        pt = EXAMPLE_E.mul(200, EXAMPLE_POINT)
        assert membership(gluing, pt, INFINITY).verdict == IN_IMAGE
        quartics = [f for f in seen if P.degree(f) == 4]
        assert quartics and max(c.denominator for c in quartics[-1]).bit_length() > 9000
        for f in quartics:
            assert original(f) == _lcm_scaled_roots(f)


class TestModPoly:
    @given(st.lists(small_fractions, max_size=6), small_fractions, small_fractions.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_linear_modulus_matches_long_division(self, coeffs, c0, c1):
        p, m = P.poly(coeffs), P.poly([c0, c1])
        assert P.mod_poly(p, m) == P.divmod_poly(p, m)[1]


class TestLiftRoot:
    def test_lift_matches_integer_root(self):
        # x^2 - 2 has a simple root 3 mod 7; its 7-adic lift squares to 2
        root = P.lift_root([-2, 0, 1], [0, 2], 3, 7, 20)
        assert (root * root - 2) % 7**20 == 0
        assert root % 7 == 3


# A coefficient as the kernels may meet it: an int, or a Fraction that may
# itself be integral, such as Fraction(4, 2).
mixed = st.one_of(st.integers(-30, 30), small_fractions)
mixed_polys = st.lists(mixed, max_size=5).map(P.poly)


def _as_fractions(p):
    """The same polynomial with every coefficient a Fraction."""
    return tuple(Fraction(c.numerator, c.denominator) for c in p)


def _normalized(value) -> bool:
    """No float anywhere, and every integral rational an int."""
    if isinstance(value, tuple):
        return all(_normalized(v) for v in value)
    return type(value) is int or type(value) is P.Rational and value.denominator > 1


class TestIntegralCoefficients:
    """Integral coefficients stay ints through the kernels, and every value
    is the one an all-Fraction computation gives."""

    @given(mixed_polys, mixed_polys)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, p, q):
        for op in (P.add, P.mul, P.compose):
            got = op(p, q)
            assert got == op(_as_fractions(p), _as_fractions(q))
            assert _normalized(got)

    @given(mixed_polys, mixed_polys.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_division(self, p, q):
        fp, fq = _as_fractions(p), _as_fractions(q)
        for op in (P.divmod_poly, P.mod_poly, P.xgcd_poly):
            got = op(p, q)
            assert got == op(fp, fq)
            assert _normalized(got)
        quot, rem = P.divmod_poly(p, q)
        assert P.add(P.mul(quot, q), rem) == p

    @given(mixed_polys, st.integers(-30, 30), mixed)
    @settings(max_examples=150, deadline=None)
    def test_linear_modulus(self, p, r, lead):
        # x - r, the family's components, and lead x - r
        assume(lead)
        for m in (P.poly([-r, 1]), P.poly([-r, lead])):
            got = P.mod_poly(p, m)
            assert got == P.mod_poly(_as_fractions(p), _as_fractions(m)) and _normalized(got)

    @given(st.lists(st.tuples(mixed, mixed), min_size=1, max_size=4, unique_by=lambda pt: Fraction(pt[0])))
    @settings(max_examples=100, deadline=None)
    def test_interpolate(self, points):
        got = P.interpolate(points)
        assert got == P.interpolate([(Fraction(x), Fraction(y)) for x, y in points])
        assert _normalized(got)
        assert all(P.eval_at(got, x) == y for x, y in points)

    @given(st.lists(mixed, min_size=3, max_size=3), mixed)
    @settings(max_examples=100, deadline=None)
    def test_scalars(self, coeffs, x):
        f = P.poly([*coeffs, 1])
        for got, want in ((P.cubic_disc(f), P.cubic_disc(_as_fractions(f))),
                          (P.eval_at(f, x), P.eval_at(_as_fractions(f), Fraction(x)))):
            assert got == want and _normalized(got)
        if all(type(c) is int for c in (*f, x)):
            assert type(P.cubic_disc(f)) is int and type(P.eval_at(f, x)) is int

    @given(mixed, mixed.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_ratio(self, a, b):
        got = P.ratio(a, b)
        assert got == Fraction(a) / Fraction(b) and _normalized(got)

    def test_integral_fractions_become_ints(self):
        p = P.poly([Fraction(4, 2), Fraction(1, 2), Fraction(-3)])
        assert p == (2, Fraction(1, 2), -3) and [type(c) for c in p] == [int, P.Rational, int]

    @pytest.mark.parametrize("value", [0.5, 2.0, float("inf")])
    def test_float_refused(self, value):
        with pytest.raises(TypeError):
            P.poly([value])

    def test_sqrt_fraction_refuses_float(self):
        assert P.sqrt_fraction(Fraction(1, 4)) == Fraction(1, 2)
        with pytest.raises(TypeError):
            P.sqrt_fraction(0.25)
