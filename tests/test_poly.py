from fractions import Fraction

import pytest

import mwglue.poly as P


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


class TestLiftRoot:
    def test_lift_matches_integer_root(self):
        # x^2 - 2 has a simple root 3 mod 7; its 7-adic lift squares to 2
        root = P.lift_root([-2, 0, 1], 3, 7, 20)
        assert (root * root - 2) % 7**20 == 0
        assert root % 7 == 3
