from fractions import Fraction
from math import prod

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


class TestLiftRoot:
    def test_lift_matches_integer_root(self):
        # x^2 - 2 has a simple root 3 mod 7; its 7-adic lift squares to 2
        root = P.lift_root([-2, 0, 1], 3, 7, 20)
        assert (root * root - 2) % 7**20 == 0
        assert root % 7 == 3
