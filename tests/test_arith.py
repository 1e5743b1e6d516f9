from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwglue.arith import (
    TRIAL_BOUND,
    FactorizationError,
    SquareClass,
    SquareClassTriple,
    factor,
    is_prime,
    square_class,
    subgroup_contains,
)

from oracles import (
    _valuation_coordinates,
    brute_force_contains,
    class_product,
    naive_square_class,
    trial_factor,
    trial_is_prime,
    triple_product,
    validate_containment_witness,
    validate_noncontainment_certificate,
)

nonzero_fractions = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
).filter(lambda q: q != 0)


class TestFactor:
    def test_one_gives_empty_product(self):
        assert factor(1) == {}

    def test_small_composite(self):
        assert factor(18) == {2: 1, 3: 2}

    def test_229_is_prime(self):
        assert trial_factor(229) == {229: 1}
        assert factor(229) == {229: 1}

    def test_pollard_rho_path(self):
        # both factors lie above the trial bound, so rho has to split them
        a, b = _ABOVE[:2]
        assert factor(a * b) == {a: 1, b: 1}

    def test_rho_step_budget_names_itself(self, monkeypatch):
        # two 40-bit primes need about 2^20 rho steps; a budget of 2^10
        # runs out and the error names the bound
        import mwglue.arith as A

        monkeypatch.setattr(A, "_RHO_STEPS", 2**10)
        with pytest.raises(FactorizationError, match="_RHO_STEPS = 1024"):
            factor((2**40 - 87) * (2**40 + 15))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)

    def test_composite_cofactor_above_certified_range(self):
        # the cofactor left by trial division is above the Miller-Rabin
        # range, but a witness proves it composite and rho splits it
        m61, m31 = 2**61 - 1, 2**31 - 1
        assert factor(m61 * m31) == {m31: 1, m61: 1}

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=120)
    def test_product_reconstructs(self, n):
        fact = factor(n)
        prod = 1
        for p, e in fact.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n



def _trial_product(*parts: int) -> tuple[int, dict[int, int]]:
    """The product of the parts and its factorization, merged from trial
    division of each part."""
    n, out = 1, {}
    for part in parts:
        n *= part
        for p, e in trial_factor(part).items():
            out[p] = out.get(p, 0) + e
    return n, out


# the first primes above the trial bound: rho, not trial division, meets them
_ABOVE = [q for q in range(TRIAL_BOUND + 1, TRIAL_BOUND + 200) if trial_is_prime(q)][:4]
_M31 = 2**31 - 1
_PSI12 = (399_165_290_221, 798_330_580_441)
_CARMICHAEL = (561, 1105, 1729, 41041, 825265, 5394826801, 4261 * 8521 * 12781)
# the primes of the first five instances of the (l1, l2) = (7, 13) family
_FAMILY_7_13 = (104623, 187433, 253681, 303367, 336491)


class TestFactorDifferential:
    @pytest.mark.parametrize(
        "parts",
        [
            *([q, q] for q in _ABOVE),
            *([q, q, q] for q in _ABOVE),
            [_M31, _M31],
            [_M31, _M31, _M31],
            [205126079, 205126079],
            [10000799, 205126079, 10000799, 205126079],
            [_ABOVE[0], _ABOVE[1]],
            [_ABOVE[2], _ABOVE[3]],
            [_ABOVE[0], _ABOVE[0], _ABOVE[1]],
            [2**5, 3, _ABOVE[1], _ABOVE[3]],
            list(_PSI12),
            *([c] for c in _CARMICHAEL),
        ],
    )
    def test_matches_trial_division(self, parts):
        n, expected = _trial_product(*parts)
        assert factor(n) == expected

    @pytest.mark.parametrize("p", _FAMILY_7_13)
    def test_j_denominators_of_the_family(self, p):
        # perfect squares of about 100 bits whose largest prime is p: check
        # (e) of verify_instance proves that by gcds, factor by factoring
        from mwglue.family import curve_for_prime

        den = curve_for_prime(p).j_invariant().denominator
        root = isqrt(den)
        assert root * root == den and den.bit_length() > 90
        assert factor(den) == {q: 2 * e for q, e in trial_factor(root).items()}
        assert max(factor(den)) == p


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestFactorAgainstSympy:
    """Optional: sympy.factorint as a second oracle, where it is installed."""

    @pytest.mark.parametrize(
        "n",
        [
            (2**61 - 1) * _M31,
            3_825_123_056_546_413_051,  # strong pseudoprime to the bases 2..23
            _PSI12[0] * _PSI12[1],
            (10000799 * 205126079) ** 2,
        ],
    )
    def test_fixed_inputs(self, sympy, n):
        assert factor(n) == sympy.factorint(n)

    @given(
        st.integers(TRIAL_BOUND, 2**26),
        st.integers(TRIAL_BOUND, 2**26),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_products_of_prime_powers(self, sympy, a, b, i, j, c):
        n = sympy.nextprime(a) ** i * sympy.nextprime(b) ** j * c
        assert factor(n) == sympy.factorint(n)

    def test_probable_prime_above_psi13_raises_on_every_call(self, sympy):
        # is_prime is cached, and square_class calls it; a refusal must not be
        p = sympy.nextprime(3_317_044_064_679_887_385_961_981)
        for _ in range(2):
            with pytest.raises(FactorizationError, match="psi_13"):
                is_prime(p)
        for _ in range(2):
            with pytest.raises(FactorizationError, match="psi_13"):
                square_class(Fraction(5, 2 * p))


class TestSquareClass:
    def test_perfect_square_is_trivial(self):
        assert square_class(4).is_trivial

    def test_negative_with_square_part(self):
        assert square_class(-18) == SquareClass(True, (2,))

    def test_fraction(self):
        assert square_class(Fraction(50, 9)) == SquareClass(False, (2,))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_class(0)

    def test_float_refused(self):
        # refused, though it equals a rational that square_class takes
        assert square_class(Fraction(1, 2)) == SquareClass(False, (2,))
        with pytest.raises(TypeError):
            square_class(0.5)

    @given(nonzero_fractions, nonzero_fractions)
    @settings(max_examples=80)
    def test_homomorphism(self, a, b):
        assert square_class(a * b) == class_product(square_class(a), square_class(b))

    @given(nonzero_fractions, nonzero_fractions)
    @settings(max_examples=40)
    # q^3 has a numerator above the certified primality range
    @example(Fraction(-194638909, 2892), Fraction(-194638909, 2892))
    def test_square_factors_cancel(self, q, r):
        assert square_class(q * r * r) == square_class(q)

    def test_against_naive_oracle(self):
        for q in (Fraction(12), Fraction(-75, 8), Fraction(1), Fraction(-1, 49)):
            cls = square_class(q)
            assert (cls.negative, cls.primes) == naive_square_class(q)

    def test_json_round_trip(self):
        cls = square_class(-30)
        assert SquareClass.from_json(cls.to_json()) == cls


class TestTriple:
    def test_product_kernel_membership(self):
        assert _product(SquareClassTriple.from_rationals(-1, 11, -11)).is_trivial
        assert not _product(SquareClassTriple.from_rationals(2, 3, 5)).is_trivial

    @given(st.lists(nonzero_fractions, min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_squares_never_occur(self, vals):
        zz = SquareClassTriple.from_rationals(*(v * v for v in vals))
        assert not zz.coordinates()

    def test_json_round_trip(self):
        z = SquareClassTriple.from_rationals(-6, 10, -15)
        assert SquareClassTriple.from_json(z.to_json()) == z

    @given(st.lists(nonzero_fractions, min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_coordinates_match_oracle(self, vals):
        z = SquareClassTriple.from_rationals(*vals)
        assert z.coordinates() == _valuation_coordinates(z)


def _product(z: SquareClassTriple) -> SquareClass:
    return class_product(*z.components)


def _triple_from_ints(a, b, c):
    return SquareClassTriple.from_rationals(a, b, c)


class TestSubgroupContains:
    def test_empty_generators_trivial_target(self):
        res = subgroup_contains([], SquareClassTriple.from_rationals(1, 1, 1).coordinates())
        assert res.contained and res.witness == ()

    def test_single_generator_itself(self):
        z = _triple_from_ints(-6, 2, -3)
        res = subgroup_contains([z.coordinates()], z.coordinates())
        assert res.contained and res.witness == (0,)
        assert validate_containment_witness([z], z, res.witness)

    def test_marked_classes_do_not_span_target(self):
        # the three 2-torsion classes for p = 229 against the marked point's class
        p = 229
        gens = [
            _triple_from_ints(-(p * p) + 1, p + 1, -p + 1),
            _triple_from_ints(-p - 1, 2 * p * (p + 1), -2 * p),
            _triple_from_ints(p - 1, 2 * p, 2 * p * (p - 1)),
        ]
        target = _triple_from_ints(-1, p, -p)
        assert not brute_force_contains(gens, target)
        res = subgroup_contains([g.coordinates() for g in gens], target.coordinates())
        assert not res.contained
        assert validate_noncontainment_certificate(gens, target, res.certificate)

    def test_product_of_two_generators(self):
        a = _triple_from_ints(2, 3, 6)
        b = _triple_from_ints(-1, 5, -5)
        ab = triple_product(a, b)
        res = subgroup_contains([a.coordinates(), b.coordinates()], ab.coordinates())
        assert res.contained
        assert validate_containment_witness([a, b], ab, res.witness)

    def test_matches_brute_force_on_random_sets(self):
        import random

        rng = random.Random(20160206)
        pool = [-1, 2, 3, 5, 7, -6, 10, -15, 21, 11]
        for trial in range(100):
            k = rng.randrange(0, 11)
            gens = [
                _triple_from_ints(
                    rng.choice(pool), rng.choice(pool), rng.choice(pool)
                )
                for _ in range(k)
            ]
            target = _triple_from_ints(
                rng.choice(pool), rng.choice(pool), rng.choice(pool)
            )
            res = subgroup_contains([g.coordinates() for g in gens], target.coordinates())
            assert res.contained == brute_force_contains(gens, target)
            if res.contained:
                assert validate_containment_witness(gens, target, res.witness)
            else:
                assert validate_noncontainment_certificate(
                    gens, target, res.certificate
                )

    def test_coordinate_sets(self):
        # sets written out give the same answer as a triple's coordinates;
        # other coordinates sort as tuples
        a = _triple_from_ints(-2, 3, 6)
        b = _triple_from_ints(5, -1, 10)
        sets = [{(0, None), (0, 2), (1, 3), (2, 2), (2, 3)}, {(0, 5), (1, None), (2, 2), (2, 5)}]
        for target in (triple_product(a, b), _triple_from_ints(-1, 1, 1)):
            tset = {(i, None) for i, c in enumerate(target.components) if c.negative}
            tset |= {(i, p) for i, c in enumerate(target.components) for p in c.primes}
            assert subgroup_contains(sets, tset) == subgroup_contains(
                [a.coordinates(), b.coordinates()], target.coordinates())
        chars = [{(13, 0, 1), (17, 0, 3)}, {(13, 0, 4)}]
        assert subgroup_contains(chars, {(17, 0, 3), (13, 0, 1), (13, 0, 4)}).witness == (0, 1)
        target = {(17, 0, 3), (19, 0, 2)}
        res = subgroup_contains(chars, target)
        assert not res.contained
        assert [len(set(res.certificate) & cs) % 2 for cs in (*chars, target)] == [0, 0, 1]


class TestPrimality:
    def test_is_prime_matches_oracle_window(self):
        from oracles import trial_is_prime

        for n in range(2, 500):
            assert is_prime(n) == trial_is_prime(n)

    def test_strong_pseudoprime_to_twelve_bases(self):
        # psi_12 passes Miller-Rabin to every base 2..37; base 41 refutes it
        psi12 = 318_665_857_834_031_151_167_461
        assert 399_165_290_221 * 798_330_580_441 == psi12
        assert not is_prime(psi12)

    def test_composite_above_range_is_refuted(self):
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    def test_certified_range_guard(self):
        n = 3_317_044_064_679_887_385_961_981
        while any(n % p == 0 for p in range(2, 38) if trial_is_prime(p)):
            n += 1
        with pytest.raises(FactorizationError):
            is_prime(n)
