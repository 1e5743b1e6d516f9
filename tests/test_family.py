import gc
import json
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from mwglue.arith import factor, is_prime
from mwglue.descent import descent_class
from mwglue.ellcurve import ECPoint, EllipticCurve
from mwglue.etale import AlgebraSquareClass, CubicEtaleAlgebra
from mwglue.family import (
    FAMILY_F,
    FAMILY_F_GENERATORS,
    FamilyInstance,
    FamilyParams,
    FamilyRunReport,
    InvalidFamilyParams,
    _is_trivial,
    _odd_valuation,
    build_instance,
    curve_for_prime,
    find_primes,
    gluing_for_instance,
    load_F_file,
    pairwise_distinct,
    run_family,
    verify_instance,
)
from mwglue.fixtures import EXAMPLE_E

from oracles import naive_congruence_primes, naive_square_class, trial_is_prime


def _params(l1=3, l2=5, gens=(), bound=10**6, count=5):
    return FamilyParams(l1=l1, l2=l2, F=FAMILY_F, F_generators=gens, bound=bound, count=count)


class TestParams:
    def test_distinct_primes_required(self):
        with pytest.raises(InvalidFamilyParams):
            _params(l1=3, l2=3).validate()

    def test_odd_primes_required(self):
        with pytest.raises(InvalidFamilyParams):
            _params(l1=2, l2=5).validate()
        with pytest.raises(InvalidFamilyParams):
            _params(l1=9, l2=5).validate()

    def test_full_two_torsion_required(self):
        params = FamilyParams(l1=3, l2=5, F=EXAMPLE_E)
        with pytest.raises(InvalidFamilyParams):
            params.validate()

    def test_generators_must_lie_on_f(self):
        params = _params(gens=(ECPoint.affine(1, 1),))
        with pytest.raises(InvalidFamilyParams):
            params.validate()

    def test_occurring_prime_conflict_rejected(self):
        # 3 occurs in the class of (3, 6) on the default F
        assert _params(gens=FAMILY_F_GENERATORS).occurs_in_generators(3)
        with pytest.raises(InvalidFamilyParams):
            _params(l1=3, l2=5, gens=FAMILY_F_GENERATORS).validate()

    def test_honest_generators_accepted_for_coprime_choice(self):
        _params(l1=5, l2=7, gens=FAMILY_F_GENERATORS).validate()

    @pytest.mark.parametrize("F,gens", [
        (FAMILY_F, FAMILY_F_GENERATORS),
        (EllipticCurve(0, -25, 0), (ECPoint.affine(0, 0), ECPoint.affine(5, 0), ECPoint.affine(-4, 6))),
    ], ids=["family-F", "x^3-25x"])
    def test_occurrence_matches_the_factored_generator_classes(self, F, gens):
        # each component is x - e_i at the generator, or f'(x) where that
        # vanishes; a prime occurs when some component has it to an odd power
        roots = [-m[0] for m in CubicEtaleAlgebra.from_cubic(F.f_poly()).components]
        components = []
        for g in gens:
            for e in roots:
                others = [g.x - r for r in roots if r != e]
                components.append(g.x - e or others[0] * others[1])
        params = FamilyParams(l1=3, l2=5, F=F, F_generators=gens)
        for l in range(3, 200, 2):
            if trial_is_prime(l):
                naive = any(l in naive_square_class(c)[1] for c in components)
                assert params.occurs_in_generators(l) == naive, l


class TestLoadFFile:
    def test_generators_default_to_none(self):
        assert load_F_file({"F": FAMILY_F.to_json()}) == (FAMILY_F, ())


class TestFindPrimes:
    def test_first_five_for_3_5(self):
        search = find_primes(_params())
        assert search.primes == (229, 1129, 1579, 2029, 4729)
        assert not search.exhausted
        assert search.primes == tuple(naive_congruence_primes(3, 5, 10**6, 5))

    def test_first_for_3_7(self):
        search = find_primes(_params(l2=7, count=1))
        assert search.primes == (643,)
        assert naive_congruence_primes(3, 7, 10**4, 1) == [643]

    def test_congruences_hold(self):
        for p in find_primes(_params(count=4)).primes:
            assert p % 9 == 4 and p % 25 == 4
            assert is_prime(p)

    def test_bound_exhaustion_flagged(self):
        search = find_primes(_params(bound=1000, count=100))
        assert search.primes == (229,)
        assert search.exhausted

    def test_generator_filter_excludes_occurring_primes(self):
        # on y^2 = x(x - 229)(x + 1) the 2-torsion point (0, 0) has class
        # (1, -229, -229), so 229 occurs and must be skipped by the search
        crafted = EllipticCurve.from_roots(0, 229, -1)
        params = FamilyParams(
            l1=3, l2=5, F=crafted, F_generators=(ECPoint.affine(0, 0),), count=1
        )
        assert [l for l in range(2, 2000) if trial_is_prime(l) and params.occurs_in_generators(l)] == [229]
        assert find_primes(params).primes == (1129,)

    def test_occurrence_lemma_against_exhaustive_span(self):
        # a prime occurs in some subset product iff it occurs in some
        # generator, which is what justifies filtering on generator classes
        import random

        from mwglue.arith import SquareClassTriple
        from oracles import triple_product

        def occurring(z):
            return {q for q in range(30) if trial_is_prime(q) and any(q in c.primes for c in z.components)}

        rng = random.Random(41)
        pool = [-1, 2, 3, 5, 7, -6, 10, -15, 21, 11]
        for _ in range(25):
            gens = [
                SquareClassTriple.from_rationals(
                    rng.choice(pool), rng.choice(pool), rng.choice(pool)
                )
                for _ in range(rng.randrange(0, 6))
            ]
            # the empty product is the trivial class, in which nothing occurs
            span_occurring = set()
            for mask in range(1, 1 << len(gens)):
                span_occurring |= occurring(triple_product(*(g for i, g in enumerate(gens) if mask >> i & 1)))
            gen_occurring = set().union(*map(occurring, gens))
            assert span_occurring == gen_occurring

    def test_default_generators_do_not_disturb_5_7(self):
        base = find_primes(_params(l1=5, l2=7, count=3)).primes
        filtered = find_primes(_params(l1=5, l2=7, gens=FAMILY_F_GENERATORS, count=3)).primes
        params = _params(gens=FAMILY_F_GENERATORS)
        assert [l for l in range(200) if trial_is_prime(l) and params.occurs_in_generators(l)] == [2, 3]
        assert base == filtered  # no prime in the congruence class is 2 or 3


class TestBuildInstance:
    @pytest.mark.parametrize("p", [3, 11, 229, 1129])
    def test_class_table_matches_displayed_formulas(self, p):
        inst = build_instance(p)
        assert {k: tuple(r[0] for r in c.rep.residues) for k, c in inst.class_table().items()} == {
            "P": (-1, p, -p),
            "P1": (-p * p + 1, p + 1, -p + 1),
            "P2": (-p - 1, 2 * p * (p + 1), -2 * p),
            "P3": (p - 1, 2 * p, 2 * p * (p - 1)),
        }

    def test_marked_point_on_curve(self):
        for p in (3, 229):
            inst = build_instance(p)
            assert inst.curve.f_at(-1) == p * p
            assert inst.curve.contains(inst.P)

    def test_two_torsion_x_coordinates(self):
        inst = build_instance(229)
        assert {q.x for q in (inst.P1, inst.P2, inst.P3)} == {0, -230, 228}

    def test_table_matches_direct_descent_path(self):
        inst = build_instance(1129)
        algebra = CubicEtaleAlgebra.from_cubic(inst.curve.f_poly(), root_order=[0, -1130, 1128])
        assert inst.algebra == algebra
        for name, pt in inst.marked_points().items():
            direct = descent_class(inst.curve, algebra, pt)
            assert direct == inst.class_table()[name]

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidFamilyParams):
            build_instance(15)
        with pytest.raises(InvalidFamilyParams):
            build_instance(2)


class TestVerifyInstance:
    def test_p229_all_checks_pass(self):
        params = _params()
        report = verify_instance(build_instance(229), params)
        assert report.all_passed
        assert set(report.checks) == {
            "occurrences",
            "marked_classes_nontrivial",
            "torsion_structure",
            "obstruction",
            "j_denominator",
        }

    def test_valuation_mechanism(self):
        # p = l2 - 1 mod l2^2 makes val_{l2}(p + 1) exactly 1
        for p in (229, 1129):
            assert (p + 1) % 5 == 0 and (p + 1) % 25 != 0
            assert (p - 1) % 3 == 0 and (p - 1) % 9 != 0

    def test_p_itself_never_divides_the_torsion_entries(self):
        # val_p of p-1, p+1 and p^2-1 is zero, which is what keeps p visible
        # in class(P) and class(P+P1) but absent from the 2-torsion span
        for p in (3, 229, 1129):
            assert (p - 1) % p != 0 and (p + 1) % p != 0 and (p * p - 1) % p != 0

    def test_wrong_congruence_is_falsified(self):
        # p = 3 satisfies neither congruence for (l1, l2) = (3, 5)
        report = verify_instance(build_instance(3), _params())
        assert not report.all_passed
        assert not report.checks["occurrences"].passed
        assert "does not occur" in report.checks["occurrences"].detail

    def test_honest_generator_run(self):
        params = _params(l1=5, l2=7, gens=FAMILY_F_GENERATORS, count=1)
        search = find_primes(params)
        assert search.primes == (1231,)
        report = verify_instance(build_instance(1231), params)
        assert report.all_passed
        assert len(report.obstruction.span) == 4

    def test_report_json_round_trip(self):
        import json

        report = verify_instance(build_instance(229), _params())
        data = json.loads(json.dumps(report.to_json()))
        assert data["passed"] is True
        assert data["p"] == 229
        assert data["obstruction"]["status"] == "not_contained"


# Checks (a) and (e) decide by valuations and gcds; the tests below compare
# them with the decisions that factor, on the first 20 instances of each pair.
DIFFERENTIAL_PAIRS = ((3, 5), (5, 7), (7, 13), (13, 5))


@pytest.fixture(scope="module", params=DIFFERENTIAL_PAIRS, ids=lambda pair: "%d-%d" % pair)
def first_instances(request):
    params = _params(*request.param, bound=10**9, count=20)
    primes = find_primes(params).primes
    assert len(primes) == 20
    return params, [build_instance(p) for p in primes]


def _relabelled(inst, p: int):
    """The instance with its curve, points and classes, but labelled p."""
    return FamilyInstance(p, *(getattr(inst, f) for f in FamilyInstance._fields[1:]))


def _factored_checks(inst, params, occurs, largest_prime):
    """The passed flags of checks (a) and (e) as a factoring decision gives
    them: whether each named prime occurs in its class (occurs(class, l)),
    and whether the largest prime of the j-denominator (largest_prime) is p."""
    curve, P = inst.curve, inst.P
    named = [(P, inst.p), (curve.add(P, inst.P1), inst.p),
             (curve.add(P, inst.P2), params.l2), (curve.add(P, inst.P3), params.l1)]
    occurrences = all(occurs(descent_class(curve, inst.algebra, pt), l) for pt, l in named)
    return occurrences, largest_prime(curve.j_invariant().denominator) == inst.p


def _integer_checks(inst, params):
    checks = verify_instance(inst, params).checks
    return checks["occurrences"].passed, checks["j_denominator"].passed


def _by_factor(inst, params):
    def occurs(cls, l):
        return any(l in c.primes for c in cls.triple().components)

    return _factored_checks(inst, params, occurs, lambda n: max(factor(n)))


class TestIntegerChecks:
    def test_match_the_factoring_decision(self, first_instances):
        params, instances = first_instances
        for inst, other in zip(instances, instances[1:] + instances[:1]):
            assert _integer_checks(inst, params) == _by_factor(inst, params) == (True, True)
            # labelled with another instance's prime, both checks fail both ways
            wrong = _relabelled(inst, other.p)
            assert _integer_checks(wrong, params) == _by_factor(wrong, params) == (False, False)

    def test_odd_valuation_matches_the_class_triples(self, first_instances):
        params, instances = first_instances
        for inst in instances:
            c = inst.curve
            for pt in (inst.P, c.add(inst.P, inst.P1), c.add(inst.P, inst.P2), c.add(inst.P, inst.P3)):
                cls = descent_class(c, inst.algebra, pt)
                triple = cls.triple()
                for l in (2, 3, 5, 7, 13, inst.p):
                    got = any(_odd_valuation(r[0], l) for r in cls.rep.residues)
                    assert got == any(l in c.primes for c in triple.components), (inst.p, pt, l)

    @pytest.mark.parametrize("c,l,odd", [
        (Fraction(5, 3), 3, True), (Fraction(4, 27), 3, True), (Fraction(-9, 2), 3, False),
        (Fraction(2, 9), 3, False), (-12, 3, True), (-12, 2, False), (7, 5, False),
    ])
    def test_odd_valuation_of_rationals(self, c, l, odd):
        assert _odd_valuation(c, l) is odd

    def test_nontriviality_matches_the_factored_classes(self, first_instances):
        params, instances = first_instances
        for inst in instances:
            for cls in (inst.class_P1, inst.class_P2, inst.class_P3):
                naive = all(naive_square_class(r[0]) == (False, ()) for r in cls.rep.residues)
                assert _is_trivial(cls) == naive, inst.p
            assert verify_instance(inst, params).checks["marked_classes_nontrivial"].passed
        # with the trivial class of 2 P1 = O in place of class(P2), check (b) fails
        fields = {f: getattr(inst, f) for f in FamilyInstance._fields}
        fields["class_P2"] = descent_class(inst.curve, inst.algebra, inst.curve.mul(2, inst.P1))
        check = verify_instance(FamilyInstance(**fields), params).checks["marked_classes_nontrivial"]
        assert (check.passed, check.detail) == (False, "trivial classes: P2")

    @pytest.mark.parametrize("components", [
        (1, 4, 1), ("9/25", 1, "1/4"), (4, -9, 1), (2, 8, 1), ("1/2", "1/8", 16), (49, "4/9", 18),
    ])
    def test_nontriviality_of_rationals(self, components):
        from mwglue.etale import AlgebraSquareClass
        from mwglue.poly import rational

        values = [rational(str(c)) for c in components]
        algebra = CubicEtaleAlgebra.from_cubic(FAMILY_F.f_poly())
        cls = AlgebraSquareClass.of(algebra.element_from_components([[v] for v in values]))
        assert _is_trivial(cls) == all(naive_square_class(v) == (False, ()) for v in values)

    def test_match_sympy(self, first_instances):
        sympy = pytest.importorskip("sympy")

        def occurs(cls, l):
            """Whether l has odd valuation in some component, by factorint."""
            for r in cls.rep.residues:
                q = Fraction(r[0])
                if (sympy.factorint(abs(q.numerator)).get(l, 0) - sympy.factorint(q.denominator).get(l, 0)) % 2:
                    return True
            return False

        params, instances = first_instances
        for inst, other in zip(instances, instances[1:] + instances[:1]):
            for case in (inst, _relabelled(inst, other.p)):
                expected = _factored_checks(case, params, occurs, lambda n: max(sympy.factorint(n)))
                assert _integer_checks(case, params) == expected

    def test_p3_under_3_5_fails_check_a_with_the_same_detail(self):
        check = verify_instance(build_instance(3), _params()).checks["occurrences"]
        assert not check.passed
        assert check.detail == "5 does not occur in class(P+P2); 3 does not occur in class(P+P3)"

    def test_mislabelled_curve_fails_check_e_and_names_the_cofactor(self):
        # the p = 229 curve labelled 1129: 229 is left once 1129 and the
        # primes of 2(1129^2 - 1) are removed from the j-denominator
        inst = _relabelled(build_instance(229), 1129)
        den = inst.curve.j_invariant().denominator
        check = verify_instance(inst, _params()).checks["j_denominator"]
        rest = den
        for q in (2, 3, 5, 47, 113):  # the primes of 2 * 1128 * 1130
            while rest % q == 0:
                rest //= q
        assert rest % 229**2 == 0 and max(factor(rest)) == 229
        assert not check.passed
        assert check.detail == (
            "1129 does not divide the denominator of j; "
            f"the denominator of j keeps the cofactor {rest}, prime to 2p(p^2 - 1)"
        )


class TestPairwiseDistinct:
    def test_distinct_for_different_primes(self):
        assert pairwise_distinct([build_instance(3), build_instance(5)])

    def test_duplicates_detected(self):
        inst = build_instance(229)
        assert not pairwise_distinct([inst, inst])

    def test_single_instance_vacuous(self):
        assert pairwise_distinct([build_instance(3)])

    def test_empty_vacuous(self):
        assert pairwise_distinct([])


class TestRunFamily:
    def test_full_run(self):
        report = run_family(_params(count=3))
        assert report.search.primes == (229, 1129, 1579)
        assert report.all_passed
        assert report.exit_code == 0
        assert report.pairwise_distinct_j

    def test_exhausted_run_exit_code(self):
        report = run_family(_params(bound=1000, count=100))
        assert report.search.exhausted
        assert report.exit_code == 2

    def test_algebras_built_once(self, monkeypatch):
        # one F-side algebra per run and one E-side algebra per instance,
        # shared by the descent classes, the checks and the gluing
        built = []
        original = CubicEtaleAlgebra.from_cubic.__func__

        def counting(cls, f, root_order=None):
            built.append(f)
            return original(cls, f, root_order)

        monkeypatch.setattr(CubicEtaleAlgebra, "from_cubic", classmethod(counting))
        report = run_family(_params(count=3))
        assert report.all_passed
        assert len(built) == 1 + 3
        assert built.count(FAMILY_F.f_poly()) == 1

    def test_each_quantity_computed_once(self, monkeypatch):
        # roots of F are found once per run whatever the count; square_class,
        # which keeps no cache, is asked for each rational once but -1, which
        # every instance's triple holds and whose class factors only 1; and
        # only square_class factors, its numerator and denominator, so
        # checks (a), (b) and (e) factor nothing
        import mwglue.arith as A
        import mwglue.poly as P

        calls = {"factor": 0, "roots": 0}
        rationals, square_class = Counter(), A.square_class

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        def recorded(q):
            rationals[q] += 1
            return square_class(q)

        monkeypatch.setattr(A, "factor", counted("factor", A.factor))
        monkeypatch.setattr(A, "square_class", recorded)
        monkeypatch.setattr(P, "rational_roots_monic", counted("roots", P.rational_roots_monic))
        roots = []
        for count in (1, 5):
            calls.update(factor=0, roots=0)
            rationals.clear()
            assert run_family(_params(count=count)).all_passed
            roots.append(calls["roots"])
        assert roots[0] == roots[1]
        assert {q for q, asked in rationals.items() if asked > 1} <= {-1}
        assert calls["factor"] <= 2 * sum(rationals.values())

    @staticmethod
    def _classes_built(monkeypatch, params) -> tuple[Counter, FamilyRunReport]:
        """The elements that reach AlgebraSquareClass.of in one run, each
        with the number of times it did, and the run's report."""
        of, built = AlgebraSquareClass.of.__func__, Counter()

        def counted(cls, elem):
            built[elem] += 1
            return of(cls, elem)

        with monkeypatch.context() as m:
            m.setattr(AlgebraSquareClass, "of", classmethod(counted))
            report = run_family(params)
        return built, report

    @pytest.mark.parametrize("l1,l2,gens,bound,count,classes", [
        # 7 per instance: P, P1, P2, P3 and the translates P+P1, P+P2, P+P3
        (3, 5, (), 10**6, 15, 105),
        (3, 5, (), 10**12, 500, 3500),
        # plus one per F generator per run and one transfer of each per instance
        (7, 13, FAMILY_F_GENERATORS, 10**12, 5, 5 * 7 + 2 + 5 * 2),
    ], ids=["15_instances", "500_instances", "F_generators"])
    def test_each_class_built_once(self, monkeypatch, l1, l2, gens, bound, count, classes):
        built, report = self._classes_built(monkeypatch, _params(l1, l2, gens, bound, count))
        assert report.exit_code == 0 and len(report.instances) == count
        assert sum(built.values()) == classes
        assert max(built.values()) == 1

    def test_runs_do_not_depend_on_process_history(self, monkeypatch):
        # a second run in the same process builds every class again, and a
        # dropped report frees its curves
        args = (7, 13, FAMILY_F_GENERATORS, 10**12, 5)
        first, report = self._classes_built(monkeypatch, _params(*args))
        second, _ = self._classes_built(monkeypatch, _params(*args))
        assert sum(first.values()) == sum(second.values()) == 47
        curve = weakref.ref(report.instances[0].curve)
        del report
        gc.collect()
        assert curve() is None

    def test_gluing_rejects_a_foreign_algebra(self):
        inst = build_instance(229)
        other = build_instance(1129)
        with pytest.raises(ValueError):
            gluing_for_instance(other, FAMILY_F, inst.algebra)

    def test_gluing_marks_split(self):
        inst = build_instance(229)
        g = gluing_for_instance(inst, FAMILY_F)
        assert g.L.is_split
        assert tuple(-m[0] for m in g.L.components) == (0, -230, 228)

    def test_curve_for_prime_equation(self):
        curve = curve_for_prime(7)
        assert curve.f_poly() == (Fraction(0), Fraction(1 - 49), Fraction(2), Fraction(1))
