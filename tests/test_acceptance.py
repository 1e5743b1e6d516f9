"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All arithmetic is exact, so every comparison is equality; the two
timed criteria assert their wall-clock budgets directly.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from mwglue.arith import (
    SquareClassTriple,
    coordinate_from_json,
    factor,
    square_class,
    subgroup_contains,
    validate_containment_witness,
    validate_noncontainment_certificate,
)
from mwglue.descent import descent_class, membership
from mwglue.ellcurve import ECPoint, INFINITY
from mwglue.etale import (
    CubicEtaleAlgebra,
    NonSquare,
    NonSquareCertificate,
    SquareSearchBounds,
    Unknown,
    is_square,
)
from mwglue.example import run_example
from mwglue.family import (
    FamilyParams,
    build_instance,
    curve_for_prime,
    pairwise_distinct,
    run_family,
)
from mwglue.fixtures import EXAMPLE_E, EXAMPLE_F, EXAMPLE_POINT, EXAMPLE_PSI, FAMILY_F
from mwglue.glue import GluingData

from oracles import brute_force_contains, lambda_j, search_points


def _report(name: str, ok: bool):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def family_run():
    params = FamilyParams(l1=3, l2=5, F=FAMILY_F, F_generators=(), bound=10**6, count=5)
    start = time.perf_counter()
    report = run_family(params)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_example_pipeline():
    """The bundled example verifies end to end in under a second."""
    start = time.perf_counter()
    report = run_example()
    elapsed = time.perf_counter() - start

    ok = report.exit_code == 0
    ok = ok and elapsed < 1.0
    # norm(x_P - X) = 1 exactly
    ok = ok and report.norm_value == Fraction(1)
    # the shift is certified non-square at p = 13, within the first 20 primes
    K = CubicEtaleAlgebra.from_cubic(EXAMPLE_E.f_poly())
    decision = is_square(K, K.element([-2, -1]), SquareSearchBounds(cert_primes=20))
    ok = ok and isinstance(decision, NonSquare) and decision.certificate.p == 13
    # both cover identities and the membership verdict are asserted by steps
    names = {s.name: s.passed for s in report.steps}
    ok = ok and names["cover_to_E"] and names["cover_to_F"]
    ok = ok and names["membership_not_in_image"]
    ok = ok and report.certificate is not None and report.certificate.p == 13
    _report("example-pipeline", ok)


def test_criterion_descent_table():
    """The four descent classes match the displayed triples for p in {3, 11, 229}."""
    ok = True
    for p in (3, 11, 229):
        inst = build_instance(p)
        ok = ok and inst.class_P == SquareClassTriple.from_rationals(-1, p, -p)
        ok = ok and inst.class_P1 == SquareClassTriple.from_rationals(
            -p * p + 1, p + 1, -p + 1
        )
        ok = ok and inst.class_P2 == SquareClassTriple.from_rationals(
            -p - 1, 2 * p * (p + 1), -2 * p
        )
        ok = ok and inst.class_P3 == SquareClassTriple.from_rationals(
            p - 1, 2 * p, 2 * p * (p - 1)
        )
    _report("descent-table", ok)


def test_criterion_family_run(family_run):
    """l1=3, l2=5, count 5, bound 10^6: p = 229 first, all checks, under 10 s."""
    report, elapsed = family_run
    ok = report.search.primes[:1] == (229,)
    ok = ok and len(report.search.primes) == 5 and not report.search.exhausted
    ok = ok and all(r.all_passed for r in report.reports)
    ok = ok and elapsed < 10.0
    _report("family-run", ok)


def test_criterion_occurrence_claims(family_run):
    """Occurrence pattern and nontriviality hold for every generated instance."""
    report, _ = family_run
    l1, l2 = report.params.l1, report.params.l2
    ok = True
    for inst in report.instances:
        curve, p = inst.curve, inst.p
        # built afresh, so the check does not reuse the instance's algebra
        algebra = CubicEtaleAlgebra.from_cubic(curve.f_poly(), root_order=[0, -p - 1, p - 1])
        ok = ok and inst.class_P.occurs(p)
        ok = ok and descent_class(
            curve, algebra, curve.add(inst.P, inst.P1)
        ).triple().occurs(p)
        ok = ok and descent_class(
            curve, algebra, curve.add(inst.P, inst.P2)
        ).triple().occurs(l2)
        ok = ok and descent_class(
            curve, algebra, curve.add(inst.P, inst.P3)
        ).triple().occurs(l1)
        ok = ok and not inst.class_P1.is_trivial
        ok = ok and not inst.class_P2.is_trivial
        ok = ok and not inst.class_P3.is_trivial
    _report("occurrence-claims", ok)


def test_criterion_torsion(family_run):
    """Generated curves have torsion (Z/2)^2 or Z/2 x Z/6; fixtures are trivial."""
    report, _ = family_run
    ok = all(
        inst.curve.torsion_subgroup().invariants in {(2, 2), (2, 6)}
        for inst in report.instances
    )
    ok = ok and EXAMPLE_E.torsion_subgroup().invariants == ()
    ok = ok and EXAMPLE_F.torsion_subgroup().invariants == ()
    _report("torsion-structures", ok)


def test_criterion_j_invariant(family_run):
    """j(E_3) is 21952/9 against the cross-ratio oracle; denominators end at p."""
    report, _ = family_run
    e3 = curve_for_prime(3)
    j3 = e3.j_invariant()
    ok = j3 == Fraction(21952, 9)
    ok = ok and j3 == lambda_j(0, -4, 2)
    ok = ok and lambda_j(0, -4, 2) == 256 * (
        Fraction(7, 4) ** 3
    ) / Fraction(9, 16)  # lambda = -1/2 for the root order (0, -4, 2)
    for inst in report.instances:
        j = inst.curve.j_invariant()
        ok = ok and j.denominator > 1 and max(factor(j.denominator)) == inst.p
    ok = ok and pairwise_distinct(report.instances)
    _report("j-invariant", ok)


def test_criterion_property_suites():
    """Homomorphism law, kernel predicates, forced components, F2 agreement."""
    ok = True
    pairs = 0
    for p, bound in ((3, 10), (11, 13)):
        curve = curve_for_prime(p)
        algebra = CubicEtaleAlgebra.from_cubic(
            curve.f_poly(), root_order=[0, -p - 1, p - 1]
        )
        pool = search_points(curve, bound) + [INFINITY]
        classes = {pt: descent_class(curve, algebra, pt).triple() for pt in pool}
        for a, b in combinations(pool, 2):
            ok = ok and descent_class(curve, algebra, curve.add(a, b)).triple() == (
                classes[a] * classes[b]
            )
            pairs += 1
        for a in pool:
            ok = ok and descent_class(curve, algebra, curve.mul(2, a)).triple().is_trivial
            ok = ok and descent_class(curve, algebra, curve.mul(3, a)).triple() == classes[a]
            c1, c2, c3 = classes[a].components
            ok = ok and (c1 * c2 * c3).is_trivial
        for i, e in enumerate(algebra.split_roots()):
            trip = descent_class(curve, algebra, ECPoint.affine(e, 0)).triple()
            ok = ok and trip.components[i] == square_class(curve.f_derivative_at(e))
    ok = ok and pairs >= 50

    rng = random.Random(20160206)
    pool = [-1, 2, 3, 5, 7, -6, 10, -15, 21, 11]
    for _ in range(100):
        k = rng.randrange(0, 11)
        gens = [
            SquareClassTriple.from_rationals(
                rng.choice(pool), rng.choice(pool), rng.choice(pool)
            )
            for _ in range(k)
        ]
        target = SquareClassTriple.from_rationals(
            rng.choice(pool), rng.choice(pool), rng.choice(pool)
        )
        res = subgroup_contains(gens, target)
        ok = ok and res.contained == brute_force_contains(gens, target)
        if res.contained:
            ok = ok and validate_containment_witness(gens, target, res.witness)
        else:
            ok = ok and validate_noncontainment_certificate(gens, target, res.certificate)
    _report("property-suites", ok)


def test_criterion_certificate_soundness(family_run):
    """Serialized certificates revalidate; Square and NonSquare never collide."""
    ok = True

    # example pipeline certificate, through JSON
    example = run_example()
    K = CubicEtaleAlgebra.from_cubic(EXAMPLE_E.f_poly())
    cert = NonSquareCertificate.from_json(
        json.loads(json.dumps(example.to_json()))["certificate"]
    )
    ok = ok and cert.validate(K, K.element([-2, -1]))

    # membership verdict certificate, through JSON
    gluing = GluingData.build(EXAMPLE_E, EXAMPLE_F, EXAMPLE_PSI)
    verdict = membership(gluing, EXAMPLE_POINT, INFINITY)
    data = json.loads(json.dumps(verdict.to_json()))
    cert = NonSquareCertificate.from_json(data["certificate"])
    ok = ok and cert.validate(K, descent_class(EXAMPLE_E, gluing.L, EXAMPLE_POINT).rep)

    # every F2 certificate in the family report, through JSON
    report, _ = family_run
    payload = json.loads(json.dumps(report.to_json()))
    for inst in payload["instances"]:
        obstruction = inst["obstruction"]
        span = [SquareClassTriple.from_json(t) for t in obstruction["span"]]
        target = SquareClassTriple.from_json(obstruction["target"])
        coords = [coordinate_from_json(c) for c in obstruction["certificate"]]
        ok = ok and validate_noncontainment_certificate(span, target, coords)

    # no element ever draws both decisions across bounds settings
    rng = random.Random(99)
    elements = [K.element([-2, -1]), K.element([4])]
    for _ in range(10):
        b = K.element([rng.randrange(-9, 10) for _ in range(3)])
        if b.is_unit:
            elements.append(b * b)
    for elem in elements:
        kinds = set()
        for bounds in (
            SquareSearchBounds(cert_primes=30),
            SquareSearchBounds(cert_primes=120),
        ):
            decision = is_square(K, elem, bounds)
            if not isinstance(decision, Unknown):
                kinds.add(type(decision))
        ok = ok and len(kinds) == 1
    _report("certificate-soundness", ok)
