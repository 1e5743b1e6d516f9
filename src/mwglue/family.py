"""Generation and verification of the congruence family of glued curves.

For distinct odd primes l1, l2 and a curve F with full rational 2-torsion,
primes p with p = l1 + 1 (mod l1^2) and p = l2 - 1 (mod l2^2) that occur in
no supplied F-side generator class give curves

    y^2 = x (x + p + 1) (x - p + 1)

whose point (-1, p) escapes torsion plus the pushforward image of the glued
Jacobian.  Every claim is rechecked per instance: the occurrence pattern of
p, l1, l2, nontriviality of the 2-torsion classes, the torsion structure,
the span non-containment, and the j-invariant denominator.  Classes are
kept as their unit representatives.  Occurrence is read off valuations at
the one prime asked about, nontriviality off exact square roots, and the
denominator check removes p and then the primes of 2(p^2 - 1) by gcds, so
only the span obstruction factors.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .arith import is_prime
from .descent import NOT_CONTAINED, ObstructionVerdict, descent_class, surjectivity_obstruction
from .ellcurve import ECPoint, EllipticCurve
from .etale import AlgebraSquareClass, CubicEtaleAlgebra
from .glue import GluingData, TwoTorsionIdentification
from .poly import constant_value, shorten, sqrt_fraction
from .record import Record


# Default F for family runs: y^2 = x(x - 1)(x + 3), full rational 2-torsion.
FAMILY_F = EllipticCurve(0, -3, 2)
# Generators of the full group F(Q) = Z/4 x Z/2 (rank zero).  Family runs
# that should treat the F-side span as trivial pass an empty tuple instead.
FAMILY_F_GENERATORS = (ECPoint.affine(3, 6), ECPoint.affine(0, 0))


class InvalidFamilyParams(ValueError):
    pass


class FamilyParams(Record):
    l1: int
    l2: int
    F: EllipticCurve
    F_generators: tuple[ECPoint, ...] = ()
    bound: int = 10**6
    count: int = 5

    def validate(self):
        if self.l1 == self.l2:
            raise InvalidFamilyParams("the two primes must be distinct")
        for l in (self.l1, self.l2):
            if l == 2 or not is_prime(l):
                raise InvalidFamilyParams(f"{shorten(str(l))} is not an odd prime")
        if self.bound < 3:
            raise InvalidFamilyParams("the search bound must be at least 3")
        if self.count < 1:
            raise InvalidFamilyParams("the instance count must be positive")
        if not self.F_algebra.is_split:
            raise InvalidFamilyParams("F needs three rational points of order 2")
        for g in self.F_generators:
            if not self.F.contains(g):
                raise InvalidFamilyParams(f"generator {shorten(str(g))} is not on F")
        for l in (self.l1, self.l2):
            if self.occurs_in_generators(l):
                raise InvalidFamilyParams(
                    f"{shorten(str(l))} occurs in a generator class of F and cannot be used"
                )

    # kept: built again on each use, it took the 15-instance `family --l1 3
    # --l2 5` run 1.8 ms more in-process, of 11.5 ms, and with F's two
    # generators 21 ms more, of 17 ms (as measured for descent_class)
    @cached_property
    def F_algebra(self) -> CubicEtaleAlgebra:
        """Q[x]/(f_F), built once per parameter set and shared by every
        instance."""
        return CubicEtaleAlgebra.from_cubic(self.F.f_poly())

    def occurs_in_generators(self, l: int) -> bool:
        """Whether the prime l occurs in some generator class, that is, has
        odd valuation in some component of its representative.

        A prime occurs in the group the generator classes span iff it occurs
        in some generator class: valuation parities add over F2, so a prime
        with even parity in every generator has even parity in every product.
        """
        return any(
            _odd_valuation(r[0], l)
            for g in self.F_generators
            for r in descent_class(self.F, self.F_algebra, g).rep.residues
        )


def _crt(a1: int, m1: int, a2: int, m2: int) -> int:
    t = (a2 - a1) * pow(m1, -1, m2) % m2
    return (a1 + m1 * t) % (m1 * m2)


class PrimeSearch(Record):
    primes: tuple[int, ...]
    exhausted: bool


def find_primes(params: FamilyParams) -> PrimeSearch:
    """The first `count` primes up to `bound` meeting both congruences and
    occurring in no generator class; `exhausted` flags a partial list."""
    params.validate()
    m1, m2 = params.l1**2, params.l2**2
    residue = _crt(params.l1 + 1, m1, params.l2 - 1, m2)
    out = []
    for n in range(residue, params.bound + 1, m1 * m2):
        if n < 3:
            continue
        if not params.occurs_in_generators(n) and is_prime(n):
            out.append(n)
            if len(out) == params.count:
                return PrimeSearch(tuple(out), False)
    return PrimeSearch(tuple(out), True)


def family_roots(p: int) -> tuple[int, int, int]:
    """The roots of the cubic for p, in the order of P1, P2, P3."""
    return (0, -p - 1, p - 1)


def curve_for_prime(p: int) -> EllipticCurve:
    return EllipticCurve.from_roots(*family_roots(p))


class FamilyInstance(Record):
    p: int
    curve: EllipticCurve
    algebra: CubicEtaleAlgebra  # components ordered by family_roots(p)
    P: ECPoint
    P1: ECPoint
    P2: ECPoint
    P3: ECPoint
    class_P: AlgebraSquareClass
    class_P1: AlgebraSquareClass
    class_P2: AlgebraSquareClass
    class_P3: AlgebraSquareClass

    def marked_points(self) -> dict[str, ECPoint]:
        return {"P": self.P, "P1": self.P1, "P2": self.P2, "P3": self.P3}

    def class_table(self) -> dict[str, AlgebraSquareClass]:
        return {
            "P": self.class_P,
            "P1": self.class_P1,
            "P2": self.class_P2,
            "P3": self.class_P3,
        }

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "curve": self.curve.to_json(),
            "points": {k: v.to_json() for k, v in self.marked_points().items()},
            "classes": {k: v.to_json() for k, v in self.class_table().items()},
        }


def build_instance(p: int) -> FamilyInstance:
    """The curve for p with its marked points and their descent classes.

    Components are ordered by the marked 2-torsion points P1, P2, P3.
    """
    if p < 3 or not is_prime(p):
        raise InvalidFamilyParams(f"{p} is not an odd prime")
    curve = curve_for_prime(p)
    roots = family_roots(p)
    algebra = CubicEtaleAlgebra.from_cubic(curve.f_poly(), root_order=roots)
    marked = ECPoint.affine(-1, p)
    t1, t2, t3 = (ECPoint.affine(x, 0) for x in roots)
    classes = [descent_class(curve, algebra, q) for q in (marked, t1, t2, t3)]
    return FamilyInstance(p, curve, algebra, marked, t1, t2, t3, *classes)


def gluing_for_instance(
    inst: FamilyInstance, F: EllipticCurve, F_algebra: CubicEtaleAlgebra | None = None
) -> GluingData:
    """Glue the instance curve to F, matching the marked 2-torsion points of
    the instance to F's 2-torsion points in increasing x order, each read off
    the components x - r of its algebra.  The gluing reuses the instance's
    algebra, and F_algebra when it is given."""
    e_roots = (-m[0] for m in inst.algebra.components)
    Lp = F_algebra or CubicEtaleAlgebra.from_cubic(F.f_poly())
    f_roots = sorted(-m[0] for m in Lp.components)
    psi = TwoTorsionIdentification.from_matching(zip(e_roots, f_roots))
    return GluingData.build(inst.curve, F, psi, L=inst.algebra, Lprime=Lp)


class CheckResult(Record):
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"passed": self.passed, "detail": self.detail}


ALLOWED_TORSION = {(2, 2), (2, 6)}


class InstanceReport(Record):
    p: int
    checks: dict[str, CheckResult]
    obstruction: ObstructionVerdict | None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "checks": {k: v.to_json() for k, v in self.checks.items()},
            "obstruction": self.obstruction.to_json() if self.obstruction else None,
            "passed": self.all_passed,
        }


def _odd_valuation(c, l: int) -> bool:
    """Whether the prime l has odd valuation in the nonzero rational c."""
    v = 0
    for part, sign in ((c.numerator, 1), (c.denominator, -1)):
        while part % l == 0:
            part //= l
            v += sign
    return v % 2 == 1


def _is_trivial(cls: AlgebraSquareClass) -> bool:
    """Whether a class over a split algebra is trivial: every component of
    its representative is the square of a rational."""
    return all(sqrt_fraction(r[0]) is not None for r in cls.rep.residues)


def verify_instance(inst: FamilyInstance, params: FamilyParams) -> InstanceReport:
    """Recheck the five instance claims independently of how it was built:
    each check derives its classes from the points, sharing memoized results.

    Checks (a), (b) and (e) factor nothing.  (a) reads the parity of v_l of
    each component of a class's representative at the one prime l it names.
    (e) proves that p is the largest prime of the j-denominator: p divides
    it, and what is left once p is removed has only primes of 2(p^2 - 1),
    all below p; repeated gcds with 2(p^2 - 1) reduce it to 1."""
    curve, p = inst.curve, inst.p
    l1, l2 = params.l1, params.l2
    algebra = inst.algebra
    checks: dict[str, CheckResult] = {}

    # (a) occurrence pattern of p, l2, l1 across P and its 2-torsion translates
    translates = {
        "P": (inst.P, p),
        "P+P1": (curve.add(inst.P, inst.P1), p),
        "P+P2": (curve.add(inst.P, inst.P2), l2),
        "P+P3": (curve.add(inst.P, inst.P3), l1),
    }
    failures = []
    for name, (pt, prime) in translates.items():
        residues = descent_class(curve, algebra, pt).rep.residues
        if not any(_odd_valuation(r[0], prime) for r in residues):
            failures.append(f"{prime} does not occur in class({name})")
    checks["occurrences"] = CheckResult(
        not failures,
        "; ".join(failures)
        if failures
        else f"{p} occurs in class(P) and class(P+P1); {l2} in class(P+P2); {l1} in class(P+P3)",
    )

    # (b) the marked 2-torsion classes are nontrivial
    trivial = [
        name
        for name, cls in (("P1", inst.class_P1), ("P2", inst.class_P2), ("P3", inst.class_P3))
        if _is_trivial(cls)
    ]
    checks["marked_classes_nontrivial"] = CheckResult(
        not trivial,
        "trivial classes: " + ", ".join(trivial) if trivial else "P1, P2, P3 all nontrivial",
    )

    # (c) torsion structure
    torsion = curve.torsion_subgroup()
    checks["torsion_structure"] = CheckResult(
        torsion.invariants in ALLOWED_TORSION, torsion.label()
    )

    # (d) the marked point escapes torsion plus the pushforward image
    obstruction = None
    try:
        gluing = gluing_for_instance(inst, params.F, params.F_algebra)
        obstruction = surjectivity_obstruction(
            gluing, inst.P, params.F_generators, torsion.generators
        )
        checks["obstruction"] = CheckResult(
            obstruction.status == NOT_CONTAINED, obstruction.status
        )
    except ValueError as exc:
        checks["obstruction"] = CheckResult(False, str(exc))

    # (e) p is the largest prime where the j-invariant has negative valuation
    j = curve.j_invariant()
    den = rest = j.denominator
    while rest % p == 0:
        rest //= p
    while (g := gcd(rest, 2 * (p * p - 1))) > 1:
        rest //= g
    failures = []
    if den % p:
        failures.append(f"{p} does not divide the denominator of j")
    if rest > 1:
        failures.append(f"the denominator of j keeps the cofactor {rest}, prime to 2p(p^2 - 1)")
    checks["j_denominator"] = CheckResult(
        not failures, "; ".join(failures) or f"largest denominator prime of j is {p}"
    )
    return InstanceReport(p, checks, obstruction)


def pairwise_distinct(instances) -> bool:
    """Whether the instances' j-invariants are pairwise distinct."""
    js = [inst.curve.j_invariant() for inst in instances]
    return len(set(js)) == len(js)


class FamilyRunReport(Record):
    params: FamilyParams
    search: PrimeSearch
    instances: tuple[FamilyInstance, ...]
    reports: tuple[InstanceReport, ...]
    pairwise_distinct_j: bool

    @property
    def all_passed(self) -> bool:
        return all(r.all_passed for r in self.reports) and self.pairwise_distinct_j

    @property
    def exit_code(self) -> int:
        if not self.all_passed:
            return 1
        if self.search.exhausted:
            return 2
        return 0

    def to_json(self) -> dict:
        return {
            "params": {
                "l1": self.params.l1,
                "l2": self.params.l2,
                "count": self.params.count,
                "bound": self.params.bound,
                "F": self.params.F.to_json(),
                "generators": [g.to_json() for g in self.params.F_generators],
            },
            "primes": list(self.search.primes),
            "bound_exhausted": self.search.exhausted,
            "instances": [
                {**inst.to_json(), **report.to_json()}
                for inst, report in zip(self.instances, self.reports)
            ],
            "pairwise_distinct_j": self.pairwise_distinct_j,
            "passed": self.all_passed,
        }


def run_family(params: FamilyParams) -> FamilyRunReport:
    """Search primes, build every instance, and verify all claims.

    Instances are verified independently and reported in ascending p order.
    """
    search = find_primes(params)
    instances = tuple(build_instance(p) for p in search.primes)
    reports = tuple(verify_instance(inst, params) for inst in instances)
    return FamilyRunReport(params, search, instances, reports, pairwise_distinct(instances))


def format_family_report(report: FamilyRunReport) -> str:
    params = report.params
    lines = [f"primes: {', '.join(str(p) for p in report.search.primes) or '(none)'}"]
    if report.search.exhausted:
        lines.append(
            f"bound exhausted: found {len(report.search.primes)} of {params.count} "
            f"instances up to {params.bound}"
        )
    for inst, rep in zip(report.instances, report.reports):
        lines.append(f"p = {inst.p}: {'all checks pass' if rep.all_passed else 'FAILED'}")
        for name, check in rep.checks.items():
            mark = "ok" if check.passed else "FAIL"
            lines.append(f"  [{mark:>4}] {name}: {check.detail}")
        for key, cls in inst.class_table().items():
            reps = ", ".join(str(constant_value(r)) for r in cls.rep.residues)
            lines.append(f"  class({key}) = ({reps})")
    lines.append(f"j-invariants pairwise distinct: {report.pairwise_distinct_j}")
    return "\n".join(lines)
