"""End-to-end verification of the bundled counterexample gluing.

Checks, in the order a reader would audit them: the conjugate-root
identities inside the cubic field, the inversion matching of the two
2-torsion subgroups, validity of the gluing, the genus-2 model with its two
double covers, the Mordell-Weil facts the argument consumes, and finally the
membership verdict: the generator of E's point group, paired with the
identity of F, is certifiably outside the image of the glued Jacobian.
"""

from __future__ import annotations

from . import poly as P
from .descent import NOT_IN_IMAGE, UNKNOWN, membership
from .ellcurve import INFINITY
from .etale import CERT_PRIMES, CubicEtaleAlgebra, NonSquareCertificate
from .fixtures import example_fixtures
from .glue import ROOTS_NOT_MAPPED, GluingData, GluingError, verify_cover_map, verify_rescaling
from .poly import ZERO, poly
from .record import Record


class Step(Record):
    name: str
    passed: bool | None  # None marks an inconclusive (bounds-limited) step
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class ExampleReport(Record):
    steps: list[Step]
    certificate: NonSquareCertificate | None
    norm_value: object = None

    @property
    def exit_code(self) -> int:
        if any(s.passed is False for s in self.steps):
            return 1
        if any(s.passed is None for s in self.steps):
            return 2
        return 0

    @property
    def verdict(self) -> str:
        return {0: "verified", 1: "falsified", 2: "unknown"}[self.exit_code]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "steps": [s.to_json() for s in self.steps],
            "certificate": self.certificate.to_json() if self.certificate else None,
            "norm_of_shift": str(self.norm_value) if self.norm_value is not None else None,
        }


# The conjugates of the generator in Q[x]/(f) for the bundled f; together
# with x they enumerate the three roots.
_CONJUGATES = (poly([0, 1]), poly([-4, -4, -1]), poly([-1, 3, 1]))


def run_example(cert_primes: int = CERT_PRIMES, fixtures: dict | None = None) -> ExampleReport:
    fx = fixtures or example_fixtures()
    E, F, psi, pt = fx["E"], fx["F"], fx["psi"], fx["P"]
    steps: list[Step] = []

    def step(name: str, passed: bool | None, detail: str = ""):
        steps.append(Step(name, passed, detail))

    f = E.f_poly()

    ok = all(P.mod_poly(P.compose(f, c), f) == ZERO for c in _CONJUGATES)
    step(
        "conjugate_roots",
        ok,
        "x, -x^2-4x-4 and x^2+3x-1 are roots of f in Q[x]/(f)",
    )

    # E and F are nonsingular, so their algebras build; validate the gluing once
    K = CubicEtaleAlgebra.from_cubic(f)
    try:
        gluing, violations = GluingData.build(E, F, psi, L=K), ()
    except GluingError as exc:
        gluing, violations = None, exc.violations

    # h realizes alpha -> -1/alpha and maps the roots of f onto roots of g
    inverts = P.mod_poly(P.mul(poly([0, 1]), psi.h), f) == poly([-1])
    step(
        "matched_roots_invert",
        inverts and ROOTS_NOT_MAPPED not in violations,
        "h(alpha) = -1/alpha and g(h(x)) = 0 mod f",
    )
    step(
        "gluing_valid",
        not violations,
        "identification is bijective, Galois-equivariant and not geometric"
        if not violations
        else "violations: " + ", ".join(violations),
    )

    step(
        "model_rescaling",
        verify_rescaling(fx["C_unscaled"], fx["C"], fx["rescale"]),
        f"unscaled model matches after rescaling y by {fx['rescale']}",
    )
    step(
        "cover_to_E",
        verify_cover_map(fx["C"], E, *fx["cover_to_E"]),
        "(x, y) -> (-1/x^2, y/x^3) covers E",
    )
    step(
        "cover_to_F",
        verify_cover_map(fx["C"], F, *fx["cover_to_F"]),
        "(x, y) -> (x^2, y) covers F",
    )

    on_curve = E.contains(pt)
    step("generator_on_E", on_curve, f"{pt} lies on E")
    step(
        "torsion_E_trivial",
        E.torsion_subgroup().invariants == (),
        "E has trivial rational torsion",
    )
    step(
        "torsion_F_trivial",
        F.torsion_subgroup().invariants == (),
        "F has trivial rational torsion",
    )

    norm_value = None
    if on_curve and not pt.is_infinity:
        norm_value = K.element([pt.x, -1]).norm()
        step(
            "shift_norm_is_square",
            norm_value == pt.y**2,
            f"norm(x_P - X) = {norm_value} = y_P^2",
        )
    else:
        step("shift_norm_is_square", False, "the marked point is unusable")

    certificate = None
    try:
        if violations:
            raise GluingError(violations)
        verdict = membership(gluing, pt, INFINITY, cert_primes)
        if verdict.verdict == NOT_IN_IMAGE:
            certificate = verdict.certificate
            detail = f"point pair is outside the image; certified at p = {certificate.p}"
            step("membership_not_in_image", True, detail)
        elif verdict.verdict == UNKNOWN:
            step("membership_not_in_image", None, "squareness search bounds exhausted")
        else:
            step("membership_not_in_image", False, "point pair reported inside the image")
    except ValueError as exc:
        step("membership_not_in_image", False, str(exc))

    return ExampleReport(steps, certificate, norm_value)


def format_example_report(report: ExampleReport) -> str:
    lines = []
    for s in report.steps:
        mark = {True: "ok", False: "FAIL", None: "unknown"}[s.passed]
        lines.append(f"[{mark:>7}] {s.name}: {s.detail}")
    lines.append(f"verdict: {report.verdict}")
    if report.certificate:
        c = report.certificate
        lines.append(
            f"certificate: p = {c.p}, component {c.component}, root {c.root}, "
            f"non-residue value {c.value}"
        )
    return "\n".join(lines)
