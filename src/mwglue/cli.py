"""Command-line interface.

Exit codes: 0 verified/answered, 1 falsified, 2 unknown or bounds exhausted,
3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import arith, descent, ellcurve, etale, example, family, fixtures, glue, poly


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for unknown
        raise UsageError(message)


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


# The certificate scan sieves about N ln N bytes for N primes.
MAX_SQ_PRIMES = 100_000
# run_family builds and verifies every instance before it reports on one.
MAX_FAMILY_COUNT = 1000


def _cert_primes(args) -> int:
    if args.sq_primes < 1:
        raise UsageError("bounds must be positive")
    if args.sq_primes > MAX_SQ_PRIMES:
        raise UsageError(f"--sq-primes must be at most {MAX_SQ_PRIMES}")
    return args.sq_primes


def _emit(args, payload: dict, human: str):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(human)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _add_common(sp):
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.add_argument("--out", help="also write the JSON report to this file")


def _add_bounds(sp):
    sp.add_argument("--sq-primes", type=int, default=200, metavar="N",
                    help="primes scanned by the squareness search")


def _cmd_verify_example(args) -> int:
    overrides = None
    if args.fixtures:
        overrides = fixtures.load_example_fixtures(_load_json(args.fixtures))
    report = example.run_example(_cert_primes(args), fixtures=overrides)
    _emit(args, report.to_json(), example.format_example_report(report))
    return report.exit_code


def _cmd_family(args) -> int:
    if args.count > MAX_FAMILY_COUNT:
        raise UsageError(f"--count must be at most {MAX_FAMILY_COUNT}")
    if args.F:
        data = fixtures.json_object(_load_json(args.F), ("F", "generators"), "F")
        F = ellcurve.EllipticCurve.from_json(data["F"])
        gens = tuple(ellcurve.ECPoint.from_json(g) for g in data.get("generators", []))
    else:
        F, gens = fixtures.FAMILY_F, ()
    params = family.FamilyParams(
        l1=args.l1, l2=args.l2, F=F, F_generators=gens, bound=args.bound, count=args.count
    )
    report = family.run_family(params)
    lines = [f"primes: {', '.join(str(p) for p in report.search.primes) or '(none)'}"]
    if report.search.exhausted:
        lines.append(
            f"bound exhausted: found {len(report.search.primes)} of {params.count} "
            f"instances below {params.bound}"
        )
    for inst, rep in zip(report.instances, report.reports):
        lines.append(f"p = {inst.p}: {'all checks pass' if rep.all_passed else 'FAILED'}")
        for name, check in rep.checks.items():
            mark = "ok" if check.passed else "FAIL"
            lines.append(f"  [{mark:>4}] {name}: {check.detail}")
        table = inst.class_table()
        for key in ("P", "P1", "P2", "P3"):
            trip = table[key]
            reps = ", ".join(str(c.representative()) for c in trip.components)
            lines.append(f"  class({key}) = ({reps})")
    lines.append(f"j-invariants pairwise distinct: {report.pairwise_distinct_j}")
    _emit(args, report.to_json(), "\n".join(lines))
    return report.exit_code


def _cmd_membership(args) -> int:
    gluing = glue.GluingData.from_json(_load_json(args.gluing))
    pt_e = ellcurve.ECPoint.from_json(_load_json(args.P))
    pt_f = ellcurve.ECPoint.from_json(_load_json(args.Q))
    verdict = descent.membership(gluing, pt_e, pt_f, _cert_primes(args))
    human = f"verdict: {verdict.verdict}"
    if verdict.certificate is not None:
        human += f"\ncertificate: {json.dumps(verdict.to_json()['certificate'])}"
    _emit(args, verdict.to_json(), human)
    if verdict.verdict in (descent.IN_IMAGE, descent.NOT_IN_IMAGE):
        return 0
    return 2


def _parse_roots(text: str) -> list[Fraction]:
    return [poly.rational(part.strip()) for part in text.split(",")]


def _cmd_descent_class(args) -> int:
    curve = ellcurve.EllipticCurve.from_json(_load_json(args.curve))
    point = ellcurve.ECPoint.from_json(_load_json(args.point))
    order = _parse_roots(args.roots) if args.roots else None
    algebra = etale.CubicEtaleAlgebra.from_cubic(curve.f_poly(), root_order=order)
    cls = descent.descent_class(curve, algebra, point)
    if algebra.is_split:
        trip = cls.triple()
        payload = {"triple": trip.to_json()}
        reps = ", ".join(str(c.representative()) for c in trip.components)
        human = f"({reps})"
    else:
        payload = {"class": cls.to_json()}
        human = f"class of {cls.rep.to_json()}"
    _emit(args, payload, human)
    return 0


def _cmd_jinv(args) -> int:
    curve = ellcurve.EllipticCurve.from_json(_load_json(args.curve))
    j = curve.j_invariant()
    _emit(args, {"j": str(j)}, str(j))
    return 0


def _cmd_torsion(args) -> int:
    curve = ellcurve.EllipticCurve.from_json(_load_json(args.curve))
    torsion = curve.torsion_subgroup()
    human = f"{torsion.label()} (order {torsion.order})"
    if torsion.generators:
        human += "\ngenerators: " + ", ".join(str(g) for g in torsion.generators)
    _emit(args, torsion.to_json(), human)
    return 0


def build_parser() -> Parser:
    parser = Parser(
        prog="mwglue",
        description="Exact descent tests for elliptic curves glued into genus-2 Jacobians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-example", help="verify the bundled counterexample end to end")
    sp.add_argument("--fixtures", help="JSON file overriding the built-in fixtures")
    _add_bounds(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify_example)

    sp = sub.add_parser("family", help="search and verify family instances")
    sp.add_argument("--l1", type=int, required=True)
    sp.add_argument("--l2", type=int, required=True)
    sp.add_argument("--F", help="JSON file with F and its generators")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--bound", type=int, default=10**6)
    _add_common(sp)
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("membership", help="decide whether a point pair is in the glued image")
    sp.add_argument("--gluing", required=True, help="JSON file with E, F, h")
    sp.add_argument("--P", required=True, help="JSON file with the point on E")
    sp.add_argument("--Q", required=True, help="JSON file with the point on F")
    _add_bounds(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_membership)

    sp = sub.add_parser("descent-class", help="descent class of a point on its curve")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--roots", help="component order for split cubics, e.g. '0,-12,10'")
    _add_common(sp)
    sp.set_defaults(func=_cmd_descent_class)

    sp = sub.add_parser("jinv", help="j-invariant of a curve")
    sp.add_argument("--curve", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_jinv)

    sp = sub.add_parser("torsion", help="rational torsion subgroup of a curve")
    sp.add_argument("--curve", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_torsion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, ArithmeticError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except arith.FactorizationError as exc:
        print(f"bound exhausted: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
