"""The benchmark's workloads.  Each draws, from a seeded random generator, the
pool of CLI commands that a run measures, and names the oracle that checks
each command.

A run repeats its pool in seeded orders and counts every command at its
fastest run (see run.py), so what a pool costs must not depend on the seed.
The seed therefore varies each input only in ways that keep the work the
same: the order, a pair from a pool of equally costly pairs, the parity
class of a multiple, a prime of a given size, an integral translate
x -> x + r of a fixed curve.  No input depends on how the program under
test answers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import oracles as O


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `mwglue ARGS`, run beside its input files."""

    kind: str  # key into CHECKS
    args: tuple[str, ...]
    inputs: dict = field(default_factory=dict)  # file name -> JSON content
    expect: dict = field(default_factory=dict)  # what the oracle needs

    def check(self, rc: int, stdout: str) -> O.Verdict:
        return CHECKS[self.kind](rc, stdout, **self.expect)


CURVES = {"E": O.EXAMPLE_E, "F": O.EXAMPLE_F}


def _curve_json(c) -> dict:
    return {"f": [str(x) for x in c]}


def _point_json(pt):
    return "O" if pt is None else {"x": str(pt[0]), "y": str(pt[1])}


def _check_tate(rc: int, out: str, n: int, t: str, r: int) -> O.Verdict:
    c, (x, y) = O.tate_curve(n, Fraction(t))
    return O.check_torsion_tate(rc, out, O.translate(c, r), n, (x - r, y))


CHECKS = {
    "example_human": lambda rc, out: O.check_example_human(rc, out),
    "example_json": lambda rc, out: O.check_example_json(rc, out),
    "membership": lambda rc, out, n: O.check_membership(rc, out, n),
    "descent_class": lambda rc, out: O.check_descent_class(rc, out),
    "jinv": lambda rc, out, curve: O.check_jinv(rc, out, CURVES[curve]),
    "torsion_example": lambda rc, out, curve: O.check_torsion_trivial(rc, out, CURVES[curve]),
    "torsion_tate": _check_tate,
    "torsion_mordell": lambda rc, out, k, r: O.check_torsion_mordell(rc, out, k, r),
    "family": lambda rc, out, l1, l2, count, bound: O.check_family(rc, out, l1, l2, count, bound),
}

GLUING = {"E": _curve_json(O.EXAMPLE_E), "F": _curve_json(O.EXAMPLE_F), "h": ["6", "5", "1"]}
JSON = ("--format", "json")


def membership(n: int) -> Command:
    """(n.(-2, 1), O) on the bundled gluing."""
    pt = O.point_mul(O.EXAMPLE_E, n, O.EXAMPLE_POINT)
    return Command(
        "membership",
        ("membership", "--gluing", "gluing.json", "--P", "P.json", "--Q", "Q.json", *JSON),
        {"gluing.json": GLUING, "P.json": _point_json(pt), "Q.json": "O"},
        {"n": n},
    )


def _on_curve_cmd(kind: str, sub: str, curve: str) -> Command:
    return Command(
        kind, (sub, "--curve", "curve.json", *JSON),
        {"curve.json": _curve_json(CURVES[curve])}, {"curve": curve},
    )


def example(rng) -> list[Command]:
    """Every CLI command on the bundled counterexample; the seed sets only
    the order of each pass."""
    return [
        Command("example_human", ("verify-example",)),
        Command("example_json", ("verify-example", *JSON)),
        membership(1),
        Command(
            "descent_class",
            ("descent-class", "--curve", "curve.json", "--point", "point.json", *JSON),
            {"curve.json": _curve_json(O.EXAMPLE_E), "point.json": _point_json(O.EXAMPLE_POINT)},
        ),
        _on_curve_cmd("jinv", "jinv", "E"),
        _on_curve_cmd("torsion_example", "torsion", "E"),
        _on_curve_cmd("torsion_example", "torsion", "F"),
    ]


# Across the ordered pairs of {3, 5, 7, 11, 13} the same run varies tenfold
# in cost, so each pool holds pairs whose runs cost about the same
# in-process: about 0.6 s for the 15-instance runs and 0.9 s for the
# 5-instance runs.
SMALL_P_PAIRS = ((3, 5), (5, 3))
LARGE_P_PAIRS = ((7, 13), (13, 5))


def family_run(l1: int, l2: int, count: int, bound: int) -> Command:
    return Command(
        "family",
        ("family", "--l1", str(l1), "--l2", str(l2), "--count", str(count),
         "--bound", str(bound), *JSON),
        {},
        {"l1": l1, "l2": l2, "count": count, "bound": bound},
    )


def family(rng, small_count: int = 15, large_count: int = 5) -> list[Command]:
    """A small-p run of many instances and a large-p run of a few."""
    return [
        family_run(*rng.choice(SMALL_P_PAIRS), small_count, 10**9),
        family_run(*rng.choice(LARGE_P_PAIRS), large_count, 10**12),
    ]


# One parameter of height 3 for every order n = 4..9: torsion of the curve
# then costs from 3 ms (n = 4) to about 0.6 s (n = 9), growing with the
# number of divisors of the discriminant.
TATE_T = Fraction(-2, 3)


def torsion_tate(n: int, t: Fraction, r: int) -> Command:
    c, _ = O.tate_curve(n, t)
    return Command(
        "torsion_tate", ("torsion", "--curve", "curve.json", *JSON),
        {"curve.json": _curve_json(O.translate(c, r))}, {"n": n, "t": str(t), "r": r},
    )


def torsion_mordell(k: int, r: int) -> Command:
    return Command(
        "torsion_mordell", ("torsion", "--curve", "curve.json", *JSON),
        {"curve.json": _curve_json(O.translate((k, 0, 0), r))}, {"k": k, "r": r},
    )


def _prime(rng, lo: int, hi: int) -> int:
    while True:
        p = rng.randint(lo, hi)
        if O.is_prime(p):
            return p


# The first prime above 10^9.  Trial division of 16 * 27 * k^2 runs to 10^6
# and rho then splits k^2, with a cost that depends on k itself; a translate
# of the fixed curve keeps that cost the same for every seed.
RHO_K = 1_000_000_007


def mordell_ks(rng) -> list[int]:
    """k = +-RHO_K (trivial torsion), k = p^2 for a prime p in [1e4, 1e5]
    (Z/3) and k = +-p^3 for a prime p in [465, 2154] (Z/2)."""
    sign = lambda: rng.choice((-1, 1))
    return [sign() * RHO_K, _prime(rng, 10**4, 10**5) ** 2, sign() * _prime(rng, 465, 2154) ** 3]


def queries(rng) -> list[Command]:
    """Single-answer commands: membership of n.(-2, 1) for two odd n (not in
    the image) and two even n (in it) in [1, 20]; torsion of the curve of
    order n = 4..9 at t = TATE_T, and of three Mordell curves, each curve
    moved by a seeded translate r in [-20, 20]."""
    ns = rng.sample(range(1, 21, 2), 2) + rng.sample(range(2, 21, 2), 2)
    cmds = [membership(n) for n in ns]
    cmds += [torsion_tate(n, TATE_T, rng.randint(-20, 20)) for n in range(4, 10)]
    cmds += [torsion_mordell(k, rng.randint(-20, 20)) for k in mordell_ks(rng)]
    return cmds


WORKLOADS = {"example": example, "family": family, "queries": queries}
