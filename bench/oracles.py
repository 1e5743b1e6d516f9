"""Output checks that rest on the benchmark's own arithmetic, not on mwglue.

Every check takes a command's exit code and standard output and returns a
`Verdict`: whether the answer is right, why not, and how many answers it
verified.  The facts they use:

* membership on the bundled gluing: E(Q) = Z.(-2, 1) with trivial torsion,
  F(Q) is trivial, and the descent map is injective on E(Q)/2E(Q), so
  (n.(-2, 1), O) is in the image exactly when n is even;
* a non-square certificate (p, root r, value v) for the class of x_P - X
  holds when p is prime, f(r) = 0 and v^((p-1)/2) = -1 (mod p); the
  benchmark also checks that x_P - r itself is a non-residue mod p;
* rational torsion injects into E(F_p) for every odd prime p of good
  reduction, so its order divides gcd #E(F_p), counted here by brute force;
* torsion of y^2 = x^3 + k for sixth-power-free k: Z/6 for k = 1, Z/3 when k
  is a square other than 1 or k = -432, Z/2 when k is a cube other than 1,
  and trivial otherwise.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# The bundled counterexample E: y^2 = x^3 + 5x^2 + 6x + 1, as (c0, c1, c2),
# with the generator (-2, 1) of E(Q).  Its cubic is irreducible over Q.
EXAMPLE_E = (Fraction(1), Fraction(6), Fraction(5))
EXAMPLE_F = (Fraction(-1), Fraction(5), Fraction(-6))
EXAMPLE_POINT = (Fraction(-2), Fraction(1))


@dataclass(frozen=True)
class Verdict:
    """`instances` counts verified answers: each family instance, or one
    for any other command."""

    ok: bool
    reason: str = ""
    instances: int = 1


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason, 0)


# ---------------------------------------------------------------------------
# arithmetic


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only asks about numbers below 10^13."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def mod_p(q: Fraction, p: int) -> int | None:
    """q mod p, or None when p divides the denominator."""
    if q.denominator % p == 0:
        return None
    return q.numerator * pow(q.denominator, -1, p) % p


def cubic_at(c: tuple, x):
    c0, c1, c2 = c
    return ((x + c2) * x + c1) * x + c0


def cubic_disc(c: tuple) -> Fraction:
    c0, c1, c2 = c
    a, b, d = c2, c1, c0
    return a * a * b * b - 4 * b**3 - 4 * a**3 * d - 27 * d * d + 18 * a * b * d


def point_add(c: tuple, P, Q):
    """The group law on y^2 = x^3 + c2 x^2 + c1 x + c0; None is the origin."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (3 * x1 * x1 + 2 * c[2] * x1 + c[1]) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - c[2] - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def point_mul(c: tuple, n: int, P):
    acc = None
    for _ in range(n):
        acc = point_add(c, acc, P)
    return acc


def count_points(c: tuple, p: int) -> int:
    """#E(F_p) for an odd prime p of good reduction, by brute force."""
    r = [mod_p(x, p) for x in c]
    total = p + 1
    for x in range(p):
        total += legendre(((x + r[2]) * x + r[1]) * x + r[0], p)
    return total


def torsion_bound(c: tuple, primes: int = 6) -> int:
    """gcd of #E(F_p) over the first few odd primes of good reduction."""
    disc = cubic_disc(c)
    g = 0
    p, found = 3, 0
    while found < primes:
        if is_prime(p) and all(mod_p(x, p) is not None for x in c) and mod_p(disc, p) != 0:
            g = gcd(g, count_points(c, p))
            found += 1
        p += 2
    return g


def j_invariant(c: tuple) -> Fraction:
    """j from the depressed model y^2 = x^3 + A x + B: 1728 * 4A^3 / (4A^3 + 27B^2)."""
    c0, c1, c2 = c
    A = c1 - c2 * c2 / 3
    B = 2 * c2**3 / 27 - c2 * c1 / 3 + c0
    return 1728 * 4 * A**3 / (4 * A**3 + 27 * B * B)


def tate_curve(n: int, t: Fraction) -> tuple[tuple, tuple]:
    """(c0, c1, c2) and the point of order n on the Tate normal form
    y^2 + (1 - c) x y - b y = x^3 - b x^2, with y shifted to clear a1, a3."""
    if n == 4:
        b, c = t, Fraction(0)
    elif n == 5:
        b, c = t, t
    elif n == 6:
        b, c = t + t * t, t
    elif n == 7:
        b, c = t**3 - t * t, t * t - t
    elif n == 8:
        b = (2 * t - 1) * (t - 1)
        c = b / t
    elif n == 9:
        c = t * t * (t - 1)
        b = c * (t * t - t + 1)
    else:
        raise ValueError(f"no Tate normal form for order {n}")
    a1, a3 = 1 - c, -b
    coeffs = (a3 * a3 / 4, a1 * a3 / 2, -b + a1 * a1 / 4)
    return coeffs, (Fraction(0), a3 / 2)


def translate(c: tuple, r: int) -> tuple:
    """The cubic f(x + r) of y^2 = f(x + r), a model of the same curve in
    which each point (x, y) moves to (x - r, y)."""
    c0, c1, c2 = c
    return (c0 + c1 * r + c2 * r * r + r**3, c1 + 2 * c2 * r + 3 * r * r, c2 + 3 * r)


def _is_power(k: int, e: int) -> bool:
    if k < 0:
        if e % 2 == 0:
            return False
        k = -k
    r = round(k ** (1 / e))
    return any((r + d) ** e == k for d in (-1, 0, 1))


def mordell_torsion_order(k: int) -> int:
    """|E(Q)_tors| of y^2 = x^3 + k, k sixth-power-free."""
    if k == 1:
        return 6
    if k == -432 or _is_power(k, 2):
        return 3
    if _is_power(k, 3):
        return 2
    return 1


# ---------------------------------------------------------------------------
# parsing helpers


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _point(data):
    if data == "O":
        return None
    return (Fraction(data["x"]), Fraction(data["y"]))


def _on_curve(c: tuple, pt) -> bool:
    return pt is None or pt[1] * pt[1] == cubic_at(c, pt[0])


def check_certificate(cert: dict, c: tuple, x: Fraction) -> str:
    """Why a non-square certificate for the class of x - X fails, or ''."""
    try:
        p, comp, r, v = (int(cert[k]) for k in ("p", "component", "root", "value"))
    except (KeyError, TypeError, ValueError):
        return f"malformed certificate {cert}"
    if comp != 0:
        return f"component {comp} does not exist: the cubic is irreducible"
    if p == 2 or not is_prime(p):
        return f"certificate prime {p} is not an odd prime"
    if any(mod_p(q, p) is None for q in c) or cubic_at(tuple(mod_p(q, p) for q in c), r) % p:
        return f"{r} is not a root of the cubic mod {p}"
    if pow(v % p, (p - 1) // 2, p) != p - 1:
        return f"value {v} is not a non-residue mod {p}"
    xp = mod_p(x, p)
    if xp is None or legendre(xp - r, p) != -1:
        return f"x_P - {r} is not a non-residue mod {p}"
    return ""


# ---------------------------------------------------------------------------
# per-command checks


def _check_example_report(data) -> str:
    if data.get("verdict") != "verified":
        return f"verdict {data.get('verdict')}"
    bad = [s["name"] for s in data.get("steps", []) if s.get("passed") is not True]
    if bad or len(data.get("steps", [])) != 11:
        return f"steps not passed: {bad}"
    if data.get("norm_of_shift") != "1":
        return f"norm of x_P - X is {data.get('norm_of_shift')}, not y_P^2 = 1"
    if data.get("certificate") is None:
        return "no certificate"
    return check_certificate(data["certificate"], EXAMPLE_E, EXAMPLE_POINT[0])


_CERT_LINE = re.compile(
    r"^certificate: p = (\d+), component (\d+), root (\d+), non-residue value (\d+)$", re.M
)


def check_example_human(rc: int, out: str) -> Verdict:
    if rc != 0:
        return _fail(f"exit code {rc}")
    lines = out.splitlines()
    steps = [ln for ln in lines if ln.startswith("[")]
    if len(steps) != 11 or any(not ln.startswith("[     ok]") for ln in steps):
        return _fail("not every step is ok")
    if "verdict: verified" not in lines:
        return _fail("no 'verdict: verified' line")
    m = _CERT_LINE.search(out)
    if m is None:
        return _fail("no certificate line")
    cert = dict(zip(("p", "component", "root", "value"), m.groups()))
    why = check_certificate(cert, EXAMPLE_E, EXAMPLE_POINT[0])
    return _fail(why) if why else Verdict(True)


def check_example_json(rc: int, out: str) -> Verdict:
    if rc != 0:
        return _fail(f"exit code {rc}")
    data = _json(out)
    if not isinstance(data, dict):
        return _fail("output is not a JSON object")
    why = _check_example_report(data)
    return _fail(why) if why else Verdict(True)


def check_membership(rc: int, out: str, n: int) -> Verdict:
    """(n.(-2, 1), O) on the bundled gluing: in the image iff n is even."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    data = _json(out)
    if not isinstance(data, dict):
        return _fail("output is not a JSON object")
    want = "in_image" if n % 2 == 0 else "not_in_image"
    if data.get("verdict") != want:
        return _fail(f"verdict {data.get('verdict')}, expected {want}")
    if want == "in_image":
        return Verdict(True) if data.get("certificate") is None else _fail("certificate on in_image")
    cert = data.get("certificate") or {}
    if cert.get("kind") != "non_square":
        return _fail(f"certificate kind {cert.get('kind')}")
    x = point_mul(EXAMPLE_E, n, EXAMPLE_POINT)[0]
    why = check_certificate(cert, EXAMPLE_E, x)
    return _fail(why) if why else Verdict(True)


def _roots_mod(c: tuple, p: int) -> list[int]:
    r = tuple(mod_p(q, p) for q in c)
    return [x for x in range(p) if cubic_at(r, x) % p == 0]


def check_descent_class(rc: int, out: str) -> Verdict:
    """The class of (-2, 1) is the class of -2 - X: the quadratic characters
    (rep(r) / p) and (-2 - r / p) agree at every root r of f mod small p."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    data = _json(out)
    try:
        (residue,) = data["class"]["rep"]
        coeffs = [Fraction(s) for s in residue]
    except (KeyError, TypeError, ValueError):
        return _fail("no class representative in the output")
    disc = cubic_disc(EXAMPLE_E)
    checked = 0
    for p in range(3, 200, 2):
        if not is_prime(p) or mod_p(disc, p) == 0:
            continue
        cs = [mod_p(q, p) for q in coeffs]
        if None in cs:
            continue
        for r in _roots_mod(EXAMPLE_E, p):
            got = legendre(sum(c * r**i for i, c in enumerate(cs)), p)
            want = legendre(int(EXAMPLE_POINT[0]) - r, p)
            if got == 0 or got != want:
                return _fail(f"character at p = {p}, root {r} is {got}, expected {want}")
            checked += 1
    return Verdict(True) if checked else _fail("no character could be checked")


def check_jinv(rc: int, out: str, c: tuple) -> Verdict:
    if rc != 0:
        return _fail(f"exit code {rc}")
    data = _json(out)
    want = j_invariant(c)
    try:
        got = Fraction(data["j"])
    except (KeyError, TypeError, ValueError):
        return _fail("no j-invariant in the output")
    return Verdict(True) if got == want else _fail(f"j = {got}, expected {want}")


def _torsion_points(data, c: tuple):
    """The returned points after the checks every torsion answer must pass,
    or the reason they fail."""
    try:
        pts = [_point(p) for p in data["points"]]
        gens = [_point(g) for g in data["generators"]]
        order = int(data["order"])
        inv = [int(d) for d in data["invariants"]]
    except (KeyError, TypeError, ValueError):
        return None, "malformed torsion answer"
    if len(pts) != order or len(set(pts)) != order:
        return None, f"{len(pts)} distinct points listed for order {order}"
    prod = 1
    for d in inv:
        prod *= d
    if prod != order:
        return None, f"invariants {inv} do not multiply to {order}"
    off = [p for p in pts + gens if not _on_curve(c, p)]
    if off:
        return None, f"point {off[0]} is not on the curve"
    bound = torsion_bound(c)
    if bound % order:
        return None, f"order {order} does not divide gcd #E(F_p) = {bound}"
    return (order, set(pts)), ""


def check_torsion_trivial(rc: int, out: str, c: tuple) -> Verdict:
    """The bundled E and F both have trivial rational torsion."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    got, why = _torsion_points(_json(out), c)
    if got is None:
        return _fail(why)
    return Verdict(True) if got[0] == 1 else _fail(f"order {got[0]}, expected 1")


def check_torsion_tate(rc: int, out: str, c: tuple, n: int, point) -> Verdict:
    """A Tate-normal-form curve: order is a multiple of n and contains the
    designed point of order n."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    got, why = _torsion_points(_json(out), c)
    if got is None:
        return _fail(why)
    order, pts = got
    if order % n:
        return _fail(f"order {order} is not a multiple of {n}")
    if point not in pts:
        return _fail(f"the point {point} of order {n} is missing")
    return Verdict(True)


def check_torsion_mordell(rc: int, out: str, k: int, r: int) -> Verdict:
    """y^2 = (x + r)^3 + k, whose torsion is that of y^2 = x^3 + k."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    c = translate((Fraction(k), Fraction(0), Fraction(0)), r)
    got, why = _torsion_points(_json(out), c)
    if got is None:
        return _fail(why)
    want = mordell_torsion_order(k)
    return Verdict(True) if got[0] == want else _fail(f"order {got[0]}, expected {want}")


def _parity(coords: list, triple: list) -> int:
    odd = 0
    for comp, prime in coords:
        cls = triple[comp]
        odd += cls["sign"] == "-" if prime is None else prime in cls["primes"]
    return odd % 2


def family_primes(l1: int, l2: int, count: int, bound: int) -> list[int]:
    """The first `count` primes p <= bound with p = l1 + 1 (mod l1^2) and
    p = l2 - 1 (mod l2^2)."""
    m = l1 * l1 * l2 * l2
    out = []
    for p in range(3, min(bound, 10**13) + 1):
        if p % (l1 * l1) == l1 + 1 and p % (l2 * l2) == l2 - 1:
            break
    else:
        return out
    while p <= bound and len(out) < count:
        if is_prime(p):
            out.append(p)
        p += m
    return out


def check_family(rc: int, out: str, l1: int, l2: int, count: int, bound: int) -> Verdict:
    """Exit 0, every instance passed, the primes are the family's first
    `count`, the target class of (-1, p) is (-1, p, -p), and every
    non-containment certificate has the right parities on span and target."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    data = _json(out)
    if not isinstance(data, dict):
        return _fail("output is not a JSON object")
    if data.get("passed") is not True or data.get("pairwise_distinct_j") is not True:
        return _fail("the run did not pass")
    want = family_primes(l1, l2, count, bound)
    if data.get("primes") != want:
        return _fail(f"primes {data.get('primes')}, expected {want}")
    instances = data.get("instances") or []
    if [i.get("p") for i in instances] != want:
        return _fail("instances do not match the primes")
    for inst in instances:
        p = inst["p"]
        if inst.get("passed") is not True:
            return _fail(f"instance p = {p} did not pass")
        ob = inst.get("obstruction") or {}
        if ob.get("status") != "not_contained":
            return _fail(f"instance p = {p}: obstruction {ob.get('status')}")
        target = ob.get("target")
        expected = [
            {"sign": "-", "primes": []},
            {"sign": "+", "primes": [p]},
            {"sign": "-", "primes": [p]},
        ]
        if target != expected:
            return _fail(f"instance p = {p}: target class {target}, expected {expected}")
        try:
            coords = [(int(c["component"]), c["prime"]) for c in ob["certificate"]]
        except (KeyError, TypeError, ValueError):
            return _fail(f"instance p = {p}: malformed certificate")
        if not coords or _parity(coords, target) != 1:
            return _fail(f"instance p = {p}: certificate is even on the target")
        if any(_parity(coords, z) for z in ob.get("span") or []):
            return _fail(f"instance p = {p}: certificate is odd on a span element")
    return Verdict(True, instances=len(instances))
