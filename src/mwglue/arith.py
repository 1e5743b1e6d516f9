"""Square classes of rationals and F2 linear algebra over class triples.

Everything is exact: factorizations are complete (a hard error otherwise) and
every prime that appears in a class has passed a deterministic primality
check.
"""

from __future__ import annotations

from math import gcd, isqrt

from .record import Record


class FactorizationError(RuntimeError):
    """A complete factorization could not be certified within the bounds."""


# Deterministic Miller-Rabin witness set: the first 13 primes, which prove
# primality for all n below psi_13 (Sorenson and Webster, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality.  A witness proves any n composite; a
    probable prime at or above _MR_LIMIT raises FactorizationError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise FactorizationError(
            f"{n} is a probable prime at or above the certified primality bound "
            f"psi_13 = {_MR_LIMIT}"
        )
    return True


# Trial division removes only the small primes: a larger cofactor is proven
# prime, recognised as a square or split by rho, all far cheaper than dividing
# up to its square root.  Of 2^8..2^16, 2^11 and 2^12 factored the inputs of
# the congruence-family checks fastest in total; at 2^12 almost no input is
# slower than with trial division to 10^6.
TRIAL_BOUND = 2**12


_RHO_CONSTANTS = 49  # rho tries the maps x -> x^2 + c for c = 1.._RHO_CONSTANTS
_RHO_BATCH = 64  # steps whose differences share one gcd
# Brent steps per _pollard_rho call, over all constants.  It bounds steps,
# not time: a step costs more on a larger cofactor, and one factor() call
# may spend several budgets, one per cofactor it splits.  Before the budget
# ran out, factoring the class of n (-1, 229) on the p = 229 family curve
# took 1.9 s at n = 10 and 29.3 s at n = 23, and `family --F` with F:
# y^2 = x^3 - 25x and the generator 9 (-4, 6) takes 4.3 s (Python 3.11, a
# Xeon core).  It covers every round up to r = 2^20, which splits an 89-bit
# cofactor with a 43-bit factor.  Only the split span obstruction and
# etale.has_square_norm still factor large cofactors.
_RHO_STEPS = 2**22


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, or 0 if every cycle failed.

    Brent's cycle search with the gcds batched over _RHO_BATCH steps (Brent,
    "An improved Monte Carlo factorization algorithm", BIT 20, 1980); a batch
    whose product is a multiple of n is replayed one step at a time.  Taking
    more than _RHO_STEPS steps in all raises FactorizationError.
    """
    steps = 0

    def spend(k: int):
        nonlocal steps
        steps += k
        if steps > _RHO_STEPS:
            raise FactorizationError(
                f"Pollard rho used its budget of _RHO_STEPS = {_RHO_STEPS} steps "
                f"without splitting the composite cofactor {n}"
            )

    for c in range(1, _RHO_CONSTANTS + 1):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = gcd(x - ys, n)
        if d != n:
            return d
    return 0


def factor(n: int) -> dict[int, int]:
    """Complete prime factorization of n >= 1 as {prime: exponent}.

    Trial division up to TRIAL_BOUND; then each cofactor is a proven prime,
    the square of a smaller cofactor, or split by Pollard rho.  A cofactor
    that resists splitting raises FactorizationError rather than producing a
    partial answer, since square classes need the full factorization to be
    correct.
    """
    if n < 1:
        raise ValueError("factor() expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    step = 2
    while p <= TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    if n == 1:
        return out
    if p * p > n:
        out[n] = out.get(n, 0) + 1
        return out
    stack = [(n, 1)]  # (cofactor, exponent it carries)
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        r = isqrt(m)
        if r * r == m:
            stack.append((r, 2 * e))
            continue
        d = _pollard_rho(m)
        if d == 0:
            raise FactorizationError(
                f"Pollard rho with x^2 + c, c = 1..{_RHO_CONSTANTS}, did not split "
                f"the composite cofactor {m}"
            )
        stack += [(d, e), (m // d, e)]
    return out


class SquareClass(Record):
    """An element of Q*/Q*^2: a sign bit plus the primes with odd valuation."""

    negative: bool
    primes: tuple[int, ...]

    # its own constructor, not Record's: it checks the order before storing,
    # and tracing wraps SquareClass.__init__ to count the classes built; it
    # proves no prime, as factor proves square_class's and from_json its own
    def __init__(self, negative: bool, primes: tuple[int, ...]):
        if list(primes) != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        self.__dict__.update(negative=negative, primes=primes)

    @property
    def is_trivial(self) -> bool:
        return not self.negative and not self.primes

    def to_json(self) -> dict:
        return {"sign": "-" if self.negative else "+", "primes": list(self.primes)}

    @classmethod
    def from_json(cls, data) -> "SquareClass":
        out = cls(data["sign"] == "-", tuple(int(p) for p in data["primes"]))
        for p in out.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return out


def square_class(q) -> SquareClass:
    """The image of a nonzero rational, an int or a poly.Rational, in Q*/Q*^2,
    read off its numerator and denominator.  A float is refused, as
    poly.fraction refuses it: its binary value is not the number written."""
    if isinstance(q, float):
        raise TypeError(f"not an exact rational: {q!r}")
    if q == 0:
        raise ValueError("0 has no square class")
    counts: dict[int, int] = {}
    for part in (q.numerator, q.denominator):
        for p, e in factor(abs(part)).items():
            counts[p] = counts.get(p, 0) + e
    odd = tuple(sorted(p for p, e in counts.items() if e % 2))
    return SquareClass(q < 0, odd)


# A valuation coordinate of (Q*/Q*^2)^3: (component index, prime), None
# marking the sign.  subgroup_contains also takes other coordinates, such as
# the quadratic characters (p, component, root) of squares.span_contains.
Coordinate = tuple[int, int | None]


class SquareClassTriple(Record):
    """An element of (Q*/Q*^2)^3."""

    c1: SquareClass
    c2: SquareClass
    c3: SquareClass

    @classmethod
    def from_rationals(cls, a, b, c) -> "SquareClassTriple":
        return cls(square_class(a), square_class(b), square_class(c))

    @property
    def components(self) -> tuple[SquareClass, SquareClass, SquareClass]:
        return (self.c1, self.c2, self.c3)

    def coordinates(self) -> set[Coordinate]:
        """The valuation coordinates of the triple: (i, None) when component
        i is negative and (i, p) for each prime p of odd valuation in it."""
        out: set[Coordinate] = set()
        for i, c in enumerate(self.components):
            if c.negative:
                out.add((i, None))
            out.update((i, p) for p in c.primes)
        return out

    def to_json(self) -> list:
        return [c.to_json() for c in self.components]

    @classmethod
    def from_json(cls, data) -> "SquareClassTriple":
        return cls(*(SquareClass.from_json(d) for d in data))


def _coord_key(c: tuple):
    # None sorts first, so a component's sign precedes its primes
    return tuple(-1 if x is None else x for x in c)


class ContainmentResult(Record):
    """Whether a target lies in the span of some elements modulo squares.

    `contained` is True with `witness`, span indices whose product times the
    target is a square (squares.span_contains adds `root`, an exact square
    root of it); False with `certificate`, coordinates that sum to 1 on the
    target and to 0 on every span element; None when a search ran out.
    """

    contained: bool | None
    witness: tuple[int, ...] | None = None
    certificate: tuple[tuple, ...] | None = None
    root: object = None


def subgroup_contains(generators, target) -> ContainmentResult:
    """Decide membership of target in the F2 span of a list of generators.

    Each element is a set of coordinates, the F2 vector with a 1 at each of
    them, such as the valuation coordinates of SquareClassTriple.coordinates
    or the quadratic characters of squares.span_contains.  Gaussian
    elimination over F2 gives, for a positive answer, a witness subset of
    generator indices whose product is the target; a negative answer carries
    a coordinate set meeting every generator an even number of times and the
    target an odd number of times.
    """
    universe = sorted(set(target).union(*generators), key=_coord_key)
    pos = {c: i for i, c in enumerate(universe)}

    def vec(cs) -> int:
        v = 0
        for c in cs:
            v |= 1 << pos[c]
        return v

    basis: list[list[int]] = []  # [vector, generator mask] rows, kept in RREF
    for i, g in enumerate(generators):
        v, m = vec(g), 1 << i
        for bv, bm in basis:
            if v >> (bv.bit_length() - 1) & 1:
                v ^= bv
                m ^= bm
        if v:
            for row in basis:
                if row[0] >> (v.bit_length() - 1) & 1:
                    row[0] ^= v
                    row[1] ^= m
            basis.append([v, m])
    t, tm = vec(target), 0
    for bv, bm in basis:
        if t >> (bv.bit_length() - 1) & 1:
            t ^= bv
            tm ^= bm
    if t == 0:
        witness = tuple(i for i in range(len(generators)) if tm >> i & 1)
        return ContainmentResult(True, witness=witness)
    low = (t & -t).bit_length() - 1
    dual = {low}
    for bv, _ in basis:
        if bv >> low & 1:
            dual.add(bv.bit_length() - 1)
    cert = tuple(sorted((universe[i] for i in dual), key=_coord_key))
    return ContainmentResult(False, certificate=cert)

