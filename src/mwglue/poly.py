"""The ring Q[x] and the exact rationals it holds; the arithmetic of Q[x]/(f)
lives with the modules that run it, `etale`, `glue` and `squares`.

A polynomial is a tuple of rationals in ascending degree order, trimmed of
trailing zeros; the zero polynomial is the empty tuple.  Each coefficient is
an int when it is integral and a `Rational` otherwise (see `fraction`), so a
polynomial with integer coefficients is computed on in int arithmetic; every
true division is `ratio`, whose quotient is again an int when it is integral.
`Rational` is mwglue's own, so that no command imports `fractions` (which
loads `decimal` and `numbers`), and `rational` reads numbers without `re`.
"""

from __future__ import annotations

import sys
from math import gcd, isqrt, lcm

_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf


def _comparison(compare):
    """A comparison of a Rational with another rational: of n od - on d,
    whose sign is that of self - other, with 0."""
    def method(self, other):
        on, od = _parts(other)
        return NotImplemented if on is None else compare(self.numerator * od - on * self.denominator, 0)
    return method


class Rational:
    """A rational n/d that is not an integer: d > 1 and gcd(n, d) = 1.

    Build one with `ratio` or `fraction`: the constructor trusts its
    arguments.  Every operation returns what `fraction` returns, an int when
    the result is integral.  The other operand of +, - and * and of the
    comparisons is an int, a Rational or any object with int numerator and
    denominator, such as a fractions.Fraction.  There is no `/`: `ratio` is
    the one true division.  Hashes equal those of int and Fraction for the
    same number (see "Hashing of numeric types" in the Python docs)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator

    def __add__(self, other, sign: int = 1):
        n, d = self.numerator, self.denominator
        if type(other) is int:  # gcd(n + k d, d) = gcd(n, d) = 1
            return Rational(n + sign * other * d, d)
        on, od = _parts(other)
        return NotImplemented if on is None else _reduced(n * od + sign * on * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        on, od = _parts(other)
        return NotImplemented if on is None else _reduced(self.numerator * on, self.denominator * od)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            return NotImplemented
        return Rational(self.numerator**k, self.denominator**k) if k else 1

    def __neg__(self):
        return Rational(-self.numerator, self.denominator)

    def __abs__(self):
        return Rational(abs(self.numerator), self.denominator)

    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _comparison, (int.__eq__, int.__lt__, int.__le__, int.__gt__, int.__ge__))

    def __hash__(self):
        n, d = self.numerator, self.denominator
        h = hash(hash(abs(n)) * pow(d, -1, _MODULUS)) if d % _MODULUS else _INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"

    __repr__ = __str__


def _parts(x) -> tuple:
    """(numerator, denominator) of an int or any exact rational, else (None, None)."""
    n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
    return (n, d) if type(n) is int and type(d) is int and d > 0 else (None, None)


def _reduced(n: int, d: int) -> int | Rational:
    """n/d for d > 0, in lowest terms, as `fraction` gives it."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return n if d == 1 else Rational(n, d)


Poly = tuple[int | Rational, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


def rational(s, path: str = "") -> int | Rational:
    """A rational read from JSON or the command line: a JSON integer or a
    string of ASCII digits with an optional sign, and a decimal part or a
    nonzero denominator if any, such as "5", "-2/3" or "0.5".  Anything else is
    refused, with its path if given: a JSON float is a binary value, not the
    decimal written, and "1e999999999" would build 10^999999999."""
    if type(s) is int:
        return s
    if isinstance(s, str) and s.isascii():  # str.isdigit also takes "²" and "٣"
        num, slash, den = s.partition("/")
        whole, dot, decimals = (num[1:] if num[:1] in ("+", "-") else num).partition(".")
        if whole.isdigit() and (not slash and decimals.isdigit() if dot else not slash or den.isdigit()):
            # int() refuses a part of more digits than the interpreter's limit
            n, d = int(whole), int(den) if slash else 10 ** len(decimals)
            if dot:
                n = n * d + int(decimals)
            if d:
                return _reduced(-n if num[0] == "-" else n, d)
    # quoted as JSON, so that the message shows the value as it was written
    import json  # here, as most commands never quote a value
    where = f"{path}: " if path else ""
    raise ValueError(f"{where}not a rational number: {shorten(json.dumps(s, ensure_ascii=False, default=repr))}")


def shorten(text: str) -> str:
    """text cut after 80 characters, so that a message quoting a huge value
    stays one short line."""
    return text[:80] + "…" if len(text) > 80 else text


def json_list(data, path: str, read, what: str, count: int | None = None) -> tuple:
    """The JSON list at path, each item read by read(item, its path), such
    as f[0].  Anything else, or a list of the wrong length, is refused."""
    if not isinstance(data, list) or count not in (None, len(data)):
        raise ValueError(f"{path}: expected a list of {f'{count} ' if count else ''}{what}")
    return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(data))


def rationals(data, path: str, count: int | None = None) -> tuple:
    """A JSON list of rationals; a string such as "1050601" is refused."""
    return json_list(data, path, rational, "rationals", count)


def json_object(data, path: str, readers: dict, name: str = "", optional: dict | None = None) -> list:
    """The fields of the JSON object at path ("" for a whole file, called
    name) in readers' order, each read by readers[key](value, its path), or
    taken from optional if missing there.  Refused first: a key outside
    readers; then a non-object or a missing key."""
    where, optional = path or name, optional or {}
    required = [key for key in readers if key not in optional]
    if isinstance(data, dict):
        for key in data:
            if key not in readers:
                raise ValueError(f"unknown key {key!r} in {where}; known keys: {', '.join(readers)}")
        if all(key in data for key in required):
            return [read(data[key], f"{path}.{key}" if path else key) if key in data else optional[key]
                    for key, read in readers.items()]
    names = " and ".join(", ".join(required).rsplit(", ", 1))
    keys = f" with the key{'s' * (len(required) > 1)} {names}" if required else ""
    raise ValueError(f"{where}: expected an object{keys}")


def fraction(c) -> int | Rational:
    """c as an exact rational: an int when it is integral, a Rational
    otherwise.  c is an int or any exact rational, such as a Fraction; a
    float is refused, as its binary value is not the number written."""
    if type(c) is int or type(c) is Rational:
        return c
    n, d = _parts(c)
    if n is None:
        raise TypeError(f"not an exact rational: {c!r}")
    return _reduced(n, d)


def ratio(a, b) -> int | Rational:
    """a / b for rationals a and b, as `fraction` gives it: an int when b
    divides a.  The one true division in mwglue, so that no quotient is a
    float."""
    (an, ad), (bn, bd) = _parts(a), _parts(b)
    if an is None or bn is None:
        raise TypeError(f"not an exact rational: {a if an is None else b!r}")
    if not bn:
        raise ZeroDivisionError(f"{a} / 0")
    return _reduced(an * bd, ad * bn) if bn > 0 else _reduced(-an * bd, -ad * bn)


def poly(coeffs) -> Poly:
    cs = [fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    c = fraction(c)
    if c == 0:
        return ZERO
    return poly(a * c for a in p)


def eval_at(p: Poly, x) -> int | Rational:
    """p(x), exactly; an int when x and the coefficients are ints."""
    x, acc = fraction(x), 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def eval_mod(p, x: int, modulus: int) -> int | None:
    """p(x) mod modulus for rational or integer coefficients, or None when a
    denominator is not a unit mod modulus."""
    acc = 0
    for c in reversed(p):
        if type(c) is not int:
            d = c.denominator
            if gcd(d, modulus) != 1:
                return None
            c = c.numerator * pow(d, -1, modulus)
        acc = (acc * x + c) % modulus
    return acc


def lift_root(p, dp, r: int, q: int, k: int) -> int:
    """Newton-lift a simple root r of p mod the prime q to the root mod q^k
    it determines, given dp = p'; the precision doubles at each step.  The
    coefficients of p must be q-integral."""
    e, root = 1, r % q
    while e < k:
        e = min(2 * e, k)
        modulus = q**e
        fv = eval_mod(p, root, modulus)
        root = (root - fv * pow(eval_mod(dp, root, modulus), -1, modulus)) % modulus
    return root


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def odd_primes():
    """The odd primes in increasing order, sieved in ranges that double in size."""
    seen, high = 1, 64  # 2 is never yielded
    while True:
        primes = primes_up_to(high)
        yield from primes[seen:]
        seen, high = len(primes), 2 * high


def roots_mod(p, q: int) -> list[int]:
    """Sorted roots in F_q, q prime, of a nonconstant polynomial whose
    coefficients are q-integral and whose leading coefficient is a unit mod
    q.  A linear polynomial is solved; a higher one is searched point by
    point."""
    cs = [c % q if type(c) is int else c.numerator * pow(c.denominator, -1, q) % q
          for c in reversed(p)]
    if len(cs) == 2:
        return [-cs[1] * pow(cs[0], -1, q) % q]
    out = []
    for r in range(q):
        acc = 0
        for c in cs:
            acc = (acc * r + c) % q
        if not acc:
            out.append(r)
    return out


def integer_roots(p) -> list[int]:
    """Sorted integer roots of a nonconstant squarefree polynomial with
    integer coefficients, given in ascending degree order.

    Take an odd prime q that divides neither the leading coefficient nor p'
    at any root of p mod q.  Every integer root reduces to one of those
    simple roots and is its unique q-adic lift, so each root mod q is lifted
    until q^k exceeds twice a bound on the roots; the symmetric residue is
    then the only possible integer root above it, and each candidate is
    checked exactly.  The bound is Fujiwara's, 2 max |a_{n-i} / a_n|^(1/i),
    rounded up to a power of two from bit lengths.

    Every prime passed over divides lead * disc(p), and Mahler's bound gives
    |disc(p)| <= n^n ||p||_2^(2n-2).  Once the primes passed over multiply
    past |lead| times that bound, disc(p) = 0, and ValueError says that p is
    not squarefree.  Every caller passes a squarefree polynomial: the cubic
    of a nonsingular curve, a squarefree-checked algebra's cubic, a division
    polynomial, or a quartic with distinct roots.
    """
    if len(p) < 2 or p[-1] == 0:
        raise ValueError("expected a nonconstant polynomial with a nonzero leading coefficient")
    lead = p[-1]
    n, lead_bits = len(p) - 1, abs(lead).bit_length()
    bound = 2 ** (1 + max(
        (-((lead_bits - 1 - abs(c).bit_length()) // (n - i)) for i, c in enumerate(p[:-1]) if c),
        default=0,
    ))
    # bits of |lead| n^n ||p||_2^(2n-2), rounded up
    limit = lead_bits + n * n.bit_length() + (n - 1) * sum(c * c for c in p).bit_length()
    dp = derivative(p)
    primes, passed = odd_primes(), 0
    while passed <= limit:
        q = next(primes)
        roots = roots_mod(p, q) if lead % q else None
        if roots is None or any(eval_mod(dp, r, q) == 0 for r in roots):
            passed += q.bit_length() - 1
            continue
        k, modulus = 1, q
        while modulus <= 2 * bound:
            k, modulus = k + 1, modulus * q
        out = []
        for r in roots:
            x = lift_root(p, dp, r, q, k)
            if x > modulus // 2:
                x -= modulus
            if abs(x) < bound and eval_at(p, x) == 0:
                out.append(x)
        return sorted(out)
    raise ValueError(f"the polynomial is not squarefree: no odd prime up to {q} reduces it with simple roots")


def derivative(p: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(p) if i)


def cubic_disc(f: Poly) -> int | Rational:
    """Discriminant of a monic cubic x^3 + a x^2 + b x + c."""
    if degree(f) != 3 or f[3] != 1:
        raise ValueError("expected a monic cubic")
    c, b, a = f[0], f[1], f[2]
    return 18 * a * b * c - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 - 27 * c**2


# Kept, and called for cubics, only because bench/spans.py times it by name.
def integer_roots_monic_cubic(a: int, b: int, c: int) -> list[int]:
    """All integer roots of the squarefree cubic x^3 + a x^2 + b x + c."""
    return integer_roots([c, b, a, 1])


def _exact_root(n: int, k: int) -> int | None:
    """The integer r with r^k = n, for n >= 1, or None."""
    r = 1 << -(-n.bit_length() // k)  # above the root; Newton steps descend to it
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r if r**k == n else None


def rational_roots_monic(f: Poly) -> list[int | Rational]:
    """Sorted rational roots of a squarefree monic cubic or quartic."""
    d = degree(f)
    if d not in (3, 4) or f[d] != 1:
        raise ValueError("expected a monic cubic or quartic")
    # x = t / m turns f into a monic polynomial in t with integer coefficients
    # once m^(d-i) clears the denominator n_i of each c_i: m takes the exact
    # (d-i)-th root of each n_i that has one, then each n_i not yet cleared
    dens = [(c.denominator, d - i) for i, c in enumerate(f[:d])]
    m = lcm(*filter(None, (_exact_root(n, k) for n, k in dens)))
    m = lcm(m, *(n for n, k in dens if m**k % n))
    scaled = [c * m ** (d - i) for i, c in enumerate(f)]  # ints, by the choice of m
    if d == 3:
        roots = integer_roots_monic_cubic(scaled[2], scaled[1], scaled[0])
    else:
        roots = integer_roots(scaled)
    return sorted(_reduced(t, m) for t in roots)


def format_poly(p: Poly, var: str = "x") -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            term = f"{coef}{var}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
