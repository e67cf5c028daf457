"""Exact residue arithmetic over a runtime-chosen modulus.

All values are plain Python integers kept in canonical form 0 <= value < n.
The modulus is capped at 2**31 - 1 so that a product of two residues stays
below 2**62 before reduction; nothing here ever grows an integer beyond
that, and nothing needs arbitrary precision.

Where the standard library runs the same algorithm it does the work:
three-argument pow is square-and-multiply, pow(x, -1, n) and math.gcd are
Euclid. extended_gcd takes its certificate from them too. The paper's
Euclid loop is the generator euclid_rows, one table row at a time, and
EuclidTrace.rows is its tuple, built when first read. One trial-division
factoriser, prime_factors, serves primality, square-freeness and phi, and
is_prime is the one primality test. prime_factors refuses n past
MAX_MODULUS, so each of them answers within about 23 170 trial divisions.
A result that grows with its arguments holds at most MAX_RESULT numbers.

Every type in this module is an immutable value and every operation is a
pure function, so the whole surface is safe for unrestricted concurrent use.
Each value type is a collections.namedtuple of its fields with one small
base, Value, in front, which validates at construction and refuses what
makes a tuple a sequence. namedtuple, not dataclasses, so importing the
package stays cheap; a trace row is a plain namedtuple.
"""

import enum
import itertools
import math
from collections import namedtuple
from functools import cached_property
from operator import attrgetter

from .errors import (
    InvalidModulusError,
    ModulusMismatchError,
    NotAUnitError,
    NotSquareFreeError,
    UndefinedGcdError,
    _shown,
)

MAX_MODULUS = 2**31 - 1
# the most numbers a library result holds, 2**20: primes_in_range's window, mul_table's cells,
# critical_exponents' values and their 64-bit words; the CLI's widest suggest-primes window is this size
MAX_RESULT = 2**20
# the largest p power_table takes, 46340: the smaller factor of every modulus is no larger
MAX_TABLE = math.isqrt(MAX_MODULUS)

# a value from its fields, unvalidated: for fields right by construction, such as
# extended_gcd's certificate or the residues rsa.transform and rsa.decode_stream derive
_new = tuple.__new__


def _unsupported(self, *args, **kwargs):
    cls = self if isinstance(self, type) else type(self)
    raise TypeError(f"{cls.__qualname__} values are not sequences, and only their constructor builds them")


class Value:
    """Base of the value types, listed before a namedtuple of the fields: Modulus(Value, namedtuple(...)).

    The namedtuple's __new__ builds it from the fields and their defaults,
    then Value's __init__ calls __post_init__, where a class validates;
    _new skips both, the one unvalidated path. A value equals only its
    own class, over the fields, as hash and repr go.
    It is not a sequence: ordering, arithmetic, indexing, len, iteration,
    membership, count, index, _make and _replace raise TypeError, and bool
    is True.
    Assignment raises AttributeError; pickle and copy rebuild through the
    constructor. A class with a cached_property has no __slots__: it keeps
    the computed value in its __dict__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)  # what equality and hashing compare

    def __init__(self, *args, **kwargs):
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._key(self))

    def __bool__(self):
        return True

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _unsupported
    __getitem__ = __len__ = __iter__ = __contains__ = count = index = _replace = _unsupported
    _make = classmethod(_unsupported)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _check_int(name, value) -> None:
    # exponents, factors and number-theory arguments are ints and not bools; anything else
    # is a programming mistake, not bad input
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


def check_modulus(n) -> int:
    """n if it is a valid modulus, an int (not a bool) with 2 <= n <= MAX_MODULUS."""
    if isinstance(n, bool) or not isinstance(n, int) or not 2 <= n <= MAX_MODULUS:
        raise InvalidModulusError(n)
    return n


class Modulus(Value, namedtuple("Modulus", "n")):
    """Clock size n >= 2; all arithmetic wraps modulo n."""

    __slots__ = ()

    def __post_init__(self):
        check_modulus(self.n)


def _as_modulus(n) -> Modulus:
    return n if isinstance(n, Modulus) else Modulus(n)


class Residue(Value, namedtuple("Residue", "value modulus")):
    """Canonical representative of an integer class modulo a fixed n.

    The constructor insists on canonical form; use reduce() to wrap an
    arbitrary, possibly negative, integer. Operators take another Residue
    with the same modulus on the right, or a plain int there, which is
    reduced first; a plain int on the left is not accepted.
    """

    __slots__ = ()

    def __post_init__(self):
        _check_int("residue value", self.value)
        if not isinstance(self.modulus, Modulus):
            raise TypeError(f"residue modulus must be a Modulus, got {self.modulus!r}")
        if not 0 <= self.value < self.modulus.n:
            raise ValueError(f"{_shown(self.value)} is not a canonical residue mod {self.modulus.n}")

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            return other
        return reduce(other, self.modulus)

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __sub__(self, other):
        return sub(self, self._coerce(other))

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __truediv__(self, other):
        return divide(self, self._coerce(other))

    def __pow__(self, exponent):
        return pow_mod(self, exponent)

    def __int__(self):
        return self.value

    def __str__(self):
        return str(self.value)


def reduce(x: int, n) -> Residue:
    """Canonical residue of any integer x modulo n.

    Uses floor semantics, so negative inputs wrap backwards around the
    clock: reduce(-7, 5) is 3.
    """
    m = _as_modulus(n)
    return Residue(x % m.n, m)


def _same_modulus(a: Residue, b: Residue) -> Modulus:
    if a.modulus != b.modulus:
        raise ModulusMismatchError(a.modulus.n, b.modulus.n)
    return a.modulus


def add(a: Residue, b: Residue) -> Residue:
    m = _same_modulus(a, b)
    return Residue((a.value + b.value) % m.n, m)


def sub(a: Residue, b: Residue) -> Residue:
    m = _same_modulus(a, b)
    return Residue((a.value - b.value) % m.n, m)


def mul(a: Residue, b: Residue) -> Residue:
    m = _same_modulus(a, b)
    return Residue(a.value * b.value % m.n, m)


def mul_table(n) -> list[list[Residue]]:
    """The (n-1) x (n-1) multiplication table for nonzero residues.

    Entry [i][j] holds (i+1) * (j+1) mod n, i.e. rows and columns are
    labelled 1..n-1 and the zero row is omitted, as these tables are
    usually presented. A table of more than MAX_RESULT cells is refused
    before any is built.
    """
    m = _as_modulus(n)
    if (m.n - 1) ** 2 > MAX_RESULT:
        raise ValueError(f"a table holds at most MAX_RESULT = {MAX_RESULT} cells, got {(m.n - 1) ** 2}")
    return [[Residue(i * j % m.n, m) for j in range(1, m.n)] for i in range(1, m.n)]


def gcd(x: int, y: int) -> int:
    """Greatest common divisor by iterated remainders (math.gcd).

    gcd(0, y) = y; gcd(0, 0) is undefined. extended_gcd shows the same
    remainder sequence as a table.
    """
    if x < 0 or y < 0:
        raise ValueError("gcd is defined for nonnegative integers")
    if x == 0 and y == 0:
        raise UndefinedGcdError("gcd(0, 0) is undefined")
    return math.gcd(x, y)


TraceRow = namedtuple("TraceRow", ("n", "quotient", "a", "b"))
TraceRow.__doc__ = """One row (n, quotient, a, b) of the tabular extended-Euclid computation.

Every row satisfies a*x + b*y = n for the trace inputs (x, y). The
quotient is the whole part of the division producing the next row; it
is absent on the first row and on the terminal zero row.
"""


def euclid_rows(x: int, y: int):
    """Yield the paper's table for x >= y >= 1 one row at a time: rows (x, -, 1, 0)
    and (y, q, 0, 1), then each row is row[i-2] - quotient[i-1] * row[i-1], columnwise."""
    _check_int("x", x)
    _check_int("y", y)
    yield TraceRow(x, None, 1, 0)
    (n0, a0, b0), (n1, a1, b1) = (x, 1, 0), (y, 0, 1)
    while n1:
        q = n0 // n1
        yield TraceRow(n1, q, a1, b1)
        (n0, a0, b0), (n1, a1, b1) = (n1, a1, b1), (n0 - q * n1, a0 - q * a1, b0 - q * b1)
    yield TraceRow(0, None, a1, b1)


class EuclidTrace(Value, namedtuple("EuclidTrace", "x y rows", defaults=(None,))):
    """The full table produced by the extended Euclidean algorithm, as euclid_rows yields it.

    The n column strictly decreases and ends at 0. Built from (x, y)
    alone, as extended_gcd does, the trace runs that loop the first time
    its rows are read. The rows are then held whole, so their memory grows
    with the square of the inputs' digits; euclid_rows is the streamed path.
    """

    @cached_property
    def rows(self) -> tuple[TraceRow, ...]:
        rows = tuple.__getitem__(self, 2)  # the raw item, which this property shadows
        return tuple(euclid_rows(self.x, self.y)) if rows is None else rows


class BezoutCertificate(Value, namedtuple("BezoutCertificate", "g a b x y")):
    """Witness that a*x + b*y = g, where g is the gcd of x and y."""

    __slots__ = ()


def extended_gcd(x: int, y: int) -> tuple[BezoutCertificate, EuclidTrace]:
    """Tabular extended Euclid; returns (certificate, trace).

    The table wants x >= y, so calling with x < y swaps the inputs
    internally and swaps the returned coefficients back: the certificate
    always satisfies a*x + b*y = g for the caller's (x, y), while the
    trace shows the table that was actually computed.

    The table ends on the minimal Bezout pair, |a| <= y/(2g), which is
    unique: a is the reciprocal of x/g mod y/g (builtin pow, itself
    Euclid) taken in the symmetric range, 0 when y/g = 1, and b follows
    from a*x + b*y = g. The trace runs the loop only when it is read.
    """
    _check_int("x", x)
    _check_int("y", y)
    if x < 1 or y < 1:
        raise UndefinedGcdError("extended gcd needs two integers >= 1")
    if x < y:
        cert, trace = extended_gcd(y, x)
        return _new(BezoutCertificate, (cert.g, cert.b, cert.a, x, y)), trace

    g = math.gcd(x, y)
    m = y // g
    a = pow(x // g, -1, m)  # 0 when m = 1
    if 2 * a > m:
        a -= m
    return _new(BezoutCertificate, (g, a, (g - a * x) // y, x, y)), _new(EuclidTrace, (x, y, None))


def inverse(x: Residue) -> Residue:
    """Multiplicative reciprocal of x, in [1, n).

    Builtin pow(x, -1, n) runs the extended Euclidean algorithm; the
    table form is extended_gcd. Raises NotAUnitError, carrying gcd(x, n)
    as a witness, when no reciprocal exists.
    """
    n = x.modulus.n
    g = math.gcd(x.value, n)
    if g != 1:
        raise NotAUnitError(x.value, n, g)
    return Residue(pow(x.value, -1, n), x.modulus)


def divide(a: Residue, b: Residue) -> Residue:
    """a / b as a * b**-1; raises NotAUnitError when b has no reciprocal."""
    _same_modulus(a, b)
    return mul(a, inverse(b))


class ResidueClass(enum.Enum):
    """Every residue is exactly one of these."""

    ZERO = "zero"
    UNIT = "unit"
    ZERO_DIVISOR = "zero-divisor"


def classify(x: Residue) -> ResidueClass:
    """Zero, unit (gcd with n is 1), or divisor of zero (shared factor)."""
    if x.value == 0:
        return ResidueClass.ZERO
    if gcd(x.value, x.modulus.n) == 1:
        return ResidueClass.UNIT
    return ResidueClass.ZERO_DIVISOR


def pow_mod(x: Residue, exponent: int) -> Residue:
    """x**exponent by binary square-and-multiply, reducing at every step.

    Builtin three-argument pow is that algorithm, so the full integer
    power is never formed. x**0 is 1 for every x, including 0**0 (empty
    product).
    """
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    return Residue(pow(x.value, exponent, x.modulus.n), x.modulus)


def power_table(p: int, d: int):
    """x**d mod p for every x in [0, p), as an array of 2-byte ints; p is a prime up to MAX_TABLE.

    The units mod a prime form a cyclic group, so a primitive root g, found
    from the prime factors of p - 1, walks them all: g**k beside
    (g**d)**k, two products an entry and no pow. g**(k + (p-1)/2) is -g**k,
    so half the walk gives the other half, (p - x)**d = (-1)**d * x**d.
    """
    _check_int("p", p)
    _check_int("d", d)
    if not (2 <= p <= MAX_TABLE and is_prime(p)):
        raise ValueError(f"power tables are built for primes up to {MAX_TABLE}, got p = {_shown(p)}")
    if d < 0:
        raise ValueError("exponent must be >= 0")
    from array import array  # on first use, so importing modmath stays cheap

    orders = [(p - 1) // r for r in set(prime_factors(p - 1))]
    g = next(g for g in range(1, p) if all(pow(g, k, p) != 1 for k in orders))
    table = array("H", [0]) * p
    table[0] = pow(0, d, p)
    gd, odd = pow(g, d, p), d % 2
    x = y = 1
    for _ in range(p // 2):
        table[x] = y
        table[p - x] = p - y if odd else y
        x, y = x * g % p, y * gd % p
    return table


def prime_factors(n: int):
    """Prime factors of 1 <= n <= MAX_MODULUS, ascending, with multiplicity.

    Trial division by 2 and then by the odd numbers up to the square root
    of what is left; a generator, so a caller can stop at the first factor.
    A larger n is refused before any division, so no call makes more than
    about 23 170 of them.
    """
    _check_int("n", n)
    if n < 1:
        raise ValueError("prime factors are defined for n >= 1")
    if n > MAX_MODULUS:
        raise ValueError(f"prime factors are found for n up to 2**31 - 1, got n = {_shown(n)}")
    for d in itertools.chain((2,), itertools.count(3, 2)):
        if d * d > n:
            break
        while n % d == 0:
            yield d
            n //= d
    if n > 1:
        yield n


def is_prime(n: int) -> bool:
    """n is its own smallest prime factor; n < 2 is not prime.

    Trial division stops at the first factor, so composites are cheap.
    n >= 2 past MAX_MODULUS is refused by prime_factors, before any division.
    """
    _check_int("n", n)
    return n >= 2 and next(prime_factors(n)) == n


def phi(n) -> int:
    """Number of units modulo n: n times (1 - 1/p) over its distinct primes p."""
    n = _as_modulus(n).n
    result = n
    for p in set(prime_factors(n)):
        result -= result // p
    return result


def is_square_free(n: int) -> bool:
    """True when no squared prime divides n, i.e. no prime factor repeats; 2 <= n <= MAX_MODULUS."""
    _check_int("n", n)
    if n < 2:
        raise ValueError("square-freeness is defined for n >= 2")
    return all(p != q for p, q in itertools.pairwise(prime_factors(n)))


def critical_exponents(n: int, phi: int, count: int) -> list[int]:
    """The first `count` exponents of the progression 1, 1+phi, 1+2*phi, ...

    These are the powers p for which x**p = x holds for every residue,
    provided n is square-free; non-square-free n is rejected, and n past
    MAX_MODULUS is refused by is_square_free before any division. phi is
    taken as an argument so the caller chooses how it was obtained. A result of
    more than MAX_RESULT values, or of more than MAX_RESULT 64-bit words
    counted by its largest value, is refused before it is built, whatever
    phi is.
    """
    _check_int("phi", phi)
    _check_int("count", count)
    if not is_square_free(n):
        raise NotSquareFreeError(n)
    if phi < 1:
        raise ValueError("phi must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_RESULT or count * ((1 + (count - 1) * phi).bit_length() // 64 + 1) > MAX_RESULT:
        raise ValueError(f"a result holds at most MAX_RESULT = {MAX_RESULT} values, and as many 64-bit words")
    return [1 + k * phi for k in range(count)]


def crt_decompose(x: Residue, p: int, q: int) -> tuple[Residue, Residue]:
    """Coordinates (x mod p, x mod q) of x in the p-by-q rectangle.

    The modulus of x must be exactly p*q for distinct p, q >= 2. For
    distinct primes the map is a bijection from [0, p*q) onto the grid,
    and x is a unit exactly when neither coordinate is zero.
    """
    if p < 2 or q < 2:
        raise ValueError("p and q must both be >= 2")
    if p == q:
        raise ValueError("p and q must be distinct")
    if x.modulus.n != p * q:
        raise ModulusMismatchError(x.modulus.n, p * q)
    return reduce(x.value, p), reduce(x.value, q)


def garner(rp: int, rq: int, p: int, q: int, q_inv: int) -> int:
    """The x in [0, p*q) with x = rp mod p and x = rq mod q (Garner).

    rq must lie in [0, q) and q_inv must be q**-1 mod p. Plain ints, so a
    caller recombining many values builds no Residue.
    """
    return rq + q * ((rp - rq) * q_inv % p)


def crt_compose(rp: Residue, rq: Residue) -> Residue:
    """Inverse of crt_decompose: the residue mod p*q with coordinates (rp, rq).

    p and q are the moduli of the coordinates. They must be coprime, so
    distinct; otherwise NotAUnitError carries their gcd.
    """
    p, q = rp.modulus.n, rq.modulus.n
    q_inv = inverse(reduce(q, p)).value
    return Residue(garner(rp.value, rq.value, p, q, q_inv), Modulus(p * q))
