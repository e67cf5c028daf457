"""Textbook RSA over small moduli.

Key generation from caller-chosen primes (checked by trial division,
after the modulus bound), prime ranges by a segmented sieve of
Eratosthenes, the 27-symbol letter codec, and the
encrypt/decrypt/sign/verify protocol, one letter per residue with no
blocking. Encrypt, decrypt, sign and verify are one function, the map
x -> x^k mod n, and the key decides k: e for a public key, f for a
private one. A private key that carries both primes takes each power as
two half-size powers recombined by CRT. One letter per
residue makes a transformed text a substitution cipher over 27 codes,
so decode_stream, which is decode_text of each transformed message,
keeps a memo of at most 27 powers and powers each distinct value once.
Nothing here is secure in any modern sense (no padding, no hashing,
desk-scale primes); the point is to make the number theory visible, not
to protect data.
"""

import bisect
import itertools
import math
from collections import namedtuple
from functools import cached_property

from . import modmath
from .errors import (
    EqualPrimesError,
    ExponentNotUnitError,
    ExponentOutOfRangeError,
    InvalidModulusError,
    MessageRangeError,
    ModulusMismatchError,
    ModulusTooSmallError,
    NonPrimeError,
    UnsupportedCharacterError,
    ValueOutOfAlphabetError,
)
from .modmath import Value as _Value

# A = 1, B = 2, ..., Z = 26, space = 27.
ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "

# The letter code, read each way: _LETTER maps 1..27 to letters and _CODE
# maps A-Z, a-z and space to codes; nothing else is a letter or a code.
_LETTER = dict(enumerate(ALPHABET, start=1))
_CODE = {ch: code for code, letter in _LETTER.items() for ch in (letter, letter.lower())}

# Letter codes run 1..27, so a message modulus must be at least 28
# for every code to be a distinct nonzero residue.
MIN_TEXT_MODULUS = len(ALPHABET) + 1


def is_prime(n: int) -> bool:
    """n is its own smallest prime factor; n < 2 is not prime.

    Trial division stops at the first factor, so composites are cheap.
    """
    return n >= 2 and next(modmath.prime_factors(n)) == n


# numbers per sieve segment: the window is crossed off this many at a time
_SEGMENT = 2**16


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi; hi may not exceed MAX_MODULUS.

    A segmented sieve of Eratosthenes (Bays and Hudson 1977): the primes up
    to sqrt(hi), found by the same sieve, cross off their multiples in the
    window, _SEGMENT numbers at a time, so memory stays fixed however wide
    the window is.
    """
    if hi > modmath.MAX_MODULUS:
        raise ValueError(f"primes are searched up to 2**31 - 1, got hi = {hi}")
    lo = max(lo, 2)
    if lo > hi:
        return []
    base = primes_in_range(2, math.isqrt(hi))
    primes = []
    for start in range(lo, hi + 1, _SEGMENT):
        size = min(_SEGMENT, hi + 1 - start)
        segment = bytearray([1]) * size
        for p in base[: bisect.bisect(base, math.isqrt(start + size - 1))]:
            # offset of the first multiple of p to cross off: p*p, or the first in the segment
            first = p * p - start if p * p > start else -start % p
            if first < size:
                segment[first::p] = bytes((size - 1 - first) // p + 1)
        primes.extend(itertools.compress(range(start, start + size), segment))
    return primes


def phi_semiprime(p: int, q: int) -> int:
    """Unit count (p-1)*(q-1) for a modulus built from distinct primes."""
    # bound the modulus first, so trial division never runs on huge inputs
    if p * q > modmath.MAX_MODULUS:
        raise InvalidModulusError(p * q)
    if not is_prime(p):
        raise NonPrimeError("p", p)
    if not is_prime(q):
        raise NonPrimeError("q", q)
    if p == q:
        raise EqualPrimesError(p)
    return (p - 1) * (q - 1)


def _not_int(value) -> bool:
    # the rule for exponents, factors and message values: an int, and not a bool
    return isinstance(value, bool) or not isinstance(value, int)


def _check_ints(key) -> None:
    # an exponent or factor that is not an int is a programming mistake, not bad input;
    # n is left to check_modulus, which every key runs first
    for name in key._fields:
        value = getattr(key, name)
        if name != "n" and value is not None and _not_int(value):
            raise TypeError(f"{name} must be an int, got {value!r}")


class PublicKey(_Value, namedtuple("PublicKey", "n e")):
    """The shared half of a key pair: modulus n and public exponent e."""

    __slots__ = ()

    def __post_init__(self):
        modmath.check_modulus(self.n)
        _check_ints(self)
        if self.e <= 1:
            raise ValueError(f"public exponent must be > 1, got {self.e}")

    def _powers(self, values):  # values -> their e-th powers mod n, as PrivateKey._powers gives f-th
        e, n = self.e, self.n
        return (pow(v, e, n) for v in values)


class PrivateKey(_Value, namedtuple("PrivateKey", "n f p q phi", defaults=(None, None, None))):
    """The secret half: modulus n and private exponent f.

    May also carry the factors p, q and the unit count phi they imply;
    those travel in private key files. Whichever of them are present must
    agree with n, f and each other, and p and q together must be distinct
    primes whose phi = (p-1)(q-1) has f as a unit. A key with both factors
    powers by CRT, with exponents computed on first use.
    """

    def __post_init__(self):
        modmath.check_modulus(self.n)
        _check_ints(self)
        if self.f <= 1:
            raise ValueError(f"private exponent must be > 1, got {self.f}")
        p, q, phi = self.p, self.q, self.phi
        for name, factor in (("p", p), ("q", q)):
            if factor is not None and not (1 < factor < self.n and self.n % factor == 0):
                raise ValueError(f"{name} = {factor} is not a proper factor of n = {self.n}")
        both = p is not None and q is not None
        if both:
            if p * q != self.n:
                raise ValueError(f"n = {self.n} is not p*q = {p * q}")
            if phi is not None and phi != (p - 1) * (q - 1):
                raise ValueError(f"phi = {phi} is not (p-1)(q-1) = {(p - 1) * (q - 1)}")
            phi = (p - 1) * (q - 1)  # the factors imply phi, written or not
        if phi is not None and math.gcd(self.f, phi) != 1:
            raise ValueError(f"private exponent {self.f} is not a unit mod phi = {phi}")
        if both:
            phi_semiprime(p, q)

    @cached_property
    def _powers(self):  # values -> their f-th powers mod n, built once per key; not a field
        p, q, f, n = self.p, self.q, self.f, self.n
        if p is None or q is None:
            return lambda values: (pow(v, f, n) for v in values)
        # Quisquater-Couvreur: v^d_p mod p and v^d_q mod q, recombined by Garner. d_p is
        # f mod (p-1), shifted into [1, p-1] so that 0 still powers to 0 (p = 2 gives f mod 1 = 0)
        d_p, d_q, q_inv = (f - 1) % (p - 1) + 1, (f - 1) % (q - 1) + 1, pow(q, -1, p)
        garner = modmath.garner
        return lambda values: (garner(pow(v, d_p, p), pow(v, d_q, q), p, q, q_inv) for v in values)


class RsaKeyPair(_Value, namedtuple("RsaKeyPair", "p q n phi e f")):
    """Everything keygen knows: primes, modulus, unit count, both exponents.

    The constructor re-checks the defining relations, so a key pair object
    is always internally consistent no matter how it was built.
    """

    def __post_init__(self):
        # the private key, built here and kept, checks distinct primes,
        # n = p*q, phi = (p-1)(q-1) and gcd(f, phi) = 1
        self.private_key  # noqa: B018
        _check_ints(self)
        if not 1 < self.e < self.phi or not 1 < self.f < self.phi:
            raise ValueError("exponents must lie strictly between 1 and phi")
        if self.e * self.f % self.phi != 1:
            raise ValueError(f"e*f = {self.e * self.f} is not 1 mod phi = {self.phi}")

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(self.n, self.e)

    @cached_property
    def private_key(self) -> PrivateKey:
        return PrivateKey(self.n, self.f, self.p, self.q, self.phi)


class NumberMessage(_Value, namedtuple("NumberMessage", "values n")):
    """Residues modulo n, the wire form of every message; len, iteration, in and truth go by its values."""

    __slots__ = ()

    def __new__(cls, values, n):
        self = tuple.__new__(cls, (tuple(values), n))
        self.__post_init__()
        return self

    def __post_init__(self):
        n = modmath.check_modulus(self.n)
        for v in self.values:
            if type(v) is not int or not 0 <= v < n:  # one cheap test per value; the first fault is named below
                for pos, v in enumerate(self.values):
                    if _not_int(v):
                        raise TypeError(f"message value at position {pos} must be an int, got {v!r}")
                    if not 0 <= v < n:
                        raise MessageRangeError(v, n)
                return  # ints in range, some of an int subclass such as IntEnum

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __contains__(self, value):
        return value in self.values

    def __bool__(self):
        return bool(self.values)


def keygen(p: int, q: int, e: int) -> RsaKeyPair:
    """Build a key pair from caller-chosen distinct primes and exponent e.

    f is the reciprocal of e modulo phi = (p-1)*(q-1), canonicalized into
    (1, phi), so that e*f lands on a critical exponent 1 + k*phi and
    raising to e then f returns every residue to itself.

    p and q are tested once: by the key pair's private key when e suits
    (p-1)*(q-1), and otherwise by phi_semiprime before e is blamed, so a
    fault in p or q is always the one reported.
    """
    phi = (p - 1) * (q - 1)
    if p * q > modmath.MAX_MODULUS or not 1 < e < phi or modmath.gcd(e, phi) != 1:
        phi_semiprime(p, q)
        if not 1 < e < phi:
            raise ExponentOutOfRangeError(e, phi)
        raise ExponentNotUnitError(e, phi, modmath.gcd(e, phi))
    f = modmath.inverse(modmath.reduce(e, phi)).value
    return RsaKeyPair(p=p, q=q, n=p * q, phi=phi, e=e, f=f)


def encode_text(text: str, n: int) -> NumberMessage:
    """Letter codes for a message: A=1 .. Z=26, space=27, with a-z read as A-Z.

    n is the modulus the message will live under; the first character
    outside A-Z, a-z and space is rejected with its position.
    """
    if n < MIN_TEXT_MODULUS:
        raise ModulusTooSmallError(n)
    values = [_CODE.get(ch) for ch in text]
    if None in values:
        pos = values.index(None)
        raise UnsupportedCharacterError(text[pos], pos)
    return NumberMessage(values, n)


def decode_text(msg: NumberMessage) -> str:
    """Exact inverse of encode_text; every value must be a letter code 1..27.

    The first value outside 1..27 is reported with its position.
    decode_stream applies it to a stream of transformed messages, powering
    each distinct value once.
    """
    chars = [_LETTER.get(v) for v in msg.values]
    if None in chars:
        pos = chars.index(None)
        raise ValueOutOfAlphabetError(msg.values[pos], pos)
    return "".join(chars)


def decode_stream(messages, transform, key):
    """Yield decode_text(transform(msg, key)) for each message, in order.

    One letter per residue makes a transformed text a substitution cipher
    over the 27 letter codes, so a stream repeats few values. The memo maps
    a value to its power; the values a message holds that the memo lacks go
    once through transform, as one NumberMessage, and the line is
    decode_text of the powers. The memo keeps a power only when it is a
    letter code, and at most len(ALPHABET) of them: every valid value when
    the key's map is one-to-one. A key whose map is not (a public key from
    a file need not be) has its further values powered again on each line
    that holds them. Errors are those of transform and decode_text.
    """
    table = {}  # value -> its power, a letter code
    for msg in messages:
        missing = set(msg.values).difference(table)
        powers = dict(zip(missing, transform(NumberMessage(missing, msg.n), key)))
        for v, code in powers.items():
            if code in _LETTER and len(table) < len(ALPHABET):
                table[v] = code
        powers.update(table)
        yield decode_text(NumberMessage(map(powers.__getitem__, msg.values), msg.n))


def transform(msg: NumberMessage, key) -> NumberMessage:
    """Raise each message value to the key's exponent mod n: e for a PublicKey, f for a PrivateKey."""
    if msg.n != key.n:
        raise ModulusMismatchError(msg.n, key.n)
    return NumberMessage(key._powers(msg.values), key.n)


# The four operations are the one map, and the key picks the exponent:
# encrypt and verify take a public key, decrypt and sign a private one.
# This signs the raw numbers, with no hashing: anyone can forge a
# "signature" of a chosen ciphertext. Textbook semantics only.
encrypt = decrypt = sign = verify = transform
