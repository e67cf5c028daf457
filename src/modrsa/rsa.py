"""Textbook RSA over small moduli.

Key generation from caller-chosen primes (checked by modmath.is_prime,
after the modulus bound), prime ranges by a one-pass sieve of
Eratosthenes over a window of at most modmath.MAX_RESULT numbers, the
27-symbol letter codec, and the encrypt/decrypt/sign/verify protocol,
one letter per residue with no blocking. Encrypt, decrypt, sign and
verify are one function, the map x -> x^k mod n, and the key decides k:
e for a public key, f for a private one. A private key that carries both
primes takes each power as two half-size powers recombined by CRT.
transform_stream, which the CLI runs on every message without --text,
reads those half powers from a power table of each prime instead, when
both primes are at most 46340 and the stream has powered enough values
to pay for the tables. The CLI runs decode_stream, which is decode_text
of each transformed message, on every message with --text. One letter
per residue makes a transformed text a substitution cipher over 27
codes, so decode_stream keeps a memo of at most 27 powers and powers
each distinct value once. Nothing here is secure in any modern sense (no
padding, no hashing, desk-scale primes); the point is to make the number
theory visible, not to protect data.
"""

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
    _shown,
)
from .modmath import Value as _Value, _new, is_prime

# A = 1, B = 2, ..., Z = 26, space = 27.
ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "

# The letter code, read each way: _LETTER maps 1..27 to letters and _CODE
# maps A-Z, a-z and space to codes; nothing else is a letter or a code.
_LETTER = dict(enumerate(ALPHABET, start=1))
_CODE = {ch: code for code, letter in _LETTER.items() for ch in (letter, letter.lower())}

# Letter codes run 1..27, so a message modulus must be at least 28
# for every code to be a distinct nonzero residue.
MIN_TEXT_MODULUS = len(ALPHABET) + 1


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi; hi may not exceed MAX_MODULUS.

    A sieve of Eratosthenes over the window in one pass: the primes up to
    sqrt(hi), found by the same sieve, cross off their multiples in a
    bytearray of one byte per number from lo to hi. A window of more than
    modmath.MAX_RESULT numbers from max(lo, 2) to hi is refused before
    that bytearray is made.
    """
    if hi > modmath.MAX_MODULUS:
        raise ValueError(f"primes are searched up to 2**31 - 1, got hi = {_shown(hi)}")
    lo = max(lo, 2)
    if lo > hi:
        return []
    size = hi + 1 - lo
    if size > modmath.MAX_RESULT:
        raise ValueError(f"a window holds at most MAX_RESULT = {modmath.MAX_RESULT} numbers, got {size}")
    window = bytearray([1]) * size
    for p in primes_in_range(2, math.isqrt(hi)):
        # offset of the first multiple of p to cross off: p*p, or the first in the window
        first = p * p - lo if p * p > lo else -lo % p
        if first < size:
            window[first::p] = bytes((size - 1 - first) // p + 1)
    return list(itertools.compress(range(lo, hi + 1), window))


def phi_semiprime(p: int, q: int) -> int:
    """Unit count (p-1)*(q-1) for a modulus built from distinct primes."""
    # bound the modulus first, so a p * q past the cap is reported as such before either prime test
    if p * q > modmath.MAX_MODULUS:
        raise InvalidModulusError(p * q)
    if not is_prime(p):
        raise NonPrimeError("p", p)
    if not is_prime(q):
        raise NonPrimeError("q", q)
    if p == q:
        raise EqualPrimesError(p)
    return (p - 1) * (q - 1)


def _check_ints(key) -> None:
    # n is left to check_modulus, which every key runs first
    for name in key._fields:
        value = getattr(key, name)
        if name != "n" and value is not None:
            modmath._check_int(name, value)


class PublicKey(_Value, namedtuple("PublicKey", "n e")):
    """The shared half of a key pair: modulus n and public exponent e."""

    __slots__ = ()

    def __post_init__(self):
        modmath.check_modulus(self.n)
        _check_ints(self)
        if self.e <= 1:
            raise ValueError(f"public exponent must be > 1, got {_shown(self.e)}")

    def _powers(self, values):  # values -> their e-th powers mod n, as PrivateKey._powers gives f-th
        e, n = self.e, self.n
        return (pow(v, e, n) for v in values)


class PrivateKey(_Value, namedtuple("PrivateKey", "n f p q phi", defaults=(None, None, None))):
    """The secret half: modulus n and private exponent f.

    May also carry the factors p, q and the unit count phi they imply;
    those travel in private key files. Whichever of them are present must
    agree with n, f and each other, and p and q together must be distinct
    primes whose phi = (p-1)(q-1) has f as a unit. A key with both factors
    powers by CRT, with exponents computed on first use. Once a
    transform_stream has powered enough values with it, and both are at
    most modmath.MAX_TABLE, it reads the powers from their power tables
    instead, for as long as the key object lives.
    """

    def __post_init__(self):
        modmath.check_modulus(self.n)
        _check_ints(self)
        if self.f <= 1:
            raise ValueError(f"private exponent must be > 1, got {_shown(self.f)}")
        p, q, phi = self.p, self.q, self.phi
        for name, factor in (("p", p), ("q", q)):
            if factor is not None and not (1 < factor < self.n and self.n % factor == 0):
                raise ValueError(f"{name} = {_shown(factor)} is not a proper factor of n = {self.n}")
        both = p is not None and q is not None
        if both:
            if p * q != self.n:
                raise ValueError(f"n = {self.n} is not p*q = {p * q}")
            if phi is not None and phi != (p - 1) * (q - 1):
                raise ValueError(f"phi = {_shown(phi)} is not (p-1)(q-1) = {(p - 1) * (q - 1)}")
            phi = (p - 1) * (q - 1)  # the factors imply phi, written or not
        if phi is not None and math.gcd(self.f, phi) != 1:
            raise ValueError(f"private exponent {_shown(self.f)} is not a unit mod phi = {_shown(phi)}")
        if both:
            phi_semiprime(p, q)

    @cached_property
    def _crt(self):  # (d_p, d_q, q**-1 mod p) of a key with both factors, computed once per key
        p, q, f = self.p, self.q, self.f
        # d_p is f mod (p-1), shifted into [1, p-1] so that 0 still powers to 0 (p = 2 gives f mod 1 = 0)
        return (f - 1) % (p - 1) + 1, (f - 1) % (q - 1) + 1, pow(q, -1, p)

    @cached_property
    def _powers(self):  # values -> their f-th powers mod n, built once per key; not a field
        p, q, f, n = self.p, self.q, self.f, self.n
        if p is None or q is None:
            return lambda values: (pow(v, f, n) for v in values)
        # Quisquater-Couvreur: v^d_p mod p and v^d_q mod q, recombined by Garner
        (d_p, d_q, q_inv), garner = self._crt, modmath.garner
        return lambda values: (garner(pow(v, d_p, p), pow(v, d_q, q), p, q, q_inv) for v in values)

    @cached_property
    def _tabled(self):  # _powers read from the power tables of p and q, which are built here
        p, q = self.p, self.q
        (d_p, d_q, q_inv), garner = self._crt, modmath.garner
        table_p, table_q = modmath.power_table(p, d_p), modmath.power_table(q, d_q)
        return lambda values: (garner(table_p[v % p], table_q[v % q], p, q, q_inv) for v in values)

    def _values_before_tables(self):  # values a stream powers by pow before it builds _tabled; inf without tables
        p, q = self.p, self.q
        if p is None or q is None or max(p, q) > modmath.MAX_TABLE:
            return math.inf
        # Measured from p, q = 13, 17 to 46337, 46327, the tables cost what powering about
        # 100 + (p + q)/18 values by pow rather than lookups does. Wherever the switch is, the
        # stream just past it pays the whole build, at most about a tenth of a cold command,
        # so it comes at a quarter of that: short streams never build, long ones keep most of the gain
        return 25 + (p + q) // 72

    def _tabulate(self):  # from now on, every power of this key is read from _tabled
        vars(self)["_powers"] = self._tabled  # where cached_property keeps _powers


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
    """Residues modulo n, the wire form of every message; len, iteration, in and truth go by its values.

    Validated once, where its values enter (an argument, a stdin line,
    encode_text, a library caller); the messages transform and decode_stream
    derive hold residues by construction and are built through modmath._new.
    """

    __slots__ = ()

    def __new__(cls, values, n):
        return tuple.__new__(cls, (tuple(values), n))

    def __post_init__(self):
        n = modmath.check_modulus(self.n)
        for pos, v in enumerate(self.values):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"message value at position {pos} must be an int, got {v!r}")
            if not 0 <= v < n:
                raise MessageRangeError(v, n)

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
    if p * q > modmath.MAX_MODULUS or not 1 < e < phi or (g := math.gcd(e, phi)) != 1:
        phi_semiprime(p, q)  # raises if p * q is over the cap, so g is set once e is in range
        if not 1 < e < phi:
            raise ExponentOutOfRangeError(e, phi)
        raise ExponentNotUnitError(e, phi, g)
    f = pow(e, -1, phi)
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
    that holds them. The sub-message of unseen values and the message of
    powers hold residues by construction and are built through modmath._new.
    Errors are those of transform and decode_text.
    """
    table = {}  # value -> its power, a letter code
    for msg in messages:
        missing = set(msg.values).difference(table)
        powers = dict(zip(missing, transform(_new(NumberMessage, (tuple(missing), msg.n)), key)))
        for v, code in powers.items():
            if code in _LETTER and len(table) < len(ALPHABET):
                table[v] = code
        powers.update(table)
        yield decode_text(_new(NumberMessage, (tuple(map(powers.__getitem__, msg.values)), msg.n)))


def transform_stream(messages, transform, key):
    """Yield transform(msg, key) for each message, in order.

    A PrivateKey whose p and q are both at most modmath.MAX_TABLE powers
    each value by pow until the stream has powered a quarter of the values
    that would pay for the power tables of p and q, 1 312 for primes near
    46340. Then it builds them, and from the next message on, and for every
    later use of the key object, each value is two lookups and a Garner
    step. A shorter stream, an empty one, or any other key builds none.
    Errors are those of transform.
    """
    left = key._values_before_tables() if isinstance(key, PrivateKey) else math.inf
    for msg in messages:
        if left <= 0:
            key._tabulate()
            left = math.inf
        left -= len(msg.values)
        yield transform(msg, key)


def transform(msg: NumberMessage, key) -> NumberMessage:
    """Raise each message value to the key's exponent mod n: e for a PublicKey, f for a PrivateKey.

    The result is built unvalidated, through modmath._new: each power is a residue mod n by construction.
    """
    if msg.n != key.n:
        raise ModulusMismatchError(msg.n, key.n)
    return _new(NumberMessage, (tuple(key._powers(msg.values)), key.n))


# The four operations are the one map, and the key picks the exponent:
# encrypt and verify take a public key, decrypt and sign a private one.
# This signs the raw numbers, with no hashing: anyone can forge a
# "signature" of a chosen ciphertext. Textbook semantics only.
encrypt = decrypt = sign = verify = transform
