"""Exception types shared across the library.

Everything that reflects bad mathematical input (as opposed to a
programming mistake) derives from DomainError, so callers such as the
CLI can map the whole family to one exit code. A subclass names its
witnesses in `fields` and words its message in `template`, a str.format
string over them. The witnesses are the error's args and attributes; the
message is rendered when shown, with an int past the interpreter's digit
limit as its digit count. A class without fields takes the message itself.
"""

import math


class DomainError(Exception):
    """A well-formed request that is mathematically impossible or invalid."""

    fields = ()

    def __init__(self, *args):
        if self.fields:
            vars(self).update(zip(self.fields, args, strict=True))
        super().__init__(*args)

    def __str__(self):
        shown = {name: _shown(getattr(self, name)) for name in self.fields}
        return self.template.format_map(shown) if self.fields else super().__str__()


def _shown(witness):
    """An int witness as str() gives it; past the digit limit, its exact digit count instead."""
    try:
        return str(witness) if isinstance(witness, int) else witness
    except ValueError:  # past sys.get_int_max_str_digits(), which is left as it is
        digits = int((abs(witness).bit_length() - 1) * math.log10(2)) + 1  # those of 2**(bits - 1)
        return f"<an integer of {digits + (abs(witness) >= 10**digits)} digits>"


class InvalidModulusError(DomainError):
    fields = ("n",)
    template = "invalid modulus {n}: need an integer with 2 <= n <= 2**31 - 1"


class ModulusMismatchError(DomainError):
    fields = ("left", "right")
    template = "modulus mismatch: {left} vs {right}"


class NotAUnitError(DomainError):
    fields = ("value", "modulus", "gcd")
    template = "{value} is not a unit mod {modulus} (gcd = {gcd})"


class UndefinedGcdError(DomainError):
    pass


class NotSquareFreeError(DomainError):
    fields = ("n",)
    template = "{n} is not square-free"


class NonPrimeError(DomainError):
    fields = ("name", "value")
    template = "{name} = {value} is not prime"


class EqualPrimesError(DomainError):
    fields = ("p",)
    template = "p and q must be distinct primes (both are {p})"


class ExponentOutOfRangeError(DomainError):
    fields = ("e", "phi")
    template = "public exponent {e} must satisfy 1 < e < phi = {phi}"


class ExponentNotUnitError(DomainError):
    fields = ("e", "phi", "gcd")
    template = "public exponent {e} is not a unit mod phi = {phi} (gcd = {gcd})"


class UnsupportedCharacterError(DomainError):
    fields = ("char", "position")
    template = "unsupported character {char!r} at position {position}: only A-Z and space can be encoded"


class ValueOutOfAlphabetError(DomainError):
    fields = ("value", "position")
    template = "value {value} at position {position} is outside the letter alphabet 1..27"


class ModulusTooSmallError(DomainError):
    fields = ("n",)
    template = "modulus {n} is too small to carry letter codes (need n >= 28)"


class MessageRangeError(DomainError):
    fields = ("value", "n")
    template = "message value {value} is not a residue mod {n}"


class KeyFileError(DomainError):
    """Malformed key file; the message names the offending line."""
