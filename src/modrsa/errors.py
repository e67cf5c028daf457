"""Exception types shared across the library.

Everything that reflects bad mathematical input (as opposed to a
programming mistake) derives from DomainError, so callers such as the
CLI can map the whole family to one exit code. A subclass names its
witnesses in `fields` and words its message in `template`, a str.format
string over them; the one constructor takes the witnesses positionally,
stores each as an attribute and formats the message. A class without
fields takes the message itself.
"""


class DomainError(Exception):
    """A well-formed request that is mathematically impossible or invalid."""

    fields = ()

    def __init__(self, *args):
        if self.fields:
            vars(self).update(zip(self.fields, args, strict=True))
            args = (self.template.format_map(vars(self)),)
        super().__init__(*args)

    def __reduce__(self):
        # rebuild from the witnesses, which the constructor takes, not the message in args
        return type(self), tuple(getattr(self, name) for name in self.fields) or self.args


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
