"""Modular arithmetic toolkit with a textbook RSA pipeline on top.

The library splits into four parts:

- modmath: residue arithmetic, Euclid and extended Euclid, fast powers,
  trial-division factoring with phi and square-free tests, critical
  exponents, CRT coordinates and their recombination
- oracle: deliberately naive mirrors of the above, used as ground truth
- rsa: key generation, the 27-letter codec, encrypt/decrypt/sign/verify,
  and decode_stream, which decodes transformed texts behind a memo of powers
- cli / keyfile: command-line front end and the flat key file format

modmath and the error types load with the package. rsa, keyfile, oracle
and the key and message types (NumberMessage, PublicKey, PrivateKey,
RsaKeyPair) are imported on first access (PEP 562), so a command that
needs no RSA code does not load it; `from modrsa import PrivateKey` and
`modrsa.rsa` work as usual.
"""

from . import modmath
from .errors import (
    DomainError,
    EqualPrimesError,
    ExponentNotUnitError,
    ExponentOutOfRangeError,
    InvalidModulusError,
    KeyFileError,
    MessageRangeError,
    ModulusMismatchError,
    ModulusTooSmallError,
    NonPrimeError,
    NotAUnitError,
    NotSquareFreeError,
    UndefinedGcdError,
    UnsupportedCharacterError,
    ValueOutOfAlphabetError,
)
from .modmath import (
    BezoutCertificate,
    EuclidTrace,
    Modulus,
    Residue,
    ResidueClass,
    TraceRow,
)

__version__ = "0.1.0"

# served on first access (PEP 562), so a command that needs none of them skips their import
_LAZY_MODULES = {"keyfile", "oracle", "rsa"}
_RSA_NAMES = {"NumberMessage", "PublicKey", "PrivateKey", "RsaKeyPair"}


def __getattr__(name):
    import importlib

    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _RSA_NAMES:
        return getattr(importlib.import_module(f"{__name__}.rsa"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "modmath",
    "oracle",
    "rsa",
    "keyfile",
    "Modulus",
    "Residue",
    "ResidueClass",
    "TraceRow",
    "EuclidTrace",
    "BezoutCertificate",
    "NumberMessage",
    "PublicKey",
    "PrivateKey",
    "RsaKeyPair",
    "DomainError",
    "InvalidModulusError",
    "ModulusMismatchError",
    "NotAUnitError",
    "UndefinedGcdError",
    "NotSquareFreeError",
    "NonPrimeError",
    "EqualPrimesError",
    "ExponentOutOfRangeError",
    "ExponentNotUnitError",
    "UnsupportedCharacterError",
    "ValueOutOfAlphabetError",
    "ModulusTooSmallError",
    "MessageRangeError",
    "KeyFileError",
]
