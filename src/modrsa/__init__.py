"""Modular arithmetic toolkit with a textbook RSA pipeline on top.

The library splits into four parts:

- modmath: residue arithmetic, Euclid and extended Euclid, fast powers,
  trial-division factoring with phi and square-free tests, critical
  exponents, CRT coordinates and their recombination
- oracle: deliberately naive mirrors of the above, used as ground truth;
  imported on first access to modrsa.oracle
- rsa: key generation, the 27-letter codec, encrypt/decrypt/sign/verify,
  and decode_stream, which decodes a stream of texts through a letter table
- cli / keyfile: command-line front end and the flat key file format
"""

from . import keyfile, modmath, rsa
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
from .rsa import NumberMessage, PrivateKey, PublicKey, RsaKeyPair

__version__ = "0.1.0"


def __getattr__(name):
    # oracle is imported on first use (PEP 562), so commands without --check skip it
    if name == "oracle":
        import importlib

        return importlib.import_module(f"{__name__}.oracle")
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
