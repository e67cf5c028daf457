"""Modular arithmetic toolkit with a textbook RSA pipeline on top.

The library splits into four parts:

- modmath: residue arithmetic, Euclid and extended Euclid, fast powers,
  trial-division factoring with the primality, phi and square-free tests,
  critical exponents, CRT coordinates and their recombination, a prime's
  power table, and results bounded by MAX_RESULT
- oracle: deliberately naive mirrors of the above, used as ground truth
- rsa: key generation, the 27-letter codec, encrypt/decrypt/sign/verify,
  decode_stream, which decodes transformed texts behind a memo of powers,
  and transform_stream, which powers a long stream by per-prime power tables
- cli / keyfile: command-line front end and the flat key file format

Importing the package loads none of them. Every public name, and the
submodules errors, keyfile, modmath, oracle and rsa, is served on first
access (PEP 562), so a command loads only the modules it uses;
`from modrsa import PrivateKey` and `modrsa.rsa` work as usual.
"""

__version__ = "0.1.0"

# each public name under the module that defines it
_NAMES = {
    "modmath": ("Modulus", "Residue", "ResidueClass", "TraceRow", "EuclidTrace", "BezoutCertificate"),
    "rsa": ("NumberMessage", "PublicKey", "PrivateKey", "RsaKeyPair"),
    "errors": (
        "DomainError", "InvalidModulusError", "ModulusMismatchError", "NotAUnitError", "UndefinedGcdError",
        "NotSquareFreeError", "NonPrimeError", "EqualPrimesError", "ExponentOutOfRangeError",
        "ExponentNotUnitError", "UnsupportedCharacterError", "ValueOutOfAlphabetError", "ModulusTooSmallError",
        "MessageRangeError", "KeyFileError",
    ),
}
_SUBMODULES = ("errors", "keyfile", "modmath", "oracle", "rsa")

__all__ = ["modmath", "oracle", "rsa", "keyfile", *(name for names in _NAMES.values() for name in names)]


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    for home, names in _NAMES.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
