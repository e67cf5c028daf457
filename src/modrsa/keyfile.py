"""Flat text key files, one `key = value` pair per line, fixed order.

Public file:

    kind = public
    n = 221
    e = 29

Private file: kind, n, f, then optionally p, q, phi in that order.
Files are 7-bit text with newline terminators; unknown keys are rejected.
"""

import re

from .errors import KeyFileError
from .rsa import PrivateKey, PublicKey

_LINE = re.compile(r"([a-z]+) = (\S+)")
_PRIVATE_OPTIONAL = ("p", "q", "phi")


def write_key_file(path, key) -> None:
    """Write a public or private key in the fixed line format.

    Raises KeyFileError, naming the path, when the file cannot be written.
    """
    if isinstance(key, PublicKey):
        pairs = [("kind", "public"), ("n", key.n), ("e", key.e)]
    elif isinstance(key, PrivateKey):
        pairs = [("kind", "private"), ("n", key.n), ("f", key.f)]
        for name in _PRIVATE_OPTIONAL:
            value = getattr(key, name)
            if value is not None:
                pairs.append((name, value))
    else:
        raise TypeError(f"expected PublicKey or PrivateKey, got {type(key).__name__}")
    text = "".join(f"{k} = {v}\n" for k, v in pairs)
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise KeyFileError(f"{path}: cannot write key file ({exc.strerror})") from None


def read_key_file(path):
    """Parse a key file back into a PublicKey or PrivateKey.

    Raises KeyFileError, naming the offending line, for anything that
    strays from the format: malformed lines, unknown kinds, unknown or
    out-of-order keys, missing fields, non-decimal values.
    """
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            raw = fh.read()
    except UnicodeDecodeError:
        raise KeyFileError(f"{path}: not 7-bit text") from None
    except OSError as exc:
        raise KeyFileError(f"{path}: cannot read key file ({exc.strerror})") from None

    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    elif lines:
        raise KeyFileError(f"{path}: line {len(lines)}: missing newline terminator")

    entries = []
    for lineno, line in enumerate(lines, start=1):
        match = _LINE.fullmatch(line)
        if match is None:
            raise KeyFileError(f"{path}: line {lineno}: malformed line (expected 'key = value')")
        entries.append((lineno, match.group(1), match.group(2)))

    def take(index, expected):
        if index >= len(entries):
            raise KeyFileError(f"{path}: line {len(lines) + 1}: missing field '{expected}'")
        lineno, key, value = entries[index]
        if key != expected:
            raise KeyFileError(f"{path}: line {lineno}: expected field '{expected}', found '{key}'")
        return lineno, value

    def decimal(lineno, name, value):
        if not value.isdigit():
            raise KeyFileError(f"{path}: line {lineno}: value for '{name}' is not a decimal number")
        return int(value)

    lineno, kind = take(0, "kind")
    if kind == "public":
        order = ("n", "e")
    elif kind == "private":
        order = ("n", "f")
    else:
        raise KeyFileError(f"{path}: line {lineno}: unknown kind '{kind}'")

    fields = {}
    index = 1
    for name in order:
        lineno, value = take(index, name)
        fields[name] = decimal(lineno, name, value)
        index += 1

    if kind == "private":
        # optional p, q, phi, in that order, each at most once
        allowed = list(_PRIVATE_OPTIONAL)
        while index < len(entries):
            lineno, key, value = entries[index]
            while allowed and allowed[0] != key:
                allowed.pop(0)
            if not allowed:
                raise KeyFileError(f"{path}: line {lineno}: unexpected key '{key}'")
            fields[allowed.pop(0)] = decimal(lineno, key, value)
            index += 1
    elif index < len(entries):
        lineno, key, _ = entries[index]
        raise KeyFileError(f"{path}: line {lineno}: unexpected key '{key}'")

    try:
        if kind == "public":
            return PublicKey(n=fields["n"], e=fields["e"])
        return PrivateKey(
            n=fields["n"],
            f=fields["f"],
            p=fields.get("p"),
            q=fields.get("q"),
            phi=fields.get("phi"),
        )
    except ValueError as exc:
        raise KeyFileError(f"{path}: invalid key values ({exc})") from None
