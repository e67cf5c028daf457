"""Flat text key files, one `key = value` pair per line, fixed order.

The first line, `kind = public` or `kind = private`, picks a row of
_SCHEMA, and that kind's fields follow in the row's order. The first two
are required; the rest (p, q, phi of a private key) are optional and may
be left out, but never reordered or repeated. Files are 7-bit text with
newline terminators; unknown keys are rejected.
"""

import os
import re

from .errors import DomainError, KeyFileError
from .rsa import PrivateKey, PublicKey

_LINE = re.compile(r"([a-z]+) = (\S+)")

# kind -> (key type, field order); the first _REQUIRED fields are required
_SCHEMA = {"public": (PublicKey, ("n", "e")), "private": (PrivateKey, ("n", "f", "p", "q", "phi"))}
_REQUIRED = 2


def write_key_file(path, key) -> None:
    """Write a public or private key in the fixed line format.

    The text goes to a new owner-only temporary file in the same directory,
    which then replaces path in one step, so a failed write leaves any
    earlier file at path whole. Raises KeyFileError, naming the path, when
    the file cannot be written.
    """
    import tempfile  # here, not at the top, so only commands that write keys pay for its import

    for kind, (key_type, names) in _SCHEMA.items():
        if isinstance(key, key_type):
            break
    else:
        raise TypeError(f"expected PublicKey or PrivateKey, got {type(key).__name__}")
    pairs = [("kind", kind)] + [(name, getattr(key, name)) for name in names]
    text = "".join(f"{k} = {v}\n" for k, v in pairs if v is not None)
    try:
        directory, name = os.path.split(path)
        fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or os.curdir)
        try:
            with open(fd, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise KeyFileError(f"{path}: cannot write key file ({exc.strerror})") from None


def read_key_file(path):
    """Parse a key file back into a PublicKey or PrivateKey.

    Raises KeyFileError, naming the offending line, for anything that
    strays from the format: malformed lines, unknown kinds, unknown or
    out-of-order keys, missing fields, non-decimal or oversized values.
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
        entries.append((lineno, *match.groups()))

    # names[pos] is the next field; the kind line extends names by its schema
    names, required, pos, fields = ("kind",), 1, 0, {}
    for lineno, key, value in entries:
        if pos < required:
            if key != names[pos]:
                raise KeyFileError(f"{path}: line {lineno}: expected field '{names[pos]}', found '{key}'")
        else:
            while pos < len(names) and names[pos] != key:
                pos += 1
            if pos == len(names):
                raise KeyFileError(f"{path}: line {lineno}: unexpected key '{key}'")
        pos += 1
        if key == "kind":
            if value not in _SCHEMA:
                raise KeyFileError(f"{path}: line {lineno}: unknown kind '{value}'")
            key_type, order = _SCHEMA[value]
            names, required = names + order, 1 + _REQUIRED
        elif not value.isdigit():
            raise KeyFileError(f"{path}: line {lineno}: value for '{key}' is not a decimal number")
        else:
            try:
                fields[key] = int(value)
            except ValueError:  # past the interpreter's digit limit for int()
                raise KeyFileError(f"{path}: line {lineno}: value for '{key}' has too many digits") from None
    if pos < required:
        raise KeyFileError(f"{path}: line {len(lines) + 1}: missing field '{names[pos]}'")

    try:
        return key_type(**fields)
    except (ValueError, DomainError) as exc:
        raise KeyFileError(f"{path}: invalid key values ({exc})") from None
