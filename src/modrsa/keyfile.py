"""Flat text key files, one `key = value` pair per line, fixed order.

The first line, `kind = public` or `kind = private`, picks a key type
from _SCHEMA, and that type's _fields follow in order. Those without a
default are required; the rest (p, q, phi of a private key) are optional
and may be left out, but never reordered or repeated. Files are 7-bit
text with newline terminators; unknown keys are rejected.
"""

import os
import re

from .errors import DomainError, KeyFileError
from .rsa import PrivateKey, PublicKey

_LINE = re.compile(r"([a-z]+) = (\S+)")

_SCHEMA = {"public": PublicKey, "private": PrivateKey}  # kind -> key type

MAX_KEY_FILE = 2**16  # the most characters a key file may hold; one that parses into a key is under 22 000


def write_key_file(path, key) -> None:
    """Write a public or private key in the fixed line format.

    The text goes to a new owner-only temporary file in the same directory,
    which then replaces path in one step, so a failed write leaves any
    earlier file at path whole. Raises KeyFileError, naming the path, when
    the file cannot be written.
    """
    write_key_files([(path, key)])


def write_key_files(pairs) -> None:
    """Write each (path, key) of pairs as write_key_file does, all or none of them: every key is staged in a
    temporary file beside its path before any path is replaced, and a failure before the first replace removes
    every staged file. Only a failure between two replaces leaves the paths before it written. An empty path,
    and a path that names the same file as an earlier one (the same real directory and name), where one key
    would overwrite the other, are refused before any replace."""
    import errno, tempfile  # here, not at the top, so only commands that write keys pay for tempfile's import

    staged = []  # (temporary, path) of each file not yet in place, in order
    targets = {}  # (real directory, name) -> the first path given for it
    try:
        for path, key in pairs:
            kind = next((kind for kind, key_type in _SCHEMA.items() if isinstance(key, key_type)), None)
            if kind is None:
                raise TypeError(f"expected PublicKey or PrivateKey, got {type(key).__name__}")
            fields = [("kind", kind)] + [(name, getattr(key, name)) for name in key._fields]
            # a replace that would fail is refused here, before any replace
            if not path:
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            directory, name = os.path.split(path)
            # rename(2) replaces the name and follows no symlink there, so only the directory is resolved
            target = (os.path.realpath(directory or os.curdir), name)
            if target in targets:
                raise KeyFileError(f"{path}: names the same file as {targets[target]}")
            targets[target] = path
            fd, tmp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or os.curdir)
            staged.append((tmp, path))
            with open(fd, "w", encoding="ascii", newline="") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in fields if v is not None))
        while staged:
            tmp, path = staged[0]
            os.replace(tmp, path)
            del staged[0]
    except OSError as exc:
        raise KeyFileError(f"{path}: cannot write key file ({exc.strerror})") from None
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


def read_key_file(path, kind=None):
    """Parse a key file back into a PublicKey or PrivateKey.

    Raises KeyFileError, naming the offending line, for anything that
    strays from the format: malformed lines, unknown kinds, unknown or
    out-of-order keys, missing fields, non-decimal or oversized values.
    Then inconsistent values raise it, and last, when kind ("public" or
    "private") is given, a file of the other kind. A file of more than
    MAX_KEY_FILE characters is refused before it is parsed, so no read is
    larger than MAX_KEY_FILE + 1 characters.
    """
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            text = fh.read(MAX_KEY_FILE + 1)
    except UnicodeDecodeError:
        raise KeyFileError(f"{path}: not 7-bit text") from None
    except OSError as exc:
        raise KeyFileError(f"{path}: cannot read key file ({exc.strerror})") from None
    if len(text) > MAX_KEY_FILE:
        raise KeyFileError(f"{path}: a key file holds at most MAX_KEY_FILE = {MAX_KEY_FILE} characters")
    *lines, last = text.split("\n")
    if last:
        raise KeyFileError(f"{path}: line {len(lines) + 1}: missing newline terminator")

    entries = []
    for lineno, line in enumerate(lines, start=1):
        match = _LINE.fullmatch(line)
        if match is None:
            raise KeyFileError(f"{path}: line {lineno}: malformed line (expected 'key = value')")
        entries.append((lineno, *match.groups()))

    # names[pos] is the next field; the kind line extends names by its key type's fields
    names, required, pos, fields = ("kind",), 1, 0, {}
    for lineno, key, value in entries:
        if pos < required and key != names[pos]:
            raise KeyFileError(f"{path}: line {lineno}: expected field '{names[pos]}', found '{key}'")
        if key not in names[pos:]:
            raise KeyFileError(f"{path}: line {lineno}: unexpected key '{key}'")
        pos = names.index(key, pos) + 1
        if key == "kind":
            if value not in _SCHEMA:
                raise KeyFileError(f"{path}: line {lineno}: unknown kind '{value}'")
            key_type = _SCHEMA[value]
            names += key_type._fields
            required += len(key_type._fields) - len(key_type._field_defaults)
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
        key = key_type(**fields)
    except (ValueError, DomainError) as exc:
        raise KeyFileError(f"{path}: invalid key values ({exc})") from None
    if kind is not None and _SCHEMA[kind] is not key_type:
        raise KeyFileError(f"{path}: expected a {kind} key")
    return key
