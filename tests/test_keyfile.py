import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import modrsa
from modrsa.errors import KeyFileError
from modrsa.keyfile import MAX_KEY_FILE, read_key_file, write_key_file
from modrsa.rsa import PrivateKey, PublicKey, keygen


def test_public_file_layout(tmp_path):
    path = tmp_path / "pub.txt"
    write_key_file(path, PublicKey(221, 29))
    assert path.read_bytes() == b"kind = public\nn = 221\ne = 29\n"


def test_private_file_layout_full(tmp_path):
    path = tmp_path / "priv.txt"
    write_key_file(path, PrivateKey(221, 53, 13, 17, 192))
    assert path.read_bytes() == b"kind = private\nn = 221\nf = 53\np = 13\nq = 17\nphi = 192\n"


def test_private_file_layout_minimal(tmp_path):
    path = tmp_path / "priv.txt"
    write_key_file(path, PrivateKey(22, 3))
    assert path.read_bytes() == b"kind = private\nn = 22\nf = 3\n"


def test_round_trip_public(tmp_path):
    path = tmp_path / "pub.txt"
    key = keygen(13, 17, 29).public_key
    write_key_file(path, key)
    assert read_key_file(path) == key


def test_round_trip_private(tmp_path):
    path = tmp_path / "priv.txt"
    key = keygen(13, 17, 29).private_key
    write_key_file(path, key)
    assert read_key_file(path) == key


def test_round_trip_private_without_optionals(tmp_path):
    path = tmp_path / "priv.txt"
    key = PrivateKey(22, 3)
    write_key_file(path, key)
    assert read_key_file(path) == key


def test_partial_optionals_allowed(tmp_path):
    path = tmp_path / "priv.txt"
    path.write_text("kind = private\nn = 221\nf = 53\nq = 17\n")
    key = read_key_file(path)
    assert key == PrivateKey(221, 53, p=None, q=17, phi=None)


def test_modulus_above_cap_rejected(tmp_path):
    path = tmp_path / "pub.txt"
    path.write_text("kind = public\nn = 2147483648\ne = 3\n")
    with pytest.raises(KeyFileError, match="invalid key values"):
        read_key_file(path)


def test_write_rejects_other_types(tmp_path):
    with pytest.raises(TypeError):
        write_key_file(tmp_path / "x", keygen(13, 17, 29))


def _expect_error(tmp_path, content, fragment):
    path = tmp_path / "key.txt"
    path.write_bytes(content)
    with pytest.raises(KeyFileError) as exc:
        read_key_file(path)
    assert fragment in str(exc.value)


def test_malformed_line_names_line_number(tmp_path):
    _expect_error(tmp_path, b"kind = public\nn=221\ne = 29\n", "line 2: malformed line")


def test_unknown_kind(tmp_path):
    _expect_error(tmp_path, b"kind = royal\nn = 221\ne = 29\n", "line 1: unknown kind 'royal'")


def test_missing_field(tmp_path):
    _expect_error(tmp_path, b"kind = public\nn = 221\n", "line 3: missing field 'e'")


def test_wrong_order(tmp_path):
    _expect_error(tmp_path, b"kind = public\ne = 29\nn = 221\n", "line 2: expected field 'n'")


def test_unknown_key_rejected(tmp_path):
    _expect_error(tmp_path, b"kind = public\nn = 221\ne = 29\nx = 5\n", "line 4: unexpected key 'x'")
    _expect_error(
        tmp_path,
        b"kind = private\nn = 221\nf = 53\nphi = 192\np = 13\n",
        "line 5: unexpected key 'p'",
    )


def test_duplicate_key_rejected(tmp_path):
    _expect_error(tmp_path, b"kind = private\nn = 221\nf = 53\nq = 17\nq = 17\n", "line 5: unexpected key 'q'")


def test_non_decimal_value(tmp_path):
    _expect_error(tmp_path, b"kind = public\nn = 221\ne = -29\n", "not a decimal number")


def test_missing_final_newline(tmp_path):
    _expect_error(tmp_path, b"kind = public\nn = 221\ne = 29", "missing newline terminator")


def test_not_ascii(tmp_path):
    _expect_error(tmp_path, "kind = public\nn = 22ı\ne = 29\n".encode("utf-8"), "not 7-bit text")


def test_invalid_key_values(tmp_path):
    _expect_error(tmp_path, b"kind = public\nn = 1\ne = 29\n", "invalid key values")


def test_oversized_value_names_line(tmp_path):
    content = b"kind = public\nn = " + b"7" * 5000 + b"\ne = 29\n"
    _expect_error(tmp_path, content, "line 2: value for 'n' has too many digits")


def test_inconsistent_private_key_rejected(tmp_path):
    _expect_error(tmp_path, b"kind = private\nn = 221\nf = 53\np = 11\nq = 17\nphi = 5\n", "invalid key values")


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"kind = private\nn = 210\nf = 13\np = 6\nq = 35\nphi = 170\n", "p = 6 is not prime"),
        (b"kind = private\nn = 289\nf = 3\np = 17\nq = 17\n", "p and q must be distinct primes (both are 17)"),
    ],
)
def test_factors_that_are_not_distinct_primes_rejected(tmp_path, content, reason):
    _expect_error(tmp_path, content, f"invalid key values ({reason})")


def test_factors_imply_phi_for_the_exponent_check(tmp_path):
    content = b"kind = private\nn = 221\nf = 2\np = 13\nq = 17\n"
    _expect_error(tmp_path, content, "invalid key values (private exponent 2 is not a unit mod phi = 192)")


@pytest.mark.parametrize("key, kind", [
    (PublicKey(221, 29), "public"),
    (PrivateKey(221, 53, 13, 17, 192), "private"),
], ids=["public", "private"])
def test_a_file_of_the_asked_kind_is_read(tmp_path, key, kind):
    path = tmp_path / "key.txt"
    write_key_file(path, key)
    assert read_key_file(path, kind) == key


@pytest.mark.parametrize("key, kind", [
    (PrivateKey(221, 53, 13, 17, 192), "public"),
    (PublicKey(221, 29), "private"),
], ids=["private-as-public", "public-as-private"])
def test_a_file_of_the_other_kind_is_refused(tmp_path, key, kind):
    path = tmp_path / "key.txt"
    write_key_file(path, key)
    with pytest.raises(KeyFileError) as exc:
        read_key_file(path, kind)
    assert str(exc.value) == f"{path}: expected a {kind} key"


def test_inconsistent_values_are_reported_before_the_kind(tmp_path):
    path = tmp_path / "key.txt"
    path.write_bytes(b"kind = private\nn = 221\nf = 53\np = 11\nq = 17\nphi = 5\n")
    with pytest.raises(KeyFileError, match="invalid key values"):
        read_key_file(path, "public")


# Writes the 221 private key to argv[1] with the file size limit at 20 bytes,
# so the write fails part way, as on a full disk.
_LIMITED_WRITE = """
import resource, signal, sys
from modrsa.errors import KeyFileError
from modrsa.keyfile import write_key_file
from modrsa.rsa import PrivateKey
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (20, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write_key_file(sys.argv[1], PrivateKey(221, 53, 13, 17, 192))
except KeyFileError as exc:
    print(exc)
"""


def test_failed_write_leaves_existing_key_file_whole(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "priv.txt"
    write_key_file(path, PrivateKey(22, 3))
    before = path.read_bytes()
    src = str(Path(modrsa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_WRITE, str(path)], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.stdout.startswith(f"{path}: cannot write key file ("), proc.stderr
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["priv.txt"]


_NAMES = ["kind", "n", "e", "f", "p", "q", "phi", "x"]  # every field name and one unknown key
_SCHEMA_NAMES = {"public": ["n", "e"], "private": ["n", "f", "p", "q", "phi"], "royal": ["n", "e"]}
_VALUES = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=3),
    # long runs, also on either side of int()'s default 4300-digit limit
    st.one_of(st.integers(1, 5000), st.sampled_from([4300, 4301])).map("7".__mul__),
    st.sampled_from(["-3", "0x1f", "1.5", "public"]),
)


@st.composite
def _key_lines(draw):
    """A kind and its fields in order, with some lines dropped and stray lines inserted."""
    kind = draw(st.sampled_from(sorted(_SCHEMA_NAMES)))
    lines = [("kind", kind)] + [(name, draw(_VALUES)) for name in _SCHEMA_NAMES[kind]]
    lines = [line for line in lines if draw(st.integers(0, 5))]  # drop about one line in six
    if not draw(st.integers(0, 2)):
        lines.insert(draw(st.integers(0, len(lines))), (draw(st.sampled_from(_NAMES)), draw(_VALUES)))
    return lines


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_key_lines())
def test_any_key_value_lines_give_a_key_or_key_file_error(tmp_path, lines):
    path = tmp_path / "key.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines), encoding="ascii")
    try:
        key = read_key_file(path)
    except KeyFileError:
        return
    assert isinstance(key, (PublicKey, PrivateKey))


@pytest.mark.parametrize("present", list(itertools.product([False, True], repeat=3)))
def test_round_trip_every_optional_subset(tmp_path, present):
    optional = {name: value for name, value, keep in zip(("p", "q", "phi"), (13, 17, 192), present) if keep}
    key = PrivateKey(221, 53, **optional)
    path = tmp_path / "priv.txt"
    write_key_file(path, key)
    assert read_key_file(path) == key


@pytest.mark.parametrize("key", [
    PublicKey(221, 29),
    PrivateKey(221, 53),
    PrivateKey(221, 53, q=17),
    PrivateKey(221, 53, phi=192),
    PrivateKey(221, 53, 13, 17, 192),
], ids=repr)
def test_lines_follow_the_key_types_fields(tmp_path, key):
    path = tmp_path / "key.txt"
    write_key_file(path, key)
    names = [line.split(" = ")[0] for line in path.read_text(encoding="ascii").splitlines()]
    assert names == ["kind"] + [name for name in type(key)._fields if getattr(key, name) is not None]


@pytest.mark.parametrize("content, message", [
    (b"", "line 1: missing field 'kind'"),
    (b"\n", "line 1: malformed line (expected 'key = value')"),
    (b"kind = public\nkind = public\n", "line 2: expected field 'n', found 'kind'"),
    # a malformed line is found before an earlier ordering fault
    (b"kind = public\ne = 29\nn = 221\nx=1\n", "line 4: malformed line (expected 'key = value')"),
    (b"kind = public\nn = 221\ne = 29\n\n", "line 4: malformed line (expected 'key = value')"),
    (b"kind = private\nn = 221\n", "line 3: missing field 'f'"),
    (b"n = 221\n", "line 1: expected field 'kind', found 'n'"),
])
def test_exact_key_file_messages(tmp_path, content, message):
    path = tmp_path / "key.txt"
    path.write_bytes(content)
    with pytest.raises(KeyFileError) as exc:
        read_key_file(path)
    assert str(exc.value) == f"{path}: {message}"


def test_a_write_onto_a_directory_removes_its_temporary_file(tmp_path):
    target = tmp_path / "keys"
    target.mkdir()
    (target / "inside.txt").write_text("kept\n", encoding="ascii")
    with pytest.raises(KeyFileError) as info:
        write_key_file(target, PublicKey(221, 29))
    assert str(info.value) == f"{target}: cannot write key file (Is a directory)"
    assert sorted(os.listdir(tmp_path)) == ["keys"]
    assert os.listdir(target) == ["inside.txt"] and (target / "inside.txt").read_text(encoding="ascii") == "kept\n"


def test_a_key_file_past_max_key_file_characters_is_refused(tmp_path):
    # a file of MAX_KEY_FILE characters is parsed and gets its own error; one character more is not parsed
    head = b"kind = public\nn = 221\ne = "
    path = tmp_path / "key.txt"
    path.write_bytes(head + b"7" * (MAX_KEY_FILE - len(head) - 1) + b"\n")
    assert path.stat().st_size == MAX_KEY_FILE == 2**16
    with pytest.raises(KeyFileError) as info:
        read_key_file(path)
    assert str(info.value) == f"{path}: line 3: value for 'e' has too many digits"
    path.write_bytes(head + b"7" * (MAX_KEY_FILE - len(head)) + b"\n")
    with pytest.raises(KeyFileError) as info:
        read_key_file(path)
    assert str(info.value) == f"{path}: a key file holds at most MAX_KEY_FILE = {MAX_KEY_FILE} characters"


def test_a_key_files_write_that_fails_before_any_replace_writes_none(tmp_path):
    from modrsa.keyfile import write_key_files

    (tmp_path / "pub.txt").write_text("kept\n", encoding="ascii")
    with pytest.raises(TypeError):
        write_key_files([(tmp_path / "pub.txt", PublicKey(221, 29)), (tmp_path / "priv.txt", "not a key")])
    assert sorted(os.listdir(tmp_path)) == ["pub.txt"]
    assert (tmp_path / "pub.txt").read_text(encoding="ascii") == "kept\n"


@pytest.mark.parametrize("second", ["k.txt", "./k.txt", "d/k.txt"], ids=["same-name", "dot-slash", "symlinked-dir"])
def test_key_files_naming_one_file_twice_are_refused_before_any_replace(second, tmp_path, monkeypatch):
    from modrsa.keyfile import write_key_files

    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").symlink_to(".")
    (tmp_path / "k.txt").write_text("kept\n", encoding="ascii")
    with pytest.raises(KeyFileError) as exc:
        write_key_files([("k.txt", PublicKey(221, 29)), (second, PrivateKey(221, 53))])
    assert str(exc.value) == f"{second}: names the same file as k.txt"
    assert sorted(os.listdir(tmp_path)) == ["d", "k.txt"]
    assert (tmp_path / "k.txt").read_text(encoding="ascii") == "kept\n"


def test_key_files_through_a_symlink_to_another_target_are_two_files(tmp_path):
    from modrsa.keyfile import write_key_files

    (tmp_path / "link.txt").symlink_to("priv.txt")
    write_key_files([(tmp_path / "link.txt", PublicKey(221, 29)), (tmp_path / "priv.txt", PrivateKey(221, 53))])
    assert read_key_file(tmp_path / "link.txt") == PublicKey(221, 29)
    assert read_key_file(tmp_path / "priv.txt") == PrivateKey(221, 53)


def test_an_empty_key_path_is_refused_before_any_replace(tmp_path):
    from modrsa.keyfile import write_key_files

    with pytest.raises(KeyFileError) as exc:
        write_key_files([(tmp_path / "pub.txt", PublicKey(221, 29)), ("", PrivateKey(221, 53))])
    assert str(exc.value) == ": cannot write key file (No such file or directory)"
    assert os.listdir(tmp_path) == []
