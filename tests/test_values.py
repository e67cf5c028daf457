"""Contracts of the value types, the prime sieve and the import budget."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import modrsa
from modrsa import modmath, rsa
from modrsa.modmath import BezoutCertificate, EuclidTrace, Modulus, Residue, TraceRow
from modrsa.rsa import NumberMessage, PrivateKey, PublicKey, RsaKeyPair

SRC = str(Path(modrsa.__file__).resolve().parents[1])
MAX = modmath.MAX_MODULUS

_TRACE = modmath.extended_gcd(1466, 237)[1]

# (value, a different value of the same type, its repr, a field name)
VALUES = [
    (Modulus(221), Modulus(22), "Modulus(n=221)", "n"),
    (Residue(5, Modulus(221)), Residue(5, Modulus(22)), "Residue(value=5, modulus=Modulus(n=221))", "value"),
    (
        EuclidTrace(5, 3, (TraceRow(5, None, 1, 0), TraceRow(3, 1, 0, 1))),
        EuclidTrace(5, 2, (TraceRow(5, None, 1, 0),)),
        "EuclidTrace(x=5, y=3, rows=(TraceRow(n=5, quotient=None, a=1, b=0), TraceRow(n=3, quotient=1, a=0, b=1)))",
        "rows",
    ),
    (BezoutCertificate(1, -70, 433, 1466, 237), BezoutCertificate(1, 433, -70, 237, 1466),
     "BezoutCertificate(g=1, a=-70, b=433, x=1466, y=237)", "g"),
    (PublicKey(221, 29), PublicKey(221, 5), "PublicKey(n=221, e=29)", "e"),
    (PrivateKey(221, 53, 13, 17, 192), PrivateKey(221, 53), "PrivateKey(n=221, f=53, p=13, q=17, phi=192)", "f"),
    (rsa.keygen(13, 17, 29), rsa.keygen(13, 17, 5),
     "RsaKeyPair(p=13, q=17, n=221, phi=192, e=29, f=53)", "phi"),
    (NumberMessage((1, 2, 3), 221), NumberMessage((1, 2, 3), 22), "NumberMessage(values=(1, 2, 3), n=221)", "values"),
]
IDS = [type(v).__name__ for v, *_ in VALUES]


class TestValueTypes:
    """Every value type compares, hashes, prints, refuses assignment and round-trips."""

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_equality_and_hash(self, value, other, text, name):
        twin = copy.copy(value)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert value != other
        assert value != () and value != None  # noqa: E711
        assert len({value, twin, other}) == 2

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_repr(self, value, other, text, name):
        assert repr(value) == text

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, value, other, text, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) == before

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_pickle_and_deepcopy_round_trip(self, value, other, text, name):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value
            assert repr(twin) == repr(value)

    def test_residue_equality_includes_the_modulus(self):
        assert Residue(5, Modulus(221)) == Residue(5, Modulus(221))
        assert Residue(5, Modulus(221)) != Residue(5, Modulus(222))

    def test_round_trip_keeps_crt_and_private_key(self):
        key = pickle.loads(pickle.dumps(PrivateKey(221, 53, 13, 17, 192)))
        assert rsa.decrypt(NumberMessage((48, 107), 221), key) == NumberMessage(
            (pow(48, 53, 221), pow(107, 53, 221)), 221)
        pair = copy.deepcopy(rsa.keygen(13, 17, 29))
        assert pair.private_key == PrivateKey(221, 53, 13, 17, 192)

    def test_private_key_by_keywords(self):
        key = PrivateKey(n=221, f=53, q=17, p=13)
        assert (key.n, key.f, key.p, key.q, key.phi) == (221, 53, 13, 17, None)
        assert PrivateKey(221, 53, phi=192) == PrivateKey(n=221, f=53, p=None, q=None, phi=192)

    def test_key_types_from_field_dicts(self):
        # as keyfile builds them: key_type(**fields)
        assert PrivateKey(**{"n": 221, "f": 53, "q": 17}) == PrivateKey(221, 53, None, 17)
        assert PublicKey(**{"n": 221, "e": 29}) == PublicKey(221, 29)
        pair = RsaKeyPair(**{"p": 13, "q": 17, "n": 221, "phi": 192, "e": 29, "f": 53})
        assert pair == rsa.keygen(13, 17, 29)

    def test_trace_row_is_a_tuple_with_named_fields(self):
        row = TraceRow(44, 5, 1, -6)
        assert row == (44, 5, 1, -6) and isinstance(row, tuple)
        assert (row.n, row.quotient, row.a, row.b) == (44, 5, 1, -6)
        assert pickle.loads(pickle.dumps(row)) == row
        assert copy.deepcopy(row) == row

    def test_trace_from_extended_gcd_equals_one_built_from_its_rows(self):
        rebuilt = EuclidTrace(_TRACE.x, _TRACE.y, tuple(_TRACE.rows))
        assert rebuilt == _TRACE and hash(rebuilt) == hash(_TRACE)
        assert [r.n for r in _TRACE.rows] == [1466, 237, 44, 17, 10, 7, 3, 1, 0]


def _trial_division(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1) if rsa.is_prime(n)]


class TestPrimeSieve:
    """primes_in_range, a segmented sieve, lists what trial division finds."""

    SEGMENT = 2**16

    def test_small_and_empty_windows(self):
        assert rsa.primes_in_range(-10, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert rsa.primes_in_range(0, 1) == []
        assert rsa.primes_in_range(2, 2) == [2]
        assert rsa.primes_in_range(20, 10) == []
        assert rsa.primes_in_range(24, 28) == []

    def test_random_windows_match_trial_division(self):
        rng = random.Random(8)
        for _ in range(25):
            lo = rng.choice([rng.randrange(-5, 3), rng.randrange(3, 10**6), rng.randrange(3, MAX - 3000)])
            hi = min(MAX, lo + rng.randrange(0, 2500))
            assert rsa.primes_in_range(lo, hi) == _trial_division(lo, hi), (lo, hi)

    def test_windows_ending_at_the_cap(self):
        for width in (0, 1, 100, 1000):
            assert rsa.primes_in_range(MAX - width, MAX) == _trial_division(MAX - width, MAX)

    @pytest.mark.parametrize("lo", [2, 1000, MAX - 3 * 2**16])
    def test_windows_straddling_a_segment_boundary(self, lo):
        # the window spans two segments and more; check trial division near each boundary
        hi = lo + 2 * self.SEGMENT + 500
        got = rsa.primes_in_range(lo, hi)
        assert got == sorted(set(got)) and all(lo <= p <= hi for p in got)
        for boundary in (lo + self.SEGMENT, lo + 2 * self.SEGMENT):
            near = (boundary - 300, boundary + 300)
            assert [p for p in got if near[0] <= p <= near[1]] == _trial_division(*near)

    def test_whole_window_count(self):
        # pi(2**16) = 6542: one full segment from 2
        assert len(rsa.primes_in_range(0, self.SEGMENT)) == 6542
        assert len(rsa.primes_in_range(2, 10**6)) == 78498


def _run(argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout)


def test_suggest_primes_wide_window_below_the_cap():
    proc = _run(["-m", "modrsa", "suggest-primes", "2147000000", "2147483647"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    primes = proc.stdout.strip().split(",")
    assert len(primes) == 22451
    assert (primes[0], primes[-1]) == ("2147000041", "2147483647")


# Loads the CLI with no site packages, runs a command, and reports which
# of the expensive or optional modules got imported.
_IMPORT_PROBE = """
import io, sys
import modrsa.cli
heavy = ("dataclasses", "typing", "inspect", "modrsa.oracle")
print(*[m for m in heavy if m in sys.modules])
out = io.StringIO()
code = modrsa.cli.run(sys.argv[1:], stdout=out)
print(code, out.getvalue().splitlines()[-1], "modrsa.oracle" in sys.modules)
"""


class TestImportBudget:
    """The CLI imports no dataclasses, typing or inspect, and the oracle only for --check."""

    def test_plain_command_imports_nothing_heavy(self):
        proc = _run(["-S", "-c", _IMPORT_PROBE, "reduce", "5", "3"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["", "0 2 False"]

    def test_check_flag_loads_the_oracle(self):
        proc = _run(["-S", "-c", _IMPORT_PROBE, "powmod", "--check", "48", "29", "221"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 check: ok True"

    def test_package_exposes_the_oracle_lazily(self):
        assert modrsa.oracle.naive_pow(Residue(3, Modulus(7)), 2).value == 2
        with pytest.raises(AttributeError):
            modrsa.not_a_module  # noqa: B018


# Runs a command through the CLI and reports the exit code and which of the
# RSA modules got imported.
_RSA_PROBE = """
import io, sys
import modrsa.cli
code = modrsa.cli.run(sys.argv[1:], stdout=io.StringIO())
print(code, *[m for m in ("modrsa.rsa", "modrsa.keyfile") if m in sys.modules])
"""


class TestLazyPackage:
    """rsa, keyfile and the key and message types load on first use."""

    def test_arithmetic_command_loads_no_rsa_code(self):
        proc = _run(["-S", "-c", _RSA_PROBE, "reduce", "5", "3"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_encrypt_loads_rsa_and_keyfile(self, tmp_path):
        from modrsa.keyfile import write_key_file

        write_key_file(tmp_path / "pub.txt", PublicKey(221, 29))
        proc = _run(["-S", "-c", _RSA_PROBE, "encrypt", "--key", str(tmp_path / "pub.txt"), "HELLO"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "modrsa.rsa", "modrsa.keyfile"]

    def test_package_serves_the_lazy_names(self):
        from modrsa import NumberMessage as message_type, RsaKeyPair as pair_type

        assert (message_type, pair_type) == (NumberMessage, RsaKeyPair)
        assert (modrsa.PublicKey, modrsa.PrivateKey) == (PublicKey, PrivateKey)
        assert modrsa.rsa is rsa and modrsa.keyfile.read_key_file is not None
