"""Contracts of the value types, the prime sieve and the import budget."""

import ast
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


class TestOnePassSieve:
    """primes_in_range sieves its window in one pass; squares near the edges are crossed off."""

    @pytest.mark.parametrize("p", [46337, 46327])
    def test_windows_around_squares_near_the_cap(self, p):
        square = p * p
        for lo, hi in ((square - 5, square + 5), (square - 5, square), (square - 1000, square), (square, square + 5)):
            assert rsa.primes_in_range(lo, hi) == _trial_division(lo, hi), (lo, hi)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_small_windows_starting_at_a_square(self, p):
        for lo in (p * p - 1, p * p, p * p + 1):
            for hi in (lo, p * p, lo + 50):
                assert rsa.primes_in_range(lo, hi) == _trial_division(lo, hi), (lo, hi)

    def test_one_bytearray_per_sieving_call(self, monkeypatch):
        # the widest CLI window sieves at five levels: the window, then the base primes up to 46340, 215, 14 and 3
        made = []
        monkeypatch.setattr(rsa, "bytearray", lambda *args: made.append(args) or bytearray(*args), raising=False)
        primes = rsa.primes_in_range(2146721048, MAX)
        assert len(made) == 5
        assert (len(primes), primes[-1]) == (35527, MAX)


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


_R, _R2 = Residue(5, Modulus(221)), Residue(6, Modulus(221))


class TestTupleBase:
    """The value types are tuples of their fields, and no tuple behaviour shows through."""

    def test_a_value_is_not_equal_to_the_tuple_of_its_fields(self):
        cert = BezoutCertificate(1, -70, 433, 1466, 237)
        assert Modulus(221) != (221,) and (221,) != Modulus(221)
        assert not Modulus(221) == (221,)
        assert cert != (1, -70, 433, 1466, 237) and not cert == (1, -70, 433, 1466, 237)

    def test_equal_fields_of_another_class_are_not_equal(self):
        assert PublicKey(221, 29) != PrivateKey(221, 29)
        assert not PublicKey(221, 29) == PrivateKey(221, 29)

    @pytest.mark.parametrize("operation", [
        lambda: 3 * _R,
        lambda: 3 + _R,
        lambda: _R < _R2,
        lambda: sorted([_R, _R2]),
        lambda: Modulus(5) * 2,
        lambda: (1,) + Modulus(5),
    ], ids=["int-times", "int-plus", "less-than", "sorted", "modulus-times", "tuple-plus"])
    def test_no_tuple_order_concatenation_or_repetition(self, operation):
        with pytest.raises(TypeError):
            operation()

    def test_message_membership_length_and_iteration_are_over_its_values(self):
        msg = NumberMessage((48, 107, 48), 221)
        assert 48 in NumberMessage((48,), 221) and 221 not in NumberMessage((48,), 221)
        assert list(msg) == [48, 107, 48] and len(msg) == 3

    def test_unread_trace_equals_one_built_from_its_rows(self):
        rows = modmath.extended_gcd(1466, 237)[1].rows
        built = EuclidTrace(1466, 237, rows)
        fresh = [modmath.extended_gcd(1466, 237)[1] for _ in range(4)]
        assert all("rows" not in vars(trace) for trace in fresh)  # none has been read yet
        assert fresh[0] == built and built == fresh[1]
        assert not fresh[2] != built
        assert hash(fresh[3]) == hash(built)


class TestFieldTypes:
    """A field of the wrong type is a programming mistake, refused with TypeError at construction."""

    def test_residue_modulus_must_be_a_modulus(self):
        with pytest.raises(TypeError, match="Modulus"):
            Residue(5, 221)

    @pytest.mark.parametrize("e", [2.5, 29.0, True, "29"])
    def test_public_exponent_must_be_an_int(self, e):
        with pytest.raises(TypeError):
            PublicKey(221, e)

    @pytest.mark.parametrize("fields", [
        (221, 53.0), (221, 53, 13.0, 17), (221, 53, 13, True), (221, 53, None, None, 192.0),
    ])
    def test_private_exponent_and_factors_must_be_ints(self, fields):
        with pytest.raises(TypeError):
            PrivateKey(*fields)


# the 221 key types by field; n has no case, since check_modulus refuses it as an invalid modulus
_KEY_FIELDS = [
    (PublicKey, {"n": 221, "e": 29}),
    (PrivateKey, {"n": 221, "f": 53, "p": 13, "q": 17, "phi": 192}),
    (RsaKeyPair, {"p": 13, "q": 17, "n": 221, "phi": 192, "e": 29, "f": 53}),
]


class TestKeyFieldTypeErrorText:
    """A key field that is not an int is refused in modmath._check_int's words."""

    @pytest.mark.parametrize("cls, fields, name, bad", [
        pytest.param(cls, fields, name, bad, id=f"{cls.__name__}-{name}-{bad!r}")
        for cls, fields in _KEY_FIELDS for name in fields if name != "n" for bad in (float(fields[name]), True)
    ])
    def test_message_names_the_field_and_the_value(self, cls, fields, name, bad):
        with pytest.raises(TypeError) as exc:
            cls(**{**fields, name: bad})
        assert str(exc.value) == f"{name} must be an int, got {bad!r}"


def _value_types(cls=modmath.Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_types(sub)


class TestValueContract:
    """Every value type is covered by VALUES above, and all of them share one constructor."""

    def test_every_value_type_is_in_the_table(self):
        assert set(_value_types()) == {type(value) for value, *_ in VALUES}

    def test_no_value_type_defines_init(self):
        assert [cls for cls in _value_types() if "__init__" in vars(cls)] == []

    def test_no_module_sets_attributes_behind_the_constructor(self):
        sources = Path(modrsa.__file__).parent.glob("*.py")
        assert [path.name for path in sources if "object.__setattr__" in path.read_text()] == []


_SEQUENCE_OPERATIONS = {
    "len": len,
    "index": lambda value: value[0],
    "iter": iter,
    "in": lambda value: 5 in value,
    "count": lambda value: value.count(5),
    "index-of": lambda value: value.index(5),
}


class TestNotASequence:
    """A value is a namedtuple underneath, but shows none of a sequence's behaviour."""

    # len, iteration and membership of a message go over its values; the rest is refused for it too
    @pytest.mark.parametrize("value, operation", [
        (value, operation) for value, *_ in VALUES for operation in _SEQUENCE_OPERATIONS
        if operation not in ("len", "iter", "in") or not isinstance(value, NumberMessage)
    ], ids=lambda arg: arg if isinstance(arg, str) else type(arg).__name__)
    def test_sequence_operations_raise(self, value, operation):
        with pytest.raises(TypeError):
            _SEQUENCE_OPERATIONS[operation](value)

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_make_and_replace_raise(self, value, other, text, name):
        with pytest.raises(TypeError):
            type(value)._make(getattr(value, field) for field in value._fields)
        with pytest.raises(TypeError):
            value._make([getattr(value, field) for field in value._fields])
        with pytest.raises(TypeError):
            value._replace(**{name: getattr(value, name)})

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_a_value_is_true(self, value, other, text, name):
        assert bool(value) is True

    def test_make_and_replace_cannot_skip_validation(self):
        # f = 2 is not a unit mod phi = 192, so no key may carry it
        with pytest.raises(TypeError):
            PrivateKey(221, 53, 13, 17)._replace(f=2)
        # two fields, as _make checks by len, and a value out of range
        with pytest.raises(TypeError):
            NumberMessage._make([(1, 300), 221])

    def test_message_truth_follows_its_values(self):
        assert NumberMessage((0,), 221) and not NumberMessage((), 221)


class TestNamedTupleBase:
    """Every value type is declared on a stdlib namedtuple; no source generates code."""

    @pytest.mark.parametrize("cls", list(_value_types()), ids=lambda cls: cls.__name__)
    def test_value_type_has_a_namedtuple_base_with_its_fields(self, cls):
        bases = [base for base in cls.__bases__ if issubclass(base, tuple) and not issubclass(base, modmath.Value)]
        assert len(bases) == 1 and hasattr(bases[0], "_field_defaults")
        assert bases[0]._fields == cls._fields
        assert cls.__bases__[0] is modmath.Value

    def test_no_module_executes_generated_code(self):
        sources = Path(modrsa.__file__).parent.glob("*.py")
        assert [path.name for path in sources if "exec(" in path.read_text() or "eval(" in path.read_text()] == []


def _count_hook(monkeypatch, cls):
    """Wrap cls.__post_init__ so that each call is recorded; returns the list of calls."""
    calls, hook = [], cls.__post_init__

    def counted(self):
        calls.append(self)
        hook(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


class TestOneValidationHook:
    """Value.__init__ runs __post_init__ once for every way a value is built; no __new__ runs it."""

    def test_init_is_the_only_caller_of_the_hook(self):
        trees = [ast.parse(path.read_text()) for path in Path(modrsa.__file__).parent.glob("*.py")]
        value = next(
            node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "Value"
        )
        methods = {node.name for node in value.body if isinstance(node, ast.FunctionDef)}
        assert "__init__" in methods and "__new__" not in methods
        hooked = [
            node.lineno for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__new__"
            and any(isinstance(sub, ast.Attribute) and sub.attr == "__post_init__" for sub in ast.walk(node))
        ]
        assert hooked == []

    @pytest.mark.parametrize("value, other, text, name", VALUES, ids=IDS)
    def test_class_copy_and_pickle_each_validate_once(self, monkeypatch, value, other, text, name):
        cls, data = type(value), pickle.dumps(value)
        fields = [getattr(value, field) for field in value._fields]
        calls = _count_hook(monkeypatch, cls)
        for how, build in (("class", lambda: cls(*fields)), ("copy", lambda: copy.copy(value)),
                           ("pickle", lambda: pickle.loads(data))):
            calls.clear()
            assert build() == value
            assert len(calls) == 1, how

    @pytest.mark.parametrize("source", [
        lambda: [3, 1, 2], lambda: {3, 1, 2}, lambda: map(int, "312"),
    ], ids=["list", "set", "map"])
    def test_message_from_any_iterable_validates_once(self, monkeypatch, source):
        calls = _count_hook(monkeypatch, NumberMessage)
        msg = NumberMessage(source(), 221)
        assert msg.values == tuple(source()) and len(calls) == 1
