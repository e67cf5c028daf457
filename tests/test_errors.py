import pickle
import sys

import pytest

from modrsa import errors

# (class, witnesses in constructor order, exact message)
WITNESS_CASES = [
    (errors.InvalidModulusError, {"n": 1}, "invalid modulus 1: need an integer with 2 <= n <= 2**31 - 1"),
    (errors.ModulusMismatchError, {"left": 22, "right": 221}, "modulus mismatch: 22 vs 221"),
    (errors.NotAUnitError, {"value": 4, "modulus": 6, "gcd": 2}, "4 is not a unit mod 6 (gcd = 2)"),
    (errors.NotSquareFreeError, {"n": 8}, "8 is not square-free"),
    (errors.NonPrimeError, {"name": "q", "value": 15}, "q = 15 is not prime"),
    (errors.EqualPrimesError, {"p": 13}, "p and q must be distinct primes (both are 13)"),
    (errors.ExponentOutOfRangeError, {"e": 200, "phi": 192}, "public exponent 200 must satisfy 1 < e < phi = 192"),
    (
        errors.ExponentNotUnitError,
        {"e": 3, "phi": 192, "gcd": 3},
        "public exponent 3 is not a unit mod phi = 192 (gcd = 3)",
    ),
    (
        errors.UnsupportedCharacterError,
        {"char": "!", "position": 2},
        "unsupported character '!' at position 2: only A-Z and space can be encoded",
    ),
    (
        errors.ValueOutOfAlphabetError,
        {"value": 0, "position": 4},
        "value 0 at position 4 is outside the letter alphabet 1..27",
    ),
    (errors.ModulusTooSmallError, {"n": 22}, "modulus 22 is too small to carry letter codes (need n >= 28)"),
    (errors.MessageRangeError, {"value": 221, "n": 221}, "message value 221 is not a residue mod 221"),
]


@pytest.mark.parametrize("cls, witnesses, message", WITNESS_CASES, ids=[c[0].__name__ for c in WITNESS_CASES])
def test_witness_errors_keep_message_and_attributes(cls, witnesses, message):
    err = cls(*witnesses.values())
    assert isinstance(err, errors.DomainError)
    assert str(err) == message
    for name, value in witnesses.items():
        assert getattr(err, name) == value


@pytest.mark.parametrize("cls", [errors.DomainError, errors.UndefinedGcdError, errors.KeyFileError])
def test_plain_errors_take_their_message(cls):
    assert str(cls("gcd(0, 0) is undefined")) == "gcd(0, 0) is undefined"


@pytest.mark.parametrize("cls, witnesses, message", WITNESS_CASES, ids=[c[0].__name__ for c in WITNESS_CASES])
def test_fields_name_every_witness(cls, witnesses, message):
    err = cls(*witnesses.values())
    assert {name: getattr(err, name) for name in err.fields} == witnesses


@pytest.mark.parametrize("cls, witnesses, message", WITNESS_CASES, ids=[c[0].__name__ for c in WITNESS_CASES])
def test_witness_errors_survive_pickling(cls, witnesses, message):
    err = pickle.loads(pickle.dumps(cls(*witnesses.values())))
    assert type(err) is cls
    assert str(err) == message
    assert {name: getattr(err, name) for name in err.fields} == witnesses


@pytest.mark.parametrize("cls", [errors.DomainError, errors.UndefinedGcdError, errors.KeyFileError])
def test_plain_errors_survive_pickling(cls):
    err = pickle.loads(pickle.dumps(cls("key.txt: line 2: malformed line")))
    assert type(err) is cls
    assert str(err) == "key.txt: line 2: malformed line"


def test_cases_cover_every_error_class():
    covered = {case[0] for case in WITNESS_CASES} | {errors.UndefinedGcdError, errors.KeyFileError}
    assert covered == set(errors.DomainError.__subclasses__())


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("cls, witnesses, message", WITNESS_CASES, ids=[c[0].__name__ for c in WITNESS_CASES])
def test_witnesses_past_the_digit_limit_render_as_a_digit_count(cls, witnesses, message, sign):
    huge = {name: sign * 10**5000 if isinstance(value, int) else value for name, value in witnesses.items()}
    err = cls(*huge.values())
    assert "<an integer of 5001 digits>" in str(err)
    twin = pickle.loads(pickle.dumps(err))
    assert type(twin) is cls
    assert twin.args == err.args == tuple(huge.values())
    assert {name: getattr(twin, name) for name in twin.fields} == huge
    assert str(twin) == str(err)


@pytest.mark.parametrize("digits", [1, 4299, 4300, 4301, 4302, 5000])
def test_digit_count_is_exact_on_both_sides_of_a_power_of_ten(digits):
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    for n in (10 ** (digits - 1), 10**digits - 1):
        expected = f"<an integer of {digits} digits>" if 0 < limit < digits else str(n)
        assert str(errors.NotSquareFreeError(n)) == f"{expected} is not square-free"
