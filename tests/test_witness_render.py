"""Library refusals show a caller's int through errors._shown, and trial division stops at the cap.

A ValueError that names the caller's int renders it as DomainError does:
str() within the interpreter's digit limit, its digit count past it, so
the refusal keeps its own words. prime_factors refuses n past
MAX_MODULUS before any division, and is_prime, is_square_free and
critical_exponents refuse through it.
"""

import sys

import pytest

from modrsa import modmath, rsa

HUGE = 10**5000

# (call, its exact message with {w} for the witness, the witness)
REFUSALS = [
    (lambda: rsa.primes_in_range(0, HUGE), "primes are searched up to 2**31 - 1, got hi = {w}", HUGE),
    (lambda: rsa.PublicKey(221, -HUGE), "public exponent must be > 1, got {w}", -HUGE),
    (lambda: rsa.PrivateKey(221, -HUGE), "private exponent must be > 1, got {w}", -HUGE),
    (lambda: rsa.PrivateKey(221, 53, HUGE), "p = {w} is not a proper factor of n = 221", HUGE),
    (lambda: rsa.PrivateKey(221, 53, 13, 17, phi=HUGE), "phi = {w} is not (p-1)(q-1) = 192", HUGE),
    (lambda: rsa.PrivateKey(221, HUGE, phi=HUGE), "private exponent {w} is not a unit mod phi = {w}", HUGE),
    (lambda: modmath.Residue(HUGE, modmath.Modulus(5)), "{w} is not a canonical residue mod 5", HUGE),
    (lambda: modmath.power_table(HUGE, 3), "power tables are built for primes up to 46340, got p = {w}", HUGE),
    (lambda: list(modmath.prime_factors(HUGE)), "prime factors are found for n up to 2**31 - 1, got n = {w}", HUGE),
]
REFUSAL_IDS = [
    "primes_in_range-hi", "PublicKey-e", "PrivateKey-f", "PrivateKey-factor", "PrivateKey-phi",
    "PrivateKey-f-and-phi", "Residue-value", "power_table-p", "prime_factors-n",
]


def _expected(witness):
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    return "<an integer of 5001 digits>" if 0 < limit < 5001 else str(witness)


@pytest.mark.parametrize("call, message, witness", REFUSALS, ids=REFUSAL_IDS)
def test_a_huge_witness_keeps_the_refusal_in_its_own_words(call, message, witness):
    # each used to raise the interpreter's digit-limit ValueError from its own f-string
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message.format(w=_expected(witness))
    assert "set_int_max_str_digits" not in str(info.value)


class Undivided(int):
    def __mod__(self, other):
        raise AssertionError("n was divided")

    __floordiv__ = __divmod__ = __mod__


MERSENNE_61 = 2**61 - 1  # prime, so trial division would run to its square root, about 70 s


@pytest.mark.parametrize("call", [
    lambda n: list(modmath.prime_factors(n)),
    modmath.is_prime,
    modmath.is_square_free,
    lambda n: modmath.critical_exponents(n, 1, 1),
], ids=["prime_factors", "is_prime", "is_square_free", "critical_exponents"])
def test_an_n_past_the_cap_is_refused_before_any_division(call):
    for n in (Undivided(MERSENNE_61), Undivided(modmath.MAX_MODULUS + 1)):
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == f"prime factors are found for n up to 2**31 - 1, got n = {int(n)}"


def test_the_cap_itself_is_answered():
    n = modmath.MAX_MODULUS  # a prime
    assert list(modmath.prime_factors(n)) == [n]
    assert modmath.is_prime(n) is True
    assert modmath.is_square_free(n) is True
    assert modmath.critical_exponents(n, n - 1, 2) == [1, n]
