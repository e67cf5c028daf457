import ast
import math
import tracemalloc
from array import array
from pathlib import Path

import pytest

from modrsa import modmath, oracle, rsa
from modrsa.errors import (
    InvalidModulusError,
    ModulusMismatchError,
    NotAUnitError,
    NotSquareFreeError,
    UndefinedGcdError,
)
from modrsa.modmath import (
    EuclidTrace,
    Modulus,
    Residue,
    ResidueClass,
    classify,
    critical_exponents,
    crt_compose,
    crt_decompose,
    divide,
    extended_gcd,
    gcd,
    inverse,
    is_square_free,
    mul_table,
    pow_mod,
    reduce,
)


def res(value, n):
    return reduce(value, Modulus(n))


class TestModulus:
    def test_valid_range(self):
        assert Modulus(2).n == 2
        assert Modulus(2**31 - 1).n == 2**31 - 1

    @pytest.mark.parametrize("bad", [1, 0, -5, 2**31, True, 3.0, "7"])
    def test_rejected(self, bad):
        with pytest.raises(InvalidModulusError):
            Modulus(bad)


class TestResidue:
    def test_canonical_required(self):
        with pytest.raises(ValueError):
            Residue(5, Modulus(5))
        with pytest.raises(ValueError):
            Residue(-1, Modulus(5))

    def test_float_value_rejected(self):
        with pytest.raises(TypeError):
            Residue(2.5, Modulus(5))
        with pytest.raises(TypeError):
            reduce(2.5, 5)

    def test_operator_sugar(self):
        a = res(2, 5)
        assert (a + 4).value == 1
        assert (a - 4).value == 3
        assert (a * 3).value == 1
        assert (a / 2).value == 1
        assert (a**0).value == 1
        assert int(a) == 2
        assert str(a) == "2"

    def test_equality_includes_modulus(self):
        assert res(2, 5) == res(2, 5)
        assert res(2, 5) != res(2, 7)

    def test_residue_operand_is_taken_as_it_is(self):
        # a Residue on the right is not reduced again, so a foreign modulus is refused, not wrapped
        assert res(2, 5) + res(4, 5) == res(1, 5)
        with pytest.raises(ModulusMismatchError):
            res(2, 5) + res(4, 7)


class TestReduce:
    def test_paper_reduction(self):
        assert res(2040, 209).value == 159

    def test_negative_wraps_backwards(self):
        assert res(1 - 8, 7).value == 0
        assert res(-7, 5).value == 3

    def test_zero(self):
        assert res(0, 5).value == 0

    def test_accepts_plain_int_modulus(self):
        assert reduce(7, 5).value == 2


class TestRingOps:
    def test_add(self):
        assert modmath.add(res(2, 5), res(4, 5)).value == 1

    def test_sub(self):
        assert modmath.sub(res(2, 5), res(4, 5)).value == 3

    def test_mul(self):
        assert modmath.mul(res(2, 5), res(3, 5)).value == 1
        assert modmath.mul(res(4, 6), res(3, 6)).value == 0

    def test_add_identity(self):
        for x in range(7):
            assert modmath.add(res(x, 7), res(0, 7)).value == x

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            modmath.add(res(1, 5), res(1, 6))
        with pytest.raises(ModulusMismatchError):
            modmath.sub(res(1, 5), res(1, 6))
        with pytest.raises(ModulusMismatchError):
            modmath.mul(res(1, 5), res(1, 6))
        with pytest.raises(ModulusMismatchError):
            divide(res(1, 5), res(1, 6))


class TestMulTable:
    def test_mod5_row3(self):
        table = mul_table(Modulus(5))
        assert [r.value for r in table[2]] == [3, 1, 4, 2]

    def test_mod6_row4(self):
        table = mul_table(Modulus(6))
        assert [r.value for r in table[3]] == [4, 2, 0, 4, 2]

    def test_smallest_modulus(self):
        table = mul_table(Modulus(2))
        assert len(table) == 1 and len(table[0]) == 1
        assert table[0][0].value == 1

    def test_dimensions(self):
        table = mul_table(Modulus(10))
        assert len(table) == 9
        assert all(len(row) == 9 for row in table)


class TestGcd:
    @pytest.mark.parametrize(
        "x, y, g",
        [(168, 91, 7), (1113, 504, 21), (30, 20, 10), (9, 16, 1), (6, 8, 2), (6, 18, 6), (7, 15, 1)],
    )
    def test_fixtures(self, x, y, g):
        assert gcd(x, y) == g

    def test_self(self):
        for x in (1, 2, 17, 100):
            assert gcd(x, x) == x

    def test_zero_extension(self):
        assert gcd(0, 9) == 9
        assert gcd(9, 0) == 9

    def test_both_zero_undefined(self):
        with pytest.raises(UndefinedGcdError):
            gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gcd(-4, 6)


class TestExtendedGcd:
    def test_table_1113_504(self):
        cert, trace = extended_gcd(1113, 504)
        assert (cert.g, cert.a, cert.b) == (21, 5, -11)
        assert 5 * 1113 - 11 * 504 == 21
        assert [(r.n, r.quotient, r.a, r.b) for r in trace.rows] == [
            (1113, None, 1, 0),
            (504, 2, 0, 1),
            (105, 4, 1, -2),
            (84, 1, -4, 9),
            (21, 4, 5, -11),
            (0, None, -24, 53),
        ]

    def test_table_1466_237(self):
        cert, trace = extended_gcd(1466, 237)
        assert (cert.g, cert.a, cert.b) == (1, -70, 433)
        expected = [
            (1466, None, 1, 0),
            (237, 6, 0, 1),
            (44, 5, 1, -6),
            (17, 2, -5, 31),
            (10, 1, 11, -68),
            (7, 1, -16, 99),
            (3, 2, 27, -167),
            (1, 3, -70, 433),
            (0, None, 237, -1466),
        ]
        assert [(r.n, r.quotient, r.a, r.b) for r in trace.rows] == expected
        # row four of the table
        assert (trace.rows[3].n, trace.rows[3].a, trace.rows[3].b) == (17, -5, 31)

    def test_divides_one(self):
        cert, _ = extended_gcd(57, 1)
        assert (cert.g, cert.a, cert.b) == (1, 0, 1)

    def test_swapped_arguments(self):
        cert, _ = extended_gcd(504, 1113)
        assert cert.g == 21
        assert cert.a * 504 + cert.b * 1113 == 21
        assert (cert.x, cert.y) == (504, 1113)

    def test_equal_arguments(self):
        cert, trace = extended_gcd(12, 12)
        assert cert.g == 12
        assert cert.a * 12 + cert.b * 12 == 12
        assert trace.rows[-1].n == 0

    def test_zero_rejected(self):
        with pytest.raises(UndefinedGcdError):
            extended_gcd(5, 0)
        with pytest.raises(UndefinedGcdError):
            extended_gcd(0, 5)

    def test_trace_invariants_sample(self):
        for x, y in [(1113, 504), (1466, 237), (100, 7), (89, 55)]:
            _, trace = extended_gcd(x, y)
            ns = [r.n for r in trace.rows]
            assert ns[0] == x and ns[1] == y and ns[-1] == 0
            assert all(ns[i] > ns[i + 1] for i in range(1, len(ns) - 1))
            for r in trace.rows:
                assert r.a * x + r.b * y == r.n


class TestBezoutCertificate:
    def test_certificate_is_the_last_row_of_the_table(self):
        # covers y | x, x = y and y = 1; the row before the terminal zero holds (g, a, b)
        for x in range(1, 301):
            for y in range(1, x + 1):
                cert, trace = extended_gcd(x, y)
                last = trace.rows[-2]
                assert (cert.g, cert.a, cert.b) == (last.n, last.a, last.b), (x, y)

    def test_trace_is_built_from_the_inputs_alone(self):
        _, trace = extended_gcd(1466, 237)
        assert trace == EuclidTrace(1466, 237) == EuclidTrace(1466, 237, trace.rows)


class TestEuclidRows:
    def test_trace_rows_are_the_generator_in_full(self):
        for x in range(1, 120):
            for y in range(1, x + 1):
                assert tuple(modmath.euclid_rows(x, y)) == extended_gcd(x, y)[1].rows, (x, y)

    def test_rows_come_one_at_a_time(self):
        rows = modmath.euclid_rows(1466, 237)
        assert next(rows) == (1466, None, 1, 0)
        assert next(rows) == (237, 6, 0, 1)
        assert next(rows) == (44, 5, 1, -6)


class TestInverse:
    def test_fixtures(self):
        assert inverse(res(2, 5)).value == 3
        assert inverse(res(237, 1466)).value == 433

    def test_identity_self_inverse(self):
        for n in (2, 5, 28, 1466):
            assert inverse(res(1, n)).value == 1

    def test_not_a_unit_carries_gcd(self):
        with pytest.raises(NotAUnitError) as exc:
            inverse(res(4, 6))
        assert exc.value.gcd == 2
        assert str(exc.value) == "4 is not a unit mod 6 (gcd = 2)"

    def test_zero_never_a_unit(self):
        with pytest.raises(NotAUnitError) as exc:
            inverse(res(0, 7))
        assert exc.value.gcd == 7


class TestDivide:
    def test_paper_division(self):
        assert divide(res(3, 5), res(2, 5)).value == 4

    def test_exercise_division(self):
        result = divide(res(59, 1466), res(237, 1466))
        assert result.value == 625
        assert modmath.mul(result, res(237, 1466)).value == 59

    def test_by_zero_divisor(self):
        with pytest.raises(NotAUnitError) as exc:
            divide(res(1, 6), res(4, 6))
        assert exc.value.gcd == 2

    def test_by_identity(self):
        for x in range(9):
            assert divide(res(x, 9), res(1, 9)).value == x


class TestClassify:
    def test_fixtures(self):
        assert classify(res(6, 8)) is ResidueClass.ZERO_DIVISOR
        assert classify(res(5, 6)) is ResidueClass.UNIT
        assert classify(res(0, 11)) is ResidueClass.ZERO

    def test_units_mod_10(self):
        units = {x for x in range(10) if classify(res(x, 10)) is ResidueClass.UNIT}
        assert units == {1, 3, 7, 9}

    def test_zero_divisors_mod_22(self):
        zd = {x for x in range(22) if classify(res(x, 22)) is ResidueClass.ZERO_DIVISOR}
        assert zd == {2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 11}
        assert len(zd) == 11


class TestPowMod:
    @pytest.mark.parametrize(
        "x, e, n, want",
        [(48, 29, 221, 107), (29, 48, 221, 1), (3, 32, 22, 9), (7, 11, 22, 7)],
    )
    def test_fixtures(self, x, e, n, want):
        assert pow_mod(res(x, n), e).value == want

    def test_first_power(self):
        for n in (2, 7, 22):
            for x in range(n):
                assert pow_mod(res(x, n), 1).value == x

    def test_zero_exponent_is_one(self):
        assert pow_mod(res(0, 5), 0).value == 1
        assert pow_mod(res(3, 5), 0).value == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            pow_mod(res(2, 5), -1)

    def test_large_modulus_stays_exact(self):
        n = 2**31 - 1
        assert pow_mod(res(2, n), 62).value == pow(2, 62, n)


class TestSquareFree:
    @pytest.mark.parametrize("n, want", [(8, False), (10, True), (22, True), (4, False), (2, True), (33, True), (45, False), (49, False)])
    def test_fixtures(self, n, want):
        assert is_square_free(n) is want

    def test_too_small(self):
        with pytest.raises(ValueError):
            is_square_free(1)


class TestCriticalExponents:
    def test_mod_10(self):
        assert critical_exponents(10, 4, 5) == [1, 5, 9, 13, 17]

    def test_mod_22(self):
        assert critical_exponents(22, 10, 4) == [1, 11, 21, 31]

    def test_first_is_always_one(self):
        assert critical_exponents(15, 8, 1) == [1]

    def test_square_factor_rejected(self):
        with pytest.raises(NotSquareFreeError):
            critical_exponents(8, 4, 3)

    def test_bad_phi_or_count(self):
        with pytest.raises(ValueError):
            critical_exponents(10, 0, 3)
        with pytest.raises(ValueError):
            critical_exponents(10, 4, 0)


class TestCrtDecompose:
    def test_paper_placements(self):
        rp, rq = crt_decompose(res(13, 15), 3, 5)
        assert (rp.value, rq.value) == (1, 3)
        rp, rq = crt_decompose(res(12, 15), 3, 5)
        assert (rp.value, rq.value) == (0, 2)

    def test_zero(self):
        rp, rq = crt_decompose(res(0, 15), 3, 5)
        assert (rp.value, rq.value) == (0, 0)
        assert rp.modulus.n == 3 and rq.modulus.n == 5

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            crt_decompose(res(3, 14), 3, 5)

    def test_equal_factors_rejected(self):
        with pytest.raises(ValueError):
            crt_decompose(res(3, 9), 3, 3)

    def test_factor_below_two_rejected_before_reducing(self):
        # without the guard, reducing x mod p = 1 would fail later, as InvalidModulusError(1)
        with pytest.raises(ValueError, match=r"^p and q must both be >= 2$"):
            crt_decompose(res(0, 5), 1, 5)


class TestCrtCompose:
    @pytest.mark.parametrize("p, q", [(2, 3), (3, 2), (3, 5), (5, 3), (2, 11), (13, 17), (17, 13)])
    def test_inverts_decompose(self, p, q):
        for x in range(p * q):
            assert crt_compose(*crt_decompose(res(x, p * q), p, q)) == res(x, p * q)

    def test_coordinates_of_a_large_modulus(self):
        x = res(2_000_000_000, 46337 * 46327)
        assert crt_compose(*crt_decompose(x, 46337, 46327)) == x

    @pytest.mark.parametrize("p, q", [(4, 6), (3, 3)])
    def test_moduli_sharing_a_factor_rejected(self, p, q):
        with pytest.raises(NotAUnitError) as exc:
            crt_compose(res(1, p), res(1, q))
        assert exc.value.gcd == math.gcd(p, q)


def _sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(limit + 1) if flags[p]]


# every prime up to sqrt(2**31 - 1), enough to certify any factor below the cap
SIEVE_LIMIT = math.isqrt(modmath.MAX_MODULUS) + 1
SIEVE_PRIMES = _sieve_primes(SIEVE_LIMIT)
SIEVE_PRIMES_SET = set(SIEVE_PRIMES)


def _passes_sieve(f):
    if f <= SIEVE_LIMIT:
        return f in SIEVE_PRIMES_SET
    return all(f % p for p in SIEVE_PRIMES)


class TestSharedFactoriser:
    """prime_factors is the one trial division behind is_prime, is_square_free and phi."""

    def test_factors_multiply_back_and_are_prime(self):
        for n in [*range(1, 3000), 2**31 - 1, 46337 * 46327, 46337**2, 2**30, 3**19, 2**31 - 2]:
            factors = list(modmath.prime_factors(n))
            assert math.prod(factors) == n
            assert factors == sorted(factors)
            assert all(_passes_sieve(f) for f in factors), n

    def test_phi_matches_brute_count(self):
        for n in range(2, 2001):
            assert modmath.phi(n) == oracle.phi_brute(n), n

    def test_square_free_matches_definition(self):
        for n in range(2, 10_001):
            brute = all(n % (d * d) for d in range(2, math.isqrt(n) + 1))
            assert is_square_free(n) is brute, n

    def test_below_one_is_refused(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                list(modmath.prime_factors(n))

    def test_inverse_of_a_factor_carries_it_as_gcd(self):
        with pytest.raises(NotAUnitError) as exc:
            inverse(res(46337, 46337 * 46327))
        assert exc.value.gcd == 46337


def _calls_in_functions(tree):
    """Yield (function name, call) for every call inside a function of the parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    yield node.name, call


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


class TestOnePrimalityTest:
    """modmath.is_prime is the one primality test: the one `next(prime_factors(...))` in the package."""

    def test_only_is_prime_asks_for_the_first_factor(self):
        askers = set()
        for path in Path(modmath.__file__).parent.glob("*.py"):
            for name, call in _calls_in_functions(ast.parse(path.read_text())):
                first = call.args[0] if call.args else None
                if _callee(call) == "next" and isinstance(first, ast.Call) and _callee(first) == "prime_factors":
                    askers.add((path.stem, name))
        assert askers == {("modmath", "is_prime")}

    def test_power_table_tests_p_with_is_prime(self):
        tree = ast.parse(Path(modmath.__file__).read_text())
        assert "is_prime" in {_callee(call) for name, call in _calls_in_functions(tree) if name == "power_table"}

    def test_rsa_serves_the_same_function(self):
        assert rsa.is_prime is modmath.is_prime


@pytest.mark.parametrize("call, message", [
    (lambda: list(modmath.prime_factors(10.0)), "n must be an int, got 10.0"),
    (lambda: rsa.is_prime(7.0), "n must be an int, got 7.0"),
    (lambda: rsa.phi_semiprime(13.0, 17), "n must be an int, got 13.0"),
    (lambda: critical_exponents(10, 4.0, 3), "phi must be an int, got 4.0"),
    (lambda: critical_exponents(10, 4, 3.0), "count must be an int, got 3.0"),
    (lambda: list(modmath.euclid_rows(5.0, 3)), "x must be an int, got 5.0"),
    (lambda: list(modmath.euclid_rows(5, 3.0)), "y must be an int, got 3.0"),
], ids=["prime_factors", "is_prime", "phi_semiprime", "critical-phi", "critical-count", "euclid-x", "euclid-y"])
def test_float_arguments_are_refused(call, message):
    # each used to answer in floats, such as [2, 5.0] for prime_factors(10.0)
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: rsa.is_prime(1.5), "n must be an int, got 1.5"),
    (lambda: rsa.is_prime(-3.0), "n must be an int, got -3.0"),
    (lambda: modmath.is_square_free(1.0), "n must be an int, got 1.0"),
], ids=["is_prime-1.5", "is_prime-minus-3.0", "is_square_free-1.0"])
def test_floats_below_two_are_refused(call, message):
    # the type comes first: the n >= 2 test alone would answer False, or raise ValueError
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("x, y, message", [
    (True, 1, "x must be an int, got True"),
    (1, False, "y must be an int, got False"),
    (5.0, 3, "x must be an int, got 5.0"),
    (5, 3.0, "y must be an int, got 3.0"),
    (3, 5.0, "y must be an int, got 5.0"),
], ids=["bool-x", "bool-y", "float-x", "float-y", "float-y-swapped"])
def test_extended_gcd_refuses_what_is_not_an_int(x, y, message):
    # a bool used to give a certificate whose trace raised when read; a float, math.gcd's own message
    with pytest.raises(TypeError) as info:
        extended_gcd(x, y)
    assert str(info.value) == message


class TestPowerTable:
    """power_table(p, d) is pow(x, d, p) for every x in [0, p), built by a primitive-root walk."""

    @pytest.mark.parametrize("p", [2, 3, 13, 17, 46327, 46337])
    @pytest.mark.parametrize("d", [1, 3, 29, 4097, 0, 2, 30])
    def test_every_entry_is_the_power(self, p, d):
        table = modmath.power_table(p, d)
        assert isinstance(table, array)
        assert list(table) == [pow(x, d, p) for x in range(p)]

    def test_the_stream_key_exponents(self):
        # the benchmark's stream key, whose d_p and d_q are exponents the CLI tables
        f = rsa.keygen(46337, 46327, 29).f
        for p in (46337, 46327):
            d = (f - 1) % (p - 1) + 1
            assert list(modmath.power_table(p, d)) == [pow(x, d, p) for x in range(p)]

    @pytest.mark.parametrize("p", [46341, 46349, 2**31 - 1, 2**31, 10**100, 1, 0, -13, 15, 46339])
    def test_refuses_p_that_is_not_a_prime_up_to_the_bound(self, p):
        with pytest.raises(ValueError, match=f"power tables are built for primes up to 46340, got p = {p}"):
            modmath.power_table(p, 3)

    def test_the_bound_is_the_square_root_of_the_modulus_cap(self):
        assert modmath.MAX_TABLE == math.isqrt(modmath.MAX_MODULUS) == 46340

    def test_refuses_before_it_allocates(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                modmath.power_table(2**31 - 1, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("p, d, message", [
        (13.0, 3, "p must be an int, got 13.0"),
        (True, 3, "p must be an int, got True"),
        (13, 3.0, "d must be an int, got 3.0"),
        (13, False, "d must be an int, got False"),
        ("13", 3, "p must be an int, got '13'"),
    ], ids=["float-p", "bool-p", "float-d", "bool-d", "str-p"])
    def test_refuses_what_is_not_an_int(self, p, d, message):
        with pytest.raises(TypeError) as info:
            modmath.power_table(p, d)
        assert str(info.value) == message

    def test_refuses_a_negative_exponent(self):
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            modmath.power_table(13, -1)

    def test_both_stream_key_tables_peak_under_1_mib(self):
        f = rsa.keygen(46337, 46327, 29).f
        tracemalloc.start()
        try:
            tables = [modmath.power_table(p, (f - 1) % (p - 1) + 1) for p in (46337, 46327)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables[0]) + len(tables[1]) == 46337 + 46327
        assert peak < 2**20
