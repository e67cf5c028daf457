import ast
import random
from pathlib import Path

import pytest

from cli_cases import CASE_MAPPED_TO_ASCII
from modrsa import modmath, oracle, rsa
from modrsa.errors import (
    EqualPrimesError,
    ExponentNotUnitError,
    ExponentOutOfRangeError,
    InvalidModulusError,
    MessageRangeError,
    ModulusMismatchError,
    ModulusTooSmallError,
    NonPrimeError,
    UnsupportedCharacterError,
    ValueOutOfAlphabetError,
)
from modrsa.rsa import (
    NumberMessage,
    PrivateKey,
    PublicKey,
    RsaKeyPair,
    decode_text,
    decrypt,
    encode_text,
    encrypt,
    is_prime,
    keygen,
    phi_semiprime,
    primes_in_range,
    sign,
    verify,
)

# the worked example keys: n = 221 = 13 * 17, e = 29, f = 53
PAIR_221 = keygen(13, 17, 29)
# the small demonstration system: n = 22 = 2 * 11, e = 7, f = 3
PAIR_22 = keygen(2, 11, 7)


def _sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return flags


class TestIsPrime:
    @pytest.mark.parametrize("n, want", [(13, True), (17, True), (29, True), (2, True), (22, False), (1, False), (0, False), (-7, False), (221, False)])
    def test_fixtures(self, n, want):
        assert is_prime(n) is want

    def test_agrees_with_sieve(self):
        flags = _sieve(10_000)
        for n in range(10_001):
            assert is_prime(n) is flags[n]

    def test_primes_in_range(self):
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert primes_in_range(0, 10) == [2, 3, 5, 7]
        assert primes_in_range(24, 28) == []


class TestPhiSemiprime:
    def test_fixtures(self):
        assert phi_semiprime(13, 17) == 192
        assert phi_semiprime(2, 11) == 10
        assert phi_semiprime(3, 5) == 8

    def test_rejects_nonprime(self):
        with pytest.raises(NonPrimeError):
            phi_semiprime(4, 11)

    def test_rejects_equal(self):
        with pytest.raises(EqualPrimesError):
            phi_semiprime(13, 13)


class TestKeygen:
    def test_worked_example(self):
        assert (PAIR_221.n, PAIR_221.phi, PAIR_221.f) == (221, 192, 53)
        assert 29 * 53 % 192 == 1

    def test_small_system(self):
        assert (PAIR_22.n, PAIR_22.phi, PAIR_22.f) == (22, 10, 3)

    def test_equal_primes_rejected(self):
        with pytest.raises(EqualPrimesError):
            keygen(13, 13, 29)

    def test_exponent_not_unit_carries_gcd(self):
        with pytest.raises(ExponentNotUnitError) as exc:
            keygen(13, 17, 3)
        assert exc.value.gcd == 3

    def test_nonprime_inputs_named(self):
        with pytest.raises(NonPrimeError) as exc:
            keygen(4, 11, 3)
        assert exc.value.name == "p"
        with pytest.raises(NonPrimeError) as exc:
            keygen(13, 9, 5)
        assert exc.value.name == "q"

    @pytest.mark.parametrize("e", [0, 1, 192, 500])
    def test_exponent_out_of_range(self, e):
        with pytest.raises(ExponentOutOfRangeError):
            keygen(13, 17, e)

    def test_exponent_product_is_critical(self):
        for pair in (PAIR_221, PAIR_22):
            assert pair.e * pair.f % pair.phi == 1
            exps = modmath.critical_exponents(pair.n, pair.phi, pair.e)
            assert pair.e * pair.f in exps

    def test_phi_matches_brute_count(self):
        for pair in (PAIR_221, PAIR_22, keygen(3, 5, 7), keygen(2, 5, 3)):
            assert pair.phi == oracle.phi_brute(pair.n)

    def test_key_halves(self):
        assert PAIR_221.public_key == PublicKey(221, 29)
        assert PAIR_221.private_key == PrivateKey(221, 53, 13, 17, 192)

    def test_keypair_reconstruction_is_validated(self):
        from modrsa.rsa import RsaKeyPair

        RsaKeyPair(p=13, q=17, n=221, phi=192, e=29, f=53)
        with pytest.raises(ValueError):
            RsaKeyPair(p=13, q=17, n=220, phi=192, e=29, f=53)
        with pytest.raises(ValueError):
            RsaKeyPair(p=13, q=17, n=221, phi=190, e=29, f=53)
        with pytest.raises(ValueError):
            RsaKeyPair(p=13, q=17, n=221, phi=192, e=29, f=52)
        with pytest.raises(NonPrimeError):
            RsaKeyPair(p=12, q=17, n=204, phi=176, e=29, f=85)


class TestPrivateKeyConsistency:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(p=11, q=17, phi=5),  # 11 does not divide 221
            dict(p=1),
            dict(q=221),
            dict(p=17, q=17),  # each divides 221, their product does not
            dict(p=13, q=17, phi=190),
            dict(phi=106),  # gcd(53, 106) = 53
        ],
    )
    def test_inconsistent_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            PrivateKey(221, 53, **fields)

    @pytest.mark.parametrize("fields", [dict(), dict(q=17), dict(p=13, phi=192), dict(p=13, q=17)])
    def test_partial_keys_allowed(self, fields):
        PrivateKey(221, 53, **fields)

    def test_keygen_keys_are_consistent(self):
        for p, q, e in ((13, 17, 29), (2, 11, 7), (3, 5, 7), (46337, 46327, 65537)):
            key = keygen(p, q, e).private_key
            assert PrivateKey(key.n, key.f, key.p, key.q, key.phi) == key


class TestPrimeFactors:
    """With both factors present, a private key proves them distinct primes."""

    def test_composite_factor_rejected(self):
        with pytest.raises(NonPrimeError) as exc:
            PrivateKey(210, 13, p=6, q=35, phi=170)
        assert (exc.value.name, exc.value.value) == ("p", 6)

    def test_equal_factors_rejected(self):
        with pytest.raises(EqualPrimesError):
            PrivateKey(289, 3, p=17, q=17)

    def test_crt_exponents_are_not_fields(self):
        key = PrivateKey(221, 53, 13, 17, 192)
        assert key == PrivateKey(221, 53, 13, 17, 192)
        assert repr(key) == "PrivateKey(n=221, f=53, p=13, q=17, phi=192)"

    def test_keygen_tests_each_prime_twice_at_most(self, monkeypatch):
        tested = []

        def counting_is_prime(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(rsa, "is_prime", counting_is_prime)
        pair = keygen(1073741789, 2, 3)
        assert len(tested) <= 4
        assert pair.private_key is pair.private_key
        assert len(tested) <= 4


class TestImpliedPhi:
    """With both factors, f must be a unit mod (p-1)(q-1), whether phi is written or not."""

    @pytest.mark.parametrize("phi", [None, 192])
    def test_exponent_sharing_a_factor_with_the_implied_phi_rejected(self, phi):
        with pytest.raises(ValueError, match=r"private exponent 2 is not a unit mod phi = 192"):
            PrivateKey(221, 2, p=13, q=17, phi=phi)

    def test_partial_keys_without_both_factors_still_accept_f(self):
        PrivateKey(221, 2, p=13)
        PrivateKey(221, 2, q=17)

    def test_valid_key_without_phi_decrypts(self):
        key = PrivateKey(221, 53, p=13, q=17)
        assert decrypt(NumberMessage((4, 9), 221), key) == NumberMessage((pow(4, 53, 221), pow(9, 53, 221)), 221)


class TestKeygenPrimality:
    def test_keygen_tests_each_prime_once(self, monkeypatch):
        tested = []

        def counting_is_prime(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(rsa, "is_prime", counting_is_prime)
        pair = keygen(1073741723, 2, 5)
        assert len(tested) <= 2
        assert pair.private_key.p == 1073741723

    @pytest.mark.parametrize(
        "args, error",
        [
            ((1073741789, 1, 3), NonPrimeError),
            ((9, 7, 5), NonPrimeError),
            ((1, 7, 5), NonPrimeError),
            ((13, 13, 5), EqualPrimesError),
            ((13, 17, 192), ExponentOutOfRangeError),
            ((13, 17, 2), ExponentNotUnitError),
            ((2**16 + 1, 2**16 + 3, 5), InvalidModulusError),
        ],
    )
    def test_single_faults_keep_their_errors(self, args, error):
        with pytest.raises(error):
            keygen(*args)


class TestModulusRule:
    """Keys and messages apply the same modulus rule as Modulus."""

    @pytest.mark.parametrize(
        "make, args",
        [
            (PublicKey, (2**31, 3)),
            (PrivateKey, (2**31, 3)),
            (PublicKey, (1, 3)),
            (PrivateKey, (True, 3)),
            (NumberMessage, ((1,), 221.0)),
            (NumberMessage, ((1,), 2**31)),
        ],
        ids=lambda v: getattr(v, "__name__", repr(v)),
    )
    def test_invalid_modulus_rejected(self, make, args):
        with pytest.raises(InvalidModulusError):
            make(*args)

    def test_largest_modulus_allowed(self):
        PublicKey(2**31 - 1, 3)
        PrivateKey(2**31 - 1, 3)
        NumberMessage((2**31 - 2,), 2**31 - 1)

    def test_primes_in_range_is_capped(self):
        assert primes_in_range(2**31 - 10, 2**31 - 1) == [2**31 - 1]
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            primes_in_range(10**18 + 3, 10**18 + 3)


class TestNumberMessage:
    def test_values_coerced_to_tuple(self):
        msg = NumberMessage([1, 2, 3], 22)
        assert msg.values == (1, 2, 3)
        assert list(msg) == [1, 2, 3]
        assert len(msg) == 3

    def test_range_enforced(self):
        with pytest.raises(MessageRangeError):
            NumberMessage((22,), 22)
        with pytest.raises(MessageRangeError):
            NumberMessage((-1,), 22)


class TestCodec:
    def test_hello(self):
        # By the letter table H=8, E=5, L=12, O=15. The worked example's
        # printed string "8, 5, 5, 12, 16" does not match its own table
        # (it decodes to HEELP); the table wins.
        assert encode_text("HELLO", 221).values == (8, 5, 12, 12, 15)

    def test_single_letters(self):
        assert encode_text("A", 221).values == (1,)
        assert encode_text("Z", 221).values == (26,)
        assert encode_text(" ", 221).values == (27,)

    def test_empty(self):
        assert encode_text("", 221).values == ()
        assert decode_text(NumberMessage((), 221)) == ""

    def test_case_folding(self):
        assert encode_text("hello", 221) == encode_text("HELLO", 221)

    def test_unsupported_character_reports_position(self):
        with pytest.raises(UnsupportedCharacterError) as exc:
            encode_text("HI!", 221)
        assert exc.value.char == "!"
        assert exc.value.position == 2

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmallError):
            encode_text("HI", 22)
        assert encode_text("HI", 28).values == (8, 9)

    def test_decode_fixtures(self):
        assert decode_text(NumberMessage((8, 5, 5, 12, 16), 221)) == "HEELP"
        assert decode_text(NumberMessage((27,), 221)) == " "

    def test_decode_out_of_alphabet(self):
        with pytest.raises(ValueOutOfAlphabetError):
            decode_text(NumberMessage((0,), 221))
        with pytest.raises(ValueOutOfAlphabetError):
            decode_text(NumberMessage((28,), 221))

    def test_round_trip(self):
        for text in ("", "A", "HELLO WORLD", "THE QUICK BROWN FOX", "Z Z Z"):
            assert decode_text(encode_text(text, 221)) == text


class TestDecodeStream:
    def test_table_stays_bounded_for_a_non_injective_key(self):
        # every nonzero square mod the prime 2**31 - 1 powers to 1 ('A') under e = (n - 1)/2
        n = 2**31 - 1
        key = PublicKey(n, (n - 1) // 2)
        lines = [[(40 * i + j) ** 2 % n for j in range(1, 41)] for i in range(50)]
        stream = rsa.decode_stream((NumberMessage(values, n) for values in lines), verify, key)
        for values in lines:
            assert next(stream) == "A" * len(values)
            assert len(stream.gi_frame.f_locals["table"]) <= len(rsa.ALPHABET)
        assert next(stream, None) is None

    def test_modulus_mismatch_even_when_no_value_is_powered(self):
        key = keygen(13, 17, 29).public_key
        for values in ((), (1, 1)):
            with pytest.raises(ModulusMismatchError):
                decode_text(verify(NumberMessage(values, 220), key))
            stream = rsa.decode_stream([NumberMessage((1,), 221), NumberMessage(values, 220)], verify, key)
            assert next(stream) == "A"
            with pytest.raises(ModulusMismatchError):
                next(stream)


class TestEncryptDecrypt:
    def test_worked_example_numbers(self):
        # the worked example's own number string and its printed ciphertext
        plain = NumberMessage((8, 5, 5, 12, 16), 221)
        cipher = encrypt(plain, PAIR_221.public_key)
        assert cipher.values == (60, 122, 122, 116, 152)
        assert decrypt(cipher, PAIR_221.private_key).values == (8, 5, 5, 12, 16)

    def test_hello_end_to_end(self):
        plain = encode_text("HELLO", 221)
        cipher = encrypt(plain, PAIR_221.public_key)
        assert cipher.values == (60, 122, 116, 116, 19)
        assert decode_text(decrypt(cipher, PAIR_221.private_key)) == "HELLO"

    def test_small_system(self):
        plain = NumberMessage((2, 3, 8), 22)
        cipher = encrypt(plain, PAIR_22.public_key)
        assert cipher.values == (18, 9, 2)
        assert decrypt(cipher, PAIR_22.private_key).values == (2, 3, 8)

    def test_empty_message(self):
        empty = NumberMessage((), 221)
        assert encrypt(empty, PAIR_221.public_key).values == ()

    def test_modulus_mismatch(self):
        msg = NumberMessage((1, 2), 22)
        with pytest.raises(ModulusMismatchError):
            encrypt(msg, PAIR_221.public_key)
        with pytest.raises(ModulusMismatchError):
            decrypt(msg, PAIR_221.private_key)

    @pytest.mark.parametrize("pair", [PAIR_221, PAIR_22])
    def test_round_trip_every_residue(self, pair):
        # includes zero divisors: n is square-free, so the identity holds
        # on all residues, not just units
        for x in range(pair.n):
            msg = NumberMessage((x,), pair.n)
            assert decrypt(encrypt(msg, pair.public_key), pair.private_key).values == (x,)

    def test_fixed_points(self):
        # 0 and 1 encrypt to themselves; x**e cannot move them
        for v in (0, 1):
            msg = NumberMessage((v,), 221)
            assert encrypt(msg, PAIR_221.public_key).values == (v,)


class TestSignVerify:
    @pytest.mark.parametrize("pair", [PAIR_221, PAIR_22])
    def test_verify_undoes_sign_everywhere(self, pair):
        for x in range(pair.n):
            msg = NumberMessage((x,), pair.n)
            assert verify(sign(msg, pair.private_key), pair.public_key).values == (x,)

    def test_sign_is_decrypt_and_verify_is_encrypt(self):
        msg = NumberMessage((8, 5, 12, 12, 15), 221)
        assert sign(msg, PAIR_221.private_key) == decrypt(msg, PAIR_221.private_key)
        assert verify(msg, PAIR_221.public_key) == encrypt(msg, PAIR_221.public_key)

    def test_signature_of_hello(self):
        plain = encode_text("HELLO", 221)
        signed = sign(plain, PAIR_221.private_key)
        assert verify(signed, PAIR_221.public_key) == plain


class TestExponentTables:
    X3 = [1, 8, 5, 20, 15, 18, 13, 6, 3, 10, 11, 12, 19, 16, 9, 4, 7, 2, 17, 14, 21]
    X7 = [1, 18, 9, 16, 3, 8, 17, 2, 15, 10, 11, 12, 7, 20, 5, 14, 19, 6, 13, 4, 21]

    def test_cube_row(self):
        m = modmath.Modulus(22)
        got = [modmath.pow_mod(modmath.Residue(x, m), 3).value for x in range(1, 22)]
        assert got == self.X3

    def test_seventh_power_row(self):
        m = modmath.Modulus(22)
        got = [modmath.pow_mod(modmath.Residue(x, m), 7).value for x in range(1, 22)]
        assert got == self.X7

    def test_rows_are_inverse_permutations(self):
        for x, y in zip(range(1, 22), self.X3):
            assert self.X7[y - 1] == x
        for x, y in zip(range(1, 22), self.X7):
            assert self.X3[y - 1] == x


def test_private_exponent_recoverable_from_public_data():
    # with n = 22 public, phi = 10 is easy to find, and scanning 1..9
    # for 7*f = 1 (mod 10) gives the "secret" f = 3 straight away
    n, e = 22, 7
    phi = oracle.phi_brute(n)
    assert phi == 10
    found = [f for f in range(1, 10) if e * f % phi == 1]
    assert found == [3]
    assert found[0] == PAIR_22.f


class TestFactorlessPrivateKeys:
    """A private key without both factors raises each value to f with builtin pow."""

    @pytest.mark.parametrize("pair", [PAIR_221, keygen(46337, 46327, 65537)], ids=["n=221", "n=46337*46327"])
    @pytest.mark.parametrize("fields", [(), ("q",), ("phi",)], ids=["n-f", "n-f-q", "n-f-phi"])
    def test_plain_power(self, pair, fields):
        key = PrivateKey(pair.n, pair.f, **{name: getattr(pair, name) for name in fields})
        values = (0, pair.n - 1, *random.Random(pair.n).sample(range(pair.n), 50))
        msg = NumberMessage(values, pair.n)
        want = NumberMessage([pow(v, pair.f, pair.n) for v in values], pair.n)
        assert decrypt(msg, key) == want
        assert sign(msg, key) == want
        assert decrypt(msg, pair.private_key) == want


class TestExponentRules:
    """The exponent checks of the key types, with their exact texts."""

    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: PublicKey(221, 1), "public exponent must be > 1, got 1"),
            (lambda: PrivateKey(221, 1), "private exponent must be > 1, got 1"),
            (lambda: RsaKeyPair(p=13, q=17, n=221, phi=192, e=29, f=5), "e*f = 145 is not 1 mod phi = 192"),
            (lambda: RsaKeyPair(p=13, q=17, n=221, phi=192, e=1, f=53), "exponents must lie strictly between 1 and phi"),
        ],
        ids=["public", "private", "pair-product", "pair-range"],
    )
    def test_text(self, make, text):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == text


class TestLetterCode:
    """Exactly A-Z, a-z and space encode, and exactly 1..27 decode."""

    @pytest.mark.parametrize("ch", CASE_MAPPED_TO_ASCII, ids=[f"U+{ord(c):04X}" for c in CASE_MAPPED_TO_ASCII])
    def test_case_mapped_characters_are_refused_at_their_position(self, ch):
        with pytest.raises(UnsupportedCharacterError) as exc:
            encode_text("A" + ch + "B", 221)
        assert (exc.value.char, exc.value.position) == (ch, 1)

    def test_exactly_the_ascii_letters_and_space_encode(self):
        for ch in map(chr, range(256)):
            if ch in rsa.ALPHABET + rsa.ALPHABET.lower():
                assert encode_text(ch, 221).values == (rsa.ALPHABET.index(ch.upper()) + 1,)
            else:
                with pytest.raises(UnsupportedCharacterError):
                    encode_text(ch, 221)

    def test_exactly_the_codes_decode(self):
        for v in range(221):
            if 1 <= v <= 27:
                assert decode_text(NumberMessage((27, v), 221)) == " " + rsa.ALPHABET[v - 1]
            else:
                with pytest.raises(ValueOutOfAlphabetError) as exc:
                    decode_text(NumberMessage((27, v), 221))
                assert (exc.value.value, exc.value.position) == (v, 1)


def _rsa_functions():
    """name -> FunctionDef for each top-level function of rsa.py."""
    tree = ast.parse(Path(rsa.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


class TestOneLetterTable:
    """The codec reads the letter code from one table each way, with no case mapping."""

    def test_codec_calls_no_case_mapping_or_search(self):
        functions = _rsa_functions()
        for name in ("encode_text", "decode_text", "decode_stream"):
            called = {
                node.func.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            assert not called & {"upper", "lower", "casefold", "find"}, name

    @pytest.mark.parametrize("name, table", [
        ("encode_text", "_CODE"), ("decode_text", "_LETTER"), ("decode_stream", "_LETTER"),
    ])
    def test_codec_reads_the_tables(self, name, table):
        names = {node.id for node in ast.walk(_rsa_functions()[name]) if isinstance(node, ast.Name)}
        assert table in names


class TestOneTransform:
    """encrypt, decrypt, sign and verify are one map, x -> x^k mod n; the key supplies k."""

    def test_four_operations_are_one_function(self):
        assert rsa.encrypt is rsa.decrypt is rsa.sign is rsa.verify

    def test_one_message_transform_path(self):
        tree = ast.parse(Path(rsa.__file__).read_text(encoding="utf-8"))
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "_pow_message" not in names
        mismatch_raises = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ModulusMismatchError"
        ]
        assert len(mismatch_raises) == 1


class TestPowerModuli:
    """Which moduli builtin pow is called with: a key with p and q powers by CRT, others mod n."""

    VALUES = (0, 1, 48, 107, 220)

    @pytest.fixture
    def moduli(self, monkeypatch):
        calls = []

        def recording_pow(base, exp, mod=None):
            calls.append((exp, mod))
            return pow(base, exp, mod)

        # rsa's own globals come before builtins, so every pow in rsa.py goes through it
        monkeypatch.setattr(rsa, "pow", recording_pow, raising=False)
        return calls

    def test_private_key_with_factors_powers_mod_p_and_q(self, moduli):
        key = PrivateKey(221, 53, 13, 17)
        got = decrypt(NumberMessage(self.VALUES, 221), key)
        assert got.values == tuple(pow(v, 53, 221) for v in self.VALUES)
        assert moduli.count((-1, 13)) == 1  # q**-1 mod p, once per key
        powers = [mod for exp, mod in moduli if exp != -1]
        assert sorted(powers) == [13] * len(self.VALUES) + [17] * len(self.VALUES)
        moduli.clear()
        sign(NumberMessage(self.VALUES, 221), key)
        assert sorted(mod for _, mod in moduli) == [13] * len(self.VALUES) + [17] * len(self.VALUES)

    @pytest.mark.parametrize("transform, key, k", [
        (decrypt, PrivateKey(221, 53), 53), (encrypt, PublicKey(221, 29), 29),
    ], ids=["n-f", "public"])
    def test_other_keys_power_mod_n(self, moduli, transform, key, k):
        got = transform(NumberMessage(self.VALUES, 221), key)
        assert got.values == tuple(pow(v, k, 221) for v in self.VALUES)
        assert moduli == [(k, 221)] * len(self.VALUES)

    @pytest.mark.parametrize("transform, key", [
        (decrypt, PrivateKey(221, 53, 13, 17)), (sign, PrivateKey(221, 53)), (verify, PublicKey(221, 29)),
    ], ids=["n-f-p-q", "n-f", "public"])
    def test_mismatch_raises_before_any_power(self, moduli, transform, key):
        with pytest.raises(ModulusMismatchError):
            transform(NumberMessage((1, 2), 22), key)
        assert moduli == []


class TestMessageValueTypes:
    """A message value is an int and not a bool, the rule key fields follow; n stays check_modulus's."""

    @pytest.mark.parametrize("values, pos", [((1.5,), 0), ((True,), 0), ((1, 2.0), 1), ((False, 1), 0)])
    def test_float_and_bool_refused(self, values, pos):
        with pytest.raises(TypeError) as exc:
            NumberMessage(values, 221)
        assert str(exc.value) == f"message value at position {pos} must be an int, got {values[pos]!r}"

    def test_float_modulus_is_still_an_invalid_modulus(self):
        with pytest.raises(InvalidModulusError):
            NumberMessage((1,), 221.0)

    def test_out_of_range_int_is_still_a_range_error(self):
        with pytest.raises(MessageRangeError) as exc:
            NumberMessage((1, 221, 2.5), 221)
        assert exc.value.value == 221

    def test_int_subclass_in_range_is_kept(self):
        import enum

        code = enum.IntEnum("Code", "A B")
        assert NumberMessage((code.A, 2), 221).values == (1, 2)


class TestDerivedMessages:
    """transform builds its result through modmath._new: residues by construction, validated nowhere again."""

    @pytest.mark.parametrize("key", [
        PublicKey(221, 29), PrivateKey(221, 53), PrivateKey(221, 53, 13, 17), PAIR_22.private_key,
        PrivateKey(22, 3, 11, 2),  # q = 2: d_q = (f - 1) % 1 + 1 wraps to 1
    ], ids=["public", "n-f", "n-f-p-q", "p-2", "q-2"])
    def test_every_residue_powers_as_builtin_pow(self, key):
        k = key.e if isinstance(key, PublicKey) else key.f
        got = rsa.transform(NumberMessage(range(key.n), key.n), key)
        assert got.values == tuple(pow(v, k, key.n) for v in range(key.n))
        assert all(type(v) is int and 0 <= v < key.n for v in got.values)
        rebuilt = NumberMessage(list(got.values), key.n)
        assert got == rebuilt and hash(got) == hash(rebuilt)

    def test_one_validation_loop_and_no_validating_constructor_in_transform(self):
        tree = ast.parse(Path(rsa.__file__).read_text(encoding="utf-8"))
        message = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "NumberMessage")
        hook = next(node for node in message.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
        assert sum(isinstance(node, ast.For) for node in ast.walk(hook)) == 1
        for name in ("transform", "decode_stream"):
            calls = [node.func.id for node in ast.walk(_rsa_functions()[name])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
            assert "NumberMessage" not in calls, name


class TestTransformStream:
    """transform_stream yields transform(msg, key) per message; a long stream under small primes switches to tables."""

    # (factory of a fresh key, whether a 140-line stream builds its power tables)
    KEYS = {
        "n-f-p-q": (lambda: keygen(13, 17, 29).private_key, True),
        "p-2": (lambda: keygen(2, 11, 7).private_key, True),
        "q-2": (lambda: PrivateKey(22, 3, 11, 2), True),
        "stream-key": (lambda: keygen(46337, 46327, 29).private_key, True),
        "p-past-46340": (lambda: keygen(46349, 3, 5).private_key, False),
        "n-f": (lambda: PrivateKey(221, 53), False),
        "public": (lambda: PublicKey(221, 29), False),
    }

    @staticmethod
    def _messages(n, lines, seed=0):
        rng = random.Random(seed)
        values = [[0, 1, n - 1], []] + [[rng.randrange(n) for _ in range(10)] for _ in range(lines)]
        return [NumberMessage(v, n) for v in values]

    @staticmethod
    def _recording_pow(monkeypatch):
        calls = []

        def recording_pow(base, exp, mod=None):
            calls.append((exp, mod))
            return pow(base, exp, mod)

        monkeypatch.setattr(rsa, "pow", recording_pow, raising=False)
        return calls

    @pytest.mark.parametrize("name", KEYS)
    def test_output_is_transform_of_each_message(self, name):
        fresh, tabled = self.KEYS[name]
        key = fresh()
        messages = self._messages(key.n, 140)  # 1403 values, past the stream key's 1312
        want = [rsa.transform(msg, fresh()) for msg in messages]
        assert list(rsa.transform_stream(iter(messages), rsa.transform, key)) == want
        assert ("_tabled" in getattr(key, "__dict__", {})) is tabled

    @pytest.mark.parametrize("name", KEYS)
    def test_an_empty_stream_builds_no_table(self, name):
        key = self.KEYS[name][0]()
        assert list(rsa.transform_stream(iter(()), rsa.transform, key)) == []
        assert "_tabled" not in getattr(key, "__dict__", {})

    def test_the_given_transform_runs_once_per_message(self):
        # the CLI passes rsa.decrypt or rsa.sign, so a wrapper around them sees every message
        seen = []

        def recording(msg, key):
            seen.append(msg)
            return decrypt(msg, key)

        messages = self._messages(221, 20)
        list(rsa.transform_stream(messages, recording, keygen(13, 17, 29).private_key))
        assert seen == messages

    def test_the_switch_comes_after_a_quarter_of_the_break_even_values(self):
        assert keygen(46337, 46327, 29).private_key._values_before_tables() == 25 + (46337 + 46327) // 72 == 1312
        assert keygen(13, 17, 29).private_key._values_before_tables() == 25

    def test_a_stream_of_the_switch_values_keeps_pow_and_one_more_message_builds(self, monkeypatch):
        key = keygen(46337, 46327, 29).private_key  # keygen's own pow(e, -1, phi) comes before the patch
        calls = self._recording_pow(monkeypatch)
        messages = self._messages(key.n, 131)  # 3 + 1310 values: 1313, so drop one of the first message's
        messages[0] = NumberMessage([0, 1], key.n)
        stream = rsa.transform_stream(iter(messages + self._messages(key.n, 1, seed=1)[2:]), decrypt, key)
        got = [next(stream) for _ in messages]
        assert sum(len(msg.values) for msg in messages) == 1312
        assert "_tabled" not in vars(key)
        assert len(calls) == 1 + 2 * 1312  # q**-1 mod p, then a pow mod p and mod q per value
        got += list(stream)
        assert "_tabled" in vars(key)
        assert len(calls) == 1 + 2 * 1312
        fresh = keygen(46337, 46327, 29).private_key
        assert got[:len(messages)] == [decrypt(msg, fresh) for msg in messages]

    def test_pow_stops_at_the_switch_and_the_key_keeps_its_tables(self, monkeypatch):
        key = keygen(46337, 46327, 29).private_key
        calls = self._recording_pow(monkeypatch)
        messages = self._messages(key.n, 340)  # 200 ten-value lines past the switch
        got = list(rsa.transform_stream(messages, decrypt, key))
        assert len(calls) == 1 + 2 * 1313  # the switch comes before the line after the first 1312 values
        monkeypatch.undo()
        fresh = keygen(46337, 46327, 29).private_key
        assert got == [decrypt(msg, fresh) for msg in messages]
        # the key keeps its tables, and still gives the same powers outside a stream
        assert vars(key)["_powers"] is vars(key)["_tabled"]
        assert [decrypt(msg, key) for msg in messages] == got
        assert sign(messages[5], key) == sign(messages[5], fresh)


class TestOneKeyCheck:
    """rsa._check_key checks every key field once: n, then each other field's type, then the exponent's floor."""

    def test_keygen_type_checks_each_field_once(self, monkeypatch):
        checked = []
        check_int = modmath._check_int
        monkeypatch.setattr(modmath, "_check_int", lambda name, value: (checked.append(name), check_int(name, value)))
        keygen(13, 17, 29)
        fields = ("p", "q", "phi", "e", "f")
        assert {name: checked.count(name) for name in fields} == {name: 1 for name in fields}

    def test_only_check_key_and_message_validation_check_the_modulus(self):
        tree = ast.parse(Path(rsa.__file__).read_text(encoding="utf-8"))
        scopes = [(None, node) for node in tree.body]
        scopes += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        callers = {
            (owner, node.name) for owner, node in scopes if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and _callee(call) == "check_modulus" for call in ast.walk(node))
        }
        assert callers == {(None, "_check_key"), ("NumberMessage", "__post_init__")}

    @pytest.mark.parametrize("cls", [PublicKey, PrivateKey])
    def test_each_key_hook_is_one_check_key_call(self, cls, monkeypatch):
        kinds = []
        monkeypatch.setattr(rsa, "_check_key", lambda key, kind: kinds.append((type(key), kind)))
        cls(221, 53)
        assert kinds == [(cls, "public" if cls is PublicKey else "private")]

    def test_a_key_pair_checks_no_key_itself(self, monkeypatch):
        kinds = []
        check_key = rsa._check_key
        monkeypatch.setattr(rsa, "_check_key", lambda key, kind: (kinds.append(kind), check_key(key, kind)))
        keygen(13, 17, 29)
        assert kinds == ["private"]  # its private key's, and no public key is built

    @pytest.mark.parametrize("build, error, message", [
        (lambda: PublicKey(2**31, 1.5), InvalidModulusError, None),
        (lambda: PublicKey(221, 1.5), TypeError, "e must be an int, got 1.5"),
        (lambda: PublicKey(221, 1), ValueError, "public exponent must be > 1, got 1"),
        (lambda: PrivateKey(221, 1, 13.0), TypeError, "p must be an int, got 13.0"),
        (lambda: PrivateKey(221, 1, 13, 17), ValueError, "private exponent must be > 1, got 1"),
        (lambda: RsaKeyPair(13, 17, 221, 192, 2.0, 53), TypeError, "e must be an int, got 2.0"),
    ], ids=["public-modulus", "public-e-type", "public-e-floor", "private-type-before-floor", "private-f-floor",
            "pair-e-type"])
    def test_first_fault_is_reported(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        if message is not None:
            assert str(exc.value) == message


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)
