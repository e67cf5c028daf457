import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrsa import cli, modmath, oracle, rsa
from modrsa.errors import DomainError, NotAUnitError
from modrsa.keyfile import write_key_file
from modrsa.modmath import Modulus, Residue, ResidueClass, reduce
from modrsa.rsa import PublicKey

SQUARE_FREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 33]


# --- reduction --------------------------------------------------------------

@given(st.integers(-(10**6), 10**6), st.integers(2, 100))
def test_reduction_soundness(x, n):
    r = reduce(x, n)
    assert 0 <= r.value < n
    assert (x - r.value) % n == 0


def test_reduction_soundness_exhaustive_small():
    for n in range(2, 31):
        for x in range(-500, 501):
            r = reduce(x, n)
            assert 0 <= r.value < n
            assert (x - r.value) % n == 0


@given(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9), st.integers(2, 1000))
def test_representative_independence(x, y, n):
    rx, ry = reduce(x, n), reduce(y, n)
    assert modmath.add(rx, ry) == reduce(x + y, n)
    assert modmath.sub(rx, ry) == reduce(x - y, n)
    assert modmath.mul(rx, ry) == reduce(x * y, n)


# --- ring laws --------------------------------------------------------------

def test_ring_laws_desk_scale():
    # distributivity, commutativity, associativity on every triple mod 2..25
    for n in range(2, 26):
        m = Modulus(n)
        rs = [Residue(v, m) for v in range(n)]
        for a in rs:
            for b in rs:
                ab_sum = modmath.add(a, b)
                ab_prod = modmath.mul(a, b)
                assert ab_sum == modmath.add(b, a)
                assert ab_prod == modmath.mul(b, a)
                for c in rs:
                    assert modmath.mul(ab_sum, c) == modmath.add(modmath.mul(a, c), modmath.mul(b, c))
                    assert modmath.add(ab_sum, c) == modmath.add(a, modmath.add(b, c))
                    assert modmath.mul(ab_prod, c) == modmath.mul(a, modmath.mul(b, c))


# --- gcd and Bezout ---------------------------------------------------------

@given(st.integers(1, 50_000), st.integers(1, 50_000))
def test_bezout_certificate(x, y):
    cert, trace = modmath.extended_gcd(x, y)
    assert cert.a * x + cert.b * y == cert.g
    assert cert.g == math.gcd(x, y)
    assert x % cert.g == 0 and y % cert.g == 0
    # every trace row keeps the same linear identity for the traced inputs
    for row in trace.rows:
        assert row.a * trace.x + row.b * trace.y == row.n
    ns = [r.n for r in trace.rows]
    assert ns[-1] == 0
    assert all(ns[i] > ns[i + 1] for i in range(1, len(ns) - 1))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_gcd_matches_stdlib(x, y):
    if x == 0 and y == 0:
        return
    assert modmath.gcd(x, y) == math.gcd(x, y)


# --- units, classification, inverses ----------------------------------------

def test_classification_trichotomy():
    for n in range(2, 101):
        m = Modulus(n)
        counts = {ResidueClass.ZERO: 0, ResidueClass.UNIT: 0, ResidueClass.ZERO_DIVISOR: 0}
        for x in range(n):
            cls = modmath.classify(Residue(x, m))
            counts[cls] += 1
            assert (cls is ResidueClass.UNIT) == (math.gcd(x, n) == 1)
        assert counts[ResidueClass.ZERO] == 1
        assert sum(counts.values()) == n


def test_inverse_total_on_units_and_only_units():
    for n in range(2, 101):
        m = Modulus(n)
        for x in range(n):
            r = Residue(x, m)
            if math.gcd(x, n) == 1 and x != 0:
                assert modmath.mul(r, modmath.inverse(r)).value == 1
            else:
                with pytest.raises(NotAUnitError) as exc:
                    modmath.inverse(r)
                assert exc.value.gcd == (math.gcd(x, n) if x else n)


def test_zero_divisors_have_witnesses():
    for n in range(2, 101):
        m = Modulus(n)
        expected = oracle.zero_divisors(n)
        classified = {x for x in range(n) if modmath.classify(Residue(x, m)) is ResidueClass.ZERO_DIVISOR}
        assert classified == expected
        for x in classified:
            witness = next(y for y in range(1, n) if x * y % n == 0)
            assert x * witness % n == 0 and witness != 0
            # the shared factor d > 1 yields the witness n/d directly
            d = math.gcd(x, n)
            assert d > 1
            assert x * (n // d) % n == 0


# --- powers -----------------------------------------------------------------

@given(st.integers(2, 50).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))), st.integers(0, 40))
def test_pow_matches_naive(xn, e):
    n, x = xn
    r = Residue(x, Modulus(n))
    assert modmath.pow_mod(r, e) == oracle.naive_pow(r, e)


@given(st.integers(2, 2**31 - 1).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))), st.integers(0, 10_000))
@settings(max_examples=200)
def test_pow_matches_builtin(xn, e):
    n, x = xn
    assert modmath.pow_mod(Residue(x, Modulus(n)), e).value == pow(x, e, n)


def test_power_of_zero_exponent_is_always_one():
    for n in (2, 9, 221):
        m = Modulus(n)
        for x in range(n):
            assert modmath.pow_mod(Residue(x, m), 0).value == 1


def test_curious_fact_on_square_free_moduli():
    for n in SQUARE_FREE:
        phi = oracle.phi_brute(n)
        m = Modulus(n)
        for x in range(n):
            r = Residue(x, m)
            for k in range(4):
                assert modmath.pow_mod(r, 1 + k * phi).value == x


def test_curious_fact_fails_mod_eight():
    # 8 has a square factor; starting from 2 one never returns to 2
    m = Modulus(8)
    two = Residue(2, m)
    for p in range(2, 65):
        assert modmath.pow_mod(two, p).value != 2


# --- CRT --------------------------------------------------------------------

@pytest.mark.parametrize("p, q", [(3, 5), (2, 11), (13, 17)])
def test_crt_bijection_and_unit_rectangle(p, q):
    n = p * q
    m = Modulus(n)
    seen = set()
    for x in range(n):
        r = Residue(x, m)
        rp, rq = modmath.crt_decompose(r, p, q)
        assert rp.modulus.n == p and rq.modulus.n == q
        seen.add((rp.value, rq.value))
        is_unit = modmath.classify(r) is ResidueClass.UNIT
        assert is_unit == (rp.value != 0 and rq.value != 0)
    assert len(seen) == n
    assert seen == {(i, j) for i in range(p) for j in range(q)}


# --- critical exponents -------------------------------------------------------

@given(st.sampled_from(SQUARE_FREE), st.integers(1, 50), st.integers(1, 20))
def test_critical_exponent_progression(n, phi, count):
    exps = modmath.critical_exponents(n, phi, count)
    assert len(exps) == count
    assert exps[0] == 1
    assert all(b - a == phi for a, b in zip(exps, exps[1:]))


# --- rsa --------------------------------------------------------------------

TEXT = st.text(alphabet=rsa.ALPHABET, max_size=60)


@given(TEXT)
def test_codec_round_trip(text):
    assert rsa.decode_text(rsa.encode_text(text, 221)) == text


@given(TEXT)
def test_encrypt_decrypt_round_trip_text(text):
    pair = rsa.keygen(13, 17, 29)
    msg = rsa.encode_text(text, pair.n)
    assert rsa.decrypt(rsa.encrypt(msg, pair.public_key), pair.private_key) == msg


@given(st.lists(st.integers(0, 220), max_size=30))
def test_sign_verify_round_trip_numbers(values):
    pair = rsa.keygen(13, 17, 29)
    msg = rsa.NumberMessage(tuple(values), pair.n)
    assert rsa.verify(rsa.sign(msg, pair.private_key), pair.public_key) == msg


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@given(st.sampled_from(_SMALL_PRIMES), st.sampled_from(_SMALL_PRIMES), st.integers(2, 500))
def test_keygen_produces_inverse_exponents(p, q, e):
    if p == q:
        return
    phi = (p - 1) * (q - 1)
    if not 1 < e < phi or math.gcd(e, phi) != 1:
        return
    pair = rsa.keygen(p, q, e)
    assert pair.e * pair.f % pair.phi == 1
    assert 1 < pair.f < pair.phi
    assert pair.phi == oracle.phi_brute(pair.n)


# --- CRT decryption ---------------------------------------------------------

# p = 2 and q = 2 both occur, and products up to the 2**31 - 1 cap; not 3,
# since 2 * 3 leaves no exponent with 1 < e < phi = 2
_CRT_PRIMES = [2, 5, 7, 11, 13, 46327, 46337]


@st.composite
def _crt_key_and_values(draw):
    """A keygen pair and values including 0, n - 1 and multiples of p and of q."""
    p, q = draw(st.lists(st.sampled_from(_CRT_PRIMES), min_size=2, max_size=2, unique=True))
    phi = (p - 1) * (q - 1)
    e = draw(st.integers(2, phi - 1).filter(lambda e: math.gcd(e, phi) == 1))
    n = p * q
    value = st.one_of(
        st.integers(0, n - 1),
        st.integers(0, q - 1).map(lambda k: k * p),
        st.integers(0, p - 1).map(lambda k: k * q),
        st.sampled_from([0, n - 1]),
    )
    return rsa.keygen(p, q, e), draw(st.lists(value, max_size=20))


@given(_crt_key_and_values())
def test_crt_decrypt_and_sign_equal_the_full_power(pair_values):
    pair, values = pair_values
    msg = rsa.NumberMessage(tuple(values), pair.n)
    expected = tuple(pow(v, pair.f, pair.n) for v in values)
    assert rsa.decrypt(msg, pair.private_key).values == expected
    assert rsa.sign(msg, pair.private_key).values == expected


# --- table decoding of text streams -------------------------------------------

# n = 2**31 - 1 is prime, so e = (n - 1)/2 maps a residue to its Legendre
# symbol: every nonzero square to 1 ('A'), every non-square to n - 1
_LEGENDRE_N = 2**31 - 1


@st.composite
def _decode_cases(draw):
    """(transform, key, lines): a keygen pair under verify or decrypt, or a
    non-injective public key, with a stream whose first line holds distinct
    values that decode to letters (up to 60 under n = 2**31 - 1, more than
    the table keeps) and whose later lines mostly repeat them."""
    kind = draw(st.sampled_from(["verify", "decrypt", "legendre", "squares-221"]))
    if kind in ("verify", "decrypt"):
        pair, _ = draw(_crt_key_and_values())
        n = pair.n
        if kind == "verify":
            transform, key, preimage = rsa.verify, pair.public_key, pair.f
        else:
            transform, key, preimage = rsa.decrypt, pair.private_key, pair.e
        good = [pow(code, preimage, n) for code in range(1, 28)]
    elif kind == "legendre":
        n = _LEGENDRE_N
        transform, key = rsa.verify, PublicKey(n, (n - 1) // 2)
        good = [x * x % n for x in draw(st.lists(st.integers(1, n - 1), min_size=28, max_size=60))]
    else:
        n = 221
        transform, key = rsa.verify, PublicKey(n, 2)
        good = [v for v in range(n) if 1 <= v * v % n <= 27]
    head = draw(st.permutations(good))[: draw(st.integers(0, len(good)))]
    value = st.one_of(*[st.sampled_from(good)] * 7, st.integers(0, n - 1))
    lines = draw(st.lists(st.lists(value, max_size=12), max_size=8))
    return transform, key, [head] + lines


def _lines_and_error(lines):
    """The lines a decoder yields before it raises, and (type, str, witnesses) of the error."""
    out = []
    try:
        for line in lines:
            out.append(line)
    except DomainError as err:
        return out, (type(err), str(err), {name: getattr(err, name) for name in err.fields})
    return out, None


def _check_decode_stream(transform, key, lines):
    def messages():
        return (rsa.NumberMessage(values, key.n) for values in lines)

    expected = _lines_and_error(rsa.decode_text(transform(msg, key)) for msg in messages())
    assert _lines_and_error(rsa.decode_stream(messages(), transform, key)) == expected


@given(_decode_cases())
@settings(max_examples=200)
def test_decode_stream_matches_decode_text(case):
    _check_decode_stream(*case)


_PAIR_221 = rsa.keygen(13, 17, 29)
_LETTER_221 = [pow(code, _PAIR_221.f, 221) for code in range(1, 28)]  # signatures of A..Z, space
_BAD_221 = pow(100, _PAIR_221.f, 221)  # verifies to 100, outside the alphabet


@pytest.mark.parametrize(
    "transform, key, lines",
    [
        # the bad value repeats within its line: the first position is reported
        (rsa.verify, _PAIR_221.public_key, [_LETTER_221[:5], [_LETTER_221[0], _BAD_221, 3, _BAD_221]]),
        # the bad value follows values already in the table, on a later line
        (rsa.verify, _PAIR_221.public_key, [_LETTER_221, _LETTER_221[::-1], _LETTER_221[3:6] + [_BAD_221]]),
        # 0 powers to 0 under CRT decryption with p = 2
        (rsa.decrypt, rsa.keygen(2, 17, 3).private_key, [[1, 2, 3], [2, 0, 0, 1]]),
        # a full table: the non-square 3 is bad after 40 squares decoded to 'A'
        (rsa.verify, PublicKey(_LEGENDRE_N, (_LEGENDRE_N - 1) // 2),
         [[x * x for x in range(1, 41)], [4, 9, 3, 3], [1]]),
        # squares mod 221 whose power is a letter code, then one that is not
        (rsa.verify, PublicKey(221, 2), [[1, 2, 3, 4, 5], [5, 4, 6, 0]]),
    ],
    ids=["repeated-bad", "bad-after-table", "crt-p2-zero", "legendre-overflow", "squares-221"],
)
def test_decode_stream_error_paths(transform, key, lines):
    _check_decode_stream(transform, key, lines)


# --- token decoding of stdin text streams -------------------------------------

_VECTOR_SYNTAX = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
_JUNK = ["", " ", "x", "1_0", "+5", "5 ", " 5", "1 5", "٣", "9" * 4301, "1" + "0" * 4300, "0" * 4300 + "7"]


def _per_line(transform, key, stdin_text):
    """(exit code, stdout, stderr) of `--text` on stdin, each line parsed,
    range-checked and decoded on its own, with no table of any kind."""
    out = []
    for lineno, line in enumerate(io.StringIO(stdin_text), start=1):
        text = line.strip()
        try:
            if text and not _VECTOR_SYNTAX.fullmatch(text):
                raise ValueError
            values = tuple(map(int, text.split(","))) if text else ()
        except ValueError:  # bad syntax, or past int()'s digit limit
            return 2, "".join(out), f"error: standard input line {lineno}: invalid number vector: {text!r}\n"
        try:
            out.append(rsa.decode_text(transform(rsa.NumberMessage(values, key.n), key)) + "\n")
        except DomainError as err:
            return 2, "".join(out), f"error: {err}\n"
    return 0, "".join(out), ""


@st.composite
def _stdin_keys(draw):
    """(command, key, good, bad): verify under a keygen pair or a non-injective
    public key, or CRT decrypt; good values decode to letters, bad ones do not."""
    kind = draw(st.sampled_from(["verify", "decrypt", "legendre", "squares-221"]))
    if kind in ("verify", "decrypt"):
        p, q = draw(st.lists(st.sampled_from(_CRT_PRIMES), min_size=2, max_size=2, unique=True))
        phi = (p - 1) * (q - 1)
        pair = rsa.keygen(p, q, next(e for e in range(draw(st.integers(2, phi - 1)), phi) if math.gcd(e, phi) == 1))
        key, preimage = (pair.public_key, pair.f) if kind == "verify" else (pair.private_key, pair.e)
        good = [pow(code, preimage, pair.n) for code in range(1, 28)]
        bad = [pow(code, preimage, pair.n) for code in (0, 28, 100, pair.n - 1)]
        return kind, key, good, bad
    if kind == "legendre":
        n = _LEGENDRE_N
        squares = draw(st.lists(st.integers(1, n - 1), min_size=28, max_size=60))
        return "verify", PublicKey(n, (n - 1) // 2), [x * x % n for x in squares], [0, 3, n - 3]
    good = [v for v in range(221) if 1 <= v * v % 221 <= 27]
    return "verify", PublicKey(221, 2), good, [0, 6, 100]


_LINE_FRAMES = [("", ",", "\n")] * 6 + [("", ",", "\r\n"), (" ", ",", "\n"), ("", ", ", "\n")]


@st.composite
def _stdin_text(draw, n, good, bad):
    """Stdin for --text. Most lines hold only good values, spelled canonically
    or zero-padded, so more than 27 distinct tokens decode; a mixed line also
    holds bad values, values out of range, -0, junk or too many digits. A
    line may have blanks around it or after its commas, and end in LF or CRLF."""
    spellings = [pad + str(v) for pad in ("", "", "", "0", "00") for v in good]
    others = [*map(str, bad), str(n), str(n + 1), str(2 * n), "-1", "-0", "00", f"-{good[0]}", *_JUNK,
              f"{'0' * 4300}{good[0]}"]  # a letter value past int()'s digit limit
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        pool = spellings + others if draw(st.integers(0, 3)) == 0 else spellings
        tokens = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))]
        pad, sep, end = draw(st.sampled_from(_LINE_FRAMES))
        lines.append(pad + sep.join(tokens) + pad + end)
    return "".join(lines)


@pytest.fixture(scope="module")
def key_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stream-keys")


@given(st.data())
@settings(max_examples=100)
def test_stdin_text_stream_matches_the_per_line_path(key_dir, data):
    command, key, good, bad = data.draw(_stdin_keys())
    stdin_text = data.draw(_stdin_text(key.n, good, bad))
    path = key_dir / "key.txt"
    write_key_file(path, key)
    transform = rsa.verify if command == "verify" else rsa.decrypt
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([command, "--key", str(path), "--text"], stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    assert (code, out.getvalue(), err.getvalue()) == _per_line(transform, key, stdin_text)


# --- the Bezout certificate ---------------------------------------------------

@given(st.integers(1, modmath.MAX_MODULUS), st.integers(1, modmath.MAX_MODULUS))
def test_bezout_certificate_is_the_last_row_of_the_table(x, y):
    cert, trace = modmath.extended_gcd(x, y)
    last = trace.rows[-2]  # the row before the terminal zero
    assert (cert.g, cert.a, cert.b) == ((last.n, last.a, last.b) if x >= y else (last.n, last.b, last.a))
