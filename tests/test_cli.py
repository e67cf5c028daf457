import argparse
import ast
import errno
import gc
import io
import itertools
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import modrsa
from cli_cases import CASE_MAPPED_TO_ASCII, GOLDEN_CASES, GOLDEN_DIR, fill_argv, run_cli, write_standard_keys
from modrsa import cli, modmath
from modrsa.errors import DomainError
from modrsa.keyfile import MAX_KEY_FILE, read_key_file, write_key_file
from modrsa.modmath import Residue
from modrsa.rsa import (
    ALPHABET,
    NumberMessage,
    PrivateKey,
    PublicKey,
    decode_text,
    decrypt,
    encode_text,
    keygen,
    primes_in_range,
    sign,
    verify,
)


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    return write_standard_keys(tmp_path_factory.mktemp("keys"))


@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_golden(name, argv, keys):
    expected = (GOLDEN_DIR / f"{name}.out").read_text(encoding="ascii")
    code, out, err = run_cli(fill_argv(argv, keys))
    assert code == 0, err
    assert out == expected
    assert err == ""


class TestExitCodes:
    def test_success_is_zero(self):
        code, out, _ = run_cli(["powmod", "48", "29", "221"])
        assert code == 0 and out == "107\n"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate", "1"],
            ["reduce", "abc", "5"],
            ["reduce", "5"],
            ["gcd", "-4", "6"],
            ["powmod", "2", "-1", "5"],
            ["phi", "--semiprime", "13"],
            ["phi", "--check", "--semiprime", "13", "17"],
            ["phi", "10", "20"],
            ["keygen", "--p", "13", "--q", "17"],
            ["decrypt", "--key"],
            ["decrypt", "60,x", "--key", "somefile"],
        ],
    )
    def test_usage_errors_are_one(self, argv):
        code, _, err = run_cli(argv)
        assert code == 1, err
        assert err.startswith("error:")
        assert "usage" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["inverse", "4", "6"],
            ["reduce", "5", "1"],
            ["reduce", "5", str(2**31)],
            ["gcd", "0", "0"],
            ["div", "1", "4", "6"],
            ["critical", "8", "5"],
            ["keygen", "--p", "13", "--q", "13", "--e", "29"],
            ["keygen", "--p", "4", "--q", "11", "--e", "3"],
            ["keygen", "--p", "13", "--q", "17", "--e", "3"],
            ["crt", "3", "4", "4"],
            ["crt", "5", "1", "7"],
        ],
    )
    def test_domain_errors_are_two(self, argv):
        code, _, err = run_cli(argv)
        assert code == 2, err
        assert err.startswith("error:")

    def test_usage_error_shows_subcommand_help(self):
        code, _, err = run_cli(["reduce", "5"])
        assert code == 1
        assert "usage: modrsa reduce" in err

    def test_crt_factor_below_two_message(self):
        # x = 0 reduces mod p*q = 5, so only crt_decompose's own guard can name p
        assert run_cli(["crt", "0", "1", "5"]) == (2, "", "error: p and q must both be >= 2\n")

    def test_not_a_unit_message(self):
        code, out, err = run_cli(["inverse", "4", "6"])
        assert code == 2
        assert out == ""
        assert err == "error: 4 is not a unit mod 6 (gcd = 2)\n"

    def test_missing_key_file_is_domain_error(self, tmp_path):
        code, _, err = run_cli(["encrypt", "--key", str(tmp_path / "nope.txt"), "HI"])
        assert code == 2

    def test_malformed_key_file_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("kind = public\nn=221\ne = 29\n")
        code, _, err = run_cli(["encrypt", "--key", str(bad), "HI"])
        assert code == 2
        assert "line 2" in err

    def test_wrong_key_kind_is_domain_error(self, keys):
        code, _, err = run_cli(["encrypt", "--key", keys["priv221"], "HI"])
        assert code == 2
        assert "expected a public key" in err

    def test_public_key_for_a_private_command_is_domain_error(self, keys):
        assert run_cli(["decrypt", "--key", keys["pub221"], "1,2"]) == (
            2, "", f"error: {keys['pub221']}: expected a private key\n"
        )

    def test_text_with_small_modulus_is_domain_error(self, keys):
        code, _, err = run_cli(["encrypt", "--key", keys["pub22"], "HI"])
        assert code == 2
        assert "too small" in err

    def test_message_value_out_of_range_is_domain_error(self, keys):
        code, _, err = run_cli(["decrypt", "--key", keys["priv22"], "22,1"])
        assert code == 2

    def test_decode_outside_alphabet_is_domain_error(self, keys):
        # 0 decrypts to 0, which has no letter
        code, _, err = run_cli(["decrypt", "--key", keys["priv221"], "--text", "0"])
        assert code == 2
        assert "alphabet" in err

    def test_both_text_and_numbers_is_usage_error(self, keys):
        code, _, err = run_cli(["encrypt", "--key", keys["pub221"], "--numbers", "1,2", "HI"])
        assert code == 1

    @pytest.mark.parametrize("command", ["encrypt", "sign"])
    def test_both_text_and_numbers_is_checked_before_the_key_is_read(self, command, tmp_path, capsys):
        assert run_cli([command, "--help"])[0] == 0
        help_text = capsys.readouterr().out
        argv = [command, "--key", str(tmp_path / "missing.txt"), "--numbers", "1,2", "HELLO"]
        assert run_cli(argv) == (1, "", f"error: give either TEXT or --numbers, not both\n{help_text}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["phi", "--check", "--semiprime", "3", "5"], "--check and --semiprime cannot be combined"),
            (["phi", "3", "5"], "phi takes exactly one argument: n"),
            (["encrypt", "--key", "{pub221}", "--numbers", "1,2", "HI"], "give either TEXT or --numbers, not both"),
        ],
    )
    def test_handler_usage_error_text(self, argv, message, keys, capsys):
        assert run_cli([argv[0], "--help"])[0] == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith(f"usage: modrsa {argv[0]} ")
        assert run_cli(fill_argv(argv, keys)) == (1, "", f"error: {message}\n{help_text}")

    def test_inconsistent_private_key_file_is_domain_error(self, tmp_path):
        bad = tmp_path / "priv.txt"
        bad.write_text("kind = private\nn = 221\nf = 53\np = 11\nq = 17\nphi = 5\n")
        code, out, err = run_cli(["decrypt", "--key", str(bad), "1,2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: invalid key values (")

    @pytest.mark.parametrize(
        "content",
        [
            "kind = private\nn = 210\nf = 13\np = 6\nq = 35\nphi = 170\n",
            "kind = private\nn = 289\nf = 3\np = 17\nq = 17\n",
        ],
    )
    def test_private_key_factors_must_be_distinct_primes(self, tmp_path, content):
        bad = tmp_path / "priv.txt"
        bad.write_text(content)
        code, out, err = run_cli(["decrypt", "--key", str(bad), "1,2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: invalid key values (")

    def test_private_key_exponent_must_be_a_unit_mod_the_implied_phi(self, tmp_path):
        bad = tmp_path / "priv.txt"
        bad.write_text("kind = private\nn = 221\nf = 2\np = 13\nq = 17\n")
        code, out, err = run_cli(["decrypt", "--key", str(bad), "4,9"])
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: invalid key values (private exponent 2 is not a unit mod phi = 192)\n"

    def test_key_modulus_above_cap_is_domain_error(self, tmp_path):
        big = tmp_path / "pub.txt"
        big.write_text("kind = public\nn = 2147483648\ne = 3\n")
        code, out, err = run_cli(["encrypt", "--key", str(big), "--numbers", "1,2"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {big}: invalid key values (invalid modulus 2147483648")

    @pytest.mark.parametrize("number", ["1_0", "\u0663", "+5", " 5"])
    def test_numbers_are_ascii_decimals(self, number):
        code, out, err = run_cli(["reduce", number, "7"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument x: invalid int value: {number!r}\n")

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"])[0] == 0
        assert run_cli(["gcd", "--help"])[0] == 0
        capsys.readouterr()

    def test_smallest_table(self):
        code, out, _ = run_cli(["table", "2"])
        assert code == 0
        assert out == "x 1\n1 1\n"

    def test_swapped_extended_gcd_keeps_caller_order(self):
        code, out, _ = run_cli(["gcd", "--extended", "504", "1113"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gcd = 21"
        assert lines[1] == "a = -11"
        assert lines[2] == "b = 5"
        assert -11 * 504 + 5 * 1113 == 21


class TestCaseMappedText:
    """encrypt refuses every character outside A-Z, a-z and space, the case-mapped ones too."""

    def test_ligature_st_is_refused(self, keys):
        assert run_cli(["encrypt", "--key", keys["pub221"], "\ufb06OP"]) == (
            2, "", "error: unsupported character '\ufb06' at position 0: only A-Z and space can be encoded\n"
        )

    @pytest.mark.parametrize("ch", CASE_MAPPED_TO_ASCII, ids=[f"U+{ord(c):04X}" for c in CASE_MAPPED_TO_ASCII])
    def test_refused_at_their_position(self, ch, keys):
        code, out, err = run_cli(["encrypt", "--key", keys["pub221"], "A" + ch + "B"])
        assert (code, out) == (2, "")
        assert err == f"error: unsupported character {ch!r} at position 1: only A-Z and space can be encoded\n"


class TestStdinVectors:
    def test_encrypt_reads_lines(self, keys):
        code, out, err = run_cli(["encrypt", "--key", keys["pub22"]], stdin_text="2,3,8\n7\n")
        assert code == 0, err
        assert out == "18,9,2\n17\n"

    def test_decrypt_reads_lines(self, keys):
        code, out, _ = run_cli(["decrypt", "--key", keys["priv22"]], stdin_text="18,9,2\n")
        assert code == 0
        assert out == "2,3,8\n"

    def test_empty_line_is_empty_message(self, keys):
        code, out, _ = run_cli(["encrypt", "--key", keys["pub22"]], stdin_text="\n")
        assert code == 0
        assert out == "\n"

    def test_junk_line_is_domain_error(self, keys):
        code, _, err = run_cli(["encrypt", "--key", keys["pub22"]], stdin_text="2,x\n")
        assert code == 2
        assert "line 1" in err

    def test_lines_before_a_junk_line_are_answered(self, keys):
        code, out, err = run_cli(["encrypt", "--key", keys["pub22"]], stdin_text="2,3,8\n2,x\n")
        assert code == 2
        assert out == "18,9,2\n"
        assert "line 2" in err

    def test_number_syntax_is_ascii_decimals(self, keys):
        code, out, err = run_cli(["encrypt", "--key", keys["pub221"]], stdin_text="1\n7,1_0\n")
        assert (code, out) == (2, "1\n")
        assert err == "error: standard input line 2: invalid number vector: '7,1_0'\n"

    def test_blanks_around_a_line_are_stripped(self, keys):
        assert run_cli(["encrypt", "--key", keys["pub22"]], stdin_text=" 2,3 \n") == (0, "18,9\n", "")

    def test_junk_line_message(self, keys):
        code, _, err = run_cli(["encrypt", "--key", keys["pub22"]], stdin_text="1\n2,x\n")
        assert code == 2
        assert err == "error: standard input line 2: invalid number vector: '2,x'\n"


class TestTextStreams:
    def test_lines_before_a_line_outside_the_alphabet_are_answered(self, keys):
        # signatures of HELLO and WORLD; line 3 repeats line 1's 60,31 before 172, which verifies to 100
        stdin_text = "60,31,207,207,19\n160,19,18,207,140\n60,31,172,207\n1,41,141,31,18\n"
        assert run_cli(["verify", "--key", keys["pub221"], "--text"], stdin_text=stdin_text) == (
            2,
            "HELLO\nWORLD\n",
            "error: value 100 at position 2 is outside the letter alphabet 1..27\n",
        )

    def test_each_distinct_value_is_verified_once(self, keys, monkeypatch):
        pair = keygen(13, 17, 29)
        rng = random.Random(27)
        texts = ["".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 41))) for _ in range(1500)]
        signed = "".join(
            ",".join(str(v) for v in sign(encode_text(text, pair.n), pair.private_key)) + "\n" for text in texts
        )
        powered = []

        def counting_verify(msg, key):
            powered.extend(msg.values)
            return verify(msg, key)

        monkeypatch.setattr(modrsa.rsa, "verify", counting_verify)
        code, out, err = run_cli(["verify", "--key", keys["pub221"], "--text"], stdin_text=signed)
        assert (code, err) == (0, "")
        assert out == "".join(text + "\n" for text in texts)
        assert len(powered) <= len(ALPHABET)


class TestTable:
    def test_rows_stream(self):
        # the 300 x 300 table as Residue objects alone would take ~9 MiB
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["table", "300"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and out.count("\n") == 300
        assert peak < 2 * 2**20


class TestPipelines:
    def test_encrypt_decrypt_round_trip_random_strings(self, keys):
        rng = random.Random(96485)
        for _ in range(100):
            text = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 40)))
            code, cipher, err = run_cli(["encrypt", "--key", keys["pub221"], text])
            assert code == 0, err
            code, plain, err = run_cli(
                ["decrypt", "--key", keys["priv221"], "--text"], stdin_text=cipher
            )
            assert code == 0, err
            assert plain == text + "\n"

    def test_sign_verify_round_trip(self, keys):
        code, signed, _ = run_cli(["sign", "--key", keys["priv221"], "SIGNED BY ME"])
        assert code == 0
        code, out, _ = run_cli(["verify", "--key", keys["pub221"], "--text"], stdin_text=signed)
        assert code == 0
        assert out == "SIGNED BY ME\n"


class TestExerciseAnswersViaCli:
    """Every worked-exercise answer is reachable through the CLI itself."""

    def out(self, *argv, stdin_text=""):
        code, out, err = run_cli(list(argv), stdin_text=stdin_text)
        assert code == 0, err
        return out

    def test_congruence_truth_values(self):
        values = [
            self.out("reduce", "-7", "7"),
            self.out("reduce", "-7", "5"),
            self.out("reduce", "27", "13"),
            self.out("reduce", "-20", "10"),
        ]
        assert values == ["0\n", "3\n", "1\n", "0\n"]
        # so the four statements evaluate T, T, F, T

    def test_reciprocals_and_divisions_mod_5(self):
        assert self.out("inverse", "3", "5") == "2\n"
        assert self.out("inverse", "4", "5") == "4\n"
        assert [self.out("div", a, b, "5") for a, b in [("4", "3"), ("3", "4"), ("3", "3"), ("1", "3")]] == [
            "3\n",
            "2\n",
            "1\n",
            "2\n",
        ]

    def test_gcd_answers(self):
        assert [self.out("gcd", x, y) for x, y in [("6", "8"), ("6", "18"), ("7", "15"), ("30", "20")]] == [
            "2\n",
            "6\n",
            "1\n",
            "10\n",
        ]

    def test_units_and_zero_divisors_mod_10(self):
        classes = {x: self.out("classify", str(x), "10").strip() for x in range(1, 10)}
        assert {x for x, c in classes.items() if c == "unit"} == {1, 3, 7, 9}
        assert {x for x, c in classes.items() if c == "zero-divisor"} == {2, 4, 5, 6, 8}

    def test_division_exercise_mod_1466(self):
        assert self.out("div", "59", "237", "1466") == "625\n"
        assert self.out("mul", "625", "237", "1466") == "59\n"

    def test_critical_exponents_and_powers_mod_22(self):
        assert self.out("critical", "22", "6") == "1,11,21,31,41,51\n"
        assert self.out("powmod", "7", "11", "22") == "7\n"
        assert self.out("powmod", "3", "21", "22") == "3\n"
        assert self.out("powmod", "3", "32", "22") == "9\n"

    def test_zero_divisor_count_mod_22(self):
        divisors = [x for x in range(1, 22) if self.out("classify", str(x), "22").strip() == "zero-divisor"]
        assert len(divisors) == 11

    def test_power_permutation_tables_mod_22(self):
        x3 = [int(self.out("powmod", str(x), "3", "22")) for x in range(1, 22)]
        x7 = [int(self.out("powmod", str(x), "7", "22")) for x in range(1, 22)]
        assert x3 == [1, 8, 5, 20, 15, 18, 13, 6, 3, 10, 11, 12, 19, 16, 9, 4, 7, 2, 17, 14, 21]
        assert x7 == [1, 18, 9, 16, 3, 8, 17, 2, 15, 10, 11, 12, 7, 20, 5, 14, 19, 6, 13, 4, 21]

    def test_large_power_answers(self):
        assert self.out("powmod", "48", "29", "221") == "107\n"
        assert self.out("powmod", "29", "48", "221") == "1\n"


class TestKeygenFiles:
    def test_writes_key_files_that_round_trip(self, tmp_path):
        pub = tmp_path / "pub.txt"
        priv = tmp_path / "priv.txt"
        code, out, err = run_cli(
            ["keygen", "--p", "13", "--q", "17", "--e", "29", "--pub", str(pub), "--priv", str(priv)]
        )
        assert code == 0, err
        assert read_key_file(pub) == PublicKey(221, 29)
        assert read_key_file(priv) == PrivateKey(221, 53, 13, 17, 192)

    def test_generated_files_drive_the_pipeline(self, tmp_path):
        pub = tmp_path / "pub.txt"
        priv = tmp_path / "priv.txt"
        run_cli(["keygen", "--p", "13", "--q", "17", "--e", "29", "--pub", str(pub), "--priv", str(priv)])
        _, cipher, _ = run_cli(["encrypt", "--key", str(pub), "KEY FILES WORK"])
        _, plain, _ = run_cli(["decrypt", "--key", str(priv), "--text", cipher.strip()])
        assert plain == "KEY FILES WORK\n"


def run_cli_process(argv, timeout=30):
    """Run `python -m modrsa` as a child; returns (exit code, stdout, stderr)."""
    src = str(Path(modrsa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "modrsa", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestBoundedWork:
    """Inputs that used to hang or crash end with exit 2, in bounded time."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", "--p", "1000000000000000003", "--q", "3", "--e", "5"],
            ["phi", "--semiprime", "1000000000000000003", "1000000000000000009"],
        ],
    )
    def test_oversized_modulus_rejected_before_primality(self, argv):
        code, out, err = run_cli_process(argv)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: invalid modulus")

    def test_suggest_primes_above_cap_rejected(self):
        code, out, err = run_cli_process(["suggest-primes", "1000000000000000003", "1000000000000000003"])
        assert (code, out) == (2, "")
        assert err.startswith("error: primes are searched up to 2**31 - 1")

    def test_unwritable_key_file_is_domain_error(self, tmp_path):
        pub = tmp_path / "missing" / "pub.txt"
        code, out, err = run_cli_process(["keygen", "--p", "13", "--q", "17", "--e", "29", "--pub", str(pub)])
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith(f"error: {pub}:")


class TestStdinTokenTable:
    """`--text` stdin is decoded by wire token: each distinct token is parsed, checked and decoded once."""

    def test_table_stays_bounded(self):
        n = 2**31 - 1
        rng = random.Random(2718)
        pair = keygen(13, 17, 29)
        spelled = [f"{'0' * k}{pow(code, pair.e, pair.n)}" for code in range(1, 28) for k in range(3)]
        squares = [[str((40 * i + j) ** 2 % n) for j in range(1, 41)] for i in range(50)]
        cases = [
            # every nonzero square powers to 1 ('A'): 2000 distinct tokens that decode
            (verify, PublicKey(n, (n - 1) // 2), squares),
            # several square roots of each letter code mod 221
            (verify, PublicKey(221, 2), [[str(v) for v in range(221) if 1 <= v * v % 221 <= 27]] * 3),
            # 81 spellings (7, 07, 007, ...) of the 27 ciphertexts, under CRT decryption
            (decrypt, pair.private_key, [rng.sample(spelled, 20) for _ in range(40)]),
        ]
        for transform, key, lines in cases:
            stdin = io.StringIO("".join(",".join(tokens) + "\n" for tokens in lines))
            stream = cli._decode_stdin(stdin, transform, key)
            for tokens in lines:
                message = NumberMessage(tuple(map(int, tokens)), key.n)
                assert next(stream) == decode_text(transform(message, key))
                assert len(stream.gi_frame.f_locals["table"]) <= len(ALPHABET)
            assert next(stream, None) is None

    @pytest.mark.parametrize(
        "spelling",
        ["0" * 4300 + "{}", "{}, {}", "-{}", "{},", "+{}", " {} ,{}"],
        ids=["past-digit-limit", "inner-blank", "negative", "trailing-comma", "plus-sign", "blank-before-comma"],
    )
    def test_a_known_token_spelled_wrong_takes_the_full_path(self, keys, spelling):
        # 60 verifies to 'H' and is in the table after line 1; line 2 spells it wrong
        line = spelling.format(60, 60)
        code, out, err = run_cli(["verify", "--key", keys["pub221"], "--text"], stdin_text=f"60,60\n{line}\n")
        assert (code, out) == (2, "HH\n")
        if spelling == "-{}":
            assert err == "error: message value -60 is not a residue mod 221\n"
        else:
            assert err == f"error: standard input line 2: invalid number vector: {line.strip()!r}\n"

    def test_few_lines_are_parsed(self, keys, monkeypatch):
        pair = keygen(13, 17, 29)
        rng = random.Random(1500)
        texts = ["".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 41))) for _ in range(1500)]
        signed = "".join(
            ",".join(str(v) for v in sign(encode_text(text, pair.n), pair.private_key)) + "\n" for text in texts
        )
        built = []
        post_init = NumberMessage.__post_init__

        def counting_post_init(msg):
            built.append(msg)
            post_init(msg)

        monkeypatch.setattr(NumberMessage, "__post_init__", counting_post_init)
        code, out, err = run_cli(["verify", "--key", keys["pub221"], "--text"], stdin_text=signed)
        assert (code, out, err) == (0, "".join(text + "\n" for text in texts), "")
        # a parsed line builds at most three messages (the line, its values new to
        # decode_stream, their powers); a line joined from the table builds none
        assert len(built) <= 3 * len(ALPHABET)
        lines = {tuple(map(int, line.split(","))) for line in signed.splitlines()}
        assert sum(msg.values in lines for msg in built) <= len(ALPHABET)


class TestOneValidationPerLine:
    """A stdin message is validated once, as its line is parsed; the messages transform derives are not."""

    @pytest.fixture
    def hooks(self, monkeypatch):
        built = []
        post_init = NumberMessage.__post_init__

        def counting_post_init(msg):
            built.append(msg)
            post_init(msg)

        monkeypatch.setattr(NumberMessage, "__post_init__", counting_post_init)
        return built

    def test_a_decrypt_stream_runs_one_hook_per_line(self, keys, hooks):
        rng = random.Random(1500)
        lines = [[rng.randrange(221) for _ in range(10)] for _ in range(1500)]
        stdin = "".join(",".join(map(str, values)) + "\n" for values in lines)
        code, out, err = run_cli(["decrypt", "--key", keys["priv221"]], stdin_text=stdin)
        assert (code, err) == (0, "")
        assert out == "".join(",".join(str(pow(v, 53, 221)) for v in values) + "\n" for values in lines)
        assert [msg.values for msg in hooks] == [tuple(values) for values in lines]  # not transform's results

    def test_a_verify_text_stream_runs_one_hook_per_parsed_line(self, keys, hooks, monkeypatch):
        pair = keygen(13, 17, 29)
        rng = random.Random(24)
        texts = ["".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 41))) for _ in range(300)]
        signed = "".join(",".join(map(str, sign(encode_text(t, pair.n), pair.private_key))) + "\n" for t in texts)
        hooks.clear()  # encode_text and sign above are not the stream's
        parsed = []
        stdin_vector = cli._stdin_vector

        def parsing(lineno, line):
            parsed.append(stdin_vector(lineno, line))
            return parsed[-1]

        monkeypatch.setattr(cli, "_stdin_vector", parsing)
        code, out, err = run_cli(["verify", "--key", keys["pub221"], "--text"], stdin_text=signed)
        assert (code, out, err) == (0, "".join(text + "\n" for text in texts), "")
        assert 0 < len(parsed) < len(texts)
        assert [msg.values for msg in hooks] == parsed


class _ClosedAfterFirstLine(io.StringIO):
    """A stdout whose reader goes away once the first line is written."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def _buffered_child_env():
    """The environment for a `python -m modrsa` child whose stdout is block-buffered, as in a shell pipeline."""
    src = str(Path(modrsa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _read_first_line_then_close(argv, stdin_path=os.devnull, timeout=60):
    """Run `python -m modrsa` as a child, read one line of its stdout and close the pipe.

    Returns (first line, exit code, stderr).
    """
    with open(stdin_path) as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "modrsa", *argv],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_child_env(), text=True,
        )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=timeout)
    finally:
        proc.kill()
        proc.wait()
    return first, proc.returncode, err


class TestClosedStdout:
    """A reader that stops early ends the command with exit 2, with nothing on stderr."""

    def test_in_process_writer(self):
        out, err = _ClosedAfterFirstLine(), io.StringIO()
        assert cli.run(["table", "10"], stdout=out, stderr=err) == 2
        assert out.getvalue() == "x 1 2 3 4 5 6 7 8 9\n"
        assert err.getvalue() == ""

    def test_table_into_a_closed_pipe(self):
        first, code, err = _read_first_line_then_close(["table", "400"])
        assert first.split()[:3] == ["x", "1", "2"]
        assert (code, err) == (2, "")

    def test_output_still_buffered_at_exit(self):
        # the pipe has no reader from the start, so the small answer fails only at the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "modrsa", "reduce", "5", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=_buffered_child_env(), text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, "")

    def test_text_stream_into_a_closed_pipe(self, keys, tmp_path):
        # 3000 lines of 100 letters: far more output than a pipe holds
        pair = keygen(13, 17, 29)
        cipher = [str(pow(code, pair.e, pair.n)) for code in range(1, 28)]
        rng = random.Random(32)
        stdin = tmp_path / "cipher.txt"
        stdin.write_text("".join(",".join(rng.choices(cipher, k=100)) + "\n" for _ in range(3000)))
        first, code, err = _read_first_line_then_close(["decrypt", "--key", keys["priv221"], "--text"], stdin)
        assert len(first) == 101
        assert (code, err) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
class TestFullStdout:
    """A stdout that fails for another reason than a closed pipe ends with exit 2 and one error line."""

    @pytest.mark.parametrize("argv", [["reduce", "5", "3"], ["table", "300"]], ids=["reduce", "table"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device(self, argv, unbuffered):
        env = _buffered_child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "modrsa", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        # the whole of stderr, so no traceback and no "Exception ignored" either
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write standard output ({os.strerror(errno.ENOSPC)})\n")


class TestOracleMismatch:
    """A --check whose oracle disagrees prints the answer and the mismatch, then exits 2."""

    @pytest.mark.parametrize(
        "argv, name, wrong, answer, said",
        [
            (["powmod", "--check", "48", "29", "221"], "naive_pow", lambda x, e: Residue(0, x.modulus), "107", "0"),
            (["inverse", "--check", "237", "1466"], "inverse_brute", lambda x: Residue(1, x.modulus), "433", "1"),
            (["inverse", "--check", "237", "1466"], "inverse_brute", lambda x: None, "433", "None"),
            (["phi", "--check", "22"], "phi_brute", lambda n: 11, "10", "11"),
        ],
        ids=["powmod", "inverse", "inverse-none", "phi"],
    )
    def test_mismatch(self, argv, name, wrong, answer, said, monkeypatch):
        from modrsa import oracle

        monkeypatch.setattr(oracle, name, wrong)
        assert run_cli(argv) == (
            2,
            f"{answer}\ncheck: mismatch (oracle says {said})\n",
            f"error: oracle disagreement: expected {said}\n",
        )


class TestKeyFileExponents:
    """Key files without factors decrypt by the plain power; exponents of 1 are refused."""

    def test_private_key_of_n_and_f_alone(self, tmp_path):
        priv = tmp_path / "priv.txt"
        priv.write_text("kind = private\nn = 221\nf = 53\n")
        assert run_cli(["decrypt", "--key", str(priv), "--text", "60,122,116,116,19"]) == (0, "HELLO\n", "")
        stdin = "60,122,116,116,19\n19,116,116,122,60\n\n60\n"
        assert run_cli(["decrypt", "--key", str(priv), "--text"], stdin) == (0, "HELLO\nOLLEH\n\nH\n", "")

    @pytest.mark.parametrize(
        "argv, content, what",
        [
            (["encrypt", "--numbers", "1,2"], "kind = public\nn = 221\ne = 1\n", "public"),
            (["decrypt", "1,2"], "kind = private\nn = 221\nf = 1\n", "private"),
        ],
        ids=["public", "private"],
    )
    def test_exponent_one_is_refused(self, tmp_path, argv, content, what):
        path = tmp_path / "key.txt"
        path.write_text(content)
        assert run_cli([*argv, "--key", str(path)]) == (
            2, "", f"error: {path}: invalid key values ({what} exponent must be > 1, got 1)\n"
        )


class TestExitWithoutCollection:
    """main() freezes the heap just before the process exits; run() leaves it to its caller."""

    def test_main_freezes_the_heap(self):
        # the atexit hook runs after main() has raised SystemExit, before finalization
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['modrsa', 'reduce', '5', '3']\n"
            "runpy.run_module('modrsa', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_buffered_child_env(), timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "2\n"), proc.stderr
        assert int(proc.stderr) > 0

    def test_run_leaves_the_heap_unfrozen(self):
        assert gc.get_freeze_count() == 0
        assert cli.run(["reduce", "5", "3"], stdout=io.StringIO()) == 0
        assert gc.get_freeze_count() == 0


class _RecordingWriter(io.StringIO):
    """A stdout that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def _signed_lines(texts):
    """Lines of the texts signed under the 221 key, as `verify --key pub221 --text` reads them."""
    pair = keygen(13, 17, 29)
    return "".join(",".join(map(str, sign(encode_text(text, pair.n), pair.private_key))) + "\n" for text in texts)


class TestOneWritePerLine:
    """Streamed lines go out in one write each, so an unbuffered stdout makes one system call per line."""

    def test_text_stream(self, keys):
        texts = ["HELLO", "WORLD", "A B"]
        out = _RecordingWriter()
        code = cli.run(["verify", "--key", keys["pub221"], "--text"], stdin=io.StringIO(_signed_lines(texts)), stdout=out)
        assert code == 0
        assert out.calls == [text + "\n" for text in texts]

    def test_table(self):
        out = _RecordingWriter()
        assert cli.run(["table", "5"], stdout=out) == 0
        assert out.calls == (GOLDEN_DIR / "table-5.out").read_text().splitlines(keepends=True)

    def test_unbuffered_and_buffered_children_agree(self, keys, tmp_path):
        rng = random.Random(1500)
        texts = ["".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 41))) for _ in range(1500)]
        stdin = tmp_path / "signed.txt"
        stdin.write_text(_signed_lines(texts))
        outputs = []
        for unbuffered in (True, False):
            env = _buffered_child_env()
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            with open(stdin) as lines:
                proc = subprocess.run(
                    [sys.executable, "-m", "modrsa", "verify", "--key", keys["pub221"], "--text"],
                    stdin=lines, capture_output=True, env=env, timeout=60,
                )
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == "".join(text + "\n" for text in texts).encode()

    @pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
    def test_golden_commands(self, name, argv, keys):
        out = _RecordingWriter()
        assert cli.run(fill_argv(argv, keys), stdin=io.StringIO(), stdout=out) == 0
        assert out.calls == (GOLDEN_DIR / f"{name}.out").read_text(encoding="ascii").splitlines(keepends=True)


class _UnreadableAfterFirstLine:
    """A stdin that gives one line, then fails as a device read does."""

    def __init__(self, line):
        self.line = line

    def __iter__(self):
        yield self.line
        raise OSError(errno.EIO, os.strerror(errno.EIO))


class TestUnreadableStdin:
    """A failed stdin read exits 2 with a stdin error, after the lines read before it are answered."""

    @pytest.mark.parametrize("argv, line, answer", [
        (["encrypt", "--key", "{pub221}"], "8,5,5,12,16\n", (GOLDEN_DIR / "encrypt-numbers.out").read_text()),
        (["verify", "--key", "{pub221}", "--text"], _signed_lines(["HELLO"]), "HELLO\n"),
    ], ids=["encrypt", "verify-text"])
    def test_read_error(self, argv, line, answer, keys):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(fill_argv(argv, keys), stdin=_UnreadableAfterFirstLine(line), stdout=out, stderr=err)
        assert (code, out.getvalue()) == (2, answer)
        assert err.getvalue() == f"error: cannot read standard input ({os.strerror(errno.EIO)})\n"


def _cli_top_level():
    """(name, node) for each top-level statement of cli.py; a function or class by its name."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return [(getattr(node, "name", "<module>"), node) for node in tree.body]


class TestOneOutputPath:
    """run() alone writes stdout; the command handlers return their lines."""

    def test_only_run_and_the_exit_paths_write(self):
        writers = {
            name for name, top in _cli_top_level() for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == "print"
            or isinstance(node, ast.Attribute) and node.attr == "write"
        }
        assert "run" in writers and writers <= {"run", "_output_failed", "main"}

    def test_handlers_take_no_stream_to_write(self):
        handlers = {
            name: [arg.arg for arg in node.args.args]
            for name, node in _cli_top_level() if name.startswith("_cmd_")
        }
        assert len(handlers) == 13
        assert {name: ["args", "stdin"] for name in handlers} == handlers


def _capped(mib):
    """A script that runs `python -m modrsa` with its address space capped at mib MiB."""
    return f"""
import resource, runpy, sys
limit = {mib} * 2**20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
runpy.run_module("modrsa", run_name="__main__", alter_sys=True)
"""


def _child_env():
    src = str(Path(modrsa.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_capped(mib, argv, **kwargs):
    pytest.importorskip("resource")
    return subprocess.run([sys.executable, "-c", _capped(mib), *argv], text=True, env=_child_env(), **kwargs)


_CAPPED = _capped(256)


class TestCheckBound:
    """--check refuses oracle work above cli.CHECK_STEPS before it prints anything."""

    @pytest.mark.parametrize("argv", [
        ["powmod", "--check", "3", "100000000000", "7"],
        ["inverse", "--check", "3", "2147483647"],
        ["phi", "--check", "2147483647"],
    ], ids=["powmod", "inverse", "phi"])
    def test_oracle_work_above_the_bound_is_a_usage_error(self, argv):
        pytest.importorskip("resource")
        src = str(Path(modrsa.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED, *argv], capture_output=True, text=True, env=env, timeout=10
        )
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith(f"error: --check runs at most {cli.CHECK_STEPS} oracle steps")
        assert cli.CHECK_STEPS == 10**7


class TestLineBound:
    """table, critical and suggest-primes refuse a line longer than cli.MAX_LINE before any output."""

    @pytest.mark.parametrize("argv", [
        ["critical", "6", "1000000000"],
        ["critical", "6", "9" * 4300],
        ["critical", "8", "1000000000"],
        ["critical", "2", "599187"],
        ["table", "2147483647"],
        ["table", "599187"],
        ["suggest-primes", "0", "2147483647"],
        ["suggest-primes", "2146721047", "2147483647"],
    ], ids=["critical", "critical-4300-digits", "critical-not-square-free", "critical-just-over",
            "table", "table-just-over", "suggest-primes", "suggest-primes-just-over"])
    def test_a_longer_line_is_a_usage_error(self, argv):
        # each used to end in a MemoryError traceback, or to write nothing for seconds
        proc = _run_capped(256, argv, capture_output=True, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith(f"error: an output line holds at most MAX_LINE = {cli.MAX_LINE} characters")
        assert "Traceback" not in proc.stderr
        assert cli.MAX_LINE == 2**22

    @pytest.mark.parametrize("argv, message", [
        (["table", "2147483648"], "error: invalid modulus 2147483648"),
        (["critical", "1", "1000000000"], "error: invalid modulus 1"),
        (["suggest-primes", "0", "2147483648"], "error: primes are searched up to 2**31 - 1"),
    ], ids=["table", "critical", "suggest-primes"])
    def test_domain_errors_before_the_bound_keep_their_place(self, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "") and err.startswith(message)

    def test_the_longest_critical_line_fits(self):
        proc = _run_capped(256, ["critical", "2", "599186"], capture_output=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ",".join(map(str, range(1, 599187))) + "\n"

    def test_the_longest_suggest_primes_line_fits(self):
        lo, hi = 2146721048, modmath.MAX_MODULUS
        proc = _run_capped(256, ["suggest-primes", str(lo), str(hi)], capture_output=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ",".join(map(str, primes_in_range(lo, hi))) + "\n"

    def test_the_widest_suggest_primes_window_fits_in_48_mib(self):
        # the one-pass sieve holds a byte per number of the window, beside the list of primes and its line
        lo, hi = 2146721048, modmath.MAX_MODULUS
        proc = _run_capped(48, ["suggest-primes", str(lo), str(hi)], capture_output=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ",".join(map(str, primes_in_range(lo, hi))) + "\n"

    def test_the_longest_table_lines_fit(self):
        # table 599186: the header and each row are 599186 cells of six characters and a space
        pytest.importorskip("resource")
        proc = subprocess.Popen([sys.executable, "-c", _CAPPED, "table", "599186"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env())
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            header, row = proc.stdout.readline(), proc.stdout.readline()
        finally:
            watchdog.cancel()
            proc.kill()
        _, err = proc.communicate()
        assert err == ""
        assert len(header) == len(row) == 599186 * 7
        assert (header[:6], row[:6], row[6:]) == ("     x", "     1", header[6:])


def _list_mode_layout(x, y):
    """gcd --extended as it was laid out from the whole table: each column as wide as its widest cell."""
    cert, trace = modmath.extended_gcd(x, y)
    rows = [("n", "q", "a", "b")]
    for row in trace.rows:
        q = "" if row.quotient is None else str(row.quotient)
        rows.append(("0", "", "", "") if row.n == 0 else (str(row.n), q, str(row.a), str(row.b)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    table = [" ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "".join(f"{line}\n" for line in [f"gcd = {cert.g}", f"a = {cert.a}", f"b = {cert.b}", *table])


def test_the_longest_table_lines_fit_in_96_mib():
    # these two lines need about 80 MiB; a header list, or a row of mul_row's Residues, needs 128
    pytest.importorskip("resource")
    proc = subprocess.Popen([sys.executable, "-c", _capped(96), "table", "599186"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env())
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        header, row = proc.stdout.readline(), proc.stdout.readline()
    finally:
        watchdog.cancel()
        proc.kill()
    _, err = proc.communicate()
    assert err == ""
    assert len(header) == len(row) == 599186 * 7
    assert (header[:6], row[:6], row[6:]) == ("     x", "     1", header[6:])


def test_the_widest_suggest_primes_window_is_answered_in_256_mib():
    # 2**20 = modmath.MAX_RESULT numbers below 10**7, the widest window MAX_LINE lets through;
    # pi(9999999) - pi(8951423) = 664579 - 599451 primes
    lo, hi = 8951424, 9999999
    proc = _run_capped(256, ["suggest-primes", str(lo), str(hi)], capture_output=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ",".join(map(str, primes_in_range(lo, hi))) + "\n"
    primes = proc.stdout.split(",")
    assert (len(primes), primes[0], primes[-1]) == (65128, "8951441", "9999991\n")


class TestStreamedEuclidTable:
    """gcd --extended passes over the Euclid table twice and holds one row at a time."""

    @pytest.mark.parametrize("x, y", [
        (1000, 999), (999, 1000), (1466, 237), (237, 1466), (1113, 504), (7, 7), (1, 1), (89, 55), (10**12, 3),
    ])
    def test_layout_matches_the_whole_table(self, x, y):
        # in (1000, 999) and (1466, 237) a later quotient or coefficient is wider than every earlier one
        assert run_cli(["gcd", "--extended", str(x), str(y)]) == (0, _list_mode_layout(x, y), "")

    def test_random_pairs(self):
        rng = random.Random(1466)
        for _ in range(200):
            x, y = rng.randrange(1, 10**rng.randrange(1, 30)), rng.randrange(1, 10**6)
            assert run_cli(["gcd", "--extended", str(x), str(y)]) == (0, _list_mode_layout(x, y), ""), (x, y)

    def test_long_table_in_bounded_memory(self):
        # Fibonacci neighbours of 1500 digits: 7179 output lines, 32 MB
        a, b = 1, 1
        while b < 10**1499:
            a, b = b, a + b
        proc = _run_capped(
            48, ["gcd", "--extended", str(b), str(a)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, "")


def _consecutive_fibonacci(digits):
    """The Fibonacci numbers of digits - 1 and digits decimal digits, in that order."""
    a, b = 0, 1
    while b < 10 ** (digits - 1):
        a, b = b, a + b
    return a, b


class TestDigitLimitWitness:
    """A modulus p*q past the interpreter's digit limit for str() is still a typed InvalidModulusError."""

    P, Q = (str(f) for f in _consecutive_fibonacci(4290))
    MESSAGE = "error: invalid modulus <an integer of 8579 digits>: need an integer with 2 <= n <= 2**31 - 1\n"

    @pytest.mark.parametrize("argv", [
        ["crt", "5", P, Q],
        ["phi", "--semiprime", P, Q],
        ["keygen", "--p", P, "--q", Q, "--e", "3"],
    ], ids=["crt", "phi-semiprime", "keygen"])
    def test_huge_product_is_an_invalid_modulus(self, argv):
        assert run_cli(argv) == (2, "", self.MESSAGE)


class TestBoundLineAtMaxLine:
    """_bound_line(args, cells, widest) allows a line of exactly MAX_LINE characters and refuses one more."""

    ARGS = argparse.Namespace(parser=cli._Parser(prog=cli.PROG))

    @pytest.mark.parametrize("cells, widest", [(2**20, 999), (2**21, 9)])
    def test_a_line_of_max_line_characters_passes(self, cells, widest):
        # 2**20 cells of three digits and a separator, and 2**21 of one digit and a separator: 2**22 each
        cli._bound_line(self.ARGS, cells, widest)

    @pytest.mark.parametrize("cells, widest", [(2**20, 1000), (2**21 + 1, 9)])
    def test_one_character_more_is_refused(self, cells, widest):
        with pytest.raises(cli._UsageError) as info:
            cli._bound_line(self.ARGS, cells, widest)
        assert str(info.value).startswith(f"an output line holds at most MAX_LINE = {cli.MAX_LINE} characters")


def test_a_max_line_stdin_vector_is_answered_in_256_mib(keys):
    # a 4 MiB line of one-digit values; the backtracking vector pattern needed about 95 bytes per character
    line = ",".join(["1"] * 2**21) + "\n"  # 1**29 mod 221 is 1, so the answer is the line itself
    assert len(line) == cli.MAX_LINE
    proc = _run_capped(256, ["encrypt", "--key", keys["pub221"]], input=line, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == line


class TestStdinLineBound:
    """Each stdin line is one bounded read; a line past MAX_LINE characters is refused with its number."""

    REFUSED = f"error: standard input line 2: a line holds at most MAX_LINE = {cli.MAX_LINE} characters\n"

    def test_max_line_characters_pass_and_one_more_is_refused(self):
        longest = "1" * cli.MAX_LINE
        lines = cli._stdin_lines(io.StringIO(f"{longest}\n{longest}\n{longest}1\n2\n"))
        assert [len(line) for _, line in itertools.islice(lines, 2)] == [cli.MAX_LINE + 1] * 2
        with pytest.raises(DomainError) as info:
            next(lines)
        assert str(info.value) == f"standard input line 3: a line holds at most MAX_LINE = {cli.MAX_LINE} characters"

    def test_a_last_line_without_newline_may_hold_max_line_characters(self):
        assert list(cli._stdin_lines(io.StringIO("1" * cli.MAX_LINE))) == [(1, "1" * cli.MAX_LINE)]

    def test_a_text_stream_answers_the_lines_before_a_long_one(self, keys):
        long_line = ",".join(["1"] * (2**21 + 1)) + "\n"  # MAX_LINE + 1 characters before the newline
        code, out, err = run_cli(["verify", "--key", keys["pub221"], "--text"], _signed_lines(["HELLO"]) + long_line)
        assert (code, out, err) == (2, "HELLO\n", self.REFUSED)

    def test_a_6_mib_line_is_refused_in_256_mib(self, keys):
        # the line used to be parsed and its output joined, until a MemoryError traceback ended the process
        stdin = "8,5,5,12,16\n" + ",".join(["1"] * 3 * 2**20) + "\n" + "1\n"
        proc = _run_capped(256, ["encrypt", "--key", keys["pub221"]], input=stdin, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, self.REFUSED)
        assert proc.stdout == (GOLDEN_DIR / "encrypt-numbers.out").read_text()


class TestStdinPowerTables:
    """decrypt and sign on a long plain stdin stream switch to the key's tables; short ones, one-shots and --text keep pow."""

    @pytest.fixture
    def pows(self, monkeypatch):
        from modrsa import rsa

        calls = []

        def recording_pow(base, exp, mod=None):
            calls.append((exp, mod))
            return pow(base, exp, mod)

        monkeypatch.setattr(rsa, "pow", recording_pow, raising=False)
        return calls

    @pytest.mark.parametrize("command", ["decrypt", "sign"])
    def test_a_long_plain_stream_stops_calling_pow_at_the_switch(self, pows, keys, command):
        rng = random.Random(7)
        rows = [[rng.randrange(221) for _ in range(10)] for _ in range(200)]
        stdin = "".join(",".join(map(str, row)) + "\n" for row in rows)
        code, out, err = run_cli([command, "--key", keys["priv221"]], stdin)
        assert (code, err) == (0, "")
        assert out == "".join(",".join(str(pow(v, 53, 221)) for v in row) + "\n" for row in rows)
        # q**-1 mod p once, then pow for the 30 values of the lines that reach priv221's switch at 25
        assert pows[0] == (-1, 13)
        assert sorted(mod for _, mod in pows[1:]) == [13] * 30 + [17] * 30

    @pytest.mark.parametrize("argv, stdin, values", [
        (["decrypt", "--key", "{priv221}", "60,122,116,116,19"], "", 5),
        (["sign", "--key", "{priv221}", "HELLO"], "", 5),
        (["decrypt", "--key", "{priv221}", "--text"], "60,122,116,116,19\n60,122\n", 4),
        (["decrypt", "--key", "{priv221}"], "60,122,116,116,19\n60,122,116,116,19\n1,2,3,4,5,6,7,8,9,10,11,12,13,14\n", 24),
    ], ids=["one-shot-vector", "one-shot-text", "text-stream", "short-stream"])
    def test_one_shots_short_streams_and_text_streams_keep_pow(self, pows, keys, argv, stdin, values):
        code, _, err = run_cli(fill_argv(argv, keys), stdin)
        assert (code, err) == (0, "")
        assert sorted(mod for exp, mod in pows if exp != -1) == [13] * values + [17] * values

    def test_a_one_shot_text_vector_powers_each_distinct_value_once(self, pows, keys):
        code, out, err = run_cli(["decrypt", "--key", keys["priv221"], "60,122,116,116,19", "--text"])
        assert (code, out, err) == (0, "HELLO\n", "")
        # through decode_stream, as --text streams go: 116 appears twice and is powered once
        assert sorted(mod for exp, mod in pows if exp != -1) == [13] * 4 + [17] * 4

    def test_a_one_shot_vector_past_the_switch_builds_no_table(self, pows, keys, monkeypatch):
        tables = []
        monkeypatch.setattr(modmath, "power_table", lambda p, d: tables.append(p))
        values = list(range(1, 41))  # priv221 switches at 25, but only before a stream's next message
        code, out, err = run_cli(["decrypt", "--key", keys["priv221"], ",".join(map(str, values))])
        assert (code, out, err) == (0, ",".join(str(pow(v, 53, 221)) for v in values) + "\n", "")
        assert sorted(mod for exp, mod in pows if exp != -1) == [13] * 40 + [17] * 40
        assert tables == []

    def test_the_transform_sees_every_line(self, monkeypatch, keys):
        # the stream goes through rsa.decrypt, so a wrapper on it (a tracing span) sees each message
        from modrsa import rsa

        seen = []
        decrypt_ = rsa.decrypt
        monkeypatch.setattr(rsa, "decrypt", lambda msg, key: seen.append(msg.values) or decrypt_(msg, key))
        code, _, err = run_cli(["decrypt", "--key", keys["priv221"]], "1,2\n3\n\n4,5,6\n")
        assert (code, err) == (0, "")
        assert seen == [(1, 2), (3,), (), (4, 5, 6)]


class TestOnePowerPath:
    """Every message of encrypt, decrypt, sign and verify reaches the key through a stream function of rsa."""

    STREAMS = {"rsa.transform_stream", "rsa.decode_stream", "_decode_stdin"}

    def test_cmd_power_ends_in_a_stream_function(self):
        (power,) = [node for name, node in _cli_top_level() if name == "_cmd_power"]
        called = {ast.unparse(node.func) for node in ast.walk(power) if isinstance(node, ast.Call)}
        assert self.STREAMS <= called
        returns = [node for node in ast.walk(power) if isinstance(node, ast.Return)]
        assert len(returns) == 3
        for ret in returns:
            assert {ast.unparse(node.func) for node in ast.walk(ret) if isinstance(node, ast.Call)} & self.STREAMS

    def test_cli_never_calls_a_transform_or_decode_text_itself(self):
        called = {
            ast.unparse(node.func).rpartition(".")[2]
            for _, top in _cli_top_level() for node in ast.walk(top) if isinstance(node, ast.Call)
        }
        assert not called & {"transform", "decode_text", "encrypt", "decrypt", "sign", "verify"}


class TestStdinOutputLineBound:
    """A powered line of more than MAX_LINE characters is refused with its stdin line, after the lines before it."""

    def test_max_line_characters_pass_and_one_more_is_refused(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LINE", 19)
        # under n = 1000 a line of five values is at most 19 characters; ten values of 1 are 19 exactly
        messages = [(999,) * 5, (1,) * 10, (1,) * 9 + (10,), (1,)]
        lines = cli._csv_lines((NumberMessage(values, 1000) for values in messages), 1000, "standard input line {}")
        assert list(itertools.islice(lines, 2)) == [",".join(["999"] * 5), ",".join(["1"] * 10)]
        with pytest.raises(DomainError) as info:
            next(lines)
        assert str(info.value) == "standard input line 3: an output line holds at most MAX_LINE = 19 characters"

    def test_an_argument_message_is_bounded_too(self, monkeypatch, keys):
        monkeypatch.setattr(cli, "MAX_LINE", 10)
        assert pow(2, 29, 221) == 32
        assert run_cli(["encrypt", "--key", keys["pub221"], "--numbers", "2,2,2,2,2,2"]) == (
            2, "", "error: the argument: an output line holds at most MAX_LINE = 10 characters\n"
        )
        assert run_cli(["encrypt", "--key", keys["pub221"], "--numbers", "2,2,2,1"]) == (0, "32,32,32,1\n", "")

    def test_a_long_decrypted_line_is_refused_in_256_mib(self, tmp_path):
        # the benchmark's stream key; 2**21 values 2 are a 4 MiB line in, but about 23 MB out, since 2 powers
        # to ten digits. The first line, of 1312 values, reaches the key's switch, so the long one is powered
        # from tables: about 1.5 s in all, against 4.5 s by pow
        key, path = keygen(46337, 46327, 29).private_key, tmp_path / "priv.txt"
        write_key_file(path, key)
        first = [3] * 1312
        stdin = ",".join(map(str, first)) + "\n" + ",".join(["2"] * 2**21) + "\n" + "1\n"
        proc = _run_capped(256, ["decrypt", "--key", str(path)], input=stdin, capture_output=True, timeout=60)
        message = f"error: standard input line 2: an output line holds at most MAX_LINE = {cli.MAX_LINE} characters\n"
        assert (proc.returncode, proc.stderr) == (2, message)
        assert proc.stdout == ",".join(str(pow(v, key.f, key.n)) for v in first) + "\n"


def test_an_endless_key_file_is_refused_in_256_mib():
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    proc = _run_capped(256, ["decrypt", "--key", "/dev/zero", "1"], capture_output=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: /dev/zero: a key file holds at most MAX_KEY_FILE = {MAX_KEY_FILE} characters\n"


class TestInterrupt:
    """Ctrl-C ends a command by SIGINT, as the shell expects, with nothing on stderr."""

    def test_an_interrupted_table_ends_by_sigint_without_a_traceback(self):
        pytest.importorskip("resource")
        import signal

        proc = subprocess.Popen([sys.executable, "-c", _CAPPED, "table", "599186"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env())
        watchdog = threading.Timer(20, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.read(6)  # the child is writing its output: main() is inside run()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
            proc.kill()
        assert first == "     x"
        assert (proc.returncode, err) == (-signal.SIGINT, "")


class TestKeygenAllOrNothing:
    """keygen --pub --priv replaces both key files or neither."""

    @pytest.mark.parametrize("files", [
        ["--pub", "pub.txt", "--priv", "privdir"],
        ["--priv", "privdir", "--pub", "pub.txt"],
        ["--pub", "privdir", "--priv", "priv.txt"],
    ], ids=["priv-is-a-directory", "flags-swapped", "pub-is-a-directory"])
    def test_a_failed_write_leaves_every_key_file_as_it_was(self, files, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["keygen", "--p", "13", "--q", "17", "--e", "29", "--pub", "pub.txt", "--priv", "priv.txt"])[0] == 0
        (tmp_path / "privdir").mkdir()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        code, out, err = run_cli(["keygen", "--p", "11", "--q", "23", "--e", "3", *files])
        assert (code, out, err) == (2, "", "error: privdir: cannot write key file (Is a directory)\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before
        assert sorted(os.listdir(tmp_path)) == ["priv.txt", "privdir", "pub.txt"]
        assert os.listdir(tmp_path / "privdir") == []


class TestKeygenKeyPaths:
    """keygen refuses one file named for both keys, and an empty --pub or --priv, before it writes either."""

    KEYGEN = ["keygen", "--p", "11", "--q", "23", "--e", "3"]

    @pytest.fixture
    def key_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["keygen", "--p", "13", "--q", "17", "--e", "29", "--pub", "k.txt", "--priv", "priv.txt"])[0] == 0
        (tmp_path / "d").symlink_to(".")
        return tmp_path

    @staticmethod
    def _files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir() if not path.is_symlink()}

    @pytest.mark.parametrize("files, named", [
        (["--pub", "k.txt", "--priv", "k.txt"], ("k.txt", "k.txt")),
        (["--pub", "k.txt", "--priv", "./k.txt"], ("./k.txt", "k.txt")),
        (["--pub", "d/k.txt", "--priv", "k.txt"], ("k.txt", "d/k.txt")),
    ], ids=["same-name", "dot-slash", "through-a-symlinked-directory"])
    def test_one_file_for_both_keys_is_refused(self, files, named, key_dir):
        before = self._files(key_dir)
        assert run_cli([*self.KEYGEN, *files]) == (2, "", "error: {}: names the same file as {}\n".format(*named))
        assert self._files(key_dir) == before
        assert sorted(os.listdir(key_dir)) == ["d", "k.txt", "priv.txt"]

    @pytest.mark.parametrize("files", [
        ["--pub", "", "--priv", "new.txt"],
        ["--pub", "new.txt", "--priv", ""],
    ], ids=["empty-pub", "empty-priv"])
    def test_an_empty_path_is_an_error_and_nothing_is_written(self, files, key_dir):
        before = self._files(key_dir)
        error = "error: : cannot write key file (No such file or directory)\n"
        assert run_cli([*self.KEYGEN, *files]) == (2, "", error)
        assert self._files(key_dir) == before
        assert sorted(os.listdir(key_dir)) == ["d", "k.txt", "priv.txt"]
