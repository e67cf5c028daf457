import errno
import io
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import modrsa
from cli_cases import GOLDEN_CASES, GOLDEN_DIR, fill_argv, run_cli, write_standard_keys
from modrsa import cli
from modrsa.keyfile import read_key_file
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
