"""Library results are bounded by modmath.MAX_RESULT, as CLI lines are by cli.MAX_LINE.

primes_in_range, critical_exponents and mul_table refuse a result over the
bound before they allocate it. A call that would allocate without bound
runs in a child process under a 256 MiB RLIMIT_AS and a timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import run_cli
from modrsa import modmath, rsa

_CAPPED_CALL = """
import resource, sys, time
limit = 256 * 2**20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
from modrsa import modmath, rsa
start = time.perf_counter()
try:
    result = eval(sys.argv[1])
except ValueError as exc:
    result = exc
print(time.perf_counter() - start)
print(result if isinstance(result, ValueError) else (len(result), result[-1]))
"""


def _capped_call(expr):
    """Evaluate expr in a child under a 256 MiB address space; returns (seconds in the call, what it printed)."""
    pytest.importorskip("resource")
    src = str(Path(modmath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CAPPED_CALL, expr],
                          capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    seconds, shown = proc.stdout.splitlines()
    return float(seconds), shown


class TestBoundAtToySize:
    """With MAX_RESULT patched to 16, each function takes a result of 16 and refuses 17."""

    @pytest.fixture(autouse=True)
    def _sixteen(self, monkeypatch):
        monkeypatch.setattr(modmath, "MAX_RESULT", 16)

    def test_a_window_is_counted_from_two(self):
        assert rsa.primes_in_range(-100, 17) == [2, 3, 5, 7, 11, 13, 17]
        assert rsa.primes_in_range(84, 99) == [89, 97]
        with pytest.raises(ValueError) as info:
            rsa.primes_in_range(-100, 18)
        assert str(info.value) == "a window holds at most MAX_RESULT = 16 numbers, got 17"

    def test_a_table_is_counted_in_cells(self):
        assert len(modmath.mul_table(5)) == 4
        with pytest.raises(ValueError) as info:
            modmath.mul_table(modmath.Modulus(6))
        assert str(info.value) == "a table holds at most MAX_RESULT = 16 cells, got 25"

    @pytest.mark.parametrize("phi, count", [(1, 16), (2**64, 8), (10**1000, 1)])
    def test_critical_exponents_within_the_bound(self, phi, count):
        # 16 values of one 64-bit word, 8 of two (1 + 7 * 2**64 has 67 bits), and [1] for any phi
        assert modmath.critical_exponents(6, phi, count) == [1 + k * phi for k in range(count)]

    @pytest.mark.parametrize("phi, count", [(1, 17), (2**64, 9), (2**125, 8), (10**1000, 2)])
    def test_critical_exponents_past_the_bound(self, phi, count):
        # 17 values; 9 of two words; 8 of three (1 + 7 * 2**125 has 128 bits); 2 of 52 words
        with pytest.raises(ValueError) as info:
            modmath.critical_exponents(6, phi, count)
        assert str(info.value) == "a result holds at most MAX_RESULT = 16 values, and as many 64-bit words"


class TestBound:
    def test_the_bound_is_the_widest_suggest_primes_window(self):
        assert modmath.MAX_RESULT == 2**20
        hi = 9999999
        lo = hi + 1 - modmath.MAX_RESULT
        code, out, err = run_cli(["suggest-primes", str(lo - 1), str(hi)])
        assert (code, out) == (1, "") and err.startswith("error: an output line holds at most MAX_LINE")
        with pytest.raises(ValueError, match=f"got {2**20 + 1}$"):
            rsa.primes_in_range(lo - 1, hi)

    def test_a_huge_phi_is_bounded_by_its_words(self):
        # a count of 1 is [1] for any phi, and a count of 2 holds phi's own size once more; values
        # of 520 words each (10**10000 has 33220 bits) fit 2016 to a result, so 3000 are refused
        assert modmath.critical_exponents(6, 10**10000, 1) == [1]
        assert modmath.critical_exponents(6, 10**10000, 2)[1] == 1 + 10**10000
        with pytest.raises(ValueError):
            modmath.critical_exponents(6, 10**10000, 3000)

    def test_a_count_past_the_bound_is_refused_before_the_largest_value_is_formed(self):
        # (count - 1) * phi of two million-digit ints takes about a second
        class Unmultiplied(int):
            def __rmul__(self, other):
                raise AssertionError("the largest value was formed")

        with pytest.raises(ValueError):
            modmath.critical_exponents(6, Unmultiplied(2), 2**20 + 1)

    @pytest.mark.parametrize("expr, message", [
        ("rsa.primes_in_range(0, 2**31 - 1)", "a window holds at most MAX_RESULT = 1048576 numbers, got 2147483646"),
        ("modmath.critical_exponents(6, 2, 10**9)", "a result holds at most MAX_RESULT = 1048576 values, and as many 64-bit words"),
        ("modmath.mul_table(46341)", "a table holds at most MAX_RESULT = 1048576 cells, got 2147395600"),
    ], ids=["primes_in_range", "critical_exponents", "mul_table"])
    def test_a_result_past_the_bound_is_refused_in_256_mib(self, expr, message):
        # each used to end in a MemoryError, after up to 5 s
        seconds, shown = _capped_call(expr)
        assert shown == message
        assert seconds < 1

    def test_the_largest_critical_exponents_fit_in_256_mib(self):
        # 2**20 values of one word each, the largest 1 + (2**20 - 1) * (2**31 - 2)
        _, shown = _capped_call("modmath.critical_exponents(6, 2**31 - 2, 2**20)")
        assert shown == str((2**20, 1 + (2**20 - 1) * (2**31 - 2)))
