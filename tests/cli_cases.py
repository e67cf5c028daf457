"""Shared CLI helpers: an in-process runner, standard key files, the
golden-file manifest exercised by both the CLI tests and the acceptance
suite, and the case-mapped characters the codec tests refuse. Golden
files live in tests/golden/, one per case, holding the exact expected
stdout."""

import io
from pathlib import Path

from modrsa.cli import run
from modrsa.keyfile import write_key_file
from modrsa.rsa import keygen

GOLDEN_DIR = Path(__file__).parent / "golden"

# Every code point outside ASCII whose upper(), lower() or casefold()
# contains an ASCII letter, found by a scan of all of Unicode (too slow to
# repeat here). Escapes, not literals: an editor may fold U+212A (the
# Kelvin sign) to K.
CASE_MAPPED_TO_ASCII = [
    "\u00df", "\u0130", "\u0131", "\u0149", "\u017f", "\u01f0",
    "\u1e96", "\u1e97", "\u1e98", "\u1e99", "\u1e9a", "\u1e9e", "\u212a",
    "\ufb00", "\ufb01", "\ufb02", "\ufb03", "\ufb04", "\ufb05", "\ufb06",
]

# (golden file name, argv); {pub221} and friends are key file placeholders
GOLDEN_CASES = [
    ("reduce", ["reduce", "2040", "209"]),
    ("reduce-negative", ["reduce", "-7", "5"]),
    ("add", ["add", "2", "4", "5"]),
    ("sub", ["sub", "2", "4", "5"]),
    ("mul", ["mul", "2", "3", "5"]),
    ("div", ["div", "3", "2", "5"]),
    ("gcd", ["gcd", "1113", "504"]),
    ("gcd-extended-1113-504", ["gcd", "--extended", "1113", "504"]),
    ("gcd-extended-1466-237", ["gcd", "--extended", "1466", "237"]),
    ("inverse", ["inverse", "2", "5"]),
    ("inverse-check", ["inverse", "--check", "237", "1466"]),
    ("table-5", ["table", "5"]),
    ("table-6", ["table", "6"]),
    ("table-10", ["table", "10"]),
    ("phi", ["phi", "10"]),
    ("phi-check", ["phi", "--check", "22"]),
    ("phi-semiprime", ["phi", "--semiprime", "13", "17"]),
    ("powmod", ["powmod", "48", "29", "221"]),
    ("powmod-check", ["powmod", "--check", "29", "48", "221"]),
    ("powmod-zero-power", ["powmod", "0", "0", "5"]),
    ("critical", ["critical", "22", "4"]),
    ("classify-unit", ["classify", "5", "6"]),
    ("classify-zero-divisor", ["classify", "6", "8"]),
    ("classify-zero", ["classify", "0", "9"]),
    ("crt-13", ["crt", "13", "3", "5"]),
    ("crt-12", ["crt", "12", "3", "5"]),
    ("keygen", ["keygen", "--p", "13", "--q", "17", "--e", "29"]),
    ("suggest-primes", ["suggest-primes", "10", "30"]),
    ("encrypt-text", ["encrypt", "--key", "{pub221}", "HELLO"]),
    ("encrypt-numbers", ["encrypt", "--key", "{pub221}", "--numbers", "8,5,5,12,16"]),
    ("decrypt-numbers", ["decrypt", "--key", "{priv221}", "60,122,122,116,152"]),
    ("decrypt-text", ["decrypt", "--key", "{priv221}", "--text", "60,122,116,116,19"]),
    ("encrypt-small", ["encrypt", "--key", "{pub22}", "--numbers", "2,3,8"]),
    ("decrypt-small", ["decrypt", "--key", "{priv22}", "18,9,2"]),
    ("sign", ["sign", "--key", "{priv22}", "--numbers", "2,3,8"]),
    ("verify", ["verify", "--key", "{pub22}", "8,5,6"]),
]


def write_standard_keys(directory) -> dict:
    """Write the two demonstration key pairs; returns placeholder -> path."""
    pair221 = keygen(13, 17, 29)
    pair22 = keygen(2, 11, 7)
    paths = {
        "pub221": Path(directory) / "pub221.txt",
        "priv221": Path(directory) / "priv221.txt",
        "pub22": Path(directory) / "pub22.txt",
        "priv22": Path(directory) / "priv22.txt",
    }
    write_key_file(paths["pub221"], pair221.public_key)
    write_key_file(paths["priv221"], pair221.private_key)
    write_key_file(paths["pub22"], pair22.public_key)
    write_key_file(paths["priv22"], pair22.private_key)
    return {name: str(path) for name, path in paths.items()}


def fill_argv(argv, keys):
    return [arg.format(**keys) if "{" in arg else arg for arg in argv]


def run_cli(argv, stdin_text=""):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()
