"""The three workloads: seeded inputs, expected answers and output checks.

Every expected answer comes from reference.py, never from modrsa. A plan
holds the invocations a run cycles through; each invocation is one
`python -m modrsa ...` command line with its stdin file and the answer it
must give. Set-up invocations (keygen writing the key files) run in each
set-up, before timing, and are checked the same way.
"""

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

MAX_MODULUS = 2**31 - 1

# The stream key from the benchmark definition: n = 46337 * 46327 is just
# below 2**31, so f is 31 bits and every decrypt power is full-size.
STREAM_P, STREAM_Q, STREAM_E = 46337, 46327, 29


@dataclass(frozen=True)
class Sizes:
    stream_lines: int       # stdin lines per stream invocation
    decks: int              # one-shot decks generated; a timed run cycles through them
    window: int             # suggest-primes window width, on average
    phi_n: int              # size of n for `phi n` and `critical n 3`
    powmod_e: int           # exponent size for `powmod --check`
    keygen_p: int           # size of p for `keygen --p P --q 2`


FULL = Sizes(stream_lines=1500, decks=4, window=1000, phi_n=10**6, powmod_e=10**5, keygen_p=2**30)
TOY = Sizes(stream_lines=20, decks=1, window=40, phi_n=2000, powmod_e=300, keygen_p=2**16)


@dataclass
class Invocation:
    argv: list[str]                     # arguments after `python -m modrsa`
    values: int = 1                     # items counted into attempted / failed
    exit: int = 0                       # expected exit code
    stdout: str | None = None           # expected standard output, exact
    check: Callable[[str], bool] | None = None   # or a predicate on it
    files: dict[str, str] = field(default_factory=dict)  # files it must write
    stdin_path: str | None = None

    def clear_files(self):
        """Remove what the command must write, so a stale file cannot pass the check."""
        for path in self.files:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def stdin_text(self):
        if self.stdin_path is None:
            return ""
        with open(self.stdin_path, encoding="ascii") as fh:
            return fh.read()


@dataclass
class Plan:
    shape: str                          # one line describing the inputs
    setup: list[Invocation]             # run once before timing
    timed: list[Invocation]             # cycled through while timing
    traced: list[Invocation]            # one in-process pass of the trace run
    tokens: Callable[[str], list] | None = None  # splits an output line into values
    deck: int = 1                       # timed invocations per deck; a run does whole decks


def _prime_near(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if ref.is_prime(p):
            return p


def _prime_pair(rng, lo, hi):
    p = _prime_near(rng, lo, hi)
    q = _prime_near(rng, lo, hi)
    while q == p:
        q = _prime_near(rng, lo, hi)
    return p, q


def _unit_exponent(rng, n_phi, lo=3, hi=1000):
    while True:
        e = rng.randrange(lo, min(hi, n_phi))
        if math.gcd(e, n_phi) == 1:
            return e


def _text(rng, lo, hi):
    return "".join(rng.choice(ref.ALPHABET) for _ in range(rng.randint(lo, hi)))


def _csv(values):
    return ",".join(str(v) for v in values)


def _keygen(key, pub, priv):
    """`keygen --pub --priv` and what it must print and write."""
    argv = ["keygen", "--p", str(key["p"]), "--q", str(key["q"]), "--e", str(key["e"]),
            "--pub", pub, "--priv", priv]
    stdout = "".join(f"{name} = {value}\n" for name, value in key.items())
    return Invocation(argv, stdout=stdout,
                      files={pub: ref.public_key_text(key), priv: ref.private_key_text(key)})


def _write(path, text):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


# --- stream workloads -------------------------------------------------------

def decrypt_stream(rng, workdir, sizes):
    key = ref.key_pair(STREAM_P, STREAM_Q, STREAM_E)
    n, e = key["n"], key["e"]
    pub, priv = os.path.join(workdir, "pub.txt"), os.path.join(workdir, "priv.txt")
    # Plaintexts are uniform below n and RSA permutes the residues of a
    # square-free n, so the ciphertexts fed to decrypt are uniform too.
    plain = [[rng.randrange(n) for _ in range(10)] for _ in range(sizes.stream_lines)]
    stdin = "".join(_csv(pow(m, e, n) for m in line) + "\n" for line in plain)
    stdin_path = os.path.join(workdir, "stdin.txt")
    _write(stdin_path, stdin)
    inv = Invocation(["decrypt", "--key", priv], values=10 * len(plain),
                     stdout="".join(_csv(line) + "\n" for line in plain), stdin_path=stdin_path)
    shape = f"{len(plain)} stdin lines x 10 values below n = {n}, private key with p, q, phi"
    return Plan(shape, [_keygen(key, pub, priv)], [inv], [inv],
                tokens=lambda line: line.split(","))


def verify_text_stream(rng, workdir, sizes):
    key = ref.key_pair(STREAM_P, STREAM_Q, STREAM_E)
    n, f = key["n"], key["f"]
    pub, priv = os.path.join(workdir, "pub.txt"), os.path.join(workdir, "priv.txt")
    signature = {code: pow(code, f, n) for code in range(1, len(ref.ALPHABET) + 1)}
    texts = [_text(rng, 1, 40) for _ in range(sizes.stream_lines)]
    stdin = "".join(_csv(signature[c] for c in ref.encode(t)) + "\n" for t in texts)
    stdin_path = os.path.join(workdir, "stdin.txt")
    _write(stdin_path, stdin)
    inv = Invocation(["verify", "--key", pub, "--text"], values=sum(map(len, texts)),
                     stdout="".join(t + "\n" for t in texts), stdin_path=stdin_path)
    shape = (f"{len(texts)} stdin lines of 1-40 signed letters ({inv.values} values), "
             f"e = {key['e']}, n = {n}")
    return Plan(shape, [_keygen(key, pub, priv)], [inv], [inv],
                tokens=list)


# --- one-shot workload ------------------------------------------------------

class _OneShot:
    """Generators for the one-shot command mix; each returns one Invocation."""

    def __init__(self, rng, workdir, sizes, key):
        self.rng, self.sizes, self.key = rng, sizes, key
        self.pub = os.path.join(workdir, "pub.txt")
        self.priv = os.path.join(workdir, "priv.txt")
        self.kg_pub = os.path.join(workdir, "kg-pub.txt")
        self.kg_priv = os.path.join(workdir, "kg-priv.txt")

    # light commands: startup, import, parser and key-file I/O dominate

    def reduce(self):
        x, n = self.rng.randint(-10**9, 10**9), self.rng.randint(2, MAX_MODULUS)
        return Invocation(["reduce", str(x), str(n)], stdout=f"{x % n}\n")

    def binop(self):
        op = self.rng.choice(["add", "sub", "mul"])
        n = self.rng.randint(2, MAX_MODULUS)
        a, b = self.rng.randint(-10**9, 10**9), self.rng.randint(-10**9, 10**9)
        value = {"add": a + b, "sub": a - b, "mul": a * b}[op] % n
        return Invocation([op, str(a), str(b), str(n)], stdout=f"{value}\n")

    def div(self):
        n = self.rng.randint(3, MAX_MODULUS)
        a, b = self.rng.randrange(n), self._unit(n)
        return Invocation(["div", str(a), str(b), str(n)], stdout=f"{a * pow(b, -1, n) % n}\n")

    def gcd(self):
        x, y = self.rng.randint(1, 10**6), self.rng.randint(1, 10**6)
        if self.rng.random() < 0.5:
            return Invocation(["gcd", str(x), str(y)], stdout=f"{math.gcd(x, y)}\n")
        return Invocation(["gcd", "--extended", str(x), str(y)],
                          check=lambda out: ref.check_extended_gcd(x, y, out))

    def inverse(self):
        n = self.rng.randint(3, MAX_MODULUS)
        x = self._unit(n)
        return Invocation(["inverse", str(x), str(n)], stdout=f"{pow(x, -1, n)}\n")

    def classify(self):
        n = self.rng.randint(2, 1000)
        x = self.rng.randrange(n)
        return Invocation(["classify", str(x), str(n)], stdout=f"{ref.classify(x, n)}\n")

    def powmod(self):
        n = self.rng.randint(2, MAX_MODULUS)
        x, e = self.rng.randrange(n), self.rng.randrange(MAX_MODULUS)
        return Invocation(["powmod", str(x), str(e), str(n)], stdout=f"{pow(x, e, n)}\n")

    def crt(self):
        p, q = _prime_pair(self.rng, 2, 1000)
        x = self.rng.randrange(p * q)
        return Invocation(["crt", str(x), str(p), str(q)], stdout=f"{x % p},{x % q}\n")

    def phi_semiprime(self):
        p, q = _prime_pair(self.rng, 2, 46341)
        return Invocation(["phi", "--semiprime", str(p), str(q)], stdout=f"{(p - 1) * (q - 1)}\n")

    def table(self):
        k = self.rng.randint(5, 12)
        return Invocation(["table", str(k)], check=lambda out: ref.check_table(k, out))

    def keygen_files(self):
        p, q = _prime_pair(self.rng, 1000, 46341)
        key = ref.key_pair(p, q, _unit_exponent(self.rng, (p - 1) * (q - 1)))
        return _keygen(key, self.kg_pub, self.kg_priv)

    def encrypt_text(self):
        text, key = _text(self.rng, 1, 20), self.key
        if self.rng.random() < 0.5:
            argv, exp = ["encrypt", "--key", self.pub, text], key["e"]
        else:
            argv, exp = ["sign", "--key", self.priv, text], key["f"]
        return Invocation(argv, stdout=_csv(pow(c, exp, key["n"]) for c in ref.encode(text)) + "\n")

    def decrypt_text(self):
        text, key = _text(self.rng, 1, 20), self.key
        if self.rng.random() < 0.5:
            vector = _csv(pow(c, key["e"], key["n"]) for c in ref.encode(text))
            argv = ["decrypt", "--key", self.priv, vector, "--text"]
        else:
            vector = _csv(pow(c, key["f"], key["n"]) for c in ref.encode(text))
            argv = ["verify", "--key", self.pub, vector, "--text"]
        return Invocation(argv, stdout=text + "\n")

    def domain_error(self):
        """Exit 2: a non-unit, a value outside the alphabet, or a composite 'prime'."""
        kind = self.rng.randrange(3)
        if kind == 0:
            d = self.rng.randint(2, 1000)
            n = d * self.rng.randint(2, 1000)
            argv = ["inverse", str(d * self.rng.randint(1, n // d - 1)), str(n)]
        elif kind == 1:
            m = self.rng.randrange(len(ref.ALPHABET) + 1, self.key["n"])
            argv = ["decrypt", "--key", self.priv, str(pow(m, self.key["e"], self.key["n"])), "--text"]
        else:
            p = _prime_near(self.rng, 2, 46341)
            composite = self.rng.randint(2, 215) * self.rng.randint(2, 215)
            argv = ["phi", "--semiprime", str(p), str(composite)]
        return Invocation(argv, exit=2)

    def usage_error(self):
        """Exit 1: a negative natural, TEXT with --numbers, or a missing argument."""
        kind = self.rng.randrange(3)
        if kind == 0:
            argv = ["gcd", str(-self.rng.randint(1, 10**6)), str(self.rng.randint(1, 10**6))]
        elif kind == 1:
            argv = ["encrypt", "--key", self.pub, "--numbers", "1,2", _text(self.rng, 1, 5)]
        else:
            argv = ["reduce", str(self.rng.randint(0, 10**6))]
        return Invocation(argv, exit=1)

    LIGHT = ("reduce", "binop", "div", "gcd", "inverse", "classify", "powmod", "crt",
             "phi_semiprime", "table", "keygen_files", "encrypt_text", "decrypt_text",
             "domain_error", "usage_error")

    # heavy commands: number theory on the production path

    def suggest_primes(self):
        # the window ends on a fixed prime count, so its cost hardly varies by seed
        lo = MAX_MODULUS - self.sizes.window - self.rng.randrange(10**5)
        primes = ref.primes_between(lo, lo + 2 * self.sizes.window)
        primes = primes[:round(self.sizes.window / math.log(lo))]
        return Invocation(["suggest-primes", str(lo), str(primes[-1])], stdout=_csv(primes) + "\n")

    def phi(self):
        n = self._around(self.sizes.phi_n)
        return Invocation(["phi", str(n)], stdout=f"{ref.phi(n)}\n")

    def critical(self):
        n = self._around(self.sizes.phi_n)
        while not ref.is_square_free(n):
            n = self._around(self.sizes.phi_n)
        t = ref.phi(n)
        return Invocation(["critical", str(n), "3"], stdout=f"1,{1 + t},{1 + 2 * t}\n")

    def powmod_check(self):
        n = self.rng.randint(2, MAX_MODULUS)
        x, e = self.rng.randrange(n), self._around(self.sizes.powmod_e)
        return Invocation(["powmod", "--check", str(x), str(e), str(n)],
                          stdout=f"{pow(x, e, n)}\ncheck: ok\n")

    def keygen_big(self):
        p = _prime_near(self.rng, self.sizes.keygen_p - self.sizes.keygen_p // 100, self.sizes.keygen_p)
        key = ref.key_pair(p, 2, _unit_exponent(self.rng, p - 1, hi=100))
        return Invocation(["keygen", "--p", str(p), "--q", "2", "--e", str(key["e"])],
                          stdout="".join(f"{k} = {v}\n" for k, v in key.items()))

    HEAVY = ("suggest_primes", "phi", "critical", "powmod_check", "keygen_big")

    def _around(self, size):
        return self.rng.randint(size - size // 50, size + size // 50)

    def _unit(self, n):
        while True:
            x = self.rng.randrange(1, n)
            if math.gcd(x, n) == 1:
                return x

    def deck(self):
        """Every light and heavy kind once, shuffled, as light-light-light-heavy."""
        light = [getattr(self, k)() for k in self.rng.sample(self.LIGHT, len(self.LIGHT))]
        heavy = [getattr(self, k)() for k in self.rng.sample(self.HEAVY, len(self.HEAVY))]
        return [inv for i, h in enumerate(heavy) for inv in (*light[3 * i:3 * i + 3], h)]


def cli_oneshot(rng, workdir, sizes):
    p, q = _prime_pair(rng, 1000, 46341)
    key = ref.key_pair(p, q, _unit_exponent(rng, (p - 1) * (q - 1)))
    gen = _OneShot(rng, workdir, sizes, key)
    decks = [gen.deck() for _ in range(sizes.decks)]
    timed = [inv for deck in decks for inv in deck]
    shape = (f"{sizes.decks} decks x {len(decks[0])} invocations: {len(_OneShot.LIGHT)} light kinds "
             f"(with expected exit 1/2 errors), {len(_OneShot.HEAVY)} heavy kinds; key n = {key['n']}")
    return Plan(shape, [_keygen(key, gen.pub, gen.priv)], timed, decks[0], deck=len(decks[0]))


WORKLOADS = {
    "decrypt-stream": decrypt_stream,
    "verify-text-stream": verify_text_stream,
    "cli-oneshot": cli_oneshot,
}


def build(workload: str, seed: int, workdir: str, sizes: Sizes = FULL) -> Plan:
    """Generate a workload's inputs under workdir; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir, sizes)


def count_failed(plan: Plan, inv: Invocation, code: int, stdout: str, stderr: str) -> int:
    """How many of the invocation's values (or the one command) came out wrong."""
    if code != inv.exit:
        return inv.values
    if inv.exit != 0:
        return 0 if stdout == "" and stderr.startswith("error:") else inv.values
    for path, text in inv.files.items():
        try:
            with open(path, encoding="ascii", newline="") as fh:
                if fh.read() != text:
                    return inv.values
        except (OSError, UnicodeDecodeError):
            return inv.values
    if inv.check is not None:
        return 0 if inv.check(stdout) else inv.values
    if stdout == inv.stdout:
        return 0
    if plan.tokens is None:
        return inv.values
    wrong = 0
    want_lines, got_lines = inv.stdout.splitlines(), stdout.splitlines()
    for i, want in enumerate(want_lines):
        want_t = plan.tokens(want)
        got_t = plan.tokens(got_lines[i]) if i < len(got_lines) else []
        wrong += sum(a != b for a, b in zip(want_t, got_t)) + max(0, len(want_t) - len(got_t))
    return min(inv.values, max(wrong, 1))
