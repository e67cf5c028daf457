"""Answers computed without modrsa, used to check every output it gives.

Only the standard library is used: builtin pow for powers and inverses,
math.gcd, a deterministic Miller-Rabin test and trial factorization. None of
this shares code with the package under test.
"""

import math

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "

# Bases 2, 3, 5, 7 decide primality exactly below 3 215 031 751 > 2**31
# (Pomerance, Selfridge & Wagstaff, Math. Comp. 35, 1980).
_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; meant for n up to ~10**7."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def phi(n: int) -> int:
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def is_square_free(n: int) -> bool:
    return all(k == 1 for k in factorize(n).values())


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def classify(x: int, n: int) -> str:
    if x % n == 0:
        return "zero"
    return "unit" if math.gcd(x, n) == 1 else "zero-divisor"


def encode(text: str) -> list[int]:
    return [ALPHABET.index(ch) + 1 for ch in text]


def key_pair(p: int, q: int, e: int) -> dict[str, int]:
    """The numbers keygen must print, in its order."""
    n_phi = (p - 1) * (q - 1)
    return {"p": p, "q": q, "n": p * q, "phi": n_phi, "e": e, "f": pow(e, -1, n_phi)}


def public_key_text(key: dict) -> str:
    return f"kind = public\nn = {key['n']}\ne = {key['e']}\n"


def private_key_text(key: dict) -> str:
    return (f"kind = private\nn = {key['n']}\nf = {key['f']}\n"
            f"p = {key['p']}\nq = {key['q']}\nphi = {key['phi']}\n")


def check_extended_gcd(x: int, y: int, stdout: str) -> bool:
    """`gcd --extended x y`: the certificate and every table row must hold.

    The table is computed for (max, min) of the inputs; each row (n, q, a, b)
    satisfies a*big + b*small = n, n never rises and the last row is 0.
    """
    lines = stdout.splitlines()
    try:
        g, a, b = (int(line.split(" = ")[1]) for line in lines[:3])
        header, *rows = (line.split() for line in lines[3:])
    except (IndexError, ValueError):
        return False
    if g != math.gcd(x, y) or a * x + b * y != g or header != ["n", "q", "a", "b"]:
        return False
    big, small = max(x, y), min(x, y)
    last = None
    for row in rows[:-1]:
        if len(row) not in (3, 4):
            return False
        n, ra, rb = int(row[0]), int(row[-2]), int(row[-1])
        if ra * big + rb * small != n or (last is not None and n > last):
            return False
        last = n
    return bool(rows) and rows[-1] == ["0"] and last == g


def check_table(k: int, stdout: str) -> bool:
    """`table k`: header x 1..k-1, then row i holds i*j mod k."""
    expected = [["x"] + [str(j) for j in range(1, k)]]
    expected += [[str(i)] + [str(i * j % k) for j in range(1, k)] for i in range(1, k)]
    return [line.split() for line in stdout.splitlines()] == expected
