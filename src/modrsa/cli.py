"""Command-line front end: every library operation as a subcommand.

Exit codes: 0 success, 1 usage error, 2 domain error (not a unit, bad
primes, malformed key file, and so on) or an unwritable standard output.
Output is deterministic: single values print as bare decimals, vectors
as comma-separated values with no spaces, tables row-major with a header
row. Message vectors are taken from an argument or, when omitted, one
per line on standard input; stdin is processed line by line, so lines
before a bad one are answered.

With --text, stdin is decoded by wire token: a transformed text is a
substitution over at most 27 tokens, so each distinct token is parsed,
checked and decoded once. rsa and keyfile are imported by the commands
that use them, so the arithmetic commands do not load them.
"""

import argparse
import os
import re
import sys
from itertools import chain, repeat

from . import modmath
from .errors import DomainError, KeyFileError

PROG = "modrsa"

# The one number syntax, for arguments and vectors alike: ASCII decimals
_NUMBER = "-?[0-9]+"
_INTEGER = re.compile(_NUMBER)
_VECTOR = re.compile(f"{_NUMBER}(?:,{_NUMBER})*")


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns the exit code."""

    def error(self, message):
        raise _UsageError(message, self)


def _numbers(text: str, pattern, what: str) -> tuple[int, ...]:
    """The comma-separated numbers of text, which must match pattern in full."""
    try:
        if pattern.fullmatch(text):
            return tuple(map(int, text.split(",")))
    except ValueError:  # past the interpreter's digit limit for int()
        pass
    raise argparse.ArgumentTypeError(f"invalid {what}: {text!r}")


def _integer(text: str) -> int:
    return _numbers(text, _INTEGER, "int value")[0]


def _natural(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    return _numbers(text, _VECTOR, "number vector") if text else ()


def read_key_file(path):
    from .keyfile import read_key_file  # on first use, so arithmetic commands skip keyfile and rsa

    return read_key_file(path)


def write_key_file(path, key) -> None:
    from .keyfile import write_key_file

    write_key_file(path, key)


def _print_vector(values, out) -> None:
    print(",".join(str(v) for v in values), file=out)


def _print_columns(rows, out, width=0) -> None:
    """Right-align rows of cells, one space apart, with trailing blanks stripped.

    Every column is `width` wide or, when width is 0, as wide as its widest
    cell; rows must then be a list, since the widths are found first.
    """
    widths = repeat(width) if width else [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print(" ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip(), file=out)


def _check_line(result, oracle_value, out) -> None:
    if result == oracle_value:
        print("check: ok", file=out)
    else:
        print(f"check: mismatch (oracle says {oracle_value})", file=out)
        raise DomainError(f"oracle disagreement: expected {oracle_value}")


# --- modular arithmetic commands -------------------------------------------

def _cmd_reduce(args, stdin, out):
    print(modmath.reduce(args.x, args.n).value, file=out)


def _cmd_binop(args, stdin, out):
    a = modmath.reduce(args.a, args.n)
    b = modmath.reduce(args.b, args.n)
    op = {"add": modmath.add, "sub": modmath.sub, "mul": modmath.mul, "div": modmath.divide}[args.op]
    print(op(a, b).value, file=out)


def _cmd_gcd(args, stdin, out):
    if args.extended:
        cert, trace = modmath.extended_gcd(args.x, args.y)
        print(f"gcd = {cert.g}", file=out)
        print(f"a = {cert.a}", file=out)
        print(f"b = {cert.b}", file=out)
        # mirror the tabular layout: blank quotient on the first row, bare 0 last
        rows = [("n", "q", "a", "b")]
        for row in trace.rows:
            q = "" if row.quotient is None else str(row.quotient)
            rows.append(("0", "", "", "") if row.n == 0 else (str(row.n), q, str(row.a), str(row.b)))
        _print_columns(rows, out)
    else:
        print(modmath.gcd(args.x, args.y), file=out)


def _cmd_inverse(args, stdin, out):
    x = modmath.reduce(args.x, args.n)
    result = modmath.inverse(x)
    print(result.value, file=out)
    if args.check:
        from . import oracle  # only --check needs the naive mirrors

        _check_line(result.value, getattr(oracle.inverse_brute(x), "value", None), out)


def _cmd_table(args, stdin, out):
    n = modmath.check_modulus(args.n)
    header = ["x"] + [str(c) for c in range(1, n)]
    rows = ([str(i)] + [str(r.value) for r in modmath.mul_row(i, n)] for i in range(1, n))
    _print_columns(chain([header], rows), out, width=len(str(n - 1)))


def _cmd_phi(args, stdin, out):
    if args.semiprime:
        from . import rsa

        if args.check:
            args.parser.error("--check and --semiprime cannot be combined")
        if len(args.values) != 2:
            args.parser.error("--semiprime takes exactly two arguments: p q")
        p, q = args.values
        print(rsa.phi_semiprime(p, q), file=out)
        return
    if len(args.values) != 1:
        args.parser.error("phi takes exactly one argument: n")
    n = args.values[0]
    result = modmath.phi(n)
    print(result, file=out)
    if args.check:
        from . import oracle  # only --check needs the naive mirrors

        _check_line(result, oracle.phi_brute(n), out)


def _cmd_powmod(args, stdin, out):
    x = modmath.reduce(args.x, args.n)
    result = modmath.pow_mod(x, args.e)
    print(result.value, file=out)
    if args.check:
        from . import oracle  # only --check needs the naive mirrors

        _check_line(result.value, oracle.naive_pow(x, args.e).value, out)


def _cmd_critical(args, stdin, out):
    phi = modmath.phi(args.n)
    _print_vector(modmath.critical_exponents(args.n, phi, args.count), out)


def _cmd_classify(args, stdin, out):
    print(modmath.classify(modmath.reduce(args.x, args.n)).value, file=out)


def _cmd_crt(args, stdin, out):
    x = modmath.reduce(args.x, args.p * args.q)
    rp, rq = modmath.crt_decompose(x, args.p, args.q)
    _print_vector((rp.value, rq.value), out)


# --- RSA commands -----------------------------------------------------------

def _cmd_keygen(args, stdin, out):
    from . import rsa

    pair = rsa.keygen(args.p, args.q, args.e)
    if args.pub:
        write_key_file(args.pub, pair.public_key)
    if args.priv:
        write_key_file(args.priv, pair.private_key)
    for name in ("p", "q", "n", "phi", "e", "f"):
        print(f"{name} = {getattr(pair, name)}", file=out)


def _load_key(path, kind):
    from . import rsa

    key = read_key_file(path)
    if not isinstance(key, getattr(rsa, kind)):
        raise KeyFileError(f"{path}: expected a {'public' if kind == 'PublicKey' else 'private'} key")
    return key


def _stdin_vector(lineno, line) -> tuple[int, ...]:
    """The vector on stdin line lineno, or a DomainError naming the line."""
    try:
        return _vector(line)
    except argparse.ArgumentTypeError as err:
        raise DomainError(f"standard input line {lineno}: {err}") from None


def _input_messages(args, stdin, n):
    """Messages from --numbers, a text argument, or stdin (one vector per line).

    Stdin is read line by line, so each result can be printed before the
    next line is parsed.
    """
    from . import rsa

    if args.numbers is not None:
        yield rsa.NumberMessage(args.numbers, n)
    elif args.text is not None:
        yield rsa.encode_text(args.text, n)
    else:
        for lineno, line in enumerate(stdin, start=1):
            yield rsa.NumberMessage(_stdin_vector(lineno, line), n)


def _decode_stdin(stdin, transform, key):
    """Yield the text of each stdin line, as decode_stream would.

    The table maps a wire token, as spelled, to its letter, and a line of
    known tokens is joined from it with no parse. Any other line takes the
    full path (_stdin_vector, NumberMessage, the command's one
    decode_stream), and only then do its tokens enter the table, at most
    len(ALPHABET) of them: a malformed, out-of-range or unseen token always
    takes the full path.
    """
    from . import rsa

    table = {}  # wire token -> its letter
    pending = []  # the next message for decode_stream, fed one at a time
    decoded = rsa.decode_stream(iter(pending.pop, None), transform, key)
    for lineno, line in enumerate(stdin, start=1):
        tokens = line.strip().split(",")
        try:
            text = "".join(map(table.__getitem__, tokens))
        except KeyError:
            pending.append(rsa.NumberMessage(_stdin_vector(lineno, line), key.n))
            text = next(decoded)
            for token, letter in zip(tokens, text):
                if len(table) == len(rsa.ALPHABET):
                    break
                table[token] = letter
        yield text


def _cmd_power(args, stdin, out):
    """encrypt, sign, decrypt and verify: raise each message to the key's exponent."""
    from . import rsa

    if args.numbers is not None and args.text is not None:
        args.parser.error("give either TEXT or --numbers, not both")
    key = _load_key(args.key, args.key_type)
    transform = getattr(rsa, args.transform)
    if args.decode and args.numbers is None:
        lines = _decode_stdin(stdin, transform, key)
    elif args.decode:
        lines = rsa.decode_stream(_input_messages(args, stdin, key.n), transform, key)
    else:
        lines = (",".join(map(str, transform(msg, key))) for msg in _input_messages(args, stdin, key.n))
    for line in lines:
        print(line, file=out)


def _cmd_suggest_primes(args, stdin, out):
    from . import rsa

    _print_vector(rsa.primes_in_range(args.lo, args.hi), out)


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description="Modular arithmetic and textbook RSA toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("reduce", _cmd_reduce, "canonical residue of x mod n")
    p.add_argument("x", type=_integer)
    p.add_argument("n", type=_integer)

    for op, text in (("add", "sum"), ("sub", "difference"), ("mul", "product"), ("div", "quotient")):
        p = command(op, _cmd_binop, f"{text} of a and b mod n")
        p.add_argument("a", type=_integer)
        p.add_argument("b", type=_integer)
        p.add_argument("n", type=_integer)
        p.set_defaults(op=op)

    p = command("gcd", _cmd_gcd, "greatest common divisor, optionally with the Bezout table")
    p.add_argument("--extended", action="store_true", help="print a, b with a*x + b*y = gcd, plus the table")
    p.add_argument("x", type=_natural)
    p.add_argument("y", type=_natural)

    p = command("inverse", _cmd_inverse, "multiplicative reciprocal of x mod n")
    p.add_argument("--check", action="store_true", help="cross-validate against the brute-force scan")
    p.add_argument("x", type=_integer)
    p.add_argument("n", type=_integer)

    p = command("table", _cmd_table, "multiplication table mod n, rows and columns 1..n-1")
    p.add_argument("n", type=_integer)

    p = command("phi", _cmd_phi, "number of units: phi <n>, or phi --semiprime <p> <q>")
    p.add_argument("--check", action="store_true", help="cross-validate the unit count by classification")
    p.add_argument("--semiprime", action="store_true", help="use the (p-1)(q-1) formula for distinct primes")
    p.add_argument("values", type=_natural, nargs="+")

    p = command("powmod", _cmd_powmod, "x**e mod n by square-and-multiply")
    p.add_argument("--check", action="store_true", help="cross-validate against naive repeated multiplication")
    p.add_argument("x", type=_integer)
    p.add_argument("e", type=_natural)
    p.add_argument("n", type=_integer)

    p = command("critical", _cmd_critical, "first COUNT exponents 1, 1+phi, 1+2*phi, ... (square-free n)")
    p.add_argument("n", type=_natural)
    p.add_argument("count", type=_natural)

    p = command("classify", _cmd_classify, "zero, unit, or zero-divisor")
    p.add_argument("x", type=_integer)
    p.add_argument("n", type=_integer)

    p = command("crt", _cmd_crt, "coordinates (x mod p, x mod q) for a modulus p*q")
    p.add_argument("x", type=_integer)
    p.add_argument("p", type=_natural)
    p.add_argument("q", type=_natural)

    p = command("keygen", _cmd_keygen, "build a key pair from distinct primes p, q and exponent e")
    p.add_argument("--p", type=_natural, required=True)
    p.add_argument("--q", type=_natural, required=True)
    p.add_argument("--e", type=_natural, required=True)
    p.add_argument("--pub", metavar="PATH", help="write the public key file here")
    p.add_argument("--priv", metavar="PATH", help="write the private key file here")

    # the transform and key type are named here and looked up in rsa at dispatch
    for name, key_type, help in (
        ("encrypt", "PublicKey", "raise message values to the public exponent"),
        ("decrypt", "PrivateKey", "raise message values to the private exponent"),
        ("sign", "PrivateKey", "raise message values to the private exponent"),
        ("verify", "PublicKey", "raise signed values to the public exponent"),
    ):
        p = command(name, _cmd_power, help)
        p.set_defaults(transform=name, key_type=key_type)
        p.add_argument("--key", metavar="PUBFILE" if key_type == "PublicKey" else "PRIVFILE", required=True)
        if name in ("encrypt", "sign"):
            # plain messages: letters to encode, or raw numbers
            p.set_defaults(decode=False)
            p.add_argument("--numbers", type=_vector, metavar="V1,V2,...")
            p.add_argument("text", nargs="?", help="message text (A-Z and space)")
        else:
            # transformed vectors, optionally decoded back to letters
            p.set_defaults(text=None)
            p.add_argument("--text", action="store_true", dest="decode", help="decode the result to letters")
            p.add_argument("numbers", type=_vector, nargs="?", metavar="V1,V2,...")

    p = command("suggest-primes", _cmd_suggest_primes, "primes in [lo, hi], by a segmented sieve")
    p.add_argument("lo", type=_natural)
    p.add_argument("hi", type=_natural)

    return parser


def run(argv, *, stdin=None, stdout=None, stderr=None) -> int:
    """Parse argv, dispatch, and return the exit code (0/1/2)."""
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        args = build_parser().parse_args(argv)
        args.handler(args, stdin, stdout)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _UsageError as err:
        print(f"error: {err}", file=stderr)
        err.parser.print_help(stderr)
        return 1
    except (DomainError, ValueError) as err:
        print(f"error: {err}", file=stderr)
        return 2
    except OSError as err:
        return _output_failed(err, stderr)
    return 0


def _output_failed(err, stderr) -> int:
    """Exit code 2 for a stdout write that failed: quiet when the reader closed it."""
    if not isinstance(err, BrokenPipeError):
        print(f"error: cannot write standard output ({err.strerror})", file=stderr)
    return 2


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as err:
        # as the Python docs' SIGPIPE note does: send what is left to devnull,
        # so the flush at exit has nowhere to fail and prints no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _output_failed(err, sys.stderr)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
