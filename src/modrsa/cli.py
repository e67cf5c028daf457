"""Command-line front end: every library operation as a subcommand.

Exit codes: 0 success, 1 usage error, 2 domain error (not a unit, bad
primes, malformed key file, and so on), an unreadable standard input or
an unwritable standard output.
Output is deterministic: single values print as bare decimals, vectors
as comma-separated values with no spaces, tables row-major with a header
row. A command holds at most one output line, of at most MAX_LINE
characters: table, critical and suggest-primes give _bound_line their
line's shape, (cells, widest), and it refuses a longer line before any
output. gcd --extended passes over its table twice, for the column
widths and then the rows. Message vectors come from an argument or, when
omitted, one per line on standard input; stdin is processed line by line,
so lines before a bad one are answered. Each stdin line comes from one
read of at most MAX_LINE + 1 characters, and a longer line is refused.
Every message, an argument (a one-message stream) or a stdin line, goes
through rsa.transform_stream, or rsa.decode_stream with --text, and a
powered line of more than MAX_LINE characters is refused by its number.

With --text, stdin is decoded by wire token: a transformed text is a
substitution over at most 27 tokens, so each distinct token is parsed,
checked and decoded once. rsa and keyfile are imported by the commands
that use them, so the arithmetic commands do not load them. Each command
handler returns or yields its output lines, without newlines, and run()
alone writes them, each in one call, so an unbuffered stdout makes one
write per line. main() freezes the heap before the process exits, so the
interpreter does not collect what the operating system is about to reclaim.
An interrupted command (Ctrl-C) flushes what it wrote and ends by SIGINT,
with no traceback.
"""

import argparse
import gc
import os
import re
import sys
from functools import partial
from itertools import chain, repeat

from . import modmath
from .errors import DomainError

PROG = "modrsa"

# The one number syntax, for arguments and vectors alike: ASCII decimals, possessive, so a long
# vector line keeps no backtracking state per character
_NUMBER = "-?[0-9]++"
_INTEGER = re.compile(_NUMBER)
_VECTOR = re.compile(f"{_NUMBER}(?:,{_NUMBER})*+")


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


def read_key_file(path, kind):
    from .keyfile import read_key_file  # on first use, so arithmetic commands skip keyfile and rsa

    return read_key_file(path, kind)


def write_key_file(*pairs) -> None:
    from .keyfile import write_key_files  # each (path, key), all or none of them

    write_key_files(pairs)


def _csv(values) -> str:
    return ",".join(map(str, values))


def _columns(rows, widths):
    """Yield each row's cells right-aligned to widths (a list or a repeat()), one space apart, rstripped."""
    for row in rows:
        yield " ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()


CHECK_STEPS = 10**7  # the most naive oracle steps --check may take: 1.4-2.5 s on a 2-vCPU guest
MAX_LINE = 2**22  # the longest output line a command may build, in characters


def _bound_line(args, cells, widest):
    """Refuse, as a usage error before any output, a line of cells numbers up to widest, each with a separator,
    that could pass MAX_LINE; past MAX_LINE // 2 cells any width does, so str() never sees a huge widest."""
    if cells > MAX_LINE // 2 or cells * (len(str(widest)) + 1) > MAX_LINE:
        args.parser.error(f"an output line holds at most MAX_LINE = {MAX_LINE} characters; this one could be longer")


def _checked(args, result, steps, mirror, *mirror_args):
    """Yield result; with --check, refuse above CHECK_STEPS steps, else compare oracle.<mirror>'s answer."""
    if args.check and steps > CHECK_STEPS:
        args.parser.error(f"--check runs at most {CHECK_STEPS} oracle steps, and this needs {steps}")
    yield result
    if args.check:
        from . import oracle  # only --check needs the naive mirrors

        expected = getattr(oracle, mirror)(*mirror_args)
        expected = getattr(expected, "value", expected)  # a Residue's value; None when no inverse exists
        if result != expected:
            yield f"check: mismatch (oracle says {expected})"
            raise DomainError(f"oracle disagreement: expected {expected}")
        yield "check: ok"


# --- modular arithmetic commands -------------------------------------------

def _cmd_reduce(args, stdin):
    return [modmath.reduce(args.x, args.n).value]


def _cmd_binop(args, stdin):
    return [args.op(modmath.reduce(args.a, args.n), modmath.reduce(args.b, args.n)).value]


def _cmd_gcd(args, stdin):
    if not args.extended:
        return [modmath.gcd(args.x, args.y)]
    cert, trace = modmath.extended_gcd(args.x, args.y)

    def table():  # the tabular layout: blank quotient on the first row, bare 0 last
        yield "n", "q", "a", "b"
        for row in modmath.euclid_rows(trace.x, trace.y):
            q = "" if row.quotient is None else str(row.quotient)
            yield ("0", "", "", "") if row.n == 0 else (str(row.n), q, str(row.a), str(row.b))

    widths = [0] * 4  # a later row can be the widest, so a first pass over the table finds the widths
    for cells in table():
        widths = list(map(max, widths, map(len, cells)))
    return chain([f"gcd = {cert.g}", f"a = {cert.a}", f"b = {cert.b}"], _columns(table(), widths))


def _cmd_inverse(args, stdin):
    x = modmath.reduce(args.x, args.n)
    return _checked(args, modmath.inverse(x).value, x.modulus.n, "inverse_brute", x)


def _cmd_table(args, stdin):
    n = modmath.check_modulus(args.n)
    _bound_line(args, n, n - 1)
    header = chain(["x"], map(str, range(1, n)))
    # cells from plain ints: one Residue per cell would take several times the memory
    rows = ([str(i)] + [str(i * j % n) for j in range(1, n)] for i in range(1, n))
    return _columns(chain([header], rows), repeat(len(str(n - 1))))


def _cmd_phi(args, stdin):
    if args.semiprime:
        from . import rsa

        if args.check:
            args.parser.error("--check and --semiprime cannot be combined")
        if len(args.values) != 2:
            args.parser.error("--semiprime takes exactly two arguments: p q")
        p, q = args.values
        return [rsa.phi_semiprime(p, q)]
    if len(args.values) != 1:
        args.parser.error("phi takes exactly one argument: n")
    n = args.values[0]
    return _checked(args, modmath.phi(n), n, "phi_brute", n)


def _cmd_powmod(args, stdin):
    x = modmath.reduce(args.x, args.n)
    return _checked(args, modmath.pow_mod(x, args.e).value, args.e, "naive_pow", x, args.e)


def _cmd_critical(args, stdin):
    phi, count = modmath.phi(args.n), args.count
    _bound_line(args, count, 1 + (count - 1) * phi)
    return [_csv(modmath.critical_exponents(args.n, phi, count))]


def _cmd_classify(args, stdin):
    return [modmath.classify(modmath.reduce(args.x, args.n)).value]


def _cmd_crt(args, stdin):
    x = modmath.reduce(args.x, args.p * args.q)
    rp, rq = modmath.crt_decompose(x, args.p, args.q)
    return [_csv((rp.value, rq.value))]


# --- RSA commands -----------------------------------------------------------

def _cmd_keygen(args, stdin):
    from . import rsa

    pair = rsa.keygen(args.p, args.q, args.e)
    files = [(path, key) for path, key in ((args.pub, pair.public_key), (args.priv, pair.private_key))
             if path is not None]
    if files:
        write_key_file(*files)
    return [f"{name} = {getattr(pair, name)}" for name in pair._fields]


def _stdin_lines(stdin):
    """Yield (lineno, line) for each stdin line; a line of more than MAX_LINE characters is a DomainError.

    A file is read by readline(MAX_LINE + 1), so no longer line is held
    whole. An object without readline is iterated as it is, with no bound
    on the read: that path serves only the tests' stand-in for a stdin
    whose read fails.
    """
    read = getattr(stdin, "readline", None)
    lines = stdin if read is None else iter(partial(read, MAX_LINE + 1), "")
    for lineno, line in enumerate(lines, start=1):
        if len(line) - line.endswith("\n") > MAX_LINE:
            raise DomainError(f"standard input line {lineno}: a line holds at most MAX_LINE = {MAX_LINE} characters")
        yield lineno, line


def _stdin_vector(lineno, line) -> tuple[int, ...]:
    """The vector on stdin line lineno, or a DomainError naming the line."""
    try:
        return _vector(line)
    except argparse.ArgumentTypeError as err:
        raise DomainError(f"standard input line {lineno}: {err}") from None


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
    for lineno, line in _stdin_lines(stdin):
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


def _csv_lines(powered, n, where):
    """Yield each powered message as a csv line; one longer than MAX_LINE is a DomainError naming where.format(i).

    where is a str.format template given the message's number. A value below n takes at most len(str(n - 1))
    characters and a comma, so only a line whose bound passes MAX_LINE has its exact length counted, before it is built.
    """
    width = len(str(n - 1)) + 1
    for i, msg in enumerate(powered, start=1):
        values = msg.values
        if len(values) * width - 1 > MAX_LINE and sum(map(len, map(str, values))) + len(values) - 1 > MAX_LINE:
            raise DomainError(f"{where.format(i)}: an output line holds at most MAX_LINE = {MAX_LINE} characters")
        yield _csv(values)


def _cmd_power(args, stdin):
    """encrypt, sign, decrypt and verify: raise each message to the key's exponent.

    The messages come from --numbers (an argument for decrypt and verify)
    or the text argument, one message each, or from standard input, one
    vector per line, each read only after the one before it is answered.
    All go to rsa.decode_stream with --text (stdin lines through
    _decode_stdin), else to rsa.transform_stream and then _csv_lines.
    """
    from . import rsa

    if args.numbers is not None and args.text is not None:
        args.parser.error("give either TEXT or --numbers, not both")
    key = read_key_file(args.key, args.kind)
    transform = getattr(rsa, args.transform)
    if args.numbers is not None:
        messages, where = [rsa.NumberMessage(args.numbers, key.n)], "the argument"
    elif args.text is not None:
        messages, where = [rsa.encode_text(args.text, key.n)], "the argument"
    elif args.decode:
        return _decode_stdin(stdin, transform, key)
    else:
        messages = (rsa.NumberMessage(_stdin_vector(lineno, line), key.n) for lineno, line in _stdin_lines(stdin))
        where = "standard input line {}"  # the i-th message is stdin line i
    if args.decode:
        return rsa.decode_stream(messages, transform, key)
    return _csv_lines(rsa.transform_stream(messages, transform, key), key.n, where)


def _cmd_suggest_primes(args, stdin):
    from . import rsa

    lo, hi = args.lo, args.hi
    if hi <= modmath.MAX_MODULUS:  # above it, primes_in_range refuses hi itself
        _bound_line(args, (hi - max(lo, 2)) // 2 + 1, hi)  # 2 and the odd numbers, at most
    return [_csv(rsa.primes_in_range(lo, hi))]


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

    for name, op, text in (("add", modmath.add, "sum"), ("sub", modmath.sub, "difference"),
                           ("mul", modmath.mul, "product"), ("div", modmath.divide, "quotient")):
        p = command(name, _cmd_binop, f"{text} of a and b mod n")
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

    # the transform is named here and looked up in rsa at dispatch; keyfile checks the key's kind
    for name, kind, help in (
        ("encrypt", "public", "raise message values to the public exponent"),
        ("decrypt", "private", "raise message values to the private exponent"),
        ("sign", "private", "raise message values to the private exponent"),
        ("verify", "public", "raise signed values to the public exponent"),
    ):
        p = command(name, _cmd_power, help)
        p.set_defaults(transform=name, kind=kind)
        p.add_argument("--key", metavar="PUBFILE" if kind == "public" else "PRIVFILE", required=True)
        if name in ("encrypt", "sign"):
            # plain messages: letters to encode, or raw numbers
            p.set_defaults(decode=False)
            p.add_argument("--numbers", type=_vector, metavar="V1,V2,...")
            p.add_argument("text", nargs="?", help="message text (A-Z, a-z and space)")
        else:
            # transformed vectors, optionally decoded back to letters
            p.set_defaults(text=None)
            p.add_argument("--text", action="store_true", dest="decode", help="decode the result to letters")
            p.add_argument("numbers", type=_vector, nargs="?", metavar="V1,V2,...")

    p = command("suggest-primes", _cmd_suggest_primes, "primes in [lo, hi], by a sieve of Eratosthenes")
    p.add_argument("lo", type=_natural)
    p.add_argument("hi", type=_natural)

    return parser


def run(argv, *, stdin=None, stdout=None, stderr=None) -> int:
    """Parse argv, dispatch, write the handler's lines, and return the exit code (0/1/2).

    The one writer of stdout: each line goes out with its newline in one
    write. An OSError from a write is a stdout failure; one from the
    handler is a stdin failure, as key-file errors are KeyFileErrors.
    """
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        args = build_parser().parse_args(argv)
        for line in args.handler(args, stdin):
            try:
                stdout.write(f"{line}\n")
            except OSError as err:
                return _output_failed(err, stderr)
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
        print(f"error: cannot read standard input ({err.strerror})", file=stderr)
        return 2
    return 0


def _output_failed(err, stderr) -> int:
    """Exit code 2 for a stdout write that failed: quiet when the reader closed it."""
    if not isinstance(err, BrokenPipeError):
        print(f"error: cannot write standard output ({err.strerror})", file=stderr)
    return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except KeyboardInterrupt:  # Ctrl-C: no traceback, and the caller still sees the process end by SIGINT
        import signal

        try:
            sys.stdout.flush()
        except OSError:
            pass
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        raise SystemExit(128 + signal.SIGINT)  # where the signal did not end the process
    try:
        sys.stdout.flush()
    except OSError as err:
        # as the Python docs' SIGPIPE note does: send what is left to devnull,
        # so the flush at exit has nowhere to fail and prints no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _output_failed(err, sys.stderr)
    gc.freeze()  # the process is ending and the OS reclaims its memory, so exit need not collect it
    raise SystemExit(code)


if __name__ == "__main__":
    main()
