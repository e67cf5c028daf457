"""In-process tracing of modrsa through the public functions of each module.

The wrappers live here, in the benchmark, not in the package: a span is
recorded around every call into a wrapped function, with the span that
caused it and the id of the cli.run call (the request) it belongs to. Each
wrapper replaces the name its callers look up, so `cli`, which binds
read_key_file and write_key_file by name, is patched in `modrsa.cli`, while
`rsa` and `modmath` functions are patched on their modules, whose globals
the callers inside those modules read too. Spans stay in memory and are
written out once, after the run.
"""

import io
import time
from collections import Counter

import workloads

# (module, attribute, span name). Functions, and the dataclass __post_init__
# that validates every NumberMessage.
SPANNED = [
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "read_key_file", "keyfile.read_key_file"),
    ("cli", "write_key_file", "keyfile.write_key_file"),
    ("rsa", "NumberMessage.__post_init__", "rsa.NumberMessage"),
    *(("rsa", f, f"rsa.{f}") for f in (
        "encrypt", "decrypt", "sign", "verify", "encode_text", "decode_text",
        "is_prime", "primes_in_range", "keygen")),
    *(("modmath", f, f"modmath.{f}") for f in (
        "pow_mod", "inverse", "extended_gcd", "gcd", "is_square_free", "critical_exponents")),
    *(("oracle", f, f"oracle.{f}") for f in ("phi_brute", "naive_pow", "inverse_brute")),
]

class Tracer:
    """Spans as (name, start_ns, end_ns, parent index, request id), plus counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.residues = 0
        self.pow_keys = set()
        self.request = -1

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)

        return traced

    def run(self, cli_run, argv, stdin, stdout, stderr):
        """One request: cli.run under a root span with a fresh shared id."""
        self.request += 1
        return self.span("cli.run", cli_run)(argv, stdin=stdin, stdout=stdout, stderr=stderr)


class Patches:
    """Install the tracer's wrappers on the imported package, and undo them."""

    def __init__(self, package, tracer):
        self.saved = []
        for module_name, attr, name in SPANNED:
            owner = getattr(package, module_name)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr]
            if name == "modmath.pow_mod":
                fn = _keyed(fn, tracer.pow_keys)
            self._patch(owner, attr, tracer.span(name, fn))
        residue = package.modmath.Residue
        residue_post_init = residue.__post_init__

        def counted_post_init(self_):
            tracer.residues += 1
            residue_post_init(self_)

        self._patch(residue, "__post_init__", counted_post_init)

    def _patch(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _keyed(pow_mod, keys):
    """pow_mod that records each distinct (base, exponent, modulus) it is asked for."""

    def keyed(x, exponent):
        keys.add((x.value, exponent, x.modulus.n))
        return pow_mod(x, exponent)

    return keyed


def layer_totals(spans):
    """Calls, busy ns and self ns per span name.

    Busy time skips a span nested inside another of the same name, so a
    recursive call is not counted twice. Self time is the duration minus the
    time covered by direct children; in one thread those are disjoint, so
    their sum is the covered part of the interval.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, busy, self_ns = Counter(), Counter(), Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += end - start
    return calls, busy, self_ns


def pass_metrics(tracer, names):
    """The span- and count-derived metrics among `names` for one traced pass."""
    calls, busy, self_ns = layer_totals(tracer.spans)
    metrics = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls[layer]
        elif kind == "busy_ms":
            metrics[name] = busy[layer] / 1e6
        elif kind == "self_ms":
            metrics[name] = self_ns[layer] / 1e6
    pow_calls = calls["modmath.pow_mod"]
    metrics["modmath.pow_mod.distinct_ratio"] = len(tracer.pow_keys) / pow_calls if pow_calls else 0.0
    metrics["modmath.Residue.created"] = tracer.residues
    return metrics


def run_pass(package, plan, tracer=None):
    """The plan's traced invocations through cli.run in-process.

    Returns (seconds inside cli.run, values attempted, values failed). With
    a tracer the package must already be patched.
    """
    cli_run = package.cli.run
    busy_s, attempted, failed = 0.0, 0, 0
    for inv in plan.traced:
        inv.clear_files()
        stdin = io.StringIO(inv.stdin_text())
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        if tracer is None:
            code = cli_run(inv.argv, stdin=stdin, stdout=out, stderr=err)
        else:
            code = tracer.run(cli_run, inv.argv, stdin, out, err)
        busy_s += time.perf_counter() - start
        attempted += inv.values
        failed += workloads.count_failed(plan, inv, code, out.getvalue(), err.getvalue())
    return busy_s, attempted, failed


def write_spans(path, spans):
    """One tab-separated line per span: request, index, parent, name, start_ns, end_ns."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("request\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for i, (name, start, end, parent, request) in enumerate(spans):
            fh.write(f"{request}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")
