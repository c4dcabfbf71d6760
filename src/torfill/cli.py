"""Batch command-line surface.

Reports are machine-parseable key=value lines (big integers as decimal
strings, log bases tagged in the field names: _ln for natural logarithm,
_log2 for base 2); table rows are prefixed with `row`.  Exit codes: 0 on
success, 2 on verification failure, 3 on input error, a result too long to
print among them.  Stdout is written once the command has returned: an input
error (exit 3), or a verification failure raised part way, leaves it empty,
while a verdict exit 2 (`fill --verify`, `selftest`) still prints its lines.
A reader that closes stdout or stderr early, like a stream closed before the
command starts (`>&-`, `2>&-`), discards the rest of that stream quietly,
and the command exits with its own code.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import math
import os
import sys

from .errors import (CandidateSetTooLarge, InputParseError, TorfillError,
                     Unfillable, VerificationFailure)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INPUT = 3

# The largest --kmax/--jmax: stdout is written once the table is built, so a
# range that could never finish is refused while parsing, exit 3.
MAX_ROWS = 10 ** 4


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error.  The top-level parser built by
    build_parser also holds `commands`, each command's subparser by name."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_INPUT)


def _int_at_least(low, high=math.inf):
    """argparse type: an integer in [low, high], so out-of-range counts
    fail during argument parsing with exit code 3."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid integer %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d"
                                             % (low, value))
        if value > high:
            raise argparse.ArgumentTypeError("must be at most %d, got %d"
                                             % (high, value))
        return value
    return parse


def _add_matrix_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-m", "--matrix",
                       help="inline matrix: rows split by ';', entries by ','")
    group.add_argument("--matrix-file",
                       help="file with one row per line, whitespace-separated")


def _read_matrix(args):
    from .formats import parse_matrix_inline, parse_matrix_text
    if args.matrix is not None:
        return parse_matrix_inline(args.matrix)
    try:
        with open(args.matrix_file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError("cannot read %s: %s" % (args.matrix_file, exc))
    return parse_matrix_text(text)


def _save(path, cert):
    """save_certificate; an unwritable path is an input error (exit 3)."""
    from .formats import save_certificate
    try:
        save_certificate(path, cert)
    except OSError as exc:
        raise InputParseError("cannot write certificate %s: %s"
                              % (path, exc)) from None


def _emit(key, value):
    if isinstance(value, float):
        value = "%.12g" % value
    print("%s=%s" % (key, value))


def _row(*fields):
    print("row " + " ".join(str(f) for f in fields))


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state."""
    parser = _Parser(prog="torfill",
                     description="Exact filling certificates and spectral "
                                 "invariants for torus self-maps.")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices

    p = subs.add_parser("bounds", help="spectral radius, entropy, lower bound")
    _add_matrix_args(p)
    p.add_argument("--precision-cap", type=int, default=640,
                   help="decimal digits cap for root certification, "
                        "taken as ceil(cap log2 10) bits")
    p.add_argument("--stats", action="store_true",
                   help="also print the bits reached and, per certified "
                        "factor, its degree, closest gap and that gap's bound")

    p = subs.add_parser("reduce", help="reduce a parallelogram cycle to its "
                                       "rectangle normal form")
    _add_matrix_args(p)
    p.add_argument("--out", help="write the certificate container here")
    p.add_argument("--trace", action="store_true", help="print move rows")

    p = subs.add_parser("fvupper", help="per-power reduction cost experiment")
    _add_matrix_args(p)
    p.add_argument("--jmax", type=_int_at_least(1, MAX_ROWS), default=8)

    p = subs.add_parser("torsion", help="torsion growth of coker(A^k - I)")
    _add_matrix_args(p)
    p.add_argument("--kmax", type=_int_at_least(1, MAX_ROWS), default=40)

    p = subs.add_parser("gelfand", help="entrywise-norm root sequence")
    _add_matrix_args(p)
    p.add_argument("--jmax", type=_int_at_least(1, MAX_ROWS), default=64)

    p = subs.add_parser("psl2z", help="free-product word decomposition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-m", "--matrix")
    group.add_argument("--family", type=_int_at_least(1), metavar="I",
                       help="use the family matrix [[i+1, i], [1, 1]]")
    p.add_argument("--power", type=_int_at_least(0), default=1)

    p = subs.add_parser("fill", help="fill a serialized cycle / verify a "
                                     "certificate file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cycle", help="chain JSON file with a cycle to fill")
    group.add_argument("--verify", help="certificate JSON file to re-verify")
    p.add_argument("--box", type=_int_at_least(0), default=1)
    p.add_argument("--max-expand", type=_int_at_least(0), default=3,
                   help="largest box to try; at least --box")
    p.add_argument("--out", help="write the found certificate here")

    p = subs.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def _cmd_bounds(args) -> int:
    from .spectral import analyze, format_g, fv_lower_coefficient
    a = _read_matrix(args)
    summary = analyze(a, args.precision_cap)
    n = a.rows
    _emit("n", n)
    _emit("charpoly", ",".join(str(c) for c in summary.charpoly))
    _emit("rho", summary.rho)
    _emit("ln_rho", math.log(summary.rho) if summary.rho > 0 else float("-inf"))
    _emit("entropy_ln", summary.log_sum)
    _emit("n_ln_rho", n * math.log(summary.rho) if summary.rho > 0
          else float("-inf"))
    _emit("fv_lower_ln", fv_lower_coefficient(n) * summary.log_sum)
    _emit("unit_root_flag", summary.unit_root_flag)
    for i, r in enumerate(summary.roots):
        _row("root_%d" % i, "%.12g%+.12gi" % (r.value.real, r.value.imag),
             "mult=%d" % r.multiplicity, "radius=%.3g" % r.radius,
             "circle=%s" % r.on_unit_circle)
    if args.stats:
        certificates = summary.certificates
        _emit("bits_max", max((c.bits for c in certificates), default=0))
        for i, c in enumerate(certificates):
            _emit("factor_%d_degree" % i, c.degree)
            _emit("factor_%d_gap" % i, format_g(c.gap, c.bits, 6))
            _emit("factor_%d_bound" % i, format_g(c.bound, c.bits, 6))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from .filling import reduce_parallelogram
    a = _read_matrix(args)
    report = reduce_parallelogram(a)  # raises VerificationFailure (exit 2)
    cert = report.certificate
    if args.out:
        _save(args.out, cert)
    _emit("det", report.det)
    _emit("cost", cert.cost)
    _emit("log2_norm", report.log2_norm)
    _emit("moves", len(cert.trace))
    _emit("verified", True)
    if args.trace:
        for i, r in enumerate(cert.trace):
            _row("move_%d" % i, r.kind, "cost=%d" % r.cost)
    if args.out:
        _emit("certificate_file", args.out)
    return EXIT_OK


def _cmd_fvupper(args) -> int:
    from .filling import fv_upper_experiment
    a = _read_matrix(args)
    exp = fv_upper_experiment(a, args.jmax)
    for j, cost, per_j, log2norm in exp.rows:
        _row("j=%d" % j, "cost=%d" % cost, "cost_per_j=%.6g" % per_j,
             "log2_norm=%.6g" % log2norm)
    _emit("k_hat_log2", exp.k_hat)
    return EXIT_OK


def _cmd_torsion(args) -> int:
    from .spectral import torsion_growth_table
    a = _read_matrix(args)
    rows = torsion_growth_table(a, args.kmax)
    for r in rows:
        _row("k=%d" % r.k, "torsion=%d" % r.torsion_order,
             "factors=%s" % ("x".join(str(f) for f in r.invariant_factors) or "1"),
             "log_tors_over_k_ln=%.10g" % r.log_tors_over_k,
             "target_ln=%.10g" % r.target, "full_rank=%s" % r.full_rank)
    usable = [r for r in rows if r.full_rank]
    if usable:
        _emit("last_full_rank_k", usable[-1].k)
        _emit("last_log_tors_over_k_ln", usable[-1].log_tors_over_k)
    _emit("target_ln", rows[-1].target)
    return EXIT_OK


def _cmd_gelfand(args) -> int:
    from .spectral import gelfand_sequence
    a = _read_matrix(args)
    values = gelfand_sequence(a, args.jmax)
    for j, v in enumerate(values, start=1):
        _row("j=%d" % j, "%.12g" % v)
    _emit("tail", values[-1])
    return EXIT_OK


def _cmd_psl2z(args) -> int:
    from .formats import parse_matrix_inline
    from .psl2z import decompose, delta_bounds, family_matrix, word_power
    if args.family is not None:
        a = family_matrix(args.family)
    else:
        a = parse_matrix_inline(args.matrix)
    word = decompose(a)
    if args.power != 1:
        word = word_power(word, args.power)
    family = None if args.family is None else (args.family, args.power)
    bounds = delta_bounds(word, family)
    _emit("word", str(word))
    _emit("sign", word.sign)
    _emit("length_cyc", bounds.lower_coeff)
    _emit("delta_lower", bounds.lower_str())
    _emit("delta_upper", bounds.upper if bounds.upper is not None else "n/a")
    return EXIT_OK


def _cmd_fill(args) -> int:
    from .filling import fill_by_solve, verify_certificate
    from .formats import load_certificate, load_chain
    if args.verify:
        cert = load_certificate(args.verify)
        ok, diag = verify_certificate(cert)
        _emit("cost", cert.cost)
        _emit("verified", ok)
        if not ok:
            sys.stderr.write("verification diagnostics: %s\n" % "; ".join(diag))
            return EXIT_VERIFY
        return EXIT_OK
    z = load_chain(args.cycle)
    cert = fill_by_solve(z, box=args.box, max_expand=args.max_expand)
    if args.out:
        _save(args.out, cert)
    _emit("cost", cert.cost)
    _emit("witness_simplices", len(cert.witness.terms))
    if args.out:
        _emit("certificate_file", args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_all
    results = run_all(args.level)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print("%s %s (%.1fs): %s" % (status, r.name, r.elapsed, r.detail))
        failed += 0 if r.passed else 1
    _emit("passed", len(results) - failed)
    _emit("failed", failed)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


_COMMANDS = {
    "bounds": _cmd_bounds,
    "reduce": _cmd_reduce,
    "fvupper": _cmd_fvupper,
    "torsion": _cmd_torsion,
    "gelfand": _cmd_gelfand,
    "psl2z": _cmd_psl2z,
    "fill": _cmd_fill,
    "selftest": _cmd_selftest,
}


def _parse(parser, argv):
    """parser.parse_args(argv), with a known command handed straight to its
    subparser: the same namespace, and the same usage error, through
    parser.error, for leftover arguments."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


def _deliver(stream, text):
    """Write text to one of the process's streams and flush it.  When the
    reader has left, or the stream was closed before the command began, the
    text is dropped quietly and the stream's fd points at devnull."""
    if stream is None:
        return
    try:
        stream.write(text)
        stream.flush()
        return
    except BrokenPipeError:
        pass
    except OSError as exc:
        if exc.errno != errno.EBADF:
            raise
    # what is still buffered is flushed to devnull at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    streams = sys.stdout, sys.stderr
    out, err = sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    failure = None
    try:
        args = _parse(parser, argv)
        if args.command == "fill" and args.max_expand < args.box:
            parser.error("fill: --max-expand %d is below --box %d"
                         % (args.max_expand, args.box))
        code = _COMMANDS[args.command](args)
    except SystemExit as exc:  # from argument parsing
        code = exc.code if exc.code is not None else EXIT_INPUT
    except InputParseError as exc:
        code, failure = EXIT_INPUT, "input error: %s" % exc
    except (Unfillable, CandidateSetTooLarge, VerificationFailure) as exc:
        code, failure = EXIT_VERIFY, "verification failure: %s" % exc
    except TorfillError as exc:
        code, failure = EXIT_INPUT, "input error: %s" % exc
    except ValueError as exc:
        # str() of an integer longer than the interpreter's guard allows;
        # the guard stays, since it also bounds the cost of reading one
        if "integer string conversion" not in str(exc):
            raise
        code, failure = EXIT_INPUT, ("input error: a result has more than %d"
                                     " digits, the limit for printing an"
                                     " integer" % sys.get_int_max_str_digits())
    finally:
        sys.stdout, sys.stderr = streams
    if failure is None:
        _deliver(sys.stdout, out.getvalue())
    else:  # what the command printed before it failed is dropped
        err.write(failure + "\n")
    _deliver(sys.stderr, err.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
