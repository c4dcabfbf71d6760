"""Seeded inputs, CLI items and output checks for the torfill benchmark.

Every workload is a stream of items made from one `random.Random(seed)`.
An item is one or more `torfill.cli.main(argv)` calls, timed together, and
then checked by code in this file that does not use torfill: determinants
by Bareiss elimination, torsion rows against |det(A^k - I)|, the spectral
radius against numpy, and PSL(2,Z) words by multiplying their letters back.

An item fails on a nonzero exit, an exception escaping `main`, or a failed
check.  Failures are recorded with the matrix and counted; the run goes on.
A failed check on an item whose commands all exited 0 is a wrong answer,
which is kept apart from crashes and refusals (`Outcome.wrong`).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np


# --- inputs -----------------------------------------------------------------

def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def max_abs(a):
    return max(abs(x) for row in a for x in row)


def matrix_arg(a):
    """Inline form passed as `--matrix=<text>`: a leading minus sign in a
    separate argument would be read by argparse as an option."""
    return "--matrix=" + ";".join(",".join(str(x) for x in row) for row in a)


def sl2_word(rng, max_len=40, cap=10 ** 6):
    """Alternating elementary blocks, trimmed to keep the entry norm at most
    `cap`.  Same construction and random draws as the acceptance suite's
    criterion 1, so seed 12001 gives its matrices."""
    a = identity(2)
    upper = rng.random() < 0.5
    used = 0
    while used < max_len:
        e = min(rng.randint(1, 3), max_len - used)
        sgn = rng.choice([1, -1])
        block = ((1, sgn * e), (0, 1)) if upper else ((1, 0), (sgn * e, 1))
        nxt = matmul(a, block)
        if max_abs(nxt) > cap:
            break
        a = nxt
        used += e
        upper = not upper
    return a


def random_matrix(rng, n, bound):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                 for _ in range(n))


def near_circle_companion(n_value):
    """Companion of x^3 - (N+1)x^2 + Nx - N: one root near N and a complex
    pair just inside the unit circle."""
    return ((0, 0, n_value), (1, 0, -n_value), (0, 1, n_value + 1))


# --- independent arithmetic ---------------------------------------------------

def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(np.array(a, dtype=float)))))


_S = ((0, -1), (1, 0))
_U = ((0, -1), (1, -1))
LETTERS = {"S": _S, "U": _U, "U2": matmul(_U, _U)}


def word_matrix(word):
    """Signed product of a printed PSL(2,Z) word such as `-S·U2·S`."""
    sign = -1 if word.startswith("-") else 1
    body = word.lstrip("-")
    m = identity(2)
    if body != "e":
        for letter in body.split("·"):
            m = matmul(m, LETTERS[letter])
    return tuple(tuple(sign * x for x in row) for row in m)


# --- running the CLI -----------------------------------------------------------

@dataclass
class Call:
    out: str
    seconds: float

    def values(self):
        """key=value lines of the report (table rows excluded)."""
        pairs = (line.split("=", 1) for line in self.out.splitlines()
                 if "=" in line and not line.startswith("row "))
        return dict(pairs)

    def rows(self):
        return [line.split()[1:] for line in self.out.splitlines()
                if line.startswith("row ")]


class ItemFailure(Exception):
    """An item failed: nonzero exit, escaped exception or failed check.
    `wrong` marks a wrong answer from commands that reported success."""

    def __init__(self, reason, wrong=False):
        super().__init__(reason)
        self.wrong = wrong


@dataclass
class Outcome:
    index: int
    kind: str
    matrix: tuple
    seconds: float
    failure: str = None
    wrong: bool = False
    info: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.failure is None


class Runner:
    """Calls `torfill.cli.main` in-process with captured output.  `main` is
    looked up on the module at each call, so a traced run sees its wrapper;
    `after_call` runs after every call (the tracer resets its stack there)."""

    def __init__(self, cli_module, after_call=None):
        self.cli = cli_module
        self.after_call = after_call

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            seconds = time.perf_counter() - t0
        except Exception as exc:  # a traceback escaped main: the item fails
            raise ItemFailure("%s in %s: %s" % (type(exc).__name__, argv[0],
                                                str(exc)[:120])) from None
        finally:
            if self.after_call:
                self.after_call()
        if rc != 0:
            lines = err.getvalue().strip().splitlines()
            raise ItemFailure("exit %s from %s: %s" % (
                rc, argv[0], lines[-1][:160] if lines else ""))
        return Call(out.getvalue(), seconds)


# --- workloads ----------------------------------------------------------------

class Workload:
    """A seeded item stream.  Subclasses define `stream(seed)`, an endless
    iterator of (kind, matrix), and `execute(runner, kind, matrix, info)`,
    which makes the timed CLI calls and returns a check to run after the
    clock stops.

    A run times the first `count(seconds)` items of the stream.  The count
    depends on --seconds only, not on the clock, so every run at one seed
    times the same inputs on a fast host and a slow one.  `items_per_s`
    sizes the count: enough items for a tail percentile with ten samples
    beyond it, and few enough that the gate's runs end in time on a slow
    host."""

    name = None
    bootstrap = False  # whether set-up includes the cold base bootstrap
    items_per_s = 1.0
    min_items = 1      # items even the shortest run times
    setups = 9         # fresh-process set-ups per untraced run; setup_s is their median

    def count(self, seconds):
        return max(self.min_items, round(self.items_per_s * seconds))

    def items(self, seed, count):
        return list(itertools.islice(self.stream(seed), count))

    def __init__(self, workdir):
        self.workdir = workdir

    def run_item(self, runner, index, kind, matrix):
        info = {}
        t0 = time.perf_counter()
        try:
            check = self.execute(runner, kind, matrix, info)
        except ItemFailure as exc:
            seconds = time.perf_counter() - t0
            return Outcome(index, kind, matrix, seconds, str(exc), exc.wrong, info)
        seconds = time.perf_counter() - t0
        try:
            check()
        except (ItemFailure, KeyError, ValueError) as exc:
            # a missing or unreadable field is a wrong answer too
            reason = str(exc) if isinstance(exc, ItemFailure) else "unreadable output: %r" % exc
            return Outcome(index, kind, matrix, seconds, reason, True, info)
        return Outcome(index, kind, matrix, seconds, None, False, info)

    def finish(self, runner):
        """Work after the timed items; returns report values."""
        return {}


def _require(cond, reason):
    if not cond:
        raise ItemFailure(reason, wrong=True)


class ReduceSl2(Workload):
    """`reduce --out F` then `fill --verify F` on criterion-1 SL(2,Z) words,
    then one `fvupper` call outside the latency distribution."""

    name = "reduce-sl2"
    bootstrap = True
    setups = 5  # each takes a cold bootstrap
    items_per_s = 1.25
    min_items = 20  # cert_cost_mean is the mean cost of the first 20 words
    tamper = None   # optional hook(path) run between reduce and fill

    def stream(self, seed):
        rng = random.Random(seed)
        while True:
            yield "sl2", sl2_word(rng)

    def execute(self, runner, kind, matrix, info):
        path = os.path.join(self.workdir, "cert.json")
        red = runner.call(["reduce", matrix_arg(matrix), "--out", path])
        if self.tamper:
            self.tamper(path)
        try:
            fill = runner.call(["fill", "--verify", path])
        except ItemFailure as exc:
            # reduce claimed success; a certificate it wrote that does not
            # verify is a wrong answer
            raise ItemFailure("round trip: %s" % exc, wrong=True) from None
        rv, fv = red.values(), fill.values()

        def check():
            info["cost"] = int(rv["cost"])
            _require(rv.get("verified") == "True", "reduce not verified")
            _require(fv.get("verified") == "True", "fill --verify not verified")
            _require(rv.get("cost") == fv.get("cost"),
                     "cost %s != re-verified %s" % (rv.get("cost"), fv.get("cost")))
            _require(rv.get("det") == str(det(matrix)), "det %s" % rv.get("det"))
        return check

    def finish(self, runner):
        call = runner.call(["fvupper", "--matrix=2,1;1,1", "--jmax", "8"])
        return {"k_hat_log2": float(call.values()["k_hat_log2"]),
                "fvupper_s": call.seconds}


class Reduce3x3(Workload):
    """`reduce` on 3x3 integer matrices with entries in [-6, 6]."""

    name = "reduce-3x3"
    bootstrap = True
    setups = 5  # each takes a cold bootstrap
    items_per_s = 1.25

    def stream(self, seed):
        rng = random.Random(seed)
        while True:
            yield "3x3", random_matrix(rng, 3, 6)

    def execute(self, runner, kind, matrix, info):
        values = runner.call(["reduce", matrix_arg(matrix)]).values()

        def check():
            _require(values.get("verified") == "True", "reduce not verified")
            _require(values.get("det") == str(det(matrix)),
                     "det %s != %d" % (values.get("det"), det(matrix)))
        return check


class Invariants(Workload):
    """`bounds`, `torsion` and `psl2z` on a fixed schedule of matrix kinds.

    sl2   criterion-1 word: bounds, torsion --kmax TORSION_K, psl2z --power
          PSL2Z_POWER
    rand  random n x n, n cycling through 3..6, entries in
          [-RAND_BOUND, RAND_BOUND]:
          bounds, plus torsion when n <= 4
    comp  near-circle companion with N in [10^7, 10^8]: bounds only
    """

    name = "invariants"
    SCHEDULE = ("sl2", "rand", "comp", "rand", "comp", "rand")
    TORSION_K = 40
    PSL2Z_POWER = 9
    RAND_BOUND = 5
    items_per_s = 7.0

    def stream(self, seed):
        rng = random.Random(seed)
        dims = itertools.cycle(range(3, 7))
        for kind in itertools.cycle(self.SCHEDULE):
            if kind == "sl2":
                yield kind, sl2_word(rng)
            elif kind == "rand":
                yield kind, random_matrix(rng, next(dims), self.RAND_BOUND)
            else:
                yield kind, near_circle_companion(rng.randint(10 ** 7, 10 ** 8))

    def execute(self, runner, kind, matrix, info):
        arg = matrix_arg(matrix)
        n = len(matrix)
        bounds = runner.call(["bounds", arg]).values()
        torsion = psl2z = None
        if kind != "comp" and n <= 4:
            torsion = runner.call(["torsion", arg, "--kmax", str(self.TORSION_K)])
        if kind == "sl2":
            psl2z = runner.call(["psl2z", arg, "--power", str(self.PSL2Z_POWER)])

        def check():
            rho, ref = float(bounds["rho"]), spectral_radius(matrix)
            _require(abs(rho - ref) <= 1e-6 * max(ref, 1.0),
                     "rho %r, numpy %r" % (rho, ref))
            if torsion is not None:
                self._check_torsion(matrix, torsion.rows())
            if psl2z is not None:
                power = identity(2)
                for _ in range(self.PSL2Z_POWER):
                    power = matmul(power, matrix)
                _require(word_matrix(psl2z.values()["word"]) == power,
                         "psl2z word does not multiply back to A^j")
        return check

    def _check_torsion(self, matrix, rows):
        _require(len(rows) == self.TORSION_K, "torsion printed %d rows" % len(rows))
        ident = identity(len(matrix))
        power = ident
        for k, row in enumerate(rows, start=1):
            power = matmul(power, matrix)
            fields = dict(f.split("=", 1) for f in row)
            if fields["full_rank"] != "True":
                continue
            minus = tuple(tuple(x - y for x, y in zip(r, s))
                          for r, s in zip(power, ident))
            _require(int(fields["torsion"]) == abs(det(minus)),
                     "torsion row k=%d" % k)


WORKLOADS = {w.name: w for w in (ReduceSl2, Reduce3x3, Invariants)}
