"""Digest the CLI's output on a fixed set of calls, one sha256 per group.

    PYTHONPATH=src python3 tools/output_digest.py

Each call runs `torfill.cli.main(argv)` in this process, with `torfill`
imported from PYTHONPATH, so two checkouts compare by running the tool once
with each one's src/.  The calls run in a temporary working directory and
name their `--out` files relatively, so a `certificate_file=` line reads the
same in any checkout.  For each group the tool prints its call count and one
sha256 over every call's argv, exit code, stdout, stderr and the bytes of
its `--out` file, if the call wrote one.  Two checkouts whose digests agree
print the same bytes, exit with the same codes and write the same
certificate files on that group.

Groups and their seeded draws:
- round_trip: 100 words of `selftest.random_sl2_word(random.Random(12001))`
  and 100 of `random.Random(777)`, each run as `reduce --trace --out
  word_<i>.json` and then `fill --verify word_<i>.json` (400 calls);
- reduce_3x3: `reduce --trace` on 50 3x3 matrices with entries in [-6, 6],
  drawn row by row from `random.Random(12001)`;
- reduce_trace: `reduce --trace` on 2,4;1,2, on diag(3, 5, 7) and on
  1025,1024;1,1;
- fvupper: `fvupper` on 2,1;1,1 and on the companion 0,0,1;1,0,-1;0,1,3
  with `--jmax 12`, and on 1025,1024;1,1 with `--jmax 6`;
- bounds: `bounds --stats` on 280 matrices from `random.Random(12001)`,
  cycling through a criterion-1 word (`selftest.random_sl2_word`), an n x n
  matrix with entries in [-5, 5] (n cycling through 3..6), and the
  companion of x^3 - (N+1)x^2 + Nx - N with N drawn from [10^7, 10^8];
- fill: `fill --cycle cycle_<i>.json --out fill_<i>.json`, then `fill
  --verify fill_<i>.json`, on the 7 universal cycles of the base keys with
  `--max-expand 3` and on 30 plane cycles d(W) Q(V) - d(V) Q(W) in T^2 with
  `--max-expand 2`, where V and W are 2x2 matrices with entries in [-2, 2],
  V then W, drawn row by row from `random.Random(12001)` (74 calls);
- failing: calls that end in an input error or a rejected certificate: a
  ragged, a non-numeric and a non-square matrix, a usage error, a
  certificate file cut short, one whose first trace cost was raised by
  1000, and two results beyond the interpreter's digit limit for printing
  an integer (`bounds` on (10^1500 - 1) I and `torsion --kmax 2` on
  diag(10^2200 - 1, 2)).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import tempfile

from torfill.cli import main
from torfill.exactlinalg import det_rows
from torfill.filling import BASE_KEYS, universal_cycle
from torfill.filling.certificate import presentation_chain
from torfill.formats import _chain_text
from torfill.selftest import random_sl2_word


def matrix_arg(rows):
    """`--matrix=<rows>`: a leading minus sign in an argument of its own
    would be read as an option."""
    return "--matrix=" + ";".join(",".join(map(str, row)) for row in rows)


def random_matrix(rng, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def round_trip_calls():
    for seed in (12001, 777):
        rng = random.Random(seed)
        for i in range(100):
            path = "word_%d_%d.json" % (seed, i)
            yield ["reduce", "--trace", matrix_arg(random_sl2_word(rng).data),
                   "--out", path]
            yield ["fill", "--verify", path]


def reduce_3x3_calls():
    rng = random.Random(12001)
    for _ in range(50):
        yield ["reduce", "--trace", matrix_arg(random_matrix(rng, 3, 6))]


def bounds_calls():
    rng = random.Random(12001)
    dims = itertools.cycle(range(3, 7))
    for i in range(280):
        if i % 3 == 0:
            a = random_sl2_word(rng).data
        elif i % 3 == 1:
            a = random_matrix(rng, next(dims), 5)
        else:
            n = rng.randint(10 ** 7, 10 ** 8)
            a = [[0, 0, n], [1, 0, -n], [0, 1, n + 1]]
        yield ["bounds", "--stats", matrix_arg(a)]


def fill_calls():
    cycles = [(universal_cycle(key), "3") for key in BASE_KEYS]
    rng = random.Random(12001)
    for _ in range(30):
        v, w = random_matrix(rng, 2, 2), random_matrix(rng, 2, 2)
        cycles.append((presentation_chain(
            2, 2, ((det_rows(w), v), (-det_rows(v), w))), "2"))
    for i, (z, max_expand) in enumerate(cycles):
        with open("cycle_%d.json" % i, "w", encoding="utf-8") as fh:
            fh.write(_chain_text(z))
        yield ["fill", "--cycle", "cycle_%d.json" % i, "--max-expand",
               max_expand, "--out", "fill_%d.json" % i]
        yield ["fill", "--verify", "fill_%d.json" % i]


def failing_calls():
    for argv in (["reduce", "-m", "1,2;3"], ["bounds", "-m", "2,x;1,1"],
                 ["torsion", "-m", "1,2,3;4,5,6"], ["bounds"],
                 ["reduce", "-m", "2,1;1,1", "--out", "good.json"]):
        yield argv
    with open("good.json", encoding="utf-8") as fh:
        text = fh.read()
    with open("short.json", "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    obj = json.loads(text)
    obj["trace"][0]["cost"] = str(int(obj["trace"][0]["cost"]) + 1000)
    with open("tampered.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    yield ["fill", "--verify", "short.json"]
    yield ["fill", "--verify", "tampered.json"]
    yield ["bounds", "-m", "{0},0,0;0,{0},0;0,0,{0}".format("9" * 1500)]
    yield ["torsion", "-m", "%s,0;0,2" % ("9" * 2200), "--kmax", "2"]


GROUPS = {
    "round_trip": round_trip_calls,
    "reduce_3x3": reduce_3x3_calls,
    "reduce_trace": lambda: (["reduce", "--trace", "--matrix=" + m] for m in
                             ("2,4;1,2", "3,0,0;0,5,0;0,0,7",
                              "1025,1024;1,1")),
    "fvupper": lambda: (["fvupper", "--matrix=" + m, "--jmax", j] for m, j in
                        (("2,1;1,1", "12"), ("0,0,1;1,0,-1;0,1,3", "12"),
                         ("1025,1024;1,1", "6"))),
    "bounds": bounds_calls,
    "fill": fill_calls,
    "failing": failing_calls,
}


def digest(calls):
    """(number of calls, hex sha256 of their records)."""
    h = hashlib.sha256()
    count = 0
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = None
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    written = fh.read().hex()
        record = [argv, code, out.getvalue(), err.getvalue(), written]
        h.update(json.dumps(record).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def run():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, calls in GROUPS.items():
                count, hexdigest = digest(calls())
                print("group=%s calls=%d sha256=%s" % (name, count, hexdigest),
                      flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    run()
