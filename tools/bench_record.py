"""Record alternating benchmark pairs as BENCH_<pr>.json.

    python3 tools/bench_record.py --out BENCH_17.json --pairs 10 --against DIR

DIR is a second checkout, such as the parent commit made with `git clone`
or `git archive`.  For each pair and each workload (reduce-sl2, invariants)
this runs

    perfbench/run.py --workload W --seed 12001 --seconds 40 --trace 0

as a subprocess once in this checkout ("new") and once in DIR ("old"),
alternating from pair to pair which side runs first (pair 0: old first).
Without --against only this checkout runs.  Nothing under perfbench/ is
changed or imported.

Each pair also runs, per side and in the same order, one subprocess that
times in process, with that side's src/ on PYTHONPATH:
- `reduce` on the 50 seed-12001 `reduce-3x3` matrices (entries in
  [-6, 6], drawn as perfbench draws them): `reduce_3x3_cost_mean`, null
  when one of them fails, and `reduce_3x3_s`, the wall time of the 50;
- then `fvupper -m "0,0,1;1,0,-1;0,1,3" --jmax 6`:
  `fvupper_3x3_k_hat_log2` and `fvupper_3x3_s`, its wall time;
- then `reduce` on 50 2x2 matrices with entries in [-6, 6], drawn the same
  way from their own `Random(12001)`: `reduce_2x2_cost_mean`;
- then `torsion --kmax 40` on 20 4x4 and on 20 5x5 matrices with entries
  in [-5, 5], each size from its own `Random(12001)`: `torsion_4x4_s` and
  `torsion_5x5_s`, the wall time of each 20, null when one of them fails.
A second subprocess per side then times `torfill.spectral.analyze` on 40
nxn matrices with entries in [-5, 5] for n = 2..6, each n from its own
`Random(12001)`: `analyze_2x2_s` .. `analyze_6x6_s`, the least wall time
of each 40 over 3 rounds, null when one of them fails or the side lacks
that API.
These go under "3x3" in the same layout as a workload.

A run's last line is its JSON result: the end-to-end metrics, `failed`,
`attempted` and `correct`.  Its `metric cert_cost_mean=` and
`metric k_hat_log2=` lines add the certificate costs (lower is better);
"n/a" is recorded as null.  For every metric of every workload the file
holds each side's values in run order, their median and quartiles, and
the pairs in which "new" was better, worse or tied, with "better" taken
from BENCHMARK.json, and `gain_shown`: whether new was better in at least
9 of every 10 pairs with values (ties count for neither side) and its
median beats the old median by more than the old side's q3 - q1.  It also
holds the Python version, os.cpu_count(), each side's commit and one
tier-1 wall time of this checkout, run before the pairs.  Progress goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import textwrap
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("reduce-sl2", "invariants")
RUN_ARGS = ("--seed", "12001", "--seconds", "40", "--trace", "0")
COST_METRICS = ("cert_cost_mean", "k_hat_log2")
THREE_BY_THREE = textwrap.dedent("""
    import contextlib, io, json, random, time
    from torfill.cli import main

    def call(argv):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        seconds = time.perf_counter() - t0
        values = dict(line.split("=", 1) for line in out.getvalue().splitlines()
                      if "=" in line and not line.startswith("row "))
        return code, values, seconds

    def reduce_set(n):
        # (cost mean or None, wall seconds, failures) of reduce on 50
        # seed-12001 nxn matrices with entries in [-6, 6]
        rng = random.Random(12001)
        costs, seconds = [], 0.0
        for _ in range(50):
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            code, values, s = call(["reduce", "--matrix=" + ";".join(
                ",".join(map(str, r)) for r in a)])
            seconds += s
            if code == 0 and values.get("verified") == "True":
                costs.append(int(values["cost"]))
        mean = sum(costs) / 50 if len(costs) == 50 else None
        return mean, seconds, 50 - len(costs)

    def torsion_set(n):
        # (wall seconds or None, failures) of torsion --kmax 40 on 20
        # seed-12001 nxn matrices with entries in [-5, 5]
        rng = random.Random(12001)
        seconds, failed = 0.0, 0
        for _ in range(20):
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            code, values, s = call(["torsion", "--kmax", "40", "--matrix="
                                    + ";".join(",".join(map(str, r))
                                               for r in a)])
            seconds += s
            failed += code != 0 or "target_ln" not in values
        return (seconds if not failed else None), failed

    mean_3x3, seconds_3x3, failed = reduce_set(3)
    code, values, seconds = call(["fvupper", "-m", "0,0,1;1,0,-1;0,1,3",
                                  "--jmax", "6"])
    fv_ok = code == 0 and "k_hat_log2" in values
    failed += not fv_ok
    mean_2x2, _, failed_2x2 = reduce_set(2)
    failed += failed_2x2
    torsion_4x4, failed_4x4 = torsion_set(4)
    torsion_5x5, failed_5x5 = torsion_set(5)
    failed += failed_4x4 + failed_5x5
    print(json.dumps({
        "values": {
            "reduce_3x3_cost_mean": mean_3x3,
            "reduce_3x3_s": seconds_3x3 if mean_3x3 is not None else None,
            "fvupper_3x3_k_hat_log2": float(values["k_hat_log2"])
            if fv_ok else None,
            "fvupper_3x3_s": seconds if fv_ok else None,
            "reduce_2x2_cost_mean": mean_2x2,
            "torsion_4x4_s": torsion_4x4,
            "torsion_5x5_s": torsion_5x5},
        "status": {"failed": failed, "attempted": 141,
                   "correct": failed == 0}}))
""")

ANALYZE_BY_N = textwrap.dedent("""
    import json, random, time
    try:
        from torfill.errors import TorfillError
        from torfill.exactlinalg import IntMatrix
        from torfill.spectral import analyze
    except ImportError:
        analyze = None
    values, failed = {}, 0
    for n in range(2, 7):
        seconds = None
        if analyze is not None:
            rng = random.Random(12001)
            mats = [IntMatrix([[rng.randint(-5, 5) for _ in range(n)]
                               for _ in range(n)]) for _ in range(40)]
            times, fails = [], 0
            for _ in range(3):
                t0 = time.perf_counter()
                for a in mats:
                    try:
                        analyze(a)
                    except TorfillError:
                        fails += 1
                times.append(time.perf_counter() - t0)
            seconds = min(times) if not fails else None
            failed += fails
        values["analyze_%dx%d_s" % (n, n)] = seconds
    attempted = 600 if analyze is not None else 0
    print(json.dumps({"values": values,
                      "status": {"failed": failed, "attempted": attempted,
                                 "correct": failed == 0}}))
""")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10,
                   help="runs per side and workload (default 10)")
    p.add_argument("--against", metavar="DIR",
                   help="checkout to compare with, run as the old side")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.against and not os.path.isfile(
            os.path.join(args.against, "perfbench", "run.py")):
        p.error("--against %s has no perfbench/run.py" % args.against)
    return args


def commit(root):
    """HEAD of a git checkout, with "-dirty" when a tracked file differs;
    None when root is not a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=root,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def tier1(root):
    """Wall time and summary line of the tier-1 suite in root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"], cwd=root,
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def bench_run(root, workload):
    """One perfbench run: {metric: value}, failed, attempted, correct."""
    proc = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", workload, *RUN_ARGS], cwd=root,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("perfbench in %s exited %d: %s"
                           % (root, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        for name in COST_METRICS:
            prefix = "metric %s=" % name
            if line.startswith(prefix):
                text = line[len(prefix):].split()[0]
                values[name] = None if text == "n/a" else float(text)
    return values, {key: result[key] for key in ("failed", "attempted",
                                                 "correct")}


def in_process(root, script):
    """Run a timing script with root's src/ on PYTHONPATH: ({metric:
    value}, status) from its last line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("timing script in %s exited %d: %s"
                           % (root, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    return result["values"], result["status"]


def three_by_three(root):
    """The 3x3 numbers of one side, with analyze by n: ({metric: value},
    status)."""
    values, status = in_process(root, THREE_BY_THREE)
    more, more_status = in_process(root, ANALYZE_BY_N)
    values.update(more)
    failed = status["failed"] + more_status["failed"]
    return values, {"failed": failed, "correct": failed == 0,
                    "attempted": status["attempted"]
                    + more_status["attempted"]}


def spread(values):
    """Median and quartiles of the values that are not None."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair_counts(new, old, better):
    """Pairs in which new is better, worse or tied; a pair with a null
    value counts for none of them."""
    counts = {"new_better": 0, "new_worse": 0, "tied": 0}
    for a, b in zip(new, old):
        if a is None or b is None:
            continue
        if a == b:
            counts["tied"] += 1
        elif (a < b) == (better == "lower"):
            counts["new_better"] += 1
        else:
            counts["new_worse"] += 1
    return counts


def gain_shown(entry):
    """The rule for claiming a gain on one metric: new better in at least 9
    of every 10 pairs that have values, and the medians apart, in the
    better direction, by more than the old side's interquartile range."""
    pairs = entry["new_better"] + entry["new_worse"] + entry["tied"]
    if not pairs:
        return False
    new, old = entry["new"], entry["old"]
    margin = new["median"] - old["median"]
    if entry["better"] == "lower":
        margin = -margin
    return (10 * entry["new_better"] >= 9 * pairs
            and margin > old["q3"] - old["q1"])


def summarise(runs, sides, better):
    """runs[side] is a list of (values, status) in run order."""
    out = {}
    for key in ("failed", "attempted", "correct"):
        out[key] = {side: [status[key] for _, status in runs[side]]
                    for side in sides}
    metrics = {}
    names = sorted({n for side in sides for values, _ in runs[side]
                    for n in values})
    for name in names:
        entry = {"better": better.get(name, "lower")}
        for side in sides:
            values = [values.get(name) for values, _ in runs[side]]
            entry[side] = dict(values=values, **spread(values))
        if "old" in sides:
            entry.update(pair_counts(entry["new"]["values"],
                                     entry["old"]["values"], entry["better"]))
            entry["gain_shown"] = gain_shown(entry)
        metrics[name] = entry
    out["metrics"] = metrics
    return out


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    roots = {"new": ROOT}
    if args.against:
        roots["old"] = os.path.abspath(args.against)
    sides = tuple(roots)
    record = {
        "command": "perfbench/run.py --workload W " + " ".join(RUN_ARGS),
        "env": {"python": sys.version.split()[0], "cpu_count": os.cpu_count()},
        "commits": {side: commit(root) for side, root in roots.items()},
        "pairs": args.pairs,
    }
    sys.stderr.write("tier-1 in %s\n" % ROOT)
    record["tier1"] = tier1(ROOT)
    runs = {w: {side: [] for side in sides} for w in WORKLOADS + ("3x3",)}
    order = []
    for i in range(args.pairs):
        first = sides[::-1] if i % 2 == 0 else sides  # pair 0: old first
        order.append("-".join(first))
        for workload in WORKLOADS:
            for side in first:
                sys.stderr.write("pair %d/%d %s %s\n"
                                 % (i + 1, args.pairs, workload, side))
                runs[workload][side].append(bench_run(roots[side], workload))
        for side in first:
            sys.stderr.write("pair %d/%d 3x3 %s\n" % (i + 1, args.pairs, side))
            runs["3x3"][side].append(three_by_three(roots[side]))
    record["order"] = order
    record["workloads"] = {w: summarise(runs[w], sides, better)
                           for w in WORKLOADS}
    record["3x3"] = summarise(runs["3x3"], sides, better)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
