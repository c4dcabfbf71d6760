"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload in workloads.py (those
BENCHMARK.json lists and reduce-3x3) it makes a tiny run
(--seconds 0: only the items a workload always completes) untraced and
traced, and checks that the last line is the result object, that every
metric BENCHMARK.json lists is there by name with its unit, and that the
report names failed_frac, cert_cost_mean and k_hat_log2 with their units.
Then, in this process, it runs one reduce-sl2 item whose certificate file
gets one witness coefficient negated between `reduce --out` and
`fill --verify`, and checks that the item is counted as failed.  Exits 0
when every check passes.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_ONLY = {"failed_frac": "ratio", "cert_cost_mean": "l1", "k_hat_log2": "l1/log2"}


def tiny_run(root, spec, workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "12001", "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    problems = []
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(got.items()) ^ set(units.items())))
    expected = dict(units, **REPORT_ONLY)
    for name, unit in expected.items():
        if not any(line.startswith("metric %s=" % name) and " unit=%s" % unit in line
                   for line in lines):
            problems.append("report has no line for %s in %s" % (name, unit))
    print("%-10s trace=%d attempted=%d failed=%d correct=%s %s" % (
        workload, trace, result["attempted"], result["failed"], result["correct"],
        "ok" if not problems else "PROBLEMS"))
    return problems


def tamper_check(root):
    """One reduce-sl2 item with a tampered certificate file, which must
    count as a failed item with a wrong answer."""
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    work = os.path.join(root, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        os.environ["TORFILL_CERT_CACHE"] = tmp
        import torfill.cli
        from workloads import ReduceSl2, Runner

        workload = ReduceSl2(tmp)
        runner = Runner(torfill.cli)
        [(kind, matrix)] = workload.items(12001, 1)

        def flip(path):
            with open(path) as fh:
                obj = json.load(fh)
            term = obj["witness"]["terms"][0]
            term["coeff"] = str(-int(term["coeff"]))
            with open(path, "w") as fh:
                json.dump(obj, fh)

        workload.tamper = flip
        tampered = workload.run_item(runner, 0, kind, matrix)
    print("flipped coefficient: ok=%s wrong=%s (%s)" % (
        tampered.ok, tampered.wrong, tampered.failure))
    if tampered.ok or not tampered.wrong:
        return ["a certificate with a flipped coefficient was not counted as failed"]
    return []


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    from workloads import WORKLOADS
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += tiny_run(root, spec, workload, trace)
    problems += tamper_check(root)
    for p in problems:
        print("PROBLEM", p)
    print("smoke: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
