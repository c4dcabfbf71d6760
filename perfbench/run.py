"""torfill benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload reduce-sl2 --seed 12001 --seconds 40 --trace 0

Run from the repository root; torfill is imported from ./src.  One client
calls `torfill.cli.main(argv)` in this process, closed loop, no threads:
each item starts when the previous one has ended.  Items come from
`random.Random(seed)`; see workloads.py for the inputs and output checks.

A run times a fixed number of items, the first `count(--seconds)` of the
seeded stream (workloads.py), so runs at one seed time the same inputs
however fast the host is.

--trace 0  set-up is timed in fresh probe processes (median of several),
           then the items run once each, and the end-to-end metrics are
           reported.
--trace 1  the cold set-up runs traced in this process; then the first
           `count(--seconds / 2)` items run twice each, untraced and with
           spans around the layer functions (tracing.py), in alternating
           order; the per-layer metrics come from the traced runs, with the
           tracing overhead and the share of item time no span accounts for.

Human-readable lines come first: environment, every metric with its unit and
sample count, failing items by matrix, and exact costs next to the
published baseline.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  `correct` is false when an item
that exited 0 printed a wrong answer, when the fvupper call failed, or when
one of the first 20 reduce-sl2 words failed (cert_cost_mean is then n/a);
other crashes and refusals are counted in `failed` and do not clear it.
Files are written only under .perfbench_work/ (removed at exit) and
.perfbench_out/ (spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

# numpy checks rho; keep BLAS from starting threads in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

from probe import import_torfill, key_name  # noqa: E402
from tracing import (Tracer, dropped_spans, layer_totals,  # noqa: E402
                     self_time_by_item)
from workloads import WORKLOADS, ItemFailure, Runner  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Published baseline (cold base cache); printed next to the measured
# counts, never used to decide `correct`.
BASELINE = {
    "cert_cost_mean": 6117,
    "k_hat_log2": 453.9,
    "base_costs": {"NEGATE_2": 7, "SPLIT_2": 22, "ZERO_1": 2, "ZERO_2": 34,
                   "DEHN_1": 1, "DEHN_2": 3, "DEHN_3": 4, "DOUBLE_HALVE": 11},
}


def report(*fields):
    print(" ".join(str(f) for f in fields), flush=True)


def git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- set-up -------------------------------------------------------------------

def probe_setups(src, work, bootstrap, setups):
    """Time `setups` fresh processes from spawn to first item ready.
    Returns (seconds list, base costs, cache dir filled by the last probe)."""
    times, costs, cache = [], {}, None
    for _ in range(setups):
        cache = tempfile.mkdtemp(prefix="cache-", dir=work)
        env = dict(os.environ, TORFILL_CERT_CACHE=cache)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"),
                               src, "1" if bootstrap else "0"],
                              stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError("set-up probe failed with exit %s" % proc.returncode)
        costs = json.loads(line)["base_costs"]
    return times, costs, cache


# --- timed phase ----------------------------------------------------------------

def timed_items(workload, runner, items):
    """Untraced timing: each item once, in stream order.  Returns
    (outcomes, wall)."""
    outcomes = []
    t0 = time.perf_counter()
    for i, (kind, matrix) in enumerate(items):
        gc.collect()  # each item starts from a collected heap, as a fresh CLI process does
        outcomes.append(workload.run_item(runner, i, kind, matrix))
    return outcomes, time.perf_counter() - t0


def traced_pairs(workload, runner, items, tracer):
    """Traced timing.  Each item runs twice, untraced and traced, in
    alternating order, so both runs see the same inputs and the same
    warm-up.  Returns (untraced outcomes, traced outcomes)."""
    plain, traced = [], []
    for i, (kind, matrix) in enumerate(items):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            gc.collect()
            if not on:
                plain.append(workload.run_item(runner, i, kind, matrix))
                continue
            tracer.item = i
            tracer.install()
            try:
                traced.append(workload.run_item(runner, i, kind, matrix))
            finally:
                tracer.uninstall()
    return plain, traced


def latency_stats(outcomes):
    """(median, tail, note on the tail).

    The median counts failed items as infinitely slow.  The tail is the
    highest nearest-rank percentile of the successful items with at least
    ten of them beyond it: counting failures as infinitely slow would make
    it infinite as soon as more than ten items fail (invariants usually has
    more), and it could then no longer show a slowdown."""
    p50 = statistics.median(o.seconds if o.ok else math.inf for o in outcomes)
    ok = sorted(o.seconds for o in outcomes if o.ok)
    if not ok:
        return p50, math.inf, "no successful items"
    rank = max(len(ok) - 10, 1)
    return p50, ok[rank - 1], "percentile=p%.1f of %d successful items, %d beyond" % (
        100.0 * rank / len(ok), len(ok), len(ok) - rank)


def finish_call(workload, runner):
    try:
        return workload.finish(runner), None
    except (ItemFailure, KeyError, ValueError) as exc:
        return {}, str(exc)


# --- metrics -----------------------------------------------------------------------

def end_to_end(outcomes, wall, setup_times):
    ok = sum(o.ok for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    p50, tail, tail_note = latency_stats(outcomes)
    n = len(outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_items_per_s": ok / busy,
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": "n=%d samples=%s" % (len(setup_times),
                                        ",".join("%.4f" % t for t in setup_times)),
        "throughput_items_per_s": "n=%d ok=%d item_s=%.3f wall_s=%.3f" % (
            n, ok, busy, wall),
        "latency_p50_s": "n=%d" % n,
        "latency_tail_s": "%s, %d failed excluded" % (tail_note, n - ok),
        "peak_rss_mb": "process=run",
    }
    for name in ("latency_p50_s", "latency_tail_s"):
        if math.isinf(metrics[name]):
            # half the items or all of them failed: report the run length,
            # a lower bound on an infinitely slow item
            report("warning %s falls on a failed item; reporting wall_s" % name)
            metrics[name] = wall
    return metrics, notes


# per-layer metrics read straight off the item spans: span name -> fields
LAYER_FIELDS = {
    "chains.pushforward": ("calls", "simplices", "busy_s"),
    "chains.prism_v": ("calls", "simplices", "busy_s"),
    "chains.boundary": ("calls", "simplices", "busy_s"),
    "chains.parallelogram_cycle": ("calls", "busy_s"),
    "filling.verify_certificate": ("busy_s",),
    "filling.reduce_parallelogram": ("busy_s", "self_s"),
    "filling.certificate.assemble": ("busy_s",),
    "formats.save_certificate": ("calls", "busy_s"),
    "formats.load_certificate": ("calls", "busy_s"),
    "exactlinalg.snf": ("calls", "busy_s"),
    "exactlinalg.hnf": ("calls", "busy_s"),
    "exactlinalg.charpoly": ("calls", "busy_s"),
    "exactlinalg.det_exact": ("calls", "busy_s"),
    "spectral.analyze": ("calls", "busy_s", "self_s"),
    "spectral.torsion_growth_table": ("busy_s",),
    "psl2z.decompose": ("busy_s",),
    "psl2z.word_power": ("busy_s",),
    "psl2z.cyclically_reduced_length": ("busy_s",),
    "cli.main": ("calls", "self_s"),
}
BASE_KEYS = ("REARR_2", "REARR_3", "NEGATE_2", "SPLIT_2", "ZERO_1", "ZERO_2",
             "DEHN_0", "DEHN_1", "DEHN_2", "DEHN_3", "DOUBLE_HALVE")


def per_layer(tracer, untraced, traced, base_costs, extra):
    t = layer_totals(tracer, "items")
    setup = layer_totals(tracer, "setup")
    fv = layer_totals(tracer, "fvupper")
    n = len(traced)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "simplices": 0,
             "values": [], "errors": {}}
    t = {name: t.get(name, empty) for name in LAYER_FIELDS}

    m = {"%s.%s" % (name, f): t[name][f]
         for name, fields in LAYER_FIELDS.items() for f in fields}
    for name in ("chains.pushforward", "chains.prism_v", "chains.boundary"):
        busy, simplices = t[name]["busy_s"], t[name]["simplices"]
        m[name + ".s_per_1e4_simplices"] = busy / simplices * 1e4 if simplices else 0.0
    m["filling.verify_certificate.calls_per_item"] = \
        t["filling.verify_certificate"]["calls"] / n
    sizes = t["filling.certificate.assemble"]["values"]
    chunk = sum(s[0] for s in sizes)
    witness = sum(s[1] for s in sizes)
    m["filling.certificate.assemble.chunk_simplices"] = chunk
    m["filling.certificate.assemble.witness_simplices"] = witness
    m["filling.certificate.assemble.cancel_ratio"] = witness / chunk if chunk else 0.0
    solve = setup.get("filling.fill_by_solve", empty)
    m["filling.fill_by_solve.calls"] = solve["calls"]
    m["filling.fill_by_solve.busy_s"] = solve["busy_s"]
    for key in BASE_KEYS:
        m["filling.base.cost." + key] = base_costs.get(key, 0)
    m["filling.fv_upper_experiment.busy_s"] = \
        fv.get("filling.fv_upper_experiment", empty)["busy_s"]
    for name in ("formats.save_certificate", "formats.load_certificate"):
        m[name + ".bytes"] = sum(t[name]["values"])
    m["spectral.precision_exhausted.count"] = \
        t["spectral.analyze"]["errors"].get("PrecisionExhausted", 0)
    m["psl2z.word_power.letters_out"] = sum(t["psl2z.word_power"]["values"])
    m["cli.main.failed_frac"] = sum(not o.ok for o in untraced) / len(untraced)
    thr_u = sum(o.ok for o in untraced) / sum(o.seconds for o in untraced)
    thr_t = sum(o.ok for o in traced) / sum(o.seconds for o in traced)
    m["trace.overhead_items_per_s"] = thr_u - thr_t
    item_wall = sum(o.seconds for o in traced)
    attributed = self_time_by_item(tracer)
    m["trace.unattributed_frac"] = (item_wall - sum(attributed.values())) / item_wall
    m["trace.items"] = n
    m["filling.reduce_parallelogram.cert_cost_mean"] = extra.get("cert_cost_mean", 0)
    m["filling.fv_upper_experiment.k_hat_log2"] = extra.get("k_hat_log2", 0)

    per_item = sorted((o.seconds - attributed.get(o.index, 0.0)) / o.seconds
                      for o in traced if o.seconds > 0)
    report("coverage items=%d unattributed_share_total=%.6f median=%.6f max=%.6f "
           "dropped_spans=%d" % (n, m["trace.unattributed_frac"],
                                 statistics.median(per_item), per_item[-1],
                                 dropped_spans(tracer)))
    report("overhead untraced_items_per_s=%.6f traced_items_per_s=%.6f "
           "untraced_items=%d" % (thr_u, thr_t, len(untraced)))
    for name in ("spectral.analyze", "exactlinalg.snf", "psl2z.word_power",
                 "filling.reduce_parallelogram", "formats.save_certificate"):
        report("share_of_item_time %s=%.4f" % (name, t[name]["busy_s"] / item_wall))
    return m


# --- main ------------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=12001)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args, root, work):
    """One benchmark run; returns the result object (without printing it)."""
    src = os.path.join(root, "src")
    workload = WORKLOADS[args.workload](work)
    e2e_units, layer_units = load_spec(root)

    setup_times, base_costs = [], {}
    if args.trace == 0:
        setup_times, base_costs, cache = probe_setups(src, work, workload.bootstrap,
                                                      workload.setups)
        os.environ["TORFILL_CERT_CACHE"] = cache  # warm: filled by the last probe
    else:
        os.environ["TORFILL_CERT_CACHE"] = tempfile.mkdtemp(prefix="cache-", dir=work)
    cli, default_cache = import_torfill(src)

    import mpmath
    report("env python=%s mpmath=%s numpy=%s nproc=%s commit=%s" % (
        sys.version.split()[0], mpmath.__version__, numpy.__version__,
        os.cpu_count(), git_commit(root)))
    count = workload.count(args.seconds / 2 if args.trace else args.seconds)
    report("env workload=%s seed=%d seconds=%g trace=%d items=%d" % (
        args.workload, args.seed, args.seconds, args.trace, count))
    items = workload.items(args.seed, count)

    tracer = Tracer() if args.trace else None
    runner = Runner(cli, after_call=tracer.reset_stack if tracer else None)

    if workload.bootstrap:
        if tracer:
            tracer.install()
            tracer.item = "setup"
        costs = default_cache().bootstrap_all()
        if tracer:
            tracer.uninstall()
            base_costs = {key_name(key): c for key, c in costs.items()}

    if tracer:
        outcomes, traced = traced_pairs(workload, runner, items, tracer)
        tracer.install()
        tracer.item = "fvupper"
    else:
        outcomes, wall = timed_items(workload, runner, items)
    extra, finish_error = finish_call(workload, runner)
    if tracer:
        tracer.uninstall()

    attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)
    wrong = [o for o in outcomes if o.wrong]
    costs_missing = False
    if args.workload == "reduce-sl2":
        first = outcomes[:workload.min_items]
        if all(o.ok for o in first):
            costs = [o.info["cost"] for o in first]
            extra["cert_cost_mean"] = Fraction(sum(costs), len(costs))
        else:
            # a mean over fewer words would not repeat between commits
            costs_missing = True
            report("warning cert_cost_mean is n/a: an item among the first %d failed"
                   % len(first))
    for o in outcomes:
        if not o.ok:
            report("failed_item index=%d kind=%s matrix=%s wrong=%s reason=%s" % (
                o.index, o.kind, ";".join(",".join(map(str, r)) for r in o.matrix),
                o.wrong, o.failure))
    if finish_error:
        report("failed_call fvupper reason=%s" % finish_error)

    # exact counts next to the published baseline
    if "cert_cost_mean" in extra:
        report("baseline cert_cost_mean=%s over the first %d items (cost sum %d) "
               "published=%s" % (extra["cert_cost_mean"], len(costs), sum(costs),
                                 BASELINE["cert_cost_mean"]))
    if "k_hat_log2" in extra:
        report("baseline k_hat_log2=%r published=%s fvupper_s=%.4f" % (
            extra["k_hat_log2"], BASELINE["k_hat_log2"], extra["fvupper_s"]))
    if base_costs:
        report("baseline base_costs %s published %s" % (
            " ".join("%s=%s" % kv for kv in sorted(base_costs.items())),
            " ".join("%s=%s" % kv for kv in sorted(BASELINE["base_costs"].items()))))

    failed_frac = failed / attempted
    report("metric failed_frac=%.6f unit=ratio n=%d failed=%d" % (
        failed_frac, attempted, failed))
    for name in ("cert_cost_mean", "k_hat_log2"):
        value = extra.get(name)
        report("metric %s=%s unit=%s" % (
            name, "n/a" if value is None else repr(float(value)),
            "l1" if name == "cert_cost_mean" else "l1/log2"))

    if tracer:
        metrics = per_layer(tracer, outcomes, traced, base_costs,
                            {k: float(v) for k, v in extra.items()})
        units = layer_units
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (
            args.workload, args.seed))
        tracer.write(spans_path)
        report("spans file=%s spans=%d kernel_aggregates=%d" % (
            os.path.relpath(spans_path, root), len(tracer.spans), len(tracer.kernels)))
        notes = {}
    else:
        metrics, notes = end_to_end(outcomes, wall, setup_times)
        units = e2e_units
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s" % (
            sorted(set(metrics) ^ set(units)), args.trace))
    for name in sorted(metrics):
        report("metric %s=%r unit=%s %s" % (name, metrics[name], units[name],
                                            notes.get(name, "")))
    return {
        "correct": not wrong and finish_error is None and not costs_missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "torfill", "cli.py")):
        sys.stderr.write("perfbench: no torfill sources at src/torfill; run from "
                         "the root of a torfill checkout\n")
        return 2
    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
