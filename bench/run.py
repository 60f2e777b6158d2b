"""Benchmark of the weylknots pipeline: rep -> switch -> braid matrix ->
closure invariants, plus the identity engine.

    python3 bench/run.py --workload zp-braids --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload flat-ideals --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --all [--quick] [--seed 1] [--seconds 25]
    python3 bench/run.py --write-expected

Run from the repository root; the library is imported from ``src/``.
Load is a closed loop with one client: one process, one thread, each op
starting when the previous one returns.

``--trace 0`` measures whole rounds of the workload's op list until
``--seconds`` have passed and reports the end-to-end metrics.
``--trace 1`` runs the workload's fixed traced op list twice, untraced and
then traced, and reports the per-layer metrics.  ``--quick`` runs the
first few ops of round 0 instead.  ``--all`` runs every workload in its
own process, prints every end-to-end metric by name and unit, and exits
non-zero on any wrong output.  The last line of a workload run is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are scaled to a reference machine speed by a calibration
loop run between ops (see ``calibration_seconds``); the raw values are in
the line before the result.  ``op_s_tail`` is the workload's tail
percentile, lowered when needed so that at least 10 samples lie beyond
it; the percentile used and the sample count are in that line as well.

An output is wrong when it differs from the output known by construction
(paper fixtures, weyl-verify verdicts), from the output of the op it is a
conjugate of, from an earlier op with the same input, or -- for the
recorded seed -- from ``bench/expected.json``, and when it contradicts
itself (see ``workloads.inconsistency``).

The Kishino fixture is too slow for a timed run; it is checked by
``python3 -m pytest bench/kishino_check.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

WORKLOAD_NAMES = ("zp-braids", "flat-ideals", "symbolic-switch", "weyl-verify")
# The seed whose outputs bench/expected.json records, and the rounds recorded
# per workload: about twice what a run covers at the reference speed.
# weyl-verify verdicts are known by construction and need no record.
RECORD_SEED = 1
RECORD_ROUNDS = {"zp-braids": 40, "flat-ideals": 40, "symbolic-switch": 30}
# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 11
# What a CLI call imports: the package and every module the ops use.
SETUP_IMPORT = ("import weylknots, weylknots.braids, weylknots.linalg, "
                "weylknots.reps, weylknots.switches, weylknots.weyl")
# A tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES = 10
QUICK_OPS = 3
# The calibration loop and its time at the reference speed (close to this
# loop's time on an idle 2-core x86-64 container with CPython 3.11).
CALIBRATION_STEPS = 10000
REFERENCE_CALIBRATION_S = 0.004
CALIBRATE_EVERY_S = 0.2

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_s_p50", "s"),
    ("op_s_tail", "s"), ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
)
LAYER_SPANS = (
    "reps.build", "switches.weyl_switch", "switches.inverse", "braids.parse",
    "braids.represent", "linalg.closure", "linalg.rank", "linalg.det",
    "linalg.minors_gcd", "rings.canonicalize", "weyl.parse", "weyl.verify",
)
LAYER_COUNTS = (
    ("braids.letters", "count"), ("braids.matrix_dim_max", "count"),
    ("braids.entry_degree_max", "degree"), ("linalg.minors_gcd_calls", "count"),
    ("linalg.minors_bound", "count"), ("switches.block_degree_max", "degree"),
    ("weyl.coeff_degree_max", "degree"), ("rings.output_degree_max", "degree"),
)
PER_LAYER = (tuple((f"{name}_s", "s") for name in LAYER_SPANS) + LAYER_COUNTS
             + (("bench.glue_s", "s"), ("bench.op_s", "s"), ("trace.overhead", "ratio")))


def _load_library():
    if not os.path.isdir(os.path.join(SRC, "weylknots")):
        sys.exit(f"bench: no weylknots package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import tracing
    import workloads
    return tracing, workloads


# ---------------------------------------------------------------------------
# output checking
# ---------------------------------------------------------------------------

class Checker:
    """Compares each op's output with every reference available for it."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.outputs = {}
        self.by_input = {}
        self.record = {}
        if seed == RECORD_SEED:
            with open(EXPECTED_PATH, encoding="utf-8") as fh:
                self.record = json.load(fh).get(wl.name, {})
        self.wrong = []

    def check(self, op, output) -> bool:
        refs = []
        if op.expect is not None:
            refs.append(("construction", op.expect))
        if op.twin_of in self.outputs:
            refs.append((f"conjugate of {op.twin_of}", self.outputs[op.twin_of]))
        same_input = (repr(op.rep), op.word, op.lhs, op.rhs)
        if same_input in self.by_input:
            refs.append(("same input", self.by_input[same_input]))
        if op.key in self.record:
            refs.append(("record", self.record[op.key]))
        self.outputs[op.key] = output
        self.by_input.setdefault(same_input, output)
        bad = [(why, ref) for why, ref in refs if ref != output]
        problem = self.wl.inconsistency(output)
        if problem:
            bad.append((problem, None))
        if bad:
            self.wrong.append({"op": op.key, "output": output, "expected": bad})
        return not bad


def run_op(wl, op, tr, checker, on_sizes=None):
    """Run one op and check its output; returns (seconds, failure or None)."""
    tr.begin_op(op.key)
    start = time.perf_counter()
    try:
        with tr.span("op"):
            output, objects = wl.run(op, tr)
    except Exception as err:  # every failure is counted, none stops the run
        return time.perf_counter() - start, f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    if on_sizes is not None:
        on_sizes(tr, objects)
    return seconds, None if checker.check(op, output) else "wrong output"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def calibration_seconds():
    """Wall time of a fixed pure-Python loop that never touches the library.

    On a shared host the machine's speed drifts by a factor of up to two
    within seconds, and this loop slows with it.  Every stretch of about
    CALIBRATE_EVERY_S is scaled by REFERENCE_CALIBRATION_S / (mean of the
    calibrations around it), which reports it in seconds at a fixed
    reference speed.  A change to the library cannot move this loop.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(CALIBRATION_STEPS):
        k = i * 7919 % 1009
        table[k] = table.get(k, 0) + i
        acc += len([i, k, acc & 255])
    sorted(table.values())
    return time.perf_counter() - start


def run_ops(wl, ops, tr, checker, timings, on_sizes=None):
    """Run ops in order, adding each op's time to ``timings``; returns the
    failures."""
    failures = []
    for op in ops:
        seconds, failure = run_op(wl, op, tr, checker, on_sizes)
        timings.add(seconds, failure is None)
        if failure:
            failures.append({"op": op.key, "error": failure})
    return failures


class Calibrated:
    """Op times, raw and scaled by the calibrations around them."""

    def __init__(self):
        self.raw, self.scaled, self.ok = [], [], []
        self._pending = []
        self._before = calibration_seconds()
        self._since = time.perf_counter()

    def add(self, seconds, ok=True):
        self._pending.append(seconds)
        self.ok.append(ok)
        if time.perf_counter() - self._since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        after = calibration_seconds()
        factor = 2 * REFERENCE_CALIBRATION_S / (self._before + after)
        self.raw += self._pending
        self.scaled += [x * factor for x in self._pending]
        self._pending = []
        self._before = after
        self._since = time.perf_counter()

    def completed(self, times):
        """The times of ops that did not fail (all of them if every op did)."""
        return [x for x, ok in zip(times, self.ok) if ok] or times


def setup_seconds(repeats=SETUP_REPEATS):
    """Median time, at reference speed, for a fresh interpreter to import
    the library, timed inside the child so process start-up noise stays
    out; one unmeasured import first, so compiling bytecode is not
    counted.  Returns (scaled median, raw median)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import time; start = time.perf_counter(); "
           f"{SETUP_IMPORT}; print(time.perf_counter() - start)"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
    timings = Calibrated()
    for _ in range(repeats):
        child = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                               text=True)
        timings.add(float(child.stdout))
        timings.flush()
    return statistics.median(timings.scaled), statistics.median(timings.raw)


def peak_rss_mb():
    """Peak resident memory of this process.  Linux keeps ru_maxrss across
    exec, so a run started from a large parent would report the parent's
    peak; VmHWM belongs to this program image alone."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(latencies, preferred):
    """(percentile, value, samples beyond it): the workload's percentile, or
    lower when fewer than TAIL_SAMPLES samples would lie beyond it -- the
    highest percentile that keeps TAIL_SAMPLES beyond (the median at
    least)."""
    ordered = sorted(latencies)
    n = len(ordered)
    p = max(min(preferred, 100 * (1 - TAIL_SAMPLES / n)), 50)
    rank = max(math.ceil(n * p / 100), 1)
    return p, ordered[rank - 1], n - rank


def run_untraced(mods, name, seed, seconds, quick):
    """Whole rounds until ``seconds`` have passed, op times scaled to the
    reference speed."""
    tracing, workloads = mods
    wl = workloads.WORKLOADS[name](seed)
    setup, setup_raw = setup_seconds()
    checker = Checker(wl, seed)
    tr = tracing.NullTracer()
    timings = Calibrated()
    failures, attempted, rounds = [], 0, 0
    start = time.perf_counter()
    for ops in wl.rounds():
        if quick:
            ops = ops[:QUICK_OPS]
        failures += run_ops(wl, ops, tr, checker, timings)
        attempted += len(ops)
        rounds += 1
        if quick or time.perf_counter() - start >= seconds:
            break
    timings.flush()
    elapsed = time.perf_counter() - start
    completed = attempted - len(failures)
    ok_times, ok_raw = timings.completed(timings.scaled), timings.completed(timings.raw)
    p, tail_value, beyond = tail(ok_times, wl.tail_percentile)
    metrics = {
        "setup_s": setup,
        "ops_per_s": completed / sum(timings.scaled),
        "op_s_p50": statistics.median(ok_times),
        "op_s_tail": tail_value,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": completed / attempted,
    }
    unscaled = {
        "setup_s": setup_raw,
        "ops_per_s": completed / sum(timings.raw),
        "op_s_p50": statistics.median(ok_raw),
        "op_s_tail": tail(ok_raw, p)[1],
        "speed": sum(timings.raw) / sum(timings.scaled),
    }
    detail = {"workload": name, "seed": seed, "rounds": rounds, "ops": attempted,
              "elapsed_s": elapsed, "tail_percentile": p, "tail_samples": len(ok_times),
              "tail_samples_beyond": beyond, "failures": failures[:10],
              "unscaled": unscaled, "wrong": checker.wrong[:10],
              "outputs": checker.outputs}
    return _result(metrics, END_TO_END, attempted, failures, checker), detail


def traced_ops(wl, quick):
    rounds = wl.rounds()
    if quick:
        return next(rounds)[:QUICK_OPS]
    return [op for _ in range(wl.trace_rounds) for op in next(rounds)]


def run_traced(mods, name, seed, quick):
    """The fixed traced op list, once untraced and once traced."""
    tracing, workloads = mods
    wl = workloads.WORKLOADS[name](seed)
    ops = traced_ops(wl, quick)
    checker = Checker(wl, seed)
    plain = Calibrated()
    failures = run_ops(wl, ops, tracing.NullTracer(), checker, plain)
    plain.flush()
    tr, traced = tracing.Tracer(), Calibrated()
    failures += run_ops(wl, ops, tr, checker, traced, workloads.record_sizes)
    traced.flush()
    untraced_s, traced_s = sum(plain.scaled), sum(traced.scaled)
    spans = tr.self_times()
    metrics = {f"{span}_s": spans.get(span, (0.0, 0.0))[0] for span in LAYER_SPANS}
    metrics.update({name_: tr.counts.get(name_, 0) for name_, _ in LAYER_COUNTS})
    op_total, glue = spans.get("op", (0.0, 0.0))
    metrics.update({
        "bench.glue_s": glue,
        "bench.op_s": op_total,
        "trace.overhead": (traced_s - untraced_s) / untraced_s,
    })
    detail = {"workload": name, "seed": seed, "ops": len(ops), "failures": failures[:10],
              "wrong": checker.wrong[:10], "outputs": checker.outputs}
    return _result(metrics, PER_LAYER, 2 * len(ops), failures, checker), detail


def _result(values, names, attempted, failures, checker):
    return {
        "correct": not checker.wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_all(args):
    """Every workload in its own process; a table of end-to-end metrics."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}  seed {args.seed}  {detail['ops']} ops  correct={result['correct']}"
              f"  failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            note = ""
            if metric == "op_s_tail":
                note = (f"  (p{detail['tail_percentile']:.4g} of {detail['tail_samples']}"
                        f" samples, {detail['tail_samples_beyond']} beyond)")
            print(f"  {metric:12s} {entry['value']:14.6g} {entry['unit']}{note}")
        for wrong in detail["wrong"]:
            print(f"  WRONG {wrong}")
        ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def write_expected(mods):
    """Record the outputs of the first rounds of RECORD_SEED."""
    tracing, workloads = mods
    record = {}
    for name, count in RECORD_ROUNDS.items():
        wl = workloads.WORKLOADS[name](RECORD_SEED)
        ops = [op for _, ops in zip(range(count), wl.rounds()) for op in ops]
        checker = Checker(wl, None)
        failures = run_ops(wl, ops, tracing.NullTracer(), checker, Calibrated())
        if failures:
            sys.exit(f"not recording {name}: {failures[:3]}")
        record[name] = checker.outputs
        print(f"{name}: {len(ops)} outputs", file=sys.stderr)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    mods = _load_library()
    if args.all:
        return run_all(args)
    if args.write_expected:
        write_expected(mods)
        return 0
    if args.workload is None:
        parser.error("--workload, --all or --write-expected is required")
    if args.trace:
        result, detail = run_traced(mods, args.workload, args.seed, args.quick)
    else:
        result, detail = run_untraced(mods, args.workload, args.seed, args.seconds,
                                      args.quick)
    detail.pop("outputs")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
