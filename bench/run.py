#!/usr/bin/env python3
"""The balmatch benchmark: one process, one closed-loop client, no threads.

    python3 bench/run.py --workload certify|solve|sweep|all --seed N \\
        --seconds S --trace 0|1

Set-up builds the workload's seeded inputs into a fresh directory inside
the checkout and runs one warm-up pass over them; it is done three times
and ``setup_s`` is the median. The timed part then repeats whole passes
over the items until ``--seconds`` have passed, each item starting when
the previous one ends. Every output is then checked by the benchmark's own
code (``checks``). With ``--trace 1`` one more pass runs with every
layer's public functions wrapped, and the per-layer figures are reported
instead of the end-to-end ones. The last line of output is one JSON
object: correct, attempted, failed and metrics.

Times are reported at a reference host speed (see ``HostSpeed``); the
table before the JSON line also gives them as measured.
"""

from __future__ import annotations

import argparse
import array
import collections
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify", "solve", "sweep")
SETUP_REPEATS = 3
MIN_PASSES = 3
CONTRACT_EXITS = {0, 1, 2, 64, 65}
REFERENCE_KERNEL_S = 0.003
SAMPLE_EVERY_S = 0.05

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "pass_p50_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_balmatch():
    """Import balmatch from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "balmatch")):
        raise SystemExit(f"error: no balmatch package under {SRC}")
    sys.path.insert(0, SRC)
    import balmatch
    import balmatch.cli  # noqa: F401  (items call it through sys.modules)

    if not os.path.abspath(balmatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: balmatch imported from {balmatch.__file__}, not {SRC}")


def kernel() -> int:
    """Fixed pure-Python work like balmatch's (frozensets, dicts, set
    algebra) that calls no balmatch code."""
    counts, acc = {}, frozenset()
    for i in range(4000):
        k = frozenset((i % 13, i % 7, i % 5))
        counts[k] = counts.get(k, 0) + 1
        acc = acc | k if i % 2 else acc - k
    return len(counts)


class HostSpeed:
    """Tracks the host's speed with the calibration kernel.

    The host this runs on shares its cores: the same work takes up to 1.7
    times as long for stretches of seconds to minutes. The kernel slows
    by the same factor (within 5% in probes). So the kernel is timed at
    least every SAMPLE_EVERY_S, between items, and a time measured between
    two samples is scaled by REFERENCE_KERNEL_S over their mean: the time
    the work takes on a host where the kernel takes REFERENCE_KERNEL_S.
    """

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> int:
        start = perf_counter()
        kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)
        return len(self.samples) - 1

    def due(self) -> bool:
        return perf_counter() - self._last >= SAMPLE_EVERY_S

    def scale(self, index: int) -> float:
        """Factor for a time measured between samples index and index + 1."""
        return 2 * REFERENCE_KERNEL_S / (self.samples[index] + self.samples[index + 1])


class Record:
    __slots__ = ("index", "seconds", "code", "out", "err", "exc", "status")

    def __init__(self, index, seconds, code, out, err, exc):
        self.index, self.seconds, self.code = index, seconds, code
        self.out, self.err, self.exc = out, err, exc
        self.status = None  # ok | failed | defect, set by classify()

    def output(self) -> tuple:
        return self.code, self.out, self.err, self.exc


class Runs:
    """Every run of the items. Only the first run of an item keeps its
    output; a later run's output is compared with it on the spot and kept
    only if it differs, so memory does not grow with the number of passes.
    Timed passes add each item's measured and scaled latency."""

    def __init__(self, n: int):
        self.first = [None] * n
        self.repeats = [0] * n  # later runs whose output equals the first's
        self.changed = []  # later runs whose output differs from the first's
        self.seconds = [array.array("d") for _ in range(n)]
        self.scaled = [array.array("d") for _ in range(n)]

    def add(self, r: Record):
        base = self.first[r.index]
        if base is None:
            self.first[r.index] = r
        elif r.output() == base.output():
            self.repeats[r.index] += 1
        else:
            self.changed.append(r)

    def time(self, times: list):
        for i, (seconds, scaled) in enumerate(times):
            self.seconds[i].append(seconds)
            self.scaled[i].append(scaled)

    def kept(self) -> list:
        return [r for r in self.first if r is not None] + self.changed

    def attempted(self) -> int:
        return len(self.kept()) + sum(self.repeats)

    def count(self, status: str) -> int:
        """Runs whose output got this status from classify()."""
        same = sum(n for r, n in zip(self.first, self.repeats) if r is not None and r.status == status)
        return same + sum(r.status == status for r in self.kept())


def run_item(index, item, tracer=None) -> Record:
    """One timed item: a cli.main call with output captured, or one sweep."""
    cli = sys.modules["balmatch.cli"]
    oracle = sys.modules["balmatch.oracle"]
    if tracer is not None:
        tracer.item = index
    out, err = io.StringIO(), io.StringIO()
    code = exc = result = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if item.kind == "sweep":
                result = oracle.exists_for_all_worker_prefs(*item.call)
                code = 0 if result.ok else 1
            else:
                code = cli.main(list(item.argv))
    except Exception as e:  # a traceback from the program counts against the item
        exc = type(e).__name__
    seconds = perf_counter() - start
    return Record(index, seconds, code, result if item.kind == "sweep" else out.getvalue(), err.getvalue(), exc)


def run_pass(items, speed, keep, tracer=None) -> list:
    """Run every item once, handing each record to keep(); return each
    item's (measured, scaled) seconds."""
    times = []
    for i, item in enumerate(items):
        if speed.due():
            speed.sample()
        r = run_item(i, item, tracer)
        keep(r)
        times.append((r.seconds, len(speed.samples) - 1))
    speed.sample()
    return [(s, s * speed.scale(k)) for s, k in times]


def pass_seconds(times) -> tuple:
    """A pass's (measured, scaled) seconds."""
    return sum(s for s, _ in times), sum(x for _, x in times)


def classify(items, runs, checker) -> tuple:
    """Set each kept record's status; return the wrong-verdict messages and
    the share of decided certificate verdicts."""
    import checks

    wrong, verdicts = [], []
    for r in runs.kept():
        item = items[r.index]
        if r.exc is not None:
            r.status = "defect" if r.exc == item.facts.get("defect") else "failed"
        elif r.code not in CONTRACT_EXITS or (item.kind != "malformed" and r.code > 2):
            r.status = "failed"
        else:
            r.status = "ok"
            try:
                verdicts += checker.check(r.index, item, r.code, r.out, r.err)
            except checks.CheckError as e:
                if item.kind == "malformed":
                    r.status = "failed"
                else:
                    wrong.append(f"{item.label} {' '.join(item.argv[2:])}: {e}")
    try:
        checker.consistency()
    except checks.CheckError as e:
        wrong.append(str(e))
    decided = sum(v in ("PASS", "FAIL") for v in verdicts)
    return wrong, decided / len(verdicts) if verdicts else 1.0


def typical_latency(runs, latencies) -> list:
    """Each item's median latency over the timed passes, with the exit code
    and status of its first timed run."""
    return [(statistics.median(lat), r.code, r.status) for lat, r in zip(latencies, runs.first)]


def median_ms(typical, code) -> float:
    lat = [t for t, c, status in typical if c == code and status == "ok"]
    return statistics.median(lat) * 1000 if lat else float("nan")


def end_to_end(typical, pass_seconds, setup_times, decided_ratio, peak_rss_mb) -> dict:
    lat = [t for t, _, _ in typical]
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(len(typical) / s for s in pass_seconds),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p95_ms": statistics.quantiles(lat, n=20)[18] * 1000,
        "pass_p50_ms": median_ms(typical, 0),
        "decided_ratio": decided_ratio,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, factor, traced_rate, untraced_rate) -> dict:
    """Per-layer figures of the traced pass; times scaled by the pass's factor."""
    import tracing

    times = tracer.layer_times()
    out = {}
    for layer, names in tracing.LAYERS.items():
        for fn in names:
            name = f"{layer}.{fn}"
            calls, _, self_s = times.get(name, [0, 0.0, 0.0])
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s * factor, "s")
    stable = "market.is_stable"
    out[stable + ".true_ratio"] = (tracer.outcomes.get(stable, 0) / max(out[stable + ".calls"][0], 1), "ratio")
    for fn in ("is_balanced", "is_totally_balanced", "is_totally_unimodular"):
        out[f"matrices.{fn}.inconclusive"] = (tracer.outcomes.get("matrices." + fn, 0), "count")
    sweep = "oracle.exists_for_all_worker_prefs"
    profiles = tracer.outcomes.get(sweep, 0)
    sweep_time = times.get(sweep, [0, 0.0, 0.0])[1] * factor
    out["oracle.profiles_checked"] = (profiles, "count")
    out["oracle.solves_per_s"] = (profiles / sweep_time if sweep_time else 0.0, "1/s")
    out["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    return out


def run_workload(args) -> int:
    import_balmatch()
    import checks
    import tracing
    import workloads

    speed = HostSpeed()
    base = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        setup_times, raw_setup = [], []
        for rep in range(SETUP_REPEATS):
            work = os.path.join(base, str(rep))
            before = speed.sample()
            start = perf_counter()
            os.mkdir(work)
            items = workloads.INPUTS[args.workload](random.Random(args.seed), workloads.Files(work), ROOT)
            built = perf_counter() - start
            speed.sample()
            warm_raw, warm_scaled = pass_seconds(run_pass(items, speed, lambda r: None))  # warm-up pass
            raw_setup.append(built + warm_raw)
            setup_times.append(built * speed.scale(before) + warm_scaled)
        gc.collect()
        runs, passes = Runs(len(items)), []
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(passes) < MIN_PASSES:
            times = run_pass(items, speed, runs.add)
            runs.time(times)
            passes.append(pass_seconds(times))
        elapsed = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = pass_seconds(run_pass(items, speed, runs.add, tracer))
            finally:
                tracer.uninstall()
        wrong, decided_ratio = classify(items, runs, checks.Checker())
    finally:
        shutil.rmtree(base, ignore_errors=True)

    typical = typical_latency(runs, runs.scaled)
    raw_typical = typical_latency(runs, runs.seconds)
    e2e = end_to_end(typical, [s for _, s in passes], setup_times, decided_ratio, peak_rss_mb)
    raw = end_to_end(raw_typical, [s for s, _ in passes], raw_setup, decided_ratio, peak_rss_mb)
    attempted = runs.attempted()
    failed, defects = runs.count("failed"), runs.count("defect")
    kernel_ms = [s * 1000 for s in speed.samples]
    print(f"# workload {args.workload}, seed {args.seed}: {len(items)} items per pass, "
          f"{len(passes)} timed passes in {elapsed:.2f} s, 1 closed-loop client")
    print(f"# host speed: calibration kernel median {statistics.median(kernel_ms):.3f} ms "
          f"(range {min(kernel_ms):.3f}-{max(kernel_ms):.3f}, {len(kernel_ms)} samples); "
          f"reference {REFERENCE_KERNEL_S * 1000:.3f} ms")
    print(f"# {'metric':>14} {'at reference':>14} {'as measured':>14}")
    for name, value in e2e.items():
        print(f"{name:>16} {value:14.4f} {raw[name]:14.4f} {E2E_UNITS[name]}")
    if args.workload != "sweep":
        fails = sum(c == 1 and status == "ok" for _, c, status in raw_typical)
        print(f"{'fail_p50_ms':>16} {median_ms(typical, 1):14.4f} "
              f"{median_ms(raw_typical, 1):14.4f} ms ({fails} items exit 1)")
    print(f"{'error_ratio':>16} {(failed + defects) / attempted:14.4f} {'':>14} ratio "
          f"({failed} failed, {defects} known-defect crashes, {attempted} attempted)")
    if runs.changed:
        print(f"# {len(runs.changed)} runs gave another output than the item's first run")
    for r in runs.kept():
        if r.status in ("failed", "defect"):
            item = items[r.index]
            print(f"# first {r.status}: {item.label} {' '.join(item.argv[:1] + item.argv[2:])}: "
                  f"{r.exc or 'exit ' + str(r.code)}")
            break
    for message, count in collections.Counter(wrong).items():
        print(f"WRONG ({count}x): {message}", file=sys.stderr)

    if args.trace:
        measured, scaled = traced
        metrics = per_layer(tracer, scaled / measured, len(items) / scaled, e2e["items_per_s"])
        for name, (value, unit) in metrics.items():
            print(f"{name:>48} {value:14.6f} {unit}")
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
