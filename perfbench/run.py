#!/usr/bin/env python3
"""Benchmark runner for ctlhom.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0

    for w in corpus-cli exhaustion-deep finite-large; do
        python3 perfbench/run.py --workload $w; done

Run from the root of a source checkout; the package is imported from
``src/``.  One process answers the workload's fixed query list with one
caller in a closed loop: the next query starts when the previous one has
finished.  The seed only shuffles the query order within each pass.  Every
answer is checked against the pinned mathematics in ``workloads.py``, and
every --json document against the bytes the same query printed earlier in
the run, in either space form (registry name or space file).

``--trace 0`` measures the end-to-end metrics with tracing off and also
prints the per-query latency percentiles and the failing queries.
``wall_s`` and ``setup_s`` are given at a reference host speed: on a shared
host a vCPU's speed can swing by a third within a second and drift
over minutes (measured on a 2-vCPU Intel Xeon VM), more than a fair bound
on a regression.  While a timing runs, a SIGALRM timer interrupts it every 20 ms
and the handler times ``calibrate()``, a fixed piece of pure-Python integer
work that never calls ctlhom, so that no change to the program can move it.
Each query's time, less the handler's, is scaled by the reference
calibration time over the median calibration taken during the query.  The
raw pass times are printed beside ``wall_s``.  ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics of the
traced ones and the tracing overhead, and writes the spans, the per-query
times by label and the environment to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts queries whose
answer, exit code or bytes differ from the pinned ones; ``correct`` is false
when any of them is a wrong answer rather than an honest refusal
(NonStabilizationError on a query whose answer is known), or when tracing
changed an output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 15
# calibrate()'s median time on a 2-vCPU Intel Xeon VM under Python 3.11;
# wall_s and setup_s are in seconds at that speed
REFERENCE_CALIBRATION_S = 0.0003
# how often the speed probe interrupts a timing to sample the host's speed
PROBE_PERIOD_S = 0.02
# the fewest samples a scaled interval rests on; short intervals borrow
# the samples taken just before and after them
PROBE_MIN_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# the per-layer metrics printed in the result line; the traced run computes
# more (every layer's self time and calls) and writes them to its trace file
PER_LAYER = {
    "snf.smith_normal_form.calls": "count",
    "snf.smith_normal_form.self_s": "s",
    "snf.smith_normal_form.entries": "count",
    "snf.smith_normal_form.nnz": "count",
    "snf.matmul.calls": "count",
    "snf.matmul.self_s": "s",
    "snf.matmul.mults": "count",
    "chainalg.chain_map_check.mults": "count",
    "chainalg.present_homology.calls": "count",
    "chainalg.present_homology.self_s": "s",
    "chainalg.is_transition_isomorphism.calls": "count",
    "chainalg.is_transition_isomorphism.iso_ratio": "ratio",
    "chainalg.convert_group.calls": "count",
    "chainalg.convert_group.self_s": "s",
    "chainalg.stage_useful_ratio": "ratio",
    "chainalg.pairing_matrix.present_calls": "count",
    "chainalg.homology.s": "s",
    "chainalg.cohomology.s": "s",
    "sset.Exhaustion.truncate.calls": "count",
    "sset.Exhaustion.truncate.cells": "count",
    "sset.is_locally_finite.calls": "count",
    "sset.FiniteSimplicialSet.calls": "count",
    "sset.FiniteSimplicialSet.self_s": "s",
    "corpus.build.self_s": "s",
    "corpus.load_space.calls": "count",
    "cli.main.calls": "count",
    "cli.json_bytes": "bytes",
    "laws.run_all.cases": "count",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    pass


_rng = random.Random(0)
_CALIBRATION_MATRIX = [[_rng.choice((-1, 0, 0, 1)) for _ in range(16)] for _ in range(16)]
del _rng


def calibrate() -> float:
    """Time one elimination of a fixed 16x16 integer matrix over lists of
    Python ints, the kind of work ctlhom's Smith normal form does; about
    0.3 ms."""
    started = perf_counter()
    m = [row[:] for row in _CALIBRATION_MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c]
            if f:
                a = m[c][c]
                m[r] = [(a * x - f * y) % 1000003 for x, y in zip(m[r], m[c])]
    return perf_counter() - started


class SpeedProbe:
    """Samples the host's speed while timed work runs.

    Inside ``with``, a SIGALRM timer interrupts the work every
    ``PROBE_PERIOD_S`` and the handler times ``calibrate()`` between two of
    the work's bytecodes.  ``mark()`` notes a point of the work; ``elapsed()``
    gives the time between two marks less the handler's, raw and at the
    reference speed.  The samples are taken on the vCPU the work runs on,
    because that is the speed they must track: on a 2-vCPU VM, calibrations
    in a second process on the other vCPU did not follow this one's
    (correlation 0.04 over 0.5 s windows), while scaling cut the spread of
    each long exhaustion-deep query over six passes from 8-23% to 4-8%."""

    def __init__(self):
        self.times, self.samples = [], []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        started = perf_counter()
        self.samples.append(calibrate())
        self.times.append(started)
        self.spent += perf_counter() - started

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        for _ in range(PROBE_MIN_SAMPLES):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(PROBE_MIN_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return perf_counter(), self.spent

    def elapsed(self, start, end):
        """Raw seconds between two marks, and seconds at the reference
        speed; best called once the samples after ``end`` are in."""
        raw = (end[0] - start[0]) - (end[1] - start[1])
        lo, hi = bisect_left(self.times, start[0]), bisect_right(self.times, end[0])
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return raw, raw * REFERENCE_CALIBRATION_S / statistics.median(self.samples[lo:hi])


def _setup(workload: str, directory: Path):
    """Import ctlhom, build the query list and write the space files."""
    import workloads

    queries = workloads.WORKLOADS[workload]()
    directory.mkdir(parents=True, exist_ok=True)
    workloads.write_space_files(queries, str(directory))
    return workloads, queries


def _probed_setup(workload: str, directory: Path) -> float:
    """Set-up time at the reference speed."""
    with SpeedProbe() as probe:
        start = probe.mark()
        _setup(workload, directory)
        end = probe.mark()
    return probe.elapsed(start, end)[1]


def _timed_setups(workload: str) -> list:
    """Set-up time at the reference speed, each in a fresh process."""
    times = []
    for k in range(SETUP_RUNS):
        directory = OUT / f"setup-{os.getpid()}-{k}"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--setup-only", str(directory)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Runner:
    """Runs passes over the query list and checks every answer."""

    def __init__(self, workloads, queries, space_dir: Path, seed: int):
        self.w = workloads
        self.queries = queries
        self.space_dir = space_dir
        self.rng = random.Random(seed)
        switchable = [k for k, q in enumerate(queries) if q.space and not q.file_only]
        self.form_index = {k: i for i, k in enumerate(switchable)}
        self.json_bytes = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {}  # label -> [count, reason]

    def _space_arg(self, k: int, q, parity: int):
        if q.file_only or (self.form_index[k] + parity) % 2 == 0:
            return self.w.space_path(str(self.space_dir), q.space)
        return q.space

    def run_pass(self, parity: int, tracer=None, probe=None):
        """One pass in a fresh shuffled order; every other space-taking query
        loads its space from a file, and ``parity`` flips which ones.

        Returns the pass time, the raw pass time and the answers with their
        times.  With a running ``SpeedProbe``, the times other than the raw
        one are at the reference speed."""
        order = list(range(len(self.queries)))
        self.rng.shuffle(order)
        probe = probe or SpeedProbe()
        answers = []
        for k in order:
            q = self.queries[k]
            if tracer is not None:
                tracer.query = q.label
            start = probe.mark()
            try:
                answer = q.call(self._space_arg(k, q, parity)) if q.space else q.call()
            except Exception as exc:  # a crash is a wrong answer, not a stop
                answer = self.w.Answer(self.w.EXIT_CRASH, None, repr(exc))
            answers.append((q, answer, start, probe.mark()))
        timed, raw_wall = [], 0.0
        for q, answer, start, end in answers:
            raw, scaled = probe.elapsed(start, end) if probe.samples else (end[0] - start[0],) * 2
            raw_wall += raw
            timed.append((q, answer, scaled))
            self._check(q, answer)
        return sum(dt for _, _, dt in timed), raw_wall, timed

    def _check(self, q, answer):
        self.attempted += 1
        try:
            problem = q.expect(answer)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed answer ({exc!r})"
        if not problem and answer.stdout:
            first = self.json_bytes.setdefault(q.label, answer.stdout)
            if first != answer.stdout:
                problem = "--json bytes differ from an earlier run of this query"
        if not problem:
            return
        self.failed += 1
        refusal = (answer.exit == self.w.EXIT_NO_STABILIZATION
                   and q.expected_exit == self.w.EXIT_OK
                   and self.w.NON_STABILIZATION in answer.error)
        if not refusal:
            self.wrong += 1
        entry = self.failures.setdefault(q.label, [0, problem])
        entry[0] += 1


def _keep_going(elapsed: float, rounds: list, seconds: float) -> bool:
    """Start another round unless it would end more than half a round late."""
    if not rounds:
        return True
    return elapsed + 0.5 * statistics.fmean(rounds) < seconds


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def _report_failures(runner: Runner):
    frac = runner.failed / runner.attempted
    print(f"failed_frac      {frac:.4f}  ({runner.failed} of {runner.attempted} queries)")
    for label, (count, reason) in sorted(runner.failures.items()):
        print(f"  failed {count}x  {label}: {reason}")


def measure(runner: Runner, seconds: float, setups: list) -> dict:
    walls, raw_walls, latencies = [], [], []
    started = perf_counter()
    with SpeedProbe() as probe:
        while _keep_going(perf_counter() - started, raw_walls, seconds):
            wall, raw_wall, answers = runner.run_pass(parity=len(walls), probe=probe)
            walls.append(wall)
            raw_walls.append(raw_wall)
            latencies.append([dt * 1000 for _, _, dt in answers])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = statistics.median(probe.samples)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes, at reference speed",
        "wall_s": f"median of {len(walls)} passes at reference speed: "
                  + " ".join(f"{w:.3f}" for w in walls)
                  + "; raw " + " ".join(f"{w:.3f}" for w in raw_walls)
                  + f"; median calibration {samples * 1000:.3f} ms of {len(probe.samples)}, "
                  f"reference {REFERENCE_CALIBRATION_S * 1000:.3f} ms",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, unit in END_TO_END.items():
        print(f"{name:<16} {metrics[name]:.6g} {unit:<3} ({notes[name]})")
    # Per-query percentiles, taken per pass so that they do not shift with
    # the pass count.  They are printed, not gated: on the library workloads
    # they rest on 5 or 17 queries a pass and swing with the machine's speed.
    per_pass = (f"median over {len(walls)} passes of the percentile of "
                f"{len(latencies[0])} query latencies")
    for q in (50, 90):
        value = statistics.median(_quantile(p, q) for p in latencies)
        print(f"latency_p{q}_ms   {value:.6g} ms  ({per_pass})")
    _report_failures(runner)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure_traced(runner: Runner, seconds: float, workload: str, seed: int,
                   setup_spans: list) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes."""
    untraced, traced, rounds, layers = [], [], [], []
    query_s, query_traced_s = {}, {}
    first_spans = None
    started = perf_counter()
    while _keep_going(perf_counter() - started, rounds, seconds):
        t0 = perf_counter()
        wall, _, answers = runner.run_pass(parity=len(untraced))
        untraced.append(wall)
        for q, _, dt in answers:
            query_s.setdefault(q.label, []).append(dt)
        # the runner compares these --json bytes with the untraced ones
        with Tracer() as tracer:
            wall, _, answers = runner.run_pass(parity=len(traced), tracer=tracer)
        traced.append(wall)
        for q, _, dt in answers:
            query_traced_s.setdefault(q.label, []).append(dt)
        metrics = layer_metrics(setup_spans + tracer.spans)
        metrics["cli.json_bytes"] = sum(len(a.stdout.encode()) for _, a, _ in answers)
        layers.append(metrics)
        if first_spans is None:
            first_spans = tracer.spans
        rounds.append(perf_counter() - t0)

    overhead = statistics.median(traced) - statistics.median(untraced)
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_s"] = overhead
    fired = {s.name for s in first_spans + setup_spans}
    expected = runner.w.SPANS[workload]
    print(f"passes           {len(untraced)} untraced + {len(traced)} traced")
    print(f"wall_s           untraced {statistics.median(untraced):.4f} s, "
          f"traced {statistics.median(traced):.4f} s, overhead {overhead:.4f} s "
          f"({overhead / statistics.median(untraced):.1%})")
    print("spans            " + ("as expected" if fired == expected else
                                 f"MISMATCH: missing {sorted(expected - fired)}, "
                                 f"extra {sorted(fired - expected)}"))
    for name in sorted(values):
        print(f"  {name:<46} {values[name]:.6g}")
    if len(runner.queries) <= 20:
        print("per-query seconds (median, untraced):")
        for label in sorted(query_s):
            print(f"  {label:<46} {statistics.median(query_s[label]):.4f}")
    _report_failures(runner)

    OUT.mkdir(parents=True, exist_ok=True)
    index = {id(s): i for i, s in enumerate(first_spans)}
    trace = {
        "workload": workload,
        "seed": seed,
        "environment": _environment(),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "trace_overhead_s": overhead,
        "layers": values,
        "spans_fired": sorted(fired),
        "query_s": {k: statistics.median(v) for k, v in sorted(query_s.items())},
        "query_traced_s": {k: statistics.median(v) for k, v in sorted(query_traced_s.items())},
        "spans": [[s.name, s.start, s.end, index.get(id(s.parent)), s.query]
                  for s in first_spans],
    }
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(trace) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        "corpus-cli", "exhaustion-deep", "finite-large"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="time one set-up into DIR and print it (used internally)")
    args = parser.parse_args(argv)

    if not (SRC / "ctlhom" / "__init__.py").is_file():
        print(f"error: no ctlhom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the CLI reads its default depth from here; the workloads pin depth 12
    os.environ.pop("CTLHOM_MAX_DEPTH", None)

    if args.setup_only:
        print(json.dumps({"setup_s": _probed_setup(args.workload, Path(args.setup_only))}))
        return 0

    space_dir = OUT / f"run-{os.getpid()}"
    try:
        setups = [] if args.trace else _timed_setups(args.workload)
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
              f"trace {args.trace}; {json.dumps(_environment())}")
        if args.trace:
            with Tracer() as tracer:
                workloads, queries = _setup(args.workload, space_dir)
            setup_spans = tracer.spans
        else:
            workloads, queries = _setup(args.workload, space_dir)
        runner = Runner(workloads, queries, space_dir, args.seed)
        if args.trace:
            metrics = measure_traced(runner, args.seconds, args.workload, args.seed,
                                     setup_spans)
        else:
            metrics = measure(runner, args.seconds, setups)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(space_dir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
