"""One measured process: set up, run whole rounds for the given time, report.

run.py starts this with the thread pools pinned.  It prints one JSON line:
the monotonic time at which set-up finished and how slow the reference
loop ran then, and (unless --setup-only) the measured and scaled wall and
CPU time of each round, the peak resident memory, and in --trace mode the
per-layer figures.  Each round's outputs go to
outputs.jsonl in the run directory, for run.py to check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
from spans import ImportTimer, Tracer  # noqa: E402

# The speed at which times are quoted: the 2-vCPU machine of README.md's
# reference figures runs reference_loop() in about this many seconds when
# nothing else slows it down.
REFERENCE_S = 0.02


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, dict stores, list appends
    and one sort.  It allocates only two containers, so the cyclic garbage
    collector, and with it the heap the operations leave behind, does not
    change its duration."""
    table, items = {}, []
    acc = 0
    for i in range(60_000):
        acc += i * i % 97
        table[i & 511] = acc
        items.append(i ^ (i >> 3))
    items.sort()
    return len(table) + items[-1]


def time_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one reference_loop() call."""
    c0, t0 = time.process_time(), time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0, time.process_time() - c0


def run_round(ops) -> tuple[dict, list]:
    """Run every operation once, each on its own clock and between two runs
    of the reference loop.  Scaled times are quoted at the machine speed at
    which the reference loop takes REFERENCE_S: each operation's time is
    multiplied by REFERENCE_S over the mean of the two reference runs
    around it."""
    results = []
    timing = dict.fromkeys(("wall_s", "cpu_s", "scaled_wall_s", "scaled_cpu_s"), 0.0)
    before = time_reference()
    for label, op in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            results.append((label, op(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((label, None, f"{type(exc).__name__}: {exc}"))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = time_reference()
        timing["wall_s"] += wall
        timing["cpu_s"] += cpu
        timing["scaled_wall_s"] += wall * REFERENCE_S / ((before[0] + after[0]) / 2)
        timing["scaled_cpu_s"] += cpu * REFERENCE_S / ((before[1] + after[1]) / 2)
        before = after
    timing["attempted"] = len(results)
    timing["failed"] = sum(1 for _, _, err in results if err is not None)
    return timing, results


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(inputs.INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    imports = ImportTimer()
    if args.trace:
        with imports:
            workloads.WARMUPS[args.workload]()
    else:
        workloads.WARMUPS[args.workload]()
    ready = time.monotonic()
    speed = statistics.median(time_reference()[0] for _ in range(3)) / REFERENCE_S
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed": speed}))
        return 0

    api = workloads.Api()
    ops = workloads.OPERATIONS[args.workload](api, inputs.INPUTS[args.workload](args.seed), args.run_dir)
    rounds, layers = [], []
    tracer = Tracer() if args.trace else None
    # the end-to-end figures are medians, so take at least three rounds; a
    # traced round is slow and its counts repeat exactly, so one will do
    min_rounds = 1 if tracer else 3
    deadline = time.perf_counter() + args.seconds
    with open(os.path.join(args.run_dir, "outputs.jsonl"), "w", encoding="utf-8") as out:

        def measure(traced: bool) -> None:
            first = tracer.mark() if traced else 0
            timing, results = run_round(ops)
            rounds.append({**timing, "traced": traced})
            if traced:
                layers.append(tracer.summarize(first))
            encoded = [[label, None if err else workloads.encode(value), err] for label, value, err in results]
            out.write(json.dumps(encoded) + "\n")

        if tracer is not None:  # one untraced round gives the tracing overhead
            measure(traced=False)
            tracer.install(api)
        for done in itertools.count(1):
            measure(traced=tracer is not None)
            if done >= min_rounds and time.perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {"ready": ready, "speed": speed, "rounds": rounds, "peak_rss_mb": peak_rss_mb, "threads": thread_count()}
    if tracer is not None:
        tracer.save(os.path.join(args.run_dir, "trace.npz"))
        summary["lazy_import_s"] = imports.seconds
        summary["layers"] = layers
        summary["spans"] = len(tracer.end)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
