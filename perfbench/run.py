"""Benchmark of the randaudit stack: one workload, one seed, one result line.

    python3 perfbench/run.py --workload murdoch --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; randaudit is imported from src/.
The measured work runs in one child process (worker.py) with the numpy
and scipy thread pools pinned to one thread.  Set-up time is taken in
SETUP_PROBES further children that only set up, plus the measured one,
and reported as their median (--trace 0 only).  Times are reported at a
fixed reference speed: each is divided by how much slower than usual the
machine ran a fixed Python loop at that moment (worker.reference_loop).  After the measured child exits, every
output it wrote is checked against checks.py, and the last line printed
is the JSON result.  --trace 1 reports the per-layer figures instead of
the end-to-end ones and keeps the spans in out/trace-<workload>-<seed>.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402

SETUP_PROBES = 2
TIME_LIMIT_S = 170  # every child together; a run must end within 180 s
PINNED = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS")
}


class BenchmarkError(Exception):
    pass


def run_worker(args, run_dir: str, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (set-up seconds, its report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker ran out of time")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    return report["ready"] - started, report


def per_layer(report: dict) -> dict:
    """Median over the traced rounds of each per-layer figure (the lower
    middle one when there are two, so that counts stay whole)."""
    rounds = report["layers"]

    def med(get):
        return statistics.median_low(get(r) for r in rounds)

    values = {f"{layer}.self_s": med(lambda r, layer=layer: r["self_s"][layer]) for layer in rounds[0]["self_s"]}
    values["audit.stats_s"] = values.pop("stats.self_s")
    values.update({name: med(lambda r, name=name: r[name]) for name in rounds[0] if "." in name})
    values["setup.lazy_import_s"] = report["lazy_import_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "randaudit", "__init__.py")):
        print(f"error: no randaudit sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.workload == "cli_sample":
            with open(os.path.join(run_dir, "stream.txt"), "w", encoding="utf-8") as fh:
                fh.writelines(rec + "\n" for rec in inputs.cli_sample(args.seed)["stream_records"])
        probes = 0 if args.trace else SETUP_PROBES
        children = [run_worker(args, run_dir, deadline, setup_only=True) for _ in range(probes)]
        children.append(run_worker(args, run_dir, deadline, setup_only=False))
        report = children[-1][1]

        import checks

        problems = checks.verify(args.workload, args.seed, os.path.join(run_dir, "outputs.jsonl"))
        if args.trace:
            shutil.move(os.path.join(run_dir, "trace.npz"), os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz"))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = report["rounds"]
    measured = [r for r in rounds if r["traced"] == bool(args.trace)]
    if args.trace:
        values = per_layer(report)
        wall = statistics.median(r["wall_s"] for r in measured)
        untraced = rounds[0]["wall_s"]
        print(
            f"# traced wall_s {wall:.3f} untraced {untraced:.3f} overhead {wall - untraced:+.3f} s "
            f"over {len(measured)} traced rounds, {report['spans']} spans"
        )
    else:
        # times at the reference speed (see worker.reference_loop); the
        # comment line keeps the measured ones
        setups = [seconds / child["speed"] for seconds, child in children]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["scaled_wall_s"] for r in measured),
            "cpu_s": statistics.median(r["scaled_cpu_s"] for r in measured),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        print(
            f"# {len(rounds)} rounds, measured wall_s {[round(r['wall_s'], 4) for r in rounds]}, "
            f"measured set-up {[round(seconds, 3) for seconds, _ in children]}, "
            f"reference speed {[round(child['speed'], 3) for _, child in children]}, threads {report['threads']}"
        )
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
