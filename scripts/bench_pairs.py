#!/usr/bin/env python3
"""Run one benchmark workload in alternating parent/change pairs and
summarise each end-to-end metric by the rule for claiming a gain.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload murdoch --pairs 10 --seed 500

Pair i runs perfbench/run.py from both source checkouts with seed
``--seed + i`` and the ``run_seconds`` of the change's BENCHMARK.json;
the parent goes first in even pairs and the change in odd ones.  The two
checkouts' absolute paths must have the same length, because the path's
length moves ``peak_rss_mb``.  Neither checkout may hold a ``__pycache__``
directory, because compiled bytecode moves ``setup_s`` and
``peak_rss_mb``; the script names the first it finds and exits 2, and it
runs every child with ``PYTHONDONTWRITEBYTECODE=1`` so that no run
leaves one behind.  Any run that exits nonzero, prints no result or is
not ``correct`` stops the script with exit code 1.

For each metric it prints both sides' median and quartiles, the pairs in
which the change was better and those in which it was worse (ties count
for neither), and two verdicts.  A gain may be claimed when the change is
better in at least nine tenths of the pairs and the medians differ, in
the better direction, by more than the parent's interquartile range; a
regression is shown by the same rule mirrored, worse in at least nine
tenths of the pairs and by more than that range.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def bytecode_cache(checkout: str) -> str | None:
    """The first ``__pycache__`` directory under ``checkout``, or None."""
    for root, dirs, _ in os.walk(checkout):
        if "__pycache__" in dirs:
            return os.path.join(root, "__pycache__")
    return None


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py result from ``checkout``, run with bytecode
    writing off; ValueError unless it ran and its outputs checked correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not True:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        raise ValueError(f"{checkout} seed {seed}: exit {proc.returncode}, no correct result {tail}")
    return result


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric of BENCHMARK.json's ``end_to_end`` list, from
    (parent result, change result) pairs as perfbench/run.py prints them."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
        losses = sum(c > p if lower else c < p for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
        c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
        gain = p_med - c_med if lower else c_med - p_med
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "parent": (p_med, p_q1, p_q3),
            "change": (c_med, c_q1, c_q3),
            "wins": wins,
            "pairs": len(pairs),
            "losses": losses,
            "claim": 10 * wins >= 9 * len(pairs) and gain > p_q3 - p_q1,
            "regression": 10 * losses >= 9 * len(pairs) and -gain > p_q3 - p_q1,
        })
    return rows


def render(row: dict) -> str:
    (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = row["parent"], row["change"]
    change = (c_med - p_med) / p_med if p_med else float("nan")
    return (
        f"{row['metric']:<12} parent {p_med:.4f} [{p_q1:.4f}, {p_q3:.4f}]  "
        f"change {c_med:.4f} [{c_q1:.4f}, {c_q3:.4f}] {row['unit']}  {change:+.1%}  "
        f"better in {row['wins']}/{row['pairs']}  gain {'holds' if row['claim'] else 'not shown'}  "
        f"worse in {row['losses']}/{row['pairs']}  regression {'shown' if row['regression'] else 'not shown'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source checkout of the parent commit")
    parser.add_argument("--change", required=True, help="source checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if parent == change:
        parser.error("--parent and --change name the same checkout")
    if len(parent) != len(change):
        parser.error(f"checkout paths differ in length ({len(parent)} and {len(change)} characters)")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    for side in (parent, change):
        if cache := bytecode_cache(side):
            print(f"error: {cache} exists; remove every __pycache__ under both checkouts", file=sys.stderr)
            return 2
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = (parent, change) if i % 2 == 0 else (change, parent)
        try:
            results = {side: run_side(side, args.workload, seed, spec["run_seconds"]) for side in sides}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        pairs.append((results[parent], results[change]))
        failed = [results[side]["failed"] for side in (parent, change)]
        print(f"# pair {i + 1}/{args.pairs} seed {seed}, {'parent' if i % 2 == 0 else 'change'} first, "
              f"failed operations parent {failed[0]} change {failed[1]}", flush=True)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          "median [Q1, Q3]")
    for row in summarise(pairs, spec["end_to_end"]):
        print(render(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
