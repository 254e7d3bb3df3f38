"""Workload inputs, made from the benchmark seed alone.

The program side (workloads.py) and the checking side (checks.py) both
build their inputs here, so the two agree without passing data around.
Sizes are fixed per workload; the seed picks generator seeds, LCG
constants, a floor width and file contents, so that every seed costs the
same amount of work.
"""

from __future__ import annotations

import random

MURDOCH_REPLICATIONS = 10**6
MURDOCH_M = 1_717_986_918  # floor of (2/5) * 2**32, the experiment's range

CALIBRATION_REPETITIONS = 3
CALIBRATION_ALPHA = 0.001
# the battery's per-repetition tests, at the sizes calibration defaults to
CALIBRATION_TESTS = {
    "derangement_n": 7,
    "derangement_reps": 10**4,
    "spearman_n": 7,
    "spearman_reps": 10**4,
    "freq_n": 5,
    "freq_k": 2,
    "freq_reps": 1000,
}

EXACT_SUBSET = (8, 3)  # n, k for all six samplers
EXACT_PERMUTATION_N = 7
EXACT_BIASED = (7, 3)  # fisher_yates n, k under floor-method draws
EXACT_COVERAGE_M = 1 << 16
EXACT_COVERAGE_N = 8

CLI_N = 100_000
CLI_K = 100
CLI_STREAM_RECORDS = 50_000  # > 22 * CLI_K, so vitter-z reaches its Z phase
CLI_GEN_COUNT = 50_000
CLI_GEN_RANGE = 1000
CLI_ALGOS = ("pikk", "fisher-yates", "random-indices", "cormen", "reservoir-r", "vitter-z")
CLI_MT_ALGOS = ("pikk", "fisher-yates")  # the rest run on the hash-counter generator


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def murdoch(seed: int) -> dict:
    rng = _rng("murdoch", seed)
    return {
        "mt_seed": rng.getrandbits(32),
        "hash_seed": f"murdoch-{seed}-{rng.getrandbits(32):08x}",
        "replications": MURDOCH_REPLICATIONS,
        # (generator, method) per operation, in run order
        "ops": [("mt19937", "floor"), ("mt19937", "mask"), ("hash_counter", "floor"), ("hash_counter", "mask")],
    }


def calibration(seed: int) -> dict:
    rng = _rng("calibration", seed)
    return {
        "base_seed": f"calibration-{seed}-{rng.getrandbits(32):08x}",
        "repetitions": CALIBRATION_REPETITIONS,
        "alpha": CALIBRATION_ALPHA,
        **CALIBRATION_TESTS,
    }


def exact(seed: int) -> dict:
    rng = _rng("exact", seed)
    return {
        "subset": EXACT_SUBSET,
        "permutation_n": EXACT_PERMUTATION_N,
        "biased": EXACT_BIASED,
        "floor_width": rng.randint(4, 10),
        # a = 1 mod 4 and c odd: full period, so every shuffle terminates
        "coverage": {
            "m": EXACT_COVERAGE_M,
            "a": 4 * rng.randrange(1, EXACT_COVERAGE_M // 4) + 1,
            "c": 2 * rng.randrange(EXACT_COVERAGE_M // 2) + 1,
            "n": EXACT_COVERAGE_N,
        },
    }


def cli_sample(seed: int) -> dict:
    rng = _rng("cli_sample", seed)
    tag = f"{seed}-{rng.getrandbits(32):08x}"
    seeds = {
        algo: str(rng.getrandbits(32)) if algo in CLI_MT_ALGOS else f"cli-{tag}-{algo}"
        for algo in CLI_ALGOS
    }
    return {
        "n": CLI_N,
        "k": CLI_K,
        "seeds": seeds,
        "stream_seed": f"cli-{tag}-stream",
        "stream_records": [f"r{i}-{rng.getrandbits(32):08x}" for i in range(CLI_STREAM_RECORDS)],
        "gen_seed": f"cli-{tag}-gen",
        "gen_count": CLI_GEN_COUNT,
        "gen_range": CLI_GEN_RANGE,
    }


INPUTS = {"murdoch": murdoch, "calibration": calibration, "exact": exact, "cli_sample": cli_sample}
