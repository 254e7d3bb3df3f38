"""The four workloads as fixed lists of operations on randaudit's public API.

An operation is one audit report, one enumeration or one CLI command.  It
returns the program's own output; ``encode`` turns that into JSON for the
checker after the round's clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import asdict
from fractions import Fraction

from randaudit import audit, bounds, cli, integers, pathenum
from randaudit.generators import HashCounterGenerator, LcgParams, Mt19937Generator

import inputs


class Api:
    """Entry points the workloads call; the tracer swaps in wrapped ones."""

    def __init__(self):
        self.murdoch_experiment = audit.murdoch_experiment
        self.calibration = audit.calibration
        self.permutation_coverage = audit.permutation_coverage
        self.exact_subset_distribution = pathenum.exact_subset_distribution
        self.exact_permutation_distribution = pathenum.exact_permutation_distribution
        self.exact_distribution = integers.exact_distribution
        self.floor_even_probability = integers.floor_even_probability
        self.table1_report = bounds.table1_report
        self.cli_main = cli.main


class CommandFailed(Exception):
    pass


def run_cli(main, argv: list[str]) -> str:
    """``main(argv)`` with stdout captured; a nonzero exit is a failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise CommandFailed(f"randaudit {' '.join(argv)} exited {code}")
    return buf.getvalue()


# One call per workload that pulls in what the workload's library code
# imports lazily (scipy.stats for the tests, sympy for the full-period check).
WARMUPS = {
    "murdoch": lambda: audit.murdoch_experiment(Mt19937Generator(1), "floor", 10**5),
    "calibration": lambda: audit.derangement_test(HashCounterGenerator("warm-up"), 7, 10**4),
    "exact": lambda: audit.permutation_coverage(LcgParams(m=16, a=5, c=1), 3),
    "cli_sample": lambda: run_cli(cli.main, ["bounds", "--table1"]),
}

GENERATORS = {
    "mt19937": lambda inp: Mt19937Generator(inp["mt_seed"]),
    "hash_counter": lambda inp: HashCounterGenerator(inp["hash_seed"]),
}


def murdoch(api: Api, inp: dict, run_dir: str):
    return [
        (
            f"{gen}/{method}",
            lambda gen=gen, method=method: api.murdoch_experiment(GENERATORS[gen](inp), method, inp["replications"]),
        )
        for gen, method in inp["ops"]
    ]


def calibration(api: Api, inp: dict, run_dir: str):
    return [("calibration", lambda: api.calibration(**inp))]


def exact(api: Api, inp: dict, run_dir: str):
    n, k = inp["subset"]
    bn, bk = inp["biased"]
    width = inp["floor_width"]
    cov = inp["coverage"]
    ops = [
        (f"subsets/{algo}", lambda algo=algo: api.exact_subset_distribution(algo, n, k))
        for algo in pathenum.ENUMERABLE_ALGORITHMS
    ]
    ops += [
        ("permutations", lambda: api.exact_permutation_distribution(inp["permutation_n"])),
        (
            "biased",
            lambda: api.exact_subset_distribution(
                "fisher_yates", bn, bk, draw_dist=lambda m: api.exact_distribution("floor", width, m).probs
            ),
        ),
        ("coverage", lambda: api.permutation_coverage(LcgParams(m=cov["m"], a=cov["a"], c=cov["c"]), cov["n"])),
        ("table1", lambda: api.table1_report()),
        ("floor_parity", lambda: api.floor_even_probability(32, 2**33, 5)),
    ]
    return ops


def stream_path(run_dir: str) -> str:
    return os.path.join(run_dir, "stream.txt")


def cli_argvs(inp: dict, run_dir: str) -> list[tuple[str, list[str]]]:
    """The workload's commands, as (label, argv)."""
    n, k = str(inp["n"]), str(inp["k"])
    out = []
    for algo, seed in inp["seeds"].items():
        prng = "mt" if algo in inputs.CLI_MT_ALGOS else "hash"
        out.append((f"sample/{algo}", ["sample", "--prng", prng, "--seed", seed, "--n", n, "--k", k, "--algo", algo]))
    out.append(
        (
            "sample/vitter-z-file",
            ["sample", "--seed", inp["stream_seed"], "--file", stream_path(run_dir), "--k", k, "--algo", "vitter-z"],
        )
    )
    out.append(
        (
            "gen",
            ["gen", "--seed", inp["gen_seed"], "--as", "integers", "--int-range", str(inp["gen_range"]),
             "--count", str(inp["gen_count"])],
        )
    )
    out.append(("bounds", ["bounds", "--table1"]))
    return out


def cli_sample(api: Api, inp: dict, run_dir: str):
    return [(label, lambda argv=argv: run_cli(api.cli_main, argv)) for label, argv in cli_argvs(inp, run_dir)]


OPERATIONS = {"murdoch": murdoch, "calibration": calibration, "exact": exact, "cli_sample": cli_sample}


def encode(value):
    """Program output as JSON: distributions become [outcome, num, den] rows."""
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, dict):
        return [
            [sorted(key) if isinstance(key, frozenset) else list(key), p.numerator, p.denominator]
            for key, p in value.items()
        ]
    if isinstance(value, list):
        return [asdict(row) for row in value]
    return asdict(value)
