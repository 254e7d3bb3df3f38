"""End-to-end bias experiments with reproducible reports.

Every experiment is registered by name in ``EXPERIMENTS`` and returns an
AuditReport whose ``config`` dict is enough to rerun it bit-for-bit via
``run_experiment``; ``reports_equal`` compares two reports ignoring only
wall-clock duration.  Replications can be sharded across processes by
deriving per-shard hash-counter seeds as ``f"{base}:{shard}"``;
aggregation is order-independent.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import eq

from . import bounds
from .errors import InfeasibleSizeError
from .generators import Generator, HashCounterGenerator, LcgGenerator, LcgParams, from_spec, full_period
from .integers import DRAW_CHUNK, RandomSource, floor_even_probability, floor_value_scaled
from .sampling import SampleSpec, fisher_yates, shuffles

# perfbench/spans.py wraps these by their names in this module
from .integers import randint_mask  # noqa: F401
from .sampling import random_indices, reservoir_r  # noqa: F401

__all__ = [
    "MURDOCH_M",
    "MURDOCH_SCALE",
    "AuditReport",
    "EXPERIMENTS",
    "reports_equal",
    "murdoch_experiment",
    "permutation_coverage",
    "derangement_test",
    "spearman_rho",
    "spearman_test",
    "sample_frequency_test",
    "calibration",
    "run_experiment",
    "replay",
]

# The even/odd experiment's range, (2/5) * 2^32.  The integer below is
# that value rounded down; the exact real value is the rational 2^33 / 5,
# and the distinction matters (see murdoch_experiment).
MURDOCH_M = 1_717_986_918
MURDOCH_SCALE = (2 ** 33, 5)

DEFAULT_ALPHA = 0.001


@dataclass
class AuditReport:
    """One experiment run: inputs, observed statistics, and verdict.

    The seed record plus config reproduce the run exactly; duration is the
    only field excluded from reproducibility comparisons.  Experiments
    leave ``experiment`` and ``config`` to their registration (see
    _experiment).
    """

    seed: str
    replications: int
    observed: dict
    reference: dict
    experiment: str = ""
    config: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    p_values: dict = field(default_factory=dict)
    passed: bool | None = None
    flags: list = field(default_factory=list)
    duration_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AuditReport":
        return cls(**json.loads(text))

    CSV_COLUMNS = (
        "experiment",
        "seed",
        "replications",
        "passed",
        "duration_s",
        "observed",
        "reference",
        "statistics",
        "p_values",
        "flags",
    )

    def csv_row(self) -> list:
        return [
            self.experiment,
            self.seed,
            self.replications,
            self.passed,
            f"{self.duration_s:.3f}",
            json.dumps(self.observed, sort_keys=True),
            json.dumps(self.reference, sort_keys=True),
            json.dumps(self.statistics, sort_keys=True),
            json.dumps(self.p_values, sort_keys=True),
            json.dumps(self.flags),
        ]


def reports_equal(a: AuditReport, b: AuditReport) -> bool:
    da, db = asdict(a), asdict(b)
    da.pop("duration_s")
    db.pop("duration_s")
    return da == db


EXPERIMENTS: dict = {}


def _experiment(name: str):
    """Register an experiment in EXPERIMENTS under ``name``.

    The registered function fills in its report's ``experiment`` and
    ``config``.  The config holds every argument of the call, defaults
    included, with a generator recorded as its spec() under "generator"
    and LCG parameters as m, a and c; run_experiment reads it back.
    """

    def register(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            config = {"experiment": name}
            for key, value in call.arguments.items():
                if isinstance(value, Generator):
                    config["generator"] = value.spec()
                elif isinstance(value, LcgParams):
                    config.update(m=value.m, a=value.a, c=value.c)
                else:
                    config[key] = value
            report = fn(*args, **kwargs)
            report.experiment, report.config = name, config
            return report

        EXPERIMENTS[name] = run
        return run

    return register


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {alpha}")


def _seed_record(gen: Generator) -> str:
    spec = gen.spec()
    return json.dumps(spec, sort_keys=True)


def _binom_pvalue(successes: int, trials: int, p0: float) -> float:
    from scipy.stats import binomtest

    return float(binomtest(successes, trials, p0).pvalue)


def _chisquare(counts, expected=None) -> tuple[float, float]:
    from scipy.stats import chisquare

    res = chisquare(counts, f_exp=expected)
    return float(res.statistic), float(res.pvalue)


def _normal_two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2))


def spearman_rho(p, q):
    """Spearman rank correlation of two permutations of {1..n}.

    Permutations are already ranks, so this is the closed form
    1 - 6 * sum d_i^2 / (n (n^2 - 1)).  Exact when given to Fraction
    arithmetic by the caller; here plain float.
    """
    n = len(p)
    if n < 2 or len(q) != n:
        raise ValueError("need two equal-length permutations, n >= 2")
    d2 = sum((x - y) ** 2 for x, y in zip(p, q))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


# ---------------------------------------------------------------------------
# The even/odd integer experiment

@_experiment("murdoch")
def murdoch_experiment(gen: Generator, method: str, replications: int) -> AuditReport:
    """Draw integers on {1..m}, m = (2/5) * 2^32, and report the fraction
    of even values.

    method="floor" reproduces what floor-based package code actually
    computes: floor(dn * u) where dn is the real number (2/5) * 2^32, not
    its integer truncation.  That real scale makes roughly 40% of outputs
    even.  Feeding the truncated integer m into the idealized exact kernel
    instead gives exactly 50% even (m = 2 mod 4 balances the parity bit;
    see integers.floor_even_probability), so the experiment would show
    nothing; the bias lives in the non-integral scale.

    method="mask" draws uniformly on {1..m}; m is even, so exactly half
    the range is even and the observed fraction sits at 50%.
    """
    if gen.width != 32:
        raise ValueError("the even/odd experiment requires 32-bit words")
    if replications < 10 ** 5:
        raise ValueError("need at least 1e5 replications")
    if method not in ("floor", "mask"):
        raise ValueError("method must be floor or mask")

    t0 = time.perf_counter()
    num, den = MURDOCH_SCALE
    even = 0
    if method == "floor":
        reference = floor_even_probability(32, num, den)
    else:
        reference = Fraction(MURDOCH_M // 2, MURDOCH_M)
        randints = RandomSource(gen).randints
    for done in range(0, replications, DRAW_CHUNK):
        chunk = min(DRAW_CHUNK, replications - done)
        if method == "floor":
            odd = sum([floor_value_scaled(word, 32, num, den) % 2 for word in gen.words(chunk)])
        else:
            odd = sum([v % 2 for v in randints(repeat(MURDOCH_M, chunk))])
        even += chunk - odd
    duration = time.perf_counter() - t0

    p_even = even / replications
    se = math.sqrt(float(reference) * (1 - float(reference)) / replications)
    z = (p_even - float(reference)) / se
    tolerance = 0.005
    return AuditReport(
        seed=_seed_record(gen),
        replications=replications,
        observed={"p_even": p_even, "even_count": even},
        reference={
            "p_even": float(reference),
            "p_even_exact": str(reference),
            "m": MURDOCH_M,
            "tolerance": tolerance,
        },
        statistics={"z": z},
        p_values={"binomial_vs_reference": _binom_pvalue(even, replications, float(reference))},
        passed=abs(p_even - float(reference)) <= tolerance,
        duration_s=duration,
    )


# ---------------------------------------------------------------------------
# Exhaustive pigeonhole coverage with a toy LCG

@_experiment("coverage")
def permutation_coverage(params: LcgParams, n: int) -> AuditReport:
    """Shuffle {1..n} once from every possible initial register of a toy
    LCG and count the distinct permutations.

    The count can never exceed the number of initial states (each run is a
    deterministic function of the register), so the attainable fraction of
    the n! permutations is at most states / n!.  This is an exact claim,
    not a statistical one.  Non-full-period parameters are flagged since
    then even the per-orbit variety is smaller than the state count
    suggests.
    """
    if params.m > 1 << 16:
        raise InfeasibleSizeError("toy LCG modulus must be <= 2^16")
    if not 1 <= n <= 8:
        raise InfeasibleSizeError("need n <= 8 to enumerate permutations")

    t0 = time.perf_counter()
    flags = []
    if not full_period(params):
        flags.append("not_full_period")
    seen = set()
    for register in range(params.m):
        src = RandomSource(LcgGenerator(params, register))
        seen.add(fisher_yates(src, n).items)
    duration = time.perf_counter() - t0

    total = bounds.factorial(n)
    predicted_max = min(Fraction(1), Fraction(params.m, total))
    observed_fraction = Fraction(len(seen), total)
    return AuditReport(
        seed=f"all {params.m} initial registers",
        replications=params.m,
        observed={
            "distinct_permutations": len(seen),
            "observed_fraction": float(observed_fraction),
        },
        reference={
            "state_count": params.m,
            "total_permutations": total,
            "predicted_max_fraction": float(predicted_max),
            "predicted_max_fraction_exact": str(predicted_max),
        },
        passed=len(seen) <= min(params.m, total),
        flags=flags,
        duration_s=duration,
    )


# ---------------------------------------------------------------------------
# Permutation statistics under a trusted generator

@_experiment("derangement")
def derangement_test(
    gen: Generator, n: int, replications: int, alpha: float = DEFAULT_ALPHA
) -> AuditReport:
    """Shuffle {1..n} repeatedly; compare the derangement frequency to the
    exact D_n / n! with a two-sided binomial test.

    Also bins the number of fixed points per shuffle against its exact
    distribution (the partial-derangement counts) with a chi-square test,
    merging tail cells until every expected count is at least 10.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if replications < 10 ** 4:
        raise ValueError("need at least 1e4 replications")
    _check_alpha(alpha)

    t0 = time.perf_counter()
    identity = range(1, n + 1)
    fixed_counts = [0] * (n + 1)
    for perm in shuffles(RandomSource(gen), n, replications):
        fixed_counts[sum(map(eq, perm, identity))] += 1
    duration = time.perf_counter() - t0

    total = bounds.factorial(n)
    p_derange = Fraction(bounds.derangement_count(n), total)
    derangements = fixed_counts[0]
    p_binom = _binom_pvalue(derangements, replications, float(p_derange))

    expected_exact = [
        replications * Fraction(bounds.rencontres_count(n, j), total)
        for j in range(n + 1)
    ]
    obs_cells = list(fixed_counts)
    exp_cells = expected_exact
    # fixing exactly n-1 points is impossible; fold that empty cell into the
    # identity cell, then fold the sparse right tail until expected >= 10
    exp_cells[n] += exp_cells[n - 1]
    obs_cells[n] += obs_cells[n - 1]
    del exp_cells[n - 1], obs_cells[n - 1]
    while len(exp_cells) > 2 and exp_cells[-1] < 10:
        exp_cells[-2] += exp_cells[-1]
        obs_cells[-2] += obs_cells[-1]
        del exp_cells[-1], obs_cells[-1]
    chi2, p_chi2 = _chisquare(obs_cells, [float(e) for e in exp_cells])

    return AuditReport(
        seed=_seed_record(gen),
        replications=replications,
        observed={
            "derangement_rate": derangements / replications,
            "fixed_point_counts": fixed_counts,
        },
        reference={
            "derangement_rate": float(p_derange),
            "derangement_rate_exact": str(p_derange),
        },
        statistics={"fixed_points_chi2": chi2},
        p_values={"derangement_binomial": p_binom, "fixed_points_chi2": p_chi2},
        passed=p_binom >= alpha,
        duration_s=duration,
    )


@_experiment("spearman")
def spearman_test(
    gen: Generator, n: int, replications: int, alpha: float = DEFAULT_ALPHA
) -> AuditReport:
    """Draw pairs of independent shuffles and test that their mean Spearman
    rank correlation is zero.

    For uniform random permutations each pair's correlation has mean 0 and
    variance exactly 1/(n-1), so the standardized mean over R pairs is
    compared to a normal null.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if replications < 10 ** 4:
        raise ValueError("need at least 1e4 replications")
    _check_alpha(alpha)

    t0 = time.perf_counter()
    total_rho = 0.0
    perms = shuffles(RandomSource(gen), n, 2 * replications)
    for p in perms:
        total_rho += spearman_rho(p, next(perms))
    duration = time.perf_counter() - t0

    mean_rho = total_rho / replications
    z = mean_rho * math.sqrt(replications * (n - 1))
    p_val = _normal_two_sided(z)
    return AuditReport(
        seed=_seed_record(gen),
        replications=replications,
        observed={"mean_rho": mean_rho},
        reference={"mean_rho": 0.0, "variance_per_pair": 1.0 / (n - 1)},
        statistics={"z": z},
        p_values={"mean_zero_normal": p_val},
        passed=p_val >= alpha,
        duration_s=duration,
    )


@_experiment("sample_frequency")
def sample_frequency_test(
    gen: Generator,
    n: int,
    k: int,
    replications: int,
    algorithm: str = "random_indices",
    method: str = "mask",
    alpha: float = DEFAULT_ALPHA,
) -> AuditReport:
    """Draw simple random samples repeatedly and chi-square the subset
    frequencies against uniform over all C(n,k) subsets.

    Requires C(n,k) <= 1e4 and at least 100 replications per cell so every
    expected count is comfortably large.  Any of the six sampling
    algorithms may be audited; passing method="floor" or "round"
    demonstrates the biased integer mappings inside the sampler.
    """
    import itertools

    cells = bounds.binomial(n, k)
    if cells > 10 ** 4:
        raise InfeasibleSizeError(f"C({n},{k}) = {cells} cells is too many")
    if replications < 100 * cells:
        raise ValueError(f"need at least {100 * cells} replications for {cells} cells")
    _check_alpha(alpha)
    spec = SampleSpec(n, k, algorithm=algorithm)

    t0 = time.perf_counter()
    index = {
        frozenset(c): i
        for i, c in enumerate(itertools.combinations(range(1, n + 1), k))
    }
    counts = [0] * cells
    src = RandomSource(gen, method=method)
    for _ in range(replications):
        counts[index[spec.run(src).as_set()]] += 1
    duration = time.perf_counter() - t0

    if cells == 1:  # k = n: a single possible sample, nothing to test
        chi2, p_val = 0.0, 1.0
    else:
        chi2, p_val = _chisquare(counts)
    return AuditReport(
        seed=_seed_record(gen),
        replications=replications,
        observed={"min_cell": min(counts), "max_cell": max(counts)},
        reference={"cells": cells, "expected_per_cell": replications / cells},
        statistics={"chi2": chi2, "df": cells - 1},
        p_values={"chi2_uniform": p_val},
        passed=p_val >= alpha,
        duration_s=duration,
    )


# ---------------------------------------------------------------------------
# Calibration battery

@_experiment("calibration")
def calibration(
    base_seed: str = "calibration",
    repetitions: int = 100,
    alpha: float = DEFAULT_ALPHA,
    derangement_n: int = 7,
    derangement_reps: int = 10 ** 4,
    spearman_n: int = 7,
    spearman_reps: int = 10 ** 4,
    freq_n: int = 5,
    freq_k: int = 2,
    freq_reps: int = 1000,
) -> AuditReport:
    """Run the derangement, Spearman, and sample-frequency tests under the
    hash-counter generator across many independently seeded repetitions
    and count rejections at the (already conservative) per-test level.

    Under a sound generator the tests should essentially never reject:
    with 3 * repetitions p-values at alpha = 0.001 the expected number of
    rejections is about 0.3.  This calibration deliberately substitutes
    for a full-scale search for generator bias, which published attempts
    at O(1e5) replications failed to find; it demonstrates the harness is
    healthy, not that the generator is flawless.

    Repetition r of family f uses seed ``f"{base_seed}:{f}:{r}"``, so
    shards can run anywhere and be merged.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    _check_alpha(alpha)
    t0 = time.perf_counter()
    p_lists = {"derangement": [], "spearman": [], "sample_frequency": []}
    for r in range(repetitions):
        g = HashCounterGenerator(f"{base_seed}:derangement:{r}")
        p_lists["derangement"].append(
            derangement_test(g, derangement_n, derangement_reps, alpha).p_values[
                "derangement_binomial"
            ]
        )
        g = HashCounterGenerator(f"{base_seed}:spearman:{r}")
        p_lists["spearman"].append(
            spearman_test(g, spearman_n, spearman_reps, alpha).p_values[
                "mean_zero_normal"
            ]
        )
        g = HashCounterGenerator(f"{base_seed}:sample_frequency:{r}")
        p_lists["sample_frequency"].append(
            sample_frequency_test(g, freq_n, freq_k, freq_reps, alpha=alpha).p_values[
                "chi2_uniform"
            ]
        )
    duration = time.perf_counter() - t0

    rejections = {name: sum(1 for p in ps if p < alpha) for name, ps in p_lists.items()}
    total_rejections = sum(rejections.values())
    return AuditReport(
        seed=base_seed,
        replications=repetitions,
        observed={
            "rejections_total": total_rejections,
            "rejections": rejections,
            "p_values": p_lists,
        },
        reference={"alpha": alpha, "max_rejections": 2},
        passed=total_rejections <= 2,
        duration_s=duration,
    )


# ---------------------------------------------------------------------------
# Replay

def run_experiment(config: dict) -> AuditReport:
    """Rerun an experiment from a report's config dict."""
    args = dict(config)
    name = args.pop("experiment")
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    first = ()
    if "generator" in args:
        first = (from_spec(args.pop("generator")),)
    elif "m" in args:
        first = (LcgParams(args.pop("m"), args.pop("a"), args.pop("c")),)
    return EXPERIMENTS[name](*first, **args)


def replay(report: AuditReport) -> AuditReport:
    return run_experiment(report.config)
