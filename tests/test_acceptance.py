"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line (visible with -rA/-s or
via scripts/acceptance.py, which runs this module standalone).
"""

import time
from fractions import Fraction

import pytest

from randaudit import audit, bounds
from randaudit.generators import LcgParams, Mt19937Generator
from randaudit.integers import exact_distribution
from randaudit.pathenum import (
    ENUMERABLE_ALGORITHMS,
    exact_subset_distribution,
    uniform_subset_reference,
)

MT_SEED = 20180917


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_murdoch_reproduction():
    t0 = time.perf_counter()
    floor = audit.murdoch_experiment(Mt19937Generator(MT_SEED), "floor", 10 ** 6)
    mask = audit.murdoch_experiment(Mt19937Generator(MT_SEED), "mask", 10 ** 6)
    elapsed = time.perf_counter() - t0
    p_floor = floor.observed["p_even"]
    p_mask = mask.observed["p_even"]
    gap = p_mask - p_floor  # exact effect size is 0.1
    ok = (
        abs(p_floor - 0.400) <= 0.005
        and abs(p_mask - 0.500) <= 0.005
        and gap >= 0.09
        and elapsed < 10.0
    )
    _report(
        "C1 murdoch even/odd",
        ok,
        f"floor={p_floor:.6f} mask={p_mask:.6f} gap={gap:.4f} elapsed={elapsed:.2f}s",
    )


def test_c2_table1_reproduction():
    t0 = time.perf_counter()
    v = bounds.table1_values()
    elapsed = time.perf_counter() - t0
    ok = (
        round(float(v["frac_32"]), 3) == 0.418
        and round(float(v["frac_64"]), 3) == 0.075
        and round(float(v["frac_128"]), 4) == 0.0003
        and v["fact_13"] == 6_227_020_800
        and v["c_50_10"] == 10_272_278_170
        and v["frac_mt"] < Fraction(166, 10 ** 8)
        and elapsed < 5.0
    )
    _report(
        "C2 pigeonhole table",
        ok,
        f"fractions={float(v['frac_32']):.4f}/{float(v['frac_64']):.4f}/"
        f"{float(v['frac_128']):.5f} mt={float(v['frac_mt']):.2e} elapsed={elapsed:.2f}s",
    )


def test_c3_knuth_ratio():
    t0 = time.perf_counter()
    dist = exact_distribution("floor", 16, 32769)
    ratio = dist.max_min_ratio()
    elapsed = time.perf_counter() - t0
    first_order = 1 + 32769 * 2 ** -15
    ok = (
        ratio == 2
        and abs(float(ratio) - first_order) / first_order < 1e-3
        and elapsed < 1.0
    )
    _report(
        "C3 max/min selection ratio",
        ok,
        f"ratio={ratio} first_order={first_order:.6f} elapsed={elapsed:.3f}s",
    )


def test_c4_pigeonhole_exhaustion():
    t0 = time.perf_counter()
    report = audit.permutation_coverage(LcgParams(m=256, a=5, c=1), 6)
    elapsed = time.perf_counter() - t0
    distinct = report.observed["distinct_permutations"]
    predicted = Fraction(report.reference["predicted_max_fraction_exact"])
    ok = (
        distinct <= 256
        and round(float(predicted), 4) == 0.3556
        and Fraction(distinct, 720) <= predicted
        and elapsed < 1.0
    )
    _report(
        "C4 pigeonhole exhaustion",
        ok,
        f"distinct={distinct}/720 predicted<={float(predicted):.4f} elapsed={elapsed:.2f}s",
    )


def test_c5_exhaustive_uniformity():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 7):
        for k in range(1, min(3, n) + 1):
            reference = uniform_subset_reference(n, k)
            for algorithm in ENUMERABLE_ALGORITHMS:
                if exact_subset_distribution(algorithm, n, k) != reference:
                    failures.append((algorithm, n, k))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        "C5 exhaustive uniformity",
        ok,
        f"algorithms={len(ENUMERABLE_ALGORITHMS)} cases exact, "
        f"failures={failures} elapsed={elapsed:.2f}s",
    )


def test_c6_bound_inequalities():
    # the pigeonhole inequalities behind the table, in exact integers: n is
    # the fewest items whose permutations outnumber the states, each sample
    # count outnumbers its states, and a state space that falls short forces
    # an L1 distance of at least 2 (1 - states / target)
    violations = []
    for bits, n in [(32, 13), (64, 21), (128, 35), (32 * 624, 2084)]:
        if not bounds.factorial(n - 1) <= 1 << bits < bounds.factorial(n):
            violations.append(f"{n}! vs 2^{bits}")
    for bits, n, k in [(32, 50, 10), (64, 500, 10), (128, 500, 25), (32 * 624, 390_000_000, 1000)]:
        target = bounds.binomial(n, k)
        rep = bounds.attainable_fraction(bits, target)
        if not (target > 1 << bits and rep.l1_lower_bound == 2 * (1 - rep.fraction) > 0):
            violations.append(f"C({n},{k}) vs 2^{bits}")
    _report("C6 bound inequalities", not violations, f"violations={violations}")


def test_c7_calibration():
    t0 = time.perf_counter()
    report = audit.calibration("acceptance-v1", repetitions=100)
    elapsed = time.perf_counter() - t0
    rejections = report.observed["rejections_total"]
    ok = rejections <= 2 and elapsed < 300.0
    _report(
        "C7 calibration battery",
        ok,
        f"rejections={rejections}/300 tests at alpha=0.001 "
        f"({report.observed['rejections']}) elapsed={elapsed:.1f}s",
    )


def test_c8_mt19937_oracle_equivalence():
    np = pytest.importorskip("numpy")
    reference = np.random.RandomState(5489).randint(0, 2 ** 32, size=10 ** 4, dtype=np.uint64)
    ours = Mt19937Generator(5489).words(10 ** 4)
    ok = ours == list(reference)
    _report("C8 MT19937 oracle equivalence", ok, "10^4 words match word-for-word")


def test_c9_reproducibility():
    reports = [
        audit.murdoch_experiment(Mt19937Generator(MT_SEED), "floor", 10 ** 5),
        audit.permutation_coverage(LcgParams(m=256, a=5, c=1), 5),
        audit.derangement_test(audit.HashCounterGenerator("c9:derangement"), 7, 10 ** 4),
        audit.spearman_test(audit.HashCounterGenerator("c9:spearman"), 7, 10 ** 4),
        audit.sample_frequency_test(audit.HashCounterGenerator("c9:freq"), 5, 2, 1000),
        audit.calibration("c9:battery", repetitions=2),
    ]
    mismatches = [
        r.experiment for r in reports if r != audit.run_experiment(r.config)
    ]
    _report(
        "C9 reproducibility",
        not mismatches,
        f"{len(reports)} experiment types replayed bit-for-bit, mismatches={mismatches}",
    )
