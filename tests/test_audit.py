import dataclasses
import inspect
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from randaudit.audit import (
    EXPERIMENTS,
    MURDOCH_M,
    MURDOCH_SCALE,
    _FLOOR_PARITY,
    AuditReport,
    calibration,
    derangement_test,
    murdoch_experiment,
    permutation_coverage,
    run_experiment,
    sample_frequency_test,
    spearman_rho,
    spearman_test,
)
from randaudit.bounds import derangement_count
from randaudit.errors import InfeasibleSizeError
from randaudit.generators import (
    HashCounterGenerator,
    LcgParams,
    Mt19937Generator,
    ScriptedGenerator,
)
from randaudit.integers import DRAW_CHUNK, floor_even_probability, floor_value


class TestMurdoch:
    def test_floor_reference_is_essentially_two_fifths(self):
        r = murdoch_experiment(Mt19937Generator(1), "floor", 10 ** 5)
        assert r.reference["p_even"] == pytest.approx(0.4, abs=1e-9)
        assert r.reference["m"] == MURDOCH_M

    def test_mask_reference_is_exactly_half(self):
        r = murdoch_experiment(Mt19937Generator(2), "mask", 10 ** 5)
        assert r.reference["p_even"] == 0.5
        assert abs(r.observed["p_even"] - 0.5) < 0.01

    def test_scripted_cyclic_words_hit_the_exact_subsampled_split(self):
        # a deterministic stride through the word range: observed equals the
        # brute-force count over exactly those words
        stride = 2 ** 22
        words = [w * stride for w in range(1024)]
        num, den = MURDOCH_SCALE
        expected_even = sum(
            1 for w in words if floor_value(w, 32, num, den) % 2 == 0
        )
        reps = 102_400
        gen = ScriptedGenerator(words, width=32, cycles=reps // len(words))
        r = murdoch_experiment(gen, "floor", reps)
        assert r.observed["even_count"] == expected_even * (reps // len(words))
        assert r.observed["p_even"] == pytest.approx(0.4, abs=0.01)

    @pytest.mark.parametrize(
        "make", [lambda: Mt19937Generator(7), lambda: HashCounterGenerator("floor-parity")], ids=["mt19937", "hash"]
    )
    def test_floor_even_count_matches_the_scaled_kernel(self, make):
        reps = 100_003  # a partial last chunk
        assert reps % DRAW_CHUNK
        gen = make()
        twin = gen.clone()
        r = murdoch_experiment(gen, "floor", reps)
        expected = sum(floor_value(w, 32, *MURDOCH_SCALE) % 2 == 0 for w in twin.words(reps))
        assert r.observed["even_count"] == expected
        assert gen.words_emitted == reps

    @given(st.integers(0, 2 ** 32 - 1))
    @example(0)
    @example(2 ** 32 - 1)
    # the top ten words, one per residue class mod 10 (2^32 - 1 is 5)
    @example(2 ** 32 - 10)
    @example(2 ** 32 - 9)
    @example(2 ** 32 - 8)
    @example(2 ** 32 - 7)
    @example(2 ** 32 - 6)
    @example(2 ** 32 - 5)
    @example(2 ** 32 - 4)
    @example(2 ** 32 - 3)
    @example(2 ** 32 - 2)
    def test_reduced_scale_floor_is_the_scaled_kernel(self, w):
        num, den = MURDOCH_SCALE
        g = math.gcd(num, den << 32)
        q, d = num // g, (den << 32) // g
        assert (q, d) == (2, 5)
        assert q * w // d == floor_value(w, 32, num, den) - 1
        # the parity the audit reads for this word
        assert _FLOOR_PARITY[w % 10] == (floor_value(w, 32, num, den) - 1) & 1

    def test_floor_parity_table_over_every_word_is_the_exact_reference(self):
        # no sampling: each residue class mod 10 counted over all 2^32 words
        assert [r for r, odd in enumerate(_FLOOR_PARITY) if odd] == [3, 4, 8, 9]
        per_residue = [len(range(r, 2 ** 32, 10)) for r in range(10)]
        assert per_residue == [429_496_730] * 6 + [429_496_729] * 4
        even = sum(n for n, odd in zip(per_residue, _FLOOR_PARITY) if odd)
        assert even == 1_717_986_918
        assert Fraction(even, 2 ** 32) == floor_even_probability(32, *MURDOCH_SCALE)
        assert Fraction(even, 2 ** 32) == Fraction(858_993_459, 2 ** 31)

    def test_width_must_be_32(self):
        with pytest.raises(ValueError):
            murdoch_experiment(HashCounterGenerator("x", width=16), "floor", 10 ** 5)

    def test_min_replications(self):
        with pytest.raises(ValueError):
            murdoch_experiment(Mt19937Generator(1), "floor", 10 ** 4)

    def test_method_restricted(self):
        with pytest.raises(ValueError):
            murdoch_experiment(Mt19937Generator(1), "round", 10 ** 5)


class TestCoverage:
    def test_toy_full_period_lcg_n6(self):
        r = permutation_coverage(LcgParams(m=256, a=5, c=1), 6)
        assert r.observed["distinct_permutations"] <= 256
        assert r.reference["predicted_max_fraction"] == pytest.approx(0.35556, abs=1e-4)
        assert r.observed["observed_fraction"] <= r.reference["predicted_max_fraction"]
        assert r.passed
        assert r.flags == []

    def test_n4_bounded_by_permutation_count(self):
        r = permutation_coverage(LcgParams(m=256, a=5, c=1), 4)
        assert r.observed["distinct_permutations"] <= 24
        assert r.passed

    def test_n1_single_permutation(self):
        r = permutation_coverage(LcgParams(m=64, a=5, c=1), 1)
        assert r.observed["distinct_permutations"] == 1

    def test_non_full_period_flagged(self):
        r = permutation_coverage(LcgParams(m=256, a=4, c=2), 4)
        assert "not_full_period" in r.flags

    def test_infeasible_sizes(self):
        with pytest.raises(InfeasibleSizeError):
            permutation_coverage(LcgParams(m=2 ** 17, a=5, c=1), 4)
        with pytest.raises(InfeasibleSizeError):
            permutation_coverage(LcgParams(m=256, a=5, c=1), 9)

    @pytest.mark.parametrize(
        "params,n",
        [
            (LcgParams(m=97, a=13, c=5), 4),
            (LcgParams(m=128, a=5, c=1), 5),
            (LcgParams(m=100, a=21, c=17), 5),
            (LcgParams(m=512, a=9, c=3), 3),
        ],
    )
    def test_distinct_never_exceeds_state_count(self, params, n):
        # the pigeonhole claim is exact for any parameters, full period or not
        r = permutation_coverage(params, n)
        assert r.observed["distinct_permutations"] <= params.m
        assert r.passed


class TestDerangement:
    def test_exact_references(self):
        r2 = derangement_test(HashCounterGenerator("d2"), 2, 10 ** 4)
        assert r2.reference["derangement_rate"] == 0.5
        r7 = derangement_test(HashCounterGenerator("d7"), 7, 10 ** 4)
        assert r7.reference["derangement_rate_exact"] == str(Fraction(1854, 5040))
        assert derangement_count(7) == 1854

    def test_cs_prng_not_rejected(self):
        r = derangement_test(HashCounterGenerator("d-null"), 7, 10 ** 4)
        assert r.p_values["derangement_binomial"] >= 0.001
        assert r.p_values["fixed_points_chi2"] >= 0.001
        assert r.passed

    def test_fixed_point_histogram_is_complete(self):
        r = derangement_test(HashCounterGenerator("d-hist"), 5, 10 ** 4)
        assert sum(r.observed["fixed_point_counts"]) == 10 ** 4
        # counting permutations with exactly n-1 fixed points is impossible
        assert r.observed["fixed_point_counts"][4] == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            derangement_test(HashCounterGenerator("x"), 1, 10 ** 4)
        with pytest.raises(ValueError):
            derangement_test(HashCounterGenerator("x"), 5, 100)


class TestSpearman:
    def test_rho_extremes(self):
        assert spearman_rho((1, 2, 3, 4), (1, 2, 3, 4)) == 1.0
        assert spearman_rho((1, 2, 3, 4), (4, 3, 2, 1)) == -1.0

    def test_exact_mean_over_all_pairs_n3(self):
        perms = list(itertools.permutations((1, 2, 3)))
        total = Fraction(0)
        for p in perms:
            for q in perms:
                d2 = sum((x - y) ** 2 for x, y in zip(p, q))
                total += 1 - Fraction(6 * d2, 3 * (9 - 1))
        assert total == 0
        # and the variance of rho over all pairs is exactly 1/(n-1)
        var = Fraction(0)
        for p in perms:
            for q in perms:
                d2 = sum((x - y) ** 2 for x, y in zip(p, q))
                var += (1 - Fraction(6 * d2, 24)) ** 2
        assert var / 36 == Fraction(1, 2)

    def test_cs_prng_not_rejected(self):
        r = spearman_test(HashCounterGenerator("s-null"), 7, 10 ** 4)
        assert r.p_values["mean_zero_normal"] >= 0.001
        assert r.passed


class TestSampleFrequency:
    def test_cs_prng_not_rejected(self):
        r = sample_frequency_test(HashCounterGenerator("f-null"), 5, 2, 10 ** 4)
        assert r.statistics["df"] == 9
        assert r.p_values["chi2_uniform"] >= 0.001
        assert r.passed

    def test_floor_bias_detected_with_narrow_words(self):
        # with 4-bit words the floor method's draw distribution on {1..5} is
        # (4,3,3,3,3)/16; the exact induced subset distribution gives a
        # noncentrality far beyond the alpha=0.001 detection threshold
        gen = HashCounterGenerator("f-biased", width=4)
        r = sample_frequency_test(gen, 5, 2, 2000, method="floor")
        assert r.p_values["chi2_uniform"] < 0.001
        assert not r.passed

    def test_k_equals_n_is_trivial(self):
        r = sample_frequency_test(HashCounterGenerator("f-kn"), 5, 5, 500)
        assert r.statistics["chi2"] == 0.0
        assert r.p_values["chi2_uniform"] == 1.0

    def test_cell_count_limit(self):
        with pytest.raises(InfeasibleSizeError):
            sample_frequency_test(HashCounterGenerator("x"), 30, 10, 10 ** 6)

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            sample_frequency_test(HashCounterGenerator("x"), 5, 2, 500)


class TestCalibrationSmoke:
    def test_three_repetitions(self):
        r = calibration("unit-cal", repetitions=3)
        assert r.observed["rejections_total"] <= 3
        assert len(r.observed["p_values"]["derangement"]) == 3
        assert r.config["repetitions"] == 3


class TestReproducibility:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: murdoch_experiment(Mt19937Generator(11), "floor", 10 ** 5),
            lambda: permutation_coverage(LcgParams(m=128, a=5, c=1), 4),
            lambda: derangement_test(HashCounterGenerator("rep-d"), 5, 10 ** 4),
            lambda: spearman_test(HashCounterGenerator("rep-s"), 5, 10 ** 4),
            lambda: sample_frequency_test(HashCounterGenerator("rep-f"), 5, 2, 1000),
        ],
        ids=["murdoch", "coverage", "derangement", "spearman", "sample_frequency"],
    )
    def test_replay_reproduces_statistics(self, make):
        first = make()
        again = run_experiment(first.config)
        assert first == again
        assert first.duration_s != again.duration_s or True  # timing excluded

    def test_json_roundtrip(self):
        r = permutation_coverage(LcgParams(m=128, a=5, c=1), 4)
        back = AuditReport.from_json(r.to_json())
        assert back == r

    def test_csv_row_shape(self):
        r = permutation_coverage(LcgParams(m=128, a=5, c=1), 4)
        row = r.csv_row()
        assert len(row) == len(AuditReport.CSV_COLUMNS)
        assert row[0] == "coverage"


# experiment -> (a maker of its generator, or None, and its other arguments
# at sizes that run in well under a second)
SMALL_RUNS = {
    "murdoch": (lambda: Mt19937Generator(3), ("mask", 10 ** 5)),
    "coverage": (None, (LcgParams(m=64, a=5, c=1), 4)),
    "derangement": (lambda: HashCounterGenerator("frame"), (5, 10 ** 4)),
    "spearman": (lambda: HashCounterGenerator("frame"), (5, 10 ** 4)),
    "sample_frequency": (lambda: HashCounterGenerator("frame"), (4, 2, 600)),
    "calibration": (None, ("frame", 1)),
}
TAKE_ALPHA = sorted(name for name in SMALL_RUNS if "alpha" in inspect.signature(EXPERIMENTS[name]).parameters)


def small_call(name):
    """The generator of one small run, or None, and all its arguments."""
    make, args = SMALL_RUNS[name]
    gen = make() if make else None
    return gen, (gen, *args) if gen else args


# every AuditReport field, each with a value
REPORT_FIELDS = dict(
    replications=3, observed={"x": 1}, reference={"x": 2}, seed="s", experiment="e", config={"a": 1},
    statistics={"z": 0.5}, p_values={"p": 0.25}, passed=True, flags=["f"], duration_s=1.5,
)


class TestReportEquality:
    def test_reports_that_differ_only_in_duration_are_equal(self):
        assert AuditReport(**dict(REPORT_FIELDS, duration_s=9.0)) == AuditReport(**REPORT_FIELDS)

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(AuditReport) if f.name != "duration_s"]
    )
    def test_every_other_field_takes_part(self, name):
        # object() equals nothing but itself
        assert AuditReport(**dict(REPORT_FIELDS, **{name: object()})) != AuditReport(**REPORT_FIELDS)


class TestReportFrame:
    def test_small_runs_cover_every_experiment(self):
        assert SMALL_RUNS.keys() == EXPERIMENTS.keys()
        assert TAKE_ALPHA == ["calibration", "derangement", "sample_frequency", "spearman"]

    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_registry_fills_seed_config_and_duration(self, name):
        gen, args = small_call(name)
        report = EXPERIMENTS[name](*args)
        assert report.experiment == name == report.config["experiment"]
        assert report.duration_s > 0
        if gen is None:
            assert report.seed and "generator" not in report.config
        else:
            assert report.seed == json.dumps(gen.spec(), sort_keys=True)
            assert json.loads(report.seed) == report.config["generator"]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, float("nan")])
    @pytest.mark.parametrize("name", TAKE_ALPHA)
    def test_registry_checks_alpha_before_any_draw(self, name, alpha):
        gen, args = small_call(name)
        with pytest.raises(ValueError, match="alpha"):
            EXPERIMENTS[name](*args, alpha=alpha)
        if gen is not None:
            assert gen.words_emitted == 0
