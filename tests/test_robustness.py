"""Inputs that used to hang or report nonsense now end in a one-line error.

The CLI cases run in a subprocess with a timeout, so a regression to a
hang fails the test instead of stalling the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from randaudit import audit
from randaudit.errors import DegenerateStreamError, InfeasibleSizeError
from randaudit.generators import HashCounterGenerator, LcgGenerator, LcgParams, ScriptedGenerator
from randaudit.integers import MAX_REJECTIONS, RandomSource, randint_mask
from randaudit.sampling import ALGORITHMS, SampleSpec, random_indices, vitter_z

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "randaudit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
    )


def assert_one_line_error(proc, code):
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


CONSTANT_LCG = ("--prng", "lcg", "--a", "1", "--c", "0", "--m", "256")


@pytest.mark.parametrize(
    "argv",
    [
        # a = 5, c = 0 keeps register 0 at 0: fraction_nonzero sees only zeros
        ("sample", "--prng", "lcg", "--a", "5", "--c", "0", "--m", "256", "--seed", "0",
         "--algo", "vitter-z", "--n", "100", "--k", "2"),
        # word 255: every mask candidate for m = 5 is 7, always rejected
        ("sample", *CONSTANT_LCG, "--seed", "255", "--n", "5", "--k", "2"),
        # word 7: every draw is the same index, so random_indices sees duplicates
        ("sample", *CONSTANT_LCG, "--seed", "7", "--n", "5", "--k", "2"),
        ("sample", *CONSTANT_LCG, "--seed", "255", "--n", "5", "--k", "2", "--method", "floor"),
        # a constant fraction past the Z-phase threshold: every skip is rejected
        ("sample", *CONSTANT_LCG, "--seed", "255", "--algo", "vitter-z", "--n", "100000",
         "--k", "2", "--method", "floor"),
    ],
)
def test_degenerate_generator_exits_2(argv):
    assert_one_line_error(run_cli(*argv), 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--state-bits", "32", "--target-perm", "10000000"),
        ("bounds", "--state-bits", "32", "--target-n", "1000000000", "--target-k", "1000000"),
        ("bounds", "--state-bits", "100000000000", "--target", "5"),
    ],
)
def test_oversized_bounds_exit_3(argv):
    assert_one_line_error(run_cli(*argv), 3)


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "spearman", "--seed", "1", "--alpha", "nan"),
        ("audit", "derangement", "--seed", "1", "--alpha", "1"),
        ("audit", "sample-frequency", "--seed", "1", "--alpha", "0", "--reps", "1000"),
        ("audit", "calibration", "--seed", "1", "--repetitions", "0"),
    ],
)
def test_meaningless_audit_inputs_exit_2(argv):
    assert_one_line_error(run_cli(*argv), 2)


class TestRedrawLimits:
    def test_mask_rejections(self):
        # width 3, m = 5: the constant word 7 is always rejected
        g = ScriptedGenerator([7], width=3, cycles=None)
        with pytest.raises(DegenerateStreamError):
            randint_mask(g, 5)
        assert g.words_emitted == MAX_REJECTIONS

    def test_mask_rejections_just_below_the_limit_pass(self):
        g = ScriptedGenerator([7] * (MAX_REJECTIONS - 1) + [0], width=3)
        assert randint_mask(g, 5) == 1

    def test_zero_fractions(self):
        # 64 // 8 + 1 = 9 zeros in a row at width 8
        src = RandomSource(ScriptedGenerator([0] * 8 + [3], width=8))
        assert src.fraction_nonzero() == 3 / 256
        src = RandomSource(ScriptedGenerator([0] * 9 + [3], width=8))
        with pytest.raises(DegenerateStreamError):
            src.fraction_nonzero()

    def test_duplicate_indices(self):
        src = RandomSource(LcgGenerator(LcgParams(m=256, a=1, c=0), 7))
        with pytest.raises(DegenerateStreamError):
            random_indices(src, 5, 2)
        # the first draw, then 90 * n duplicates
        assert src.draws == 1 + 90 * 5

    def test_z_phase_rejections(self):
        src = RandomSource(LcgGenerator(LcgParams(m=256, a=1, c=0), 255))
        with pytest.raises(DegenerateStreamError):
            vitter_z(range(1, 1001), 2, src)


class TestInputChecks:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, float("nan"), float("inf")])
    def test_alpha_outside_unit_interval(self, alpha):
        gen = HashCounterGenerator("alpha")
        with pytest.raises(ValueError):
            audit.derangement_test(gen, 5, 10 ** 4, alpha)
        with pytest.raises(ValueError):
            audit.spearman_test(gen, 5, 10 ** 4, alpha)
        with pytest.raises(ValueError):
            audit.sample_frequency_test(gen, 4, 2, 600, alpha=alpha)
        with pytest.raises(ValueError):
            audit.calibration("alpha", repetitions=1, alpha=alpha)

    def test_replay_checks_too(self):
        report = audit.spearman_test(HashCounterGenerator("replay"), 4, 10 ** 4)
        config = dict(report.config, alpha=float("nan"))
        with pytest.raises(ValueError):
            audit.run_experiment(config)
        with pytest.raises(ValueError):
            audit.run_experiment({"experiment": "calibration", "repetitions": 0})

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            audit.run_experiment({"experiment": "astrology"})

    def test_bounds_limits_checked_before_computing(self):
        from randaudit import bounds

        with pytest.raises(InfeasibleSizeError):
            bounds.factorial(10 ** 30)
        with pytest.raises(InfeasibleSizeError):
            bounds.binomial(10 ** 400, 10 ** 6)
        with pytest.raises(InfeasibleSizeError):
            bounds.attainable_fraction(bounds.MAX_BITS + 1, 5)
        # the pigeonhole table's largest values stay well inside the limit
        assert bounds.binomial(10 ** 400, 2) > 0
        assert len(bounds.table1_report()) == 16


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_sample_frequency_audits_every_sampler(algorithm):
    report = audit.sample_frequency_test(
        HashCounterGenerator(f"freq:{algorithm}"), 4, 2, 600, algorithm, "mask"
    )
    assert report.config["algorithm"] == algorithm
    assert report.p_values["chi2_uniform"] > 0.001
    assert audit.reports_equal(report, audit.replay(report))


def test_sample_frequency_counts_match_samplespec():
    gen = HashCounterGenerator("spec")
    report = audit.sample_frequency_test(gen, 4, 2, 600, "cormen", "round")
    src = RandomSource(HashCounterGenerator("spec"), "round")
    spec = SampleSpec(4, 2, algorithm="cormen")
    counts = {}
    for _ in range(600):
        subset = spec.run(src).as_set()
        counts[subset] = counts.get(subset, 0) + 1
    assert report.observed == {"min_cell": min(counts.values()), "max_cell": max(counts.values())}
