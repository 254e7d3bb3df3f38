"""Inputs that used to hang or report nonsense now end in a one-line error.

The CLI cases run in a subprocess with a timeout, so a regression to a
hang fails the test instead of stalling the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randaudit import audit
from randaudit.cli import _ALGO_NAMES
from randaudit.errors import DegenerateStreamError, InfeasibleSizeError
from randaudit.generators import HashCounterGenerator, LcgGenerator, LcgParams, ScriptedGenerator
from randaudit.integers import DRAW_CHUNK, MAX_REJECTIONS, METHODS, RandomSource, randint_mask
from randaudit.sampling import ALGORITHMS, SampleSpec, random_indices

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
    ],
)
def test_degenerate_generator_exits_2(argv):
    assert_one_line_error(run_cli(*argv), 2)


@pytest.mark.parametrize(
    "argv",
    [
        # the constant fraction 255/256 keeps about 3,000 of 10**5 records
        ("sample", *CONSTANT_LCG, "--seed", "255", "--algo", "vitter-z", "--n", "100000",
         "--k", "2", "--method", "floor"),
        # a constant fraction near 2**-32 asks for a skip of about 2**32
        # records; the walk stops with the 100-record stream
        ("sample", "--prng", "lcg", "--a", "1", "--c", "0", "--m", "4294967296", "--seed", "1",
         "--algo", "vitter-z", "--n", "100", "--k", "1"),
    ],
)
def test_degenerate_fractions_finish_vitter_z(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr


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


HEAVY_MODULES = ("numpy", "scipy", "sympy")


def run_main_in_one_process(commands):
    """Exit codes of ``main`` over ``commands`` in one fresh interpreter,
    and which of HEAVY_MODULES that interpreter had imported by the end."""
    script = (
        "import json, sys\n"
        "from randaudit.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        f"loaded = [m for m in {HEAVY_MODULES!r} if m in sys.modules]\n"
        "sys.stderr.write(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
    )
    return json.loads(proc.stderr)


def test_cli_generators_run_without_numpy():
    # importing numpy would add to every CLI run's start-up time and memory;
    # the generators need only the standard library
    commands = [
        ["sample", "--prng", "mt", "--seed", "1", "--n", "1000", "--k", "5"],
        ["sample", "--prng", "hash", "--seed", "1", "--n", "1000", "--k", "5"],
        ["gen", "--prng", "mt", "--seed", "1", "--count", "700"],
    ]
    assert run_main_in_one_process(commands) == {"codes": [0, 0, 0], "loaded": []}


def test_cli_audits_run_without_scipy_sympy_or_numpy():
    # the binomial and chi-square p-values and the Hull-Dobell check are
    # standard-library code; scipy, sympy and numpy are test oracles only
    commands = [
        ["audit", "murdoch", "--prng", "mt", "--seed", "1", "--method", "floor", "--reps", "100000"],
        ["audit", "derangement", "--seed-string", "x", "--n", "7", "--reps", "10000"],
        ["audit", "sample-frequency", "--seed-string", "x", "--n", "5", "--k", "2", "--reps", "1000"],
        ["audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "4"],
    ]
    assert run_main_in_one_process(commands) == {"codes": [0, 0, 0, 0], "loaded": []}


# ---------------------------------------------------------------------------
# An argv fuzz over gen and sample: every well-formed command line runs, or
# ends in exit 2 or 3 with a one-line error; warnings are one line each,
# and nothing prints a traceback

SCRIPTED = "<scripted file>"  # stands for the scripted_file fixture's path
STREAM = "<stream file>"  # stands for the stream_file fixture's path
SIGNED = st.integers(min_value=-3 * DRAW_CHUNK, max_value=3 * DRAW_CHUNK)
LCG_FIELD = st.integers(min_value=-2, max_value=300)


@pytest.fixture(scope="module")
def scripted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "words.txt"
    path.write_text("width=5\n" + "\n".join(str(7 * i % 32) for i in range(60)) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "stream.txt"
    path.write_text("".join(f"record {i}\n" for i in range(12)))
    return str(path)


@st.composite
def generator_flags(draw):
    prng = draw(st.sampled_from(["hash", "mt", "wh", "lcg", "scripted"]))
    if prng == "scripted":
        return ["--scripted", SCRIPTED]
    if prng != "lcg":
        return ["--prng", prng, "--seed", str(draw(SIGNED))]
    fields = [str(draw(LCG_FIELD)) for _ in range(4)]
    return ["--prng", "lcg", "--seed", fields[0], "--a", fields[1], "--c", fields[2], "--m", fields[3]]


@st.composite
def gen_argv(draw):
    argv = ["gen", *draw(generator_flags()), "--count", str(draw(SIGNED))]
    argv += ["--as", draw(st.sampled_from(["words", "fractions", "integers"]))]
    argv += ["--method", draw(st.sampled_from(METHODS))]
    if draw(st.booleans()):
        argv += ["--int-range", str(draw(SIGNED))]
    return argv


@st.composite
def sample_argv(draw):
    argv = ["sample", *draw(generator_flags()), "--algo", draw(st.sampled_from(_ALGO_NAMES))]
    argv += ["--k", str(draw(SIGNED)), "--method", draw(st.sampled_from(METHODS))]
    if draw(st.booleans()):
        argv += ["--n", str(draw(SIGNED))]
    if draw(st.booleans()):
        argv += ["--file", STREAM]
    if draw(st.booleans()):
        argv.append("--with-replacement")
    return argv


@given(argv=st.one_of(gen_argv(), sample_argv()))
@settings(max_examples=80, deadline=None)
def test_gen_and_sample_argv_fuzz(scripted_file, stream_file, argv):
    paths = {SCRIPTED: scripted_file, STREAM: stream_file}
    proc = run_cli(*(paths.get(arg, arg) for arg in argv))
    assert proc.returncode in (0, 2, 3), proc.stderr
    if STREAM in argv and ("--n" in argv or argv[argv.index("--algo") + 1] not in ("reservoir-r", "vitter-z")):
        # a --file that would be ignored is refused before the header
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr
    # one line per warning, then one error line when the run failed
    lines = proc.stderr.splitlines()
    if proc.returncode:
        assert lines and lines.pop().startswith("error: "), proc.stderr
    assert all(line.startswith("warning: ") for line in lines), proc.stderr
