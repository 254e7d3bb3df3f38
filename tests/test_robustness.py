"""Inputs that used to hang or report nonsense now end in a one-line error.

The CLI cases run in a subprocess with a timeout, so a regression to a
hang fails the test instead of stalling the suite.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randaudit import audit, sampling
from randaudit.cli import _ALGO_NAMES
from randaudit.errors import DegenerateStreamError, InfeasibleSizeError
from randaudit.generators import HashCounterGenerator, LcgGenerator, LcgParams, ScriptedGenerator
from randaudit.integers import DRAW_CHUNK, MAX_REJECTIONS, METHODS, RandomSource, randint_mask
from randaudit.sampling import (
    ALGORITHMS,
    MAX_POPULATION,
    STREAMING_ALGORITHMS,
    SampleSpec,
    cormen_sample,
    pikk,
    random_indices,
    shuffles,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, max_bytes=None):
    """Run the CLI in a child, its address space capped at ``max_bytes``
    when given, so a regression to a huge allocation fails fast."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cap = None if max_bytes is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
    return subprocess.run(
        [sys.executable, "-m", "randaudit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
        preexec_fn=cap,
    )


def assert_one_line_error(proc, code):
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


CONSTANT_LCG = ("--prng", "lcg", "--a", "1", "--c", "0", "--m", "256")


@pytest.mark.parametrize(
    "argv",
    [
        # word 255: every mask candidate for m = 5 is 7, always rejected
        ("sample", *CONSTANT_LCG, "--seed", "255", "--n", "5", "--k", "2"),
        # word 7: every draw is the same index, so random_indices sees duplicates
        ("sample", *CONSTANT_LCG, "--seed", "7", "--n", "5", "--k", "2"),
        ("sample", *CONSTANT_LCG, "--seed", "255", "--n", "5", "--k", "2", "--method", "floor"),
        ("sample", *CONSTANT_LCG, "--seed", "255", "--n", "5", "--k", "2", "--method", "round"),
    ],
)
def test_degenerate_generator_exits_2(argv):
    assert_one_line_error(run_cli(*argv), 2)


def test_vitter_z_on_a_generator_stuck_at_0_keeps_the_first_k():
    # a = 5, c = 0 keeps register 0 at 0: the skip fraction is 0, so no
    # record past the reservoir is kept and no slot is drawn
    proc = run_cli("sample", "--prng", "lcg", "--a", "5", "--c", "0", "--m", "256", "--seed", "0",
                   "--algo", "vitter-z", "--n", "100", "--k", "2")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.splitlines()[1:] == ["1", "2", "# consumed words=1 bits=8 draws=0 short=False"]


def test_out_of_memory_exits_3():
    # the 10**8-item shuffle list does not fit in a 1 GiB address space
    proc = run_cli("sample", "--seed", "1", "--n", "100000000", "--k", "100000000", "--algo", "fisher-yates",
                   max_bytes=1 << 30)
    assert_one_line_error(proc, 3)


@pytest.mark.parametrize("width", [0, -1])
def test_scripted_width_below_one_exits_2(tmp_path, width):
    # a width-0 word adds no bits, so a mask draw of it used to loop forever
    path = tmp_path / "words.txt"
    path.write_text(f"width={width}\n0\n")
    proc = run_cli("gen", "--scripted", str(path), "--as", "integers", "--int-range", "2", "--count", "3")
    assert_one_line_error(proc, 2)
    assert "width must be >= 1" in proc.stderr


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
    "n, message",
    [
        # D_1700 / 1700! has about 4,700 digits, past the int-to-text limit
        (1700, "too many digits to print"),
        # refused from D_n alone, before the expected cells (over 10 s here)
        (10000, "too many digits to print"),
        (30000, "wider than the 262144-bit limit"),
    ],
)
def test_oversized_derangement_reference_exits_3_before_shuffling(n, message):
    # 10**4 shuffles of 1,700 items take about 18 s; the reference is checked first
    t0 = time.perf_counter()
    proc = run_cli("audit", "derangement", "--seed", "1", "--n", str(n), "--reps", "10000")
    assert time.perf_counter() - t0 < 5
    assert_one_line_error(proc, 3)
    assert message in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--seed", "1", "--n", "100000000000", "--k", "1", "--algo", "fisher-yates"),
        ("sample", "--seed", "1", "--n", "100000000000", "--k", "1", "--algo", "pikk"),
        ("audit", "spearman", "--seed", "1", "--n", "100000000000", "--reps", "10000"),
        # k draws held in a list
        ("sample", "--seed", "1", "--n", "10", "--k", "100000000000", "--with-replacement"),
        ("sample", "--seed", "1", "--n", "100000000000", "--k", "10000000000", "--algo", "cormen"),
        # records 1..n streamed one by one
        ("sample", "--seed", "1", "--n", "100000000000", "--k", "1", "--algo", "reservoir-r"),
        ("sample", "--seed", "1", "--n", "100000000000", "--k", "1", "--algo", "vitter-z"),
    ],
)
def test_population_no_list_can_hold_exits_3(argv):
    # the argv fuzz below draws n <= 3 * DRAW_CHUNK, so it cannot reach
    # these; the cap turns a regression to allocating n items into a quick
    # MemoryError
    proc = run_cli(*argv, max_bytes=800 * 2 ** 20)
    assert_one_line_error(proc, 3)
    # refused before the header, like every other refusal
    assert f"limit of {MAX_POPULATION:,}" in proc.stderr and proc.stdout == ""


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

    def test_population_limit_checked_before_any_draw(self, monkeypatch):
        # a small limit, so a missing check costs no memory here
        monkeypatch.setattr(sampling, "MAX_POPULATION", 10)
        src = RandomSource(HashCounterGenerator("huge"))
        assert len(next(shuffles(src, 10, 1))) == len(pikk(src, 10, 10).items) == 10
        assert len(random_indices(src, 20, 10).items) == len(random_indices(src, 5, 10, True).items) == 10
        assert len(cormen_sample(src, 20, 10).items) == 10
        for algorithm in STREAMING_ALGORITHMS:
            assert len(SampleSpec(10, 1, algorithm=algorithm).run(src).items) == 1
        src = RandomSource(HashCounterGenerator("huge"))
        with pytest.raises(InfeasibleSizeError):
            next(shuffles(src, 11, 1))
        with pytest.raises(InfeasibleSizeError):
            pikk(src, 11, 1)
        for with_replacement in (False, True):
            with pytest.raises(InfeasibleSizeError, match="sample size k = 11"):
                random_indices(src, 20, 11, with_replacement)
        with pytest.raises(InfeasibleSizeError, match="sample size k = 11"):
            cormen_sample(src, 20, 11)
        for algorithm in STREAMING_ALGORITHMS:
            with pytest.raises(InfeasibleSizeError, match="population size n = 11"):
                SampleSpec(11, 1, algorithm=algorithm).run(src)
        gen = HashCounterGenerator("huge")
        with pytest.raises(InfeasibleSizeError):
            audit.spearman_test(gen, 11, 10 ** 4)
        assert src.words_used == gen.words_emitted == 0

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
    assert report == audit.run_experiment(report.config)


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


HEAVY_MODULES = ("numpy", "scipy", "sympy", "mpmath")


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
        ["audit", "derangement", "--seed", "x", "--n", "7", "--reps", "10000"],
        ["audit", "sample-frequency", "--seed", "x", "--n", "5", "--k", "2", "--reps", "1000"],
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
# flags a command would ignore, so it refuses them: a second seed flag, an
# LCG field without --prng lcg, or either kind with --scripted
STRAY = [["--seed-file", "seed.txt"], ["--a", "3"], ["--c", "1"], ["--m", "5"]]


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
def generator_flags(draw, scripted=True, seeds=SIGNED):
    prng = draw(st.sampled_from(["hash", "mt", "wh", "lcg"] + ["scripted"] * scripted))
    if prng == "scripted":
        flags = ["--scripted", SCRIPTED]
    elif prng != "lcg":
        flags = ["--prng", prng, "--seed", str(draw(seeds))]
    else:
        fields = [str(draw(LCG_FIELD)) for _ in range(4)]
        flags = ["--prng", "lcg", "--seed", fields[0], "--a", fields[1], "--c", fields[2], "--m", fields[3]]
    if draw(st.integers(min_value=1, max_value=5)) == 1:
        flags += draw(st.sampled_from(STRAY[:1] if prng == "lcg" else STRAY))
    return flags


def is_refused_generator_argv(argv):
    """A stray flag from STRAY, or --int-range with gen --as words or fractions."""
    seeds = ("--seed" in argv) + ("--seed-file" in argv)
    fields = bool({"--a", "--c", "--m"} & set(argv))
    if "--scripted" in argv:
        return bool(seeds or fields)
    # coverage takes --a, --c and --m without --prng
    stray_fields = fields and "--prng" in argv and "lcg" not in argv
    return seeds > 1 or stray_fields or ("--int-range" in argv and "integers" not in argv)


@st.composite
def gen_argv(draw):
    argv = ["gen", *draw(generator_flags()), "--count", str(draw(SIGNED))]
    emit = draw(st.sampled_from(["words", "fractions", "integers"]))
    argv += ["--as", emit, "--method", draw(st.sampled_from(METHODS))]
    # a range with words or fractions is refused, so it is drawn less often
    if draw(st.integers(min_value=1, max_value=2 if emit == "integers" else 5)) == 1:
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


def assert_clean_exit(proc):
    """Exit 0, 2 or 3 without a traceback: one line per warning, then one
    error line when the run failed."""
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    if proc.returncode:
        assert lines and lines.pop().startswith("error: "), proc.stderr
    assert all(line.startswith("warning: ") for line in lines), proc.stderr


@given(argv=st.one_of(gen_argv(), sample_argv()))
@settings(max_examples=80, deadline=None)
def test_gen_and_sample_argv_fuzz(scripted_file, stream_file, argv):
    paths = {SCRIPTED: scripted_file, STREAM: stream_file}
    proc = run_cli(*(paths.get(arg, arg) for arg in argv))
    assert_clean_exit(proc)
    # a --file or a generator flag that would be ignored is refused before the header
    stray_file = STREAM in argv and ("--n" in argv or argv[argv.index("--algo") + 1] not in ("reservoir-r", "vitter-z"))
    if stray_file or is_refused_generator_argv(argv):
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout


# ---------------------------------------------------------------------------
# The same fuzz over audit and bounds, at sizes that each run in well under
# a second: one Murdoch run, 10**4 small shuffles, one calibration
# repetition.  Spearman stays at n <= 12 (2 * 10**4 shuffles of 1,700 items
# take over 30 s); derangement also tries n = 1700, whose reference is
# refused before any shuffle.

ALPHA = st.sampled_from(["0", "0.5", "1", "nan"])
SMALL = st.integers(min_value=-2, max_value=12)


@st.composite
def audit_argv(draw):
    command = draw(st.sampled_from(["murdoch", "coverage", "derangement", "spearman", "sample-frequency", "calibration"]))
    argv = ["audit", command]
    gen_flags = generator_flags(scripted=False, seeds=st.integers(min_value=-1, max_value=999))
    if command == "murdoch":
        argv += [*draw(gen_flags), "--method", draw(st.sampled_from(["floor", "mask"]))]
        argv += ["--reps", draw(st.sampled_from(["99999", "100000"]))]
    elif command == "coverage":
        m = draw(st.integers(min_value=-1, max_value=300))
        fields = st.integers(min_value=-1, max_value=max(m, 1))
        argv += ["--a", str(draw(fields)), "--c", str(draw(fields)), "--m", str(m), "--n", str(draw(SMALL))]
    elif command == "calibration":
        argv += ["--seed", str(draw(SIGNED)), "--repetitions", draw(st.sampled_from(["-1", "0", "1"]))]
        if draw(st.integers(min_value=1, max_value=5)) == 1:
            argv += STRAY[0]
    elif command == "sample-frequency":
        argv += [*draw(gen_flags), "--algorithm", draw(st.sampled_from(sorted(ALGORITHMS)))]
        argv += ["--n", str(draw(st.integers(min_value=-1, max_value=7)))]
        argv += ["--k", str(draw(st.integers(min_value=-1, max_value=7)))]
        argv += ["--method", draw(st.sampled_from(METHODS))]
        argv += ["--reps", str(draw(st.integers(min_value=-1, max_value=2000)))]
    else:
        sizes = SMALL | st.just(1700) if command == "derangement" else SMALL
        argv += [*draw(gen_flags), "--n", str(draw(sizes)), "--reps", "10000"]
    if command not in ("murdoch", "coverage") and draw(st.booleans()):
        argv += ["--alpha", draw(ALPHA)]
    return argv + ["--format", draw(st.sampled_from(["json", "csv"]))]


@st.composite
def bounds_argv(draw):
    """The table, one row, or any mix of the flags, conflicting ones included."""
    state_bits = ["--state-bits", str(draw(st.integers(min_value=-2, max_value=300) | st.just(300_000)))]
    targets = [
        ["--target", str(draw(st.integers(min_value=-2, max_value=10 ** 30)))],
        ["--target-perm", str(draw(SMALL | st.just(30_000)))],
        ["--target-n", str(draw(st.integers(min_value=-2, max_value=60))), "--target-k", str(draw(SMALL))],
    ]
    shape = draw(st.sampled_from(["table", "row", "mix"]))
    if shape == "table":
        flags = ["--table1"]
    elif shape == "row":
        flags = state_bits + draw(st.sampled_from(targets))
    else:
        # any subset of the flags, each with its value
        pairs = [["--table1"], state_bits, *targets[:2], targets[2][:2], targets[2][2:]]
        flags = [arg for pair in pairs if draw(st.booleans()) for arg in pair]
    return ["bounds", *flags, "--format", draw(st.sampled_from(["text", "csv", "json"]))]


def is_refused_bounds_argv(argv):
    """--table1 with a row's flags, or a row with more than one target form."""
    forms = ("--target" in argv) + ("--target-perm" in argv) + ("--target-n" in argv or "--target-k" in argv)
    if "--table1" in argv:
        return forms > 0 or "--state-bits" in argv
    return forms > 1


@given(argv=audit_argv())
@settings(max_examples=40, deadline=None)
def test_audit_argv_fuzz(argv):
    proc = run_cli(*argv)
    assert_clean_exit(proc)
    if is_refused_generator_argv(argv):
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout


@given(argv=bounds_argv())
@settings(max_examples=25, deadline=None)
def test_bounds_argv_fuzz(argv):
    proc = run_cli(*argv)
    assert_clean_exit(proc)
    if is_refused_bounds_argv(argv):
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout
