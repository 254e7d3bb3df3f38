"""Refusals of the library's public calls, each called in process: a
request outside a call's domain raises its documented error before the
call draws or computes anything large."""

import pytest

from randaudit.audit import derangement_test, spearman_rho, spearman_test
from randaudit.bounds import attainable_fraction, decimal_string, rencontres_count
from randaudit.errors import InfeasibleSizeError
from randaudit.generators import (
    HashCounterGenerator,
    Mt19937Generator,
    ScriptedGenerator,
    WichmannHillGenerator,
    digest_words,
    load_seed,
    seed_generator,
)
from randaudit.integers import MAX_EXACT_WIDTH, RandomSource, exact_distribution, floor_sum
from randaudit.pathenum import exact_subset_distribution
from randaudit.sampling import (
    SampleSpec,
    cormen_sample,
    fisher_yates,
    pikk,
    random_indices,
    reservoir_r,
    shuffles,
    vitter_z,
)


def source():
    return RandomSource(HashCounterGenerator("refusals"))


def gen():
    return HashCounterGenerator("refusals")


REFUSED = {
    # samplers: k > n, an empty population, a negative sample, k = 0
    "pikk k > n": (ValueError, "0 <= k <= n", lambda: pikk(source(), 3, 4)),
    "shuffles n = 0": (ValueError, "n must be >= 1", lambda: next(shuffles(source(), 0, 1))),
    "fisher_yates n = 0": (ValueError, "n must be >= 1", lambda: fisher_yates(source(), 0)),
    "fisher_yates n = -1": (ValueError, "n must be >= 1", lambda: fisher_yates(source(), -1)),
    "random_indices n = 0": (ValueError, "n >= 1 and k >= 0", lambda: random_indices(source(), 0, 1)),
    "random_indices k < 0": (ValueError, "n >= 1 and k >= 0", lambda: random_indices(source(), 5, -1)),
    "cormen k > n": (ValueError, "0 <= k <= n", lambda: cormen_sample(source(), 3, 4)),
    "reservoir_r k = 0": (ValueError, "k must be >= 1", lambda: reservoir_r([1, 2], 0, source())),
    "vitter_z k = 0": (ValueError, "k must be >= 1", lambda: vitter_z([1, 2], 0, source())),
    "SampleSpec n = 0": (ValueError, "population size n must be >= 1", lambda: SampleSpec(0, 0)),
    # audits
    "spearman_rho unequal lengths": (ValueError, "equal-length", lambda: spearman_rho([1, 2], [1])),
    "spearman_test n = 2": (ValueError, "n must be >= 3", lambda: spearman_test(gen(), 2, 10 ** 4)),
    "spearman_test 10 replications": (ValueError, "1e4 replications", lambda: spearman_test(gen(), 5, 10)),
    "derangement_test n = 1600": (InfeasibleSizeError, "too many digits", lambda: derangement_test(gen(), 1600, 10 ** 4)),
    # exact references
    "rencontres_count j > n": (ValueError, "0 <= j <= n", lambda: rencontres_count(3, 4)),
    "attainable_fraction no state bits": (ValueError, "state_bits must be >= 1", lambda: attainable_fraction(0, 5)),
    "attainable_fraction no target": (ValueError, "target must be >= 1", lambda: attainable_fraction(8, 0)),
    "exact_distribution unknown method": (ValueError, "unknown method", lambda: exact_distribution("nearest", 8, 5)),
    "exact_distribution m = 0": (ValueError, "m must be >= 1", lambda: exact_distribution("floor", 8, 0)),
    "exact_distribution mask m too large": (
        InfeasibleSizeError, r"at most 2\*\*24",
        lambda: exact_distribution("mask", 8, 2 ** MAX_EXACT_WIDTH + 1),
    ),
    "floor_sum n < 0": (ValueError, "floor_sum requires", lambda: floor_sum(-1, 1, 1, 1)),
    "floor_sum m = 0": (ValueError, "floor_sum requires", lambda: floor_sum(1, 0, 1, 1)),
    "exact_subset_distribution k = 0": (ValueError, "1 <= k <= n", lambda: exact_subset_distribution("cormen", 3, 0)),
    # generators and seeds
    "WichmannHillGenerator seed < 0": (ValueError, "nonnegative", lambda: WichmannHillGenerator(-1)),
    "Mt19937Generator seed < 0": (ValueError, "nonnegative", lambda: Mt19937Generator(-1)),
    "digest_words counter < 0": (ValueError, "nonnegative", lambda: digest_words(b"x", -1)),
    "ScriptedGenerator cycles = 0": (ValueError, "cycles must be", lambda: ScriptedGenerator([1], 2, cycles=0)),
    "seed_generator mt19937 text seed": (ValueError, "integer seed", lambda: seed_generator("mt19937", "abc")),
}


@pytest.mark.parametrize("name", REFUSED)
def test_refused(name):
    error, match, call = REFUSED[name]
    with pytest.raises(error, match=match):
        call()


def test_a_seed_file_of_only_comments_is_refused(tmp_path):
    path = tmp_path / "seed.txt"
    path.write_text("# no value\n\n# still none\n")
    with pytest.raises(ValueError, match="no value"):
        load_seed(path)


def test_decimal_string_of_zero():
    assert decimal_string(0) == "0"
