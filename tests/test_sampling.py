import ast
import contextlib
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import GENERATORS

from randaudit import sampling
from randaudit.errors import ScriptedExhaustedError, ShortStreamWarning
from randaudit.generators import HashCounterGenerator, ScriptedGenerator
from randaudit.integers import DRAW_CHUNK, RandomSource
from randaudit.sampling import (
    Sample,
    SampleSpec,
    ScriptedSource,
    cormen_sample,
    fisher_yates,
    pikk,
    random_indices,
    reservoir_r,
    shuffles,
    vitter_z,
)


def hash_source(seed: str) -> RandomSource:
    return RandomSource(HashCounterGenerator(seed))


class TestScriptedSource:
    def test_values_in_order_across_calls(self):
        s = ScriptedSource(ints=[2, 1, 3], fractions=[0.25, 0.75])
        assert s.randints([2, 2]) == [2, 1]
        assert s.randint(3) == 3
        assert s.draws == 3
        assert [s.fraction(), *s.fractions(1)] == [0.25, 0.75]

    def test_exhaustion_raises_index_error(self):
        s = ScriptedSource(ints=[1], fractions=[0.5])
        with pytest.raises(IndexError):
            s.randints([4, 4])
        assert s.draws == 1  # the draw before the end still counts
        with pytest.raises(IndexError):
            s.randint(4)
        s.fraction()
        with pytest.raises(IndexError):
            s.fraction()

    def test_fractions_use_up_what_is_left_then_raise(self):
        s = ScriptedSource(fractions=[0.1, 0.2, 0.3])
        assert s.fractions(0) == s.fractions(-2) == []
        assert s.fractions(1) == [0.1]
        with pytest.raises(IndexError):
            s.fractions(3)  # two left: both used up by the failed call
        with pytest.raises(IndexError):
            s.fraction()
        assert s.fractions(0) == []

    def test_out_of_range_value_is_used_up_but_not_counted(self):
        s = ScriptedSource(ints=[5, 2])
        with pytest.raises(ValueError):
            s.randint(4)
        assert s.draws == 0
        assert s.randint(4) == 2
        assert s.draws == 1
        with pytest.raises(IndexError):
            s.randint(4)


class TestPikk:
    def test_traced_sort_order(self):
        s = ScriptedSource(fractions=[0.3, 0.1, 0.2])
        assert pikk(s, 3, 2).items == (2, 3)

    def test_k0_still_consumes_n_words(self):
        src = hash_source("pikk-k0")
        sample = pikk(src, 7, 0)
        assert sample.items == ()
        assert sample.words == 7

    def test_k_equals_n_is_a_permutation(self):
        src = hash_source("pikk-perm")
        sample = pikk(src, 10, 10)
        assert sorted(sample.items) == list(range(1, 11))
        assert sample.words == 10

    def test_stable_tie_break_by_index(self):
        s = ScriptedSource(fractions=[0.5, 0.5, 0.1])
        assert pikk(s, 3, 3).items == (3, 1, 2)

    @given(perm=st.permutations(list(range(5))))
    def test_equivariance_under_permuting_fractions(self, perm):
        base = [0.11, 0.42, 0.73, 0.25, 0.58]
        ref = pikk(ScriptedSource(fractions=base), 5, 5).items
        shuffled = [base[perm[i]] for i in range(5)]
        out = pikk(ScriptedSource(fractions=shuffled), 5, 5).items
        # item j in the shuffled run carries item perm[j-1]+1's fraction, so
        # mapping each output index through perm recovers the reference
        assert [perm[v - 1] + 1 for v in out] == list(ref)


def tuple_sort_pikk(source, n, k):
    """pikk as written before keys were drawn in one call: one fraction()
    per index, then a sort of (key, index) pairs."""
    keyed = [(source.fraction(), i) for i in range(1, n + 1)]
    keyed.sort()
    return tuple(i for _, i in keyed[:k])


# a few key values, so that scripted keys tie often
SCRIPTED_KEYS = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0, exclude_max=True)), max_size=40
)


class TestPikkOracle:
    """pikk against tuple_sort_pikk over every generator family of the
    kernel tests (ties at widths 5, 8 and 12, exhaustion in the short
    script) and over scripted sources."""

    @given(
        name=st.sampled_from(sorted(GENERATORS)),
        skip=st.sampled_from([0, 1, 7, 30, 601]),
        calls=st.lists(st.tuples(st.integers(0, 90), st.floats(0.0, 1.0)), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_generators(self, name, skip, calls):
        gen = GENERATORS[name]()
        with contextlib.suppress(ScriptedExhaustedError):
            gen.words(skip)
        ref = gen.clone()
        source, ref_source = RandomSource(gen), RandomSource(ref)
        for n, k_frac in calls:
            k = round(k_frac * n)
            try:
                expected = tuple_sort_pikk(ref_source, n, k)
            except ScriptedExhaustedError:
                with pytest.raises(ScriptedExhaustedError):
                    pikk(source, n, k)
                assert gen.words_emitted == ref.words_emitted
                break
            words = ref.words_emitted - gen.words_emitted
            sample = pikk(source, n, k)
            assert (sample.items, sample.words, sample.draws) == (expected, words, 0)
            assert gen.words_emitted == ref.words_emitted

    @given(keys=SCRIPTED_KEYS, n=st.integers(0, 40), k_frac=st.floats(0.0, 1.0))
    def test_scripted_sources(self, keys, n, k_frac):
        k = round(k_frac * n)
        source = ScriptedSource(fractions=keys)
        if n > len(keys):
            with pytest.raises(IndexError):
                pikk(source, n, k)
            return
        sample = pikk(source, n, k)
        expected = tuple_sort_pikk(ScriptedSource(fractions=keys), n, k)
        assert (sample.items, sample.words, sample.draws) == (expected, 0, 0)
        assert source.fractions(len(keys) - n) == keys[n:]


class TestFisherYates:
    def test_identity_when_j_equals_i(self):
        s = ScriptedSource(ints=[3, 2])
        assert fisher_yates(s, 3).items == (1, 2, 3)

    def test_traced_j_zero(self):
        s = ScriptedSource(ints=[1, 1])
        assert fisher_yates(s, 3).items == (2, 3, 1)

    def test_consumes_n_minus_1_draws(self):
        src = hash_source("fy-count")
        sample = fisher_yates(src, 12)
        assert sample.draws == 11
        assert sorted(sample.items) == list(range(1, 13))

    def test_n1(self):
        assert fisher_yates(ScriptedSource(), 1).items == (1,)

    @pytest.mark.parametrize("n", [DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1])
    def test_one_shuffle_matches_per_position_draws(self, n):
        src, oracle = hash_source(f"one-shuffle:{n}"), hash_source(f"one-shuffle:{n}")
        [shuffle] = shuffles(src, n, 1)
        a = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = oracle.randint(i + 1)
            a[i], a[j - 1] = a[j - 1], a[i]
        assert shuffle == a
        assert (src.words_used, src.draws) == (oracle.words_used, oracle.draws)


class TestRandomIndices:
    def test_exhausting_the_range_gives_a_permutation(self):
        src = hash_source("ri-perm")
        sample = random_indices(src, 5, 5)
        assert sorted(sample.items) == [1, 2, 3, 4, 5]

    def test_with_replacement_traced(self):
        s = ScriptedSource(ints=[2, 2, 1])
        assert random_indices(s, 2, 3, with_replacement=True).items == (2, 2, 1)

    def test_duplicate_rejection_traced(self):
        s = ScriptedSource(ints=[2, 2, 1])
        sample = random_indices(s, 3, 2)
        assert sample.items == (2, 1)
        assert sample.draws == 3  # the duplicate cost a draw

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            random_indices(ScriptedSource(), 3, 4)

    def test_single_index_chi_square(self):
        from scipy.stats import chisquare

        src = hash_source("ri-chi2")
        counts = Counter(random_indices(src, 10, 1).items[0] for _ in range(10 ** 5))
        stat, p = chisquare([counts[v] for v in range(1, 11)])
        assert p >= 0.001  # 9 degrees of freedom


class TestCormen:
    def test_k0_consumes_nothing(self):
        s = ScriptedSource()
        sample = cormen_sample(s, 5, 0)
        assert sample.items == ()
        assert sample.draws == 0

    def test_traced_recursion(self):
        s = ScriptedSource(ints=[2, 2])
        assert cormen_sample(s, 3, 2).as_set() == {2, 3}

    def test_draws_exactly_k(self):
        src = hash_source("cormen-k")
        assert cormen_sample(src, 50, 7).draws == 7


class TestReservoirR:
    def test_stream_equal_k_is_deterministic(self):
        s = ScriptedSource()
        sample = reservoir_r([10, 20, 30], 3, s)
        assert sample.items == (10, 20, 30)
        assert sample.draws == 0

    def test_traced_replacement(self):
        s = ScriptedSource(ints=[1, 4])
        assert reservoir_r([1, 2, 3, 4], 2, s).items == (3, 2)

    def test_short_stream_flagged(self):
        with pytest.warns(ShortStreamWarning):
            sample = reservoir_r([1, 2], 5, ScriptedSource())
        assert sample.short
        assert sample.items == (1, 2)

    def test_draw_accounting(self):
        src = hash_source("rr-count")
        sample = reservoir_r(range(100), 4, src)
        assert sample.draws == 96

    def test_inclusion_probability(self):
        src = hash_source("rr-inclusion")
        runs = 10 ** 5
        counts = Counter()
        for _ in range(runs):
            counts.update(reservoir_r(range(1, 6), 2, src).items)
        for item in range(1, 6):
            assert abs(counts[item] / runs - 0.4) < 0.01


class TestVitterZ:
    def test_stream_equal_k_is_deterministic(self):
        sample = vitter_z([7, 8], 2, ScriptedSource())
        assert sample.items == (7, 8)

    def test_zero_word_is_a_skip_fraction_of_zero(self):
        # v = 0 / 2**8 is drawn as it is, not redrawn, and no record
        # past the reservoir brings the running product down to 0
        sample = vitter_z(range(1, 6), 2, RandomSource(ScriptedGenerator([0], width=8)))
        assert (sample.items, sample.words, sample.draws) == ((1, 2), 1, 0)

    def test_short_stream_flagged(self):
        with pytest.warns(ShortStreamWarning):
            sample = vitter_z([1], 3, ScriptedSource())
        assert sample.short

    def test_inclusion_probability_short_stream(self):
        src = hash_source("vz-inclusion")
        runs = 10 ** 5
        counts = Counter()
        for _ in range(runs):
            counts.update(vitter_z(range(1, 6), 2, src).items)
        for item in range(1, 6):
            assert abs(counts[item] / runs - 0.4) < 0.01

    def test_inclusion_probability_long_skips(self):
        # stream of 100 with k=2: 98 records past the reservoir, so skips
        # run long and the float product of (t - k) / t is exercised
        src = hash_source("vz-z-phase")
        runs = 2 * 10 ** 4
        length = 100
        counts = Counter()
        for _ in range(runs):
            counts.update(vitter_z(range(1, length + 1), 2, src).items)
        p = 2 / length
        bound = 6 * math.sqrt(p * (1 - p) / runs)
        for item in range(1, length + 1):
            assert abs(counts[item] / runs - p) < bound, item

    def test_skip_chain_distribution_chi_square(self):
        # k=1 makes every selection after the first a skip; uniform
        # inclusion across all 150 positions checks the whole skip chain,
        # not just the average rate
        from scipy.stats import chisquare

        src = hash_source("zphase-probe")
        runs = 30000
        length = 150
        counts = Counter()
        for _ in range(runs):
            counts.update(vitter_z(range(length), 1, src).items)
        stat, p = chisquare([counts[i] for i in range(length)])
        assert p >= 0.001

    def test_call_count_sublinear(self):
        src = hash_source("vz-calls")
        n_stream = 10 ** 6
        sample = vitter_z(range(n_stream), 3, src)
        assert len(sample.items) == 3
        assert sample.words < n_stream - 3
        assert sample.draws < 2000


class TestSampleSpec:
    def test_validation_matrix(self):
        with pytest.raises(ValueError):
            SampleSpec(n=5, k=6, algorithm="random_indices")
        with pytest.raises(ValueError):
            SampleSpec(n=5, k=2, with_replacement=True, algorithm="pikk")
        with pytest.raises(ValueError):
            SampleSpec(n=None, k=2, algorithm="cormen")
        with pytest.raises(ValueError):
            SampleSpec(n=5, k=2, algorithm="bogosample")
        with pytest.raises(ValueError):
            SampleSpec(n=5, k=0, algorithm="reservoir_r")
        SampleSpec(n=None, k=2, algorithm="vitter_z")  # stream provided later
        SampleSpec(n=5, k=6, with_replacement=True)  # k > n fine with replacement

    def test_dispatch_matches_direct_calls(self):
        for algorithm in ("pikk", "random_indices", "cormen"):
            spec = SampleSpec(n=8, k=3, algorithm=algorithm)
            via_spec = spec.run(hash_source(f"spec:{algorithm}"))
            direct_src = hash_source(f"spec:{algorithm}")
            if algorithm == "pikk":
                direct = pikk(direct_src, 8, 3)
            elif algorithm == "cormen":
                direct = cormen_sample(direct_src, 8, 3)
            else:
                direct = random_indices(direct_src, 8, 3)
            assert via_spec == direct

    def test_fisher_yates_tag_keeps_the_first_k(self):
        spec = SampleSpec(n=6, k=2, algorithm="fisher_yates")
        via_spec = spec.run(hash_source("spec:fy"))
        full = fisher_yates(hash_source("spec:fy"), 6)
        assert via_spec.items == full.items[:2]
        assert via_spec.draws == 5

    def test_streaming_from_n_or_stream(self):
        by_n = SampleSpec(n=9, k=2, algorithm="reservoir_r").run(hash_source("spec:rr"))
        by_stream = SampleSpec(n=None, k=2, algorithm="reservoir_r").run(
            hash_source("spec:rr"), stream=range(1, 10)
        )
        assert by_n == by_stream
        with pytest.raises(ValueError):
            SampleSpec(n=None, k=2, algorithm="vitter_z").run(hash_source("x"))


class TestSampleRecord:
    def test_fields_cannot_be_assigned(self):
        sample = Sample((1, 2), 3, 2)
        with pytest.raises(AttributeError):
            sample.words = 4

    def test_equal_samples_compare_and_hash_equal(self):
        a, b = Sample((2, 1), 4, 2, 128), Sample((2, 1), 4, 2, 128)
        assert a == b and hash(a) == hash(b)
        assert a != Sample((1, 2), 4, 2, 128)

    def test_bits_and_short_default_to_zero_and_false(self):
        sample = Sample((1,), 0, 0)
        assert (sample.bits, sample.short) == (0, False)


# The draw-source protocol: the four draw calls and the three counters
# that _accounted reads
PROTOCOL = {"randints", "randint", "fractions", "fraction", "words_used", "draws", "width"}


class TestDrawProtocol:
    def test_samplers_read_only_the_protocol_on_their_source(self):
        tree = ast.parse(Path(sampling.__file__).read_text(encoding="utf-8"))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "source"
        }
        assert read and read <= PROTOCOL, sorted(read - PROTOCOL)

    @pytest.mark.parametrize(
        "source",
        [RandomSource(HashCounterGenerator("protocol")), ScriptedSource()],
        ids=["RandomSource", "ScriptedSource"],
    )
    def test_both_sources_define_the_whole_protocol(self, source):
        assert all(hasattr(source, name) for name in PROTOCOL)


class TestBitsAccounting:
    def test_bits_are_words_times_width(self):
        src = hash_source("bits")
        sample = pikk(src, 5, 2)
        assert sample.bits == sample.words * 32

    def test_scripted_sources_report_zero(self):
        sample = fisher_yates(ScriptedSource(ints=[3, 2]), 3)
        assert sample.words == 0 and sample.bits == 0


class TestDistinctnessProperty:
    @given(
        n=st.integers(min_value=1, max_value=1000),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        tag=st.integers(min_value=0, max_value=10 ** 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_without_replacement_samples_are_k_distinct_indices(self, n, k_frac, tag):
        k = max(1, round(k_frac * n))
        src = hash_source(f"distinct:{n}:{k}:{tag}")
        for sample in (
            random_indices(src, n, k),
            cormen_sample(src, n, k),
            pikk(src, n, k),
            SampleSpec(n=n, k=k, algorithm="fisher_yates").run(src),
            reservoir_r(range(1, n + 1), k, src),
            vitter_z(range(1, n + 1), k, src),
        ):
            items = sample.items
            assert len(items) == k
            assert len(set(items)) == k
            assert set(items) <= set(range(1, n + 1))
