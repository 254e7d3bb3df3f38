import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randaudit.errors import InfeasibleSizeError, UnreachableValuesWarning
from randaudit.generators import HashCounterGenerator, ScriptedGenerator
from randaudit.integers import (
    KERNELS,
    IntDistribution,
    RandomSource,
    exact_distribution,
    floor_even_probability,
    floor_sum,
    floor_value,
    floor_value_scaled,
    randint_floor,
    randint_mask,
    randint_round,
    round_value,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def brute_distribution(method, width, m):
    """Independent oracle: literally enumerate every width-bit word."""
    counts = Counter()
    for word in range(1 << width):
        if method == "floor":
            counts[1 + (m * word >> width)] += 1
        elif method == "round":
            counts[(2 * m * word + (1 << width)) >> (width + 1) or 1] += 1
    return {v: Fraction(c, 1 << width) for v, c in counts.items()}


class TestFloor:
    def test_single_word_example(self):
        assert floor_value(7, 3, 3) == 3  # 1 + floor(21/8)

    def test_w3_m3_distribution(self):
        d = exact_distribution("floor", 3, 3)
        assert d.probs == {1: Fraction(3, 8), 2: Fraction(3, 8), 3: Fraction(2, 8)}
        assert d.probs == brute_distribution("floor", 3, 3)

    def test_w16_m1000_counts_are_66_or_65(self):
        d = exact_distribution("floor", 16, 1000)
        counts = {p * 2 ** 16 for p in d.probs.values()}
        assert counts == {65, 66}
        assert d.max_min_ratio() == Fraction(66, 65)

    def test_knuth_ratio_at_m_just_over_half_range(self):
        d = exact_distribution("floor", 16, 32769)
        assert d.max_min_ratio() == 2
        first_order = 1 + 32769 * 2 ** -15
        assert abs(float(d.max_min_ratio()) - first_order) / first_order < 1e-3

    @pytest.mark.parametrize("width,m", [(3, 3), (3, 8), (5, 7), (8, 100), (10, 1023), (6, 90)])
    def test_matches_brute_enumeration(self, width, m):
        assert exact_distribution("floor", width, m).probs == brute_distribution(
            "floor", width, m
        )

    def test_bias_exists_for_every_non_power_of_two(self):
        for m in range(3, 65):
            if m & (m - 1) == 0:
                continue
            d = exact_distribution("floor", 16, m)
            assert max(d.probs.values()) > min(d.probs.values()), m

    def test_power_of_two_agrees_with_mask(self):
        for m in (2, 4, 8, 16, 64):
            floor_d = exact_distribution("floor", 16, m)
            mask_d = exact_distribution("mask", 16, m)
            assert floor_d.probs == mask_d.probs

    def test_unreachable_values_flagged(self):
        g = ScriptedGenerator([5], width=3)
        with pytest.warns(UnreachableValuesWarning):
            randint_floor(g, 100)

    def test_draw_consumes_one_word(self):
        g = HashCounterGenerator("floor-draw")
        randint_floor(g, 10)
        assert g.words_emitted == 1


class TestRound:
    def test_word_zero_clamps_to_one(self):
        g = ScriptedGenerator([0], width=3)
        assert randint_round(g, 4) == 1

    def test_w3_m4_value_1_gets_three_halves_and_m_half_a_bucket(self):
        # value m gets half a bucket, value 1 its own and the 0 bucket's half
        d = exact_distribution("round", 3, 4)
        assert d.probs == {
            1: Fraction(3, 8),
            2: Fraction(2, 8),
            3: Fraction(2, 8),
            4: Fraction(1, 8),
        }
        assert d.probs == brute_distribution("round", 3, 4)

    def test_w3_m8_differs_from_floor_identity(self):
        round_d = exact_distribution("round", 3, 8)
        floor_d = exact_distribution("floor", 3, 8)
        assert sorted(round_d.probs) != sorted(floor_d.probs)
        # at m = 2^w rounding is exact: value = word, word 0 drawn as 1
        assert round_d.probs == {1: Fraction(2, 8), **{v: Fraction(1, 8) for v in range(2, 8)}}

    @pytest.mark.parametrize("width,m", [(3, 4), (3, 8), (5, 7), (8, 100), (6, 33)])
    def test_matches_brute_enumeration(self, width, m):
        assert exact_distribution("round", width, m).probs == brute_distribution(
            "round", width, m
        )

    def test_word_0_draws_1_and_the_top_word_m(self):
        # the 0 bucket is drawn as 1
        assert round_value(0, 3, 4) == 1
        assert round_value(7, 3, 4) == 4


class TestMask:
    def test_mu_is_bit_length_of_m_minus_1(self):
        # ceil(log2(m-1)) undercounts when m-1 is a power of two: m=3 needs
        # 2 bits to represent the acceptable value 2; at width 1 an accepted
        # candidate of mu bits reads mu words
        for m, mu in [(3, 2), (5, 3), (1, 0), (2 ** 20, 20)]:
            g = ScriptedGenerator([0] * 20, width=1)
            assert randint_mask(g, m) == 1
            assert g.words_emitted == mu

    def test_m1_consumes_nothing(self):
        g = ScriptedGenerator([], width=1)
        assert randint_mask(g, 1) == 1
        assert g.words_emitted == 0

    def test_traced_rejection(self):
        # m=3: bit pairs (1,1) -> 3 rejected, (1,0) -> 2 accepted -> value 3
        g = ScriptedGenerator([1, 1, 1, 0], width=1)
        assert randint_mask(g, 3) == 3
        assert g.words_emitted == 4

    def test_acceptance_region_m5(self):
        # mu=3: accept {0..4} as values 1..5 on the first word
        singles = [randint_mask(ScriptedGenerator([w], width=3), 5) for w in range(5)]
        assert singles == [1, 2, 3, 4, 5]
        # {5,6,7} are rejected and cost an extra word
        for word in (5, 6, 7):
            g = ScriptedGenerator([word, 0], width=3)
            assert randint_mask(g, 5) == 1
            assert g.words_emitted == 2

    def test_exact_uniformity_by_construction(self):
        d = exact_distribution("mask", 16, 6)
        assert all(p == Fraction(1, 6) for p in d.probs.values())

    def test_cyclic_enumeration_gives_exactly_equal_frequencies(self):
        # every m in 1..64 with a source cycling through all mu-bit patterns
        for m in range(1, 65):
            mu = (m - 1).bit_length()
            if mu == 0:
                continue
            g = ScriptedGenerator(list(range(1 << mu)), width=mu, cycles=3)
            values = [randint_mask(g, m) for _ in range(3 * m)]
            assert Counter(values) == {v: 3 for v in range(1, m + 1)}, m

    def test_bit_pooling_within_one_call(self):
        # width 8, m on 5 bits: first candidate is the top 5 bits; if
        # rejected, the leftover 3 bits lead the next candidate
        word1 = 0b11111_010  # candidate 31 rejected for m=20, leftover 010
        word2 = 0b01_000000  # next candidate 010_01 = 9 -> value 10
        g = ScriptedGenerator([word1, word2], width=8)
        assert randint_mask(g, 20) == 10

    def test_leftovers_discarded_across_calls(self):
        g1 = ScriptedGenerator([0b101_00000, 0b010_00000], width=8)
        a = randint_mask(g1, 8)
        b = randint_mask(g1, 8)
        assert (a, b) == (6, 3)  # each call reads the top 3 bits of a fresh word


class TestExactDistributionContract:
    def test_width_limit(self):
        with pytest.raises(InfeasibleSizeError):
            exact_distribution("floor", 25, 10)

    def test_probabilities_sum_to_one_even_when_m_exceeds_range(self):
        for method in ("floor", "round"):
            d = exact_distribution(method, 4, 100)
            assert sum(d.probs.values()) == 1
            assert len(d.probs) <= 16
            assert d.probs == brute_distribution(method, 4, 100)

    @pytest.mark.parametrize(
        "probs",
        [{0: Fraction(1, 2), 7: Fraction(1, 2)}, {1: Fraction(3, 2), 2: Fraction(-1, 2)}],
        ids=["values_0_and_7", "negative_mass"],
    )
    def test_values_outside_1_to_m_and_negative_masses_are_refused(self, probs):
        with pytest.raises(ValueError, match="nonnegative masses on 1..2"):
            IntDistribution("floor", 2, 2, probs)

    def test_probabilities_must_total_exactly_one(self):
        with pytest.raises(ValueError, match="sum to exactly 1"):
            IntDistribution("floor", 2, 2, {1: Fraction(1, 2), 2: Fraction(1, 3)})
        # mask denominators are m, not a divisor of 2**width
        d = IntDistribution("mask", 2, 3, dict.fromkeys((1, 2, 3), Fraction(1, 3)))
        assert d.max_min_ratio() == 1

    @pytest.mark.parametrize("method", ["floor", "round"])
    @pytest.mark.parametrize("width, m", [(4, 10 ** 7), (10, 10 ** 9), (8, 2 ** 64 + 1), (12, 3 * 2 ** 40)])
    def test_walk_visits_only_reachable_values(self, method, width, m):
        # m far above 2**width, where a pass over 1..m would not finish;
        # same values, probabilities and order as enumerating every word
        d = exact_distribution(method, width, m)
        assert list(d.probs.items()) == list(brute_distribution(method, width, m).items())

    @pytest.mark.parametrize("method", ["floor", "round"])
    @pytest.mark.parametrize("width", range(1, 7))
    def test_walk_counts_what_the_kernel_draws(self, method, width):
        # every word drawn once through the sampling kernel: the exact
        # distribution is that count, value for value and in order
        words = 1 << width
        for m in [*range(1, words + 9), 10 ** 6, 3 * 2 ** 40 + 1]:
            gen = ScriptedGenerator(list(range(words)), width)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                drawn = Counter(KERNELS[method](gen, repeat(m, words)))
            assert [w.category for w in caught] == [UnreachableValuesWarning] * (m > words)
            expected = [(v, Fraction(c, words)) for v, c in sorted(drawn.items())]
            assert list(exact_distribution(method, width, m).probs.items()) == expected, m

    @pytest.mark.parametrize("m", [2 ** 24 + 1, 10 ** 12])
    def test_mask_range_limit(self, m):
        # in a child with its address space capped at 1 GiB, so that code
        # without the limit fails with MemoryError instead of filling memory
        call = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from randaudit.integers import exact_distribution\n"
            f"exact_distribution('mask', 4, {m})\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", call], capture_output=True, text=True, timeout=60, env=env)
        assert "InfeasibleSizeError: m must be at most 2**24" in proc.stderr, proc.stderr


class TestFloorSumAndParity:
    @given(
        n=st.integers(min_value=0, max_value=60),
        m=st.integers(min_value=1, max_value=60),
        a=st.integers(min_value=0, max_value=90),
        b=st.integers(min_value=0, max_value=90),
    )
    @settings(max_examples=200)
    def test_floor_sum_matches_brute_force(self, n, m, a, b):
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    @pytest.mark.parametrize("width,m", [(4, 6), (8, 102), (8, 57), (10, 1000), (12, 1638)])
    def test_parity_matches_brute_force(self, width, m):
        brute = sum(1 for x in range(1 << width) if (1 + (m * x >> width)) % 2 == 0)
        assert floor_even_probability(width, m) == Fraction(brute, 1 << width)

    @given(mprime=st.integers(min_value=1, max_value=500))
    @settings(max_examples=60)
    def test_m_equal_2_mod_4_balances_parity_exactly(self, mprime):
        # the surprising balance theorem: odd multiplier permutes residues,
        # so the parity bit of floor(2*m'*x / 2^w) is exactly fair
        m = 2 * (2 * mprime - 1)
        assert floor_even_probability(12, m) == Fraction(1, 2)

    def test_murdoch_integer_scale_is_exactly_half(self):
        assert floor_even_probability(32, 1_717_986_918) == Fraction(1, 2)

    def test_murdoch_real_scale_is_two_fifths(self):
        p = floor_even_probability(32, 2 ** 33, 5)
        assert p == Fraction(858993459, 2 ** 31)
        assert abs(p - Fraction(2, 5)) < Fraction(1, 10 ** 9)

    def test_scaled_parity_matches_brute_force_at_reduced_width(self):
        # same length-5 pattern as the full-width experiment
        width = 8
        brute = sum(
            1
            for x in range(1 << width)
            if floor_value_scaled(x, width, 2 ** (width + 1), 5) % 2 == 0
        )
        assert floor_even_probability(width, 2 ** (width + 1), 5) == Fraction(
            brute, 1 << width
        )
        assert abs(brute / 256 - 0.4) < 0.01


class TestRandomSource:
    def test_default_method_is_mask(self):
        src = RandomSource(HashCounterGenerator("src"))
        assert src.method == "mask"
        vals = [src.randint(6) for _ in range(200)]
        assert set(vals) <= set(range(1, 7))
        assert src.draws == 200

    def test_biased_methods_are_opt_in(self):
        g = ScriptedGenerator([0, 0], width=3)
        src = RandomSource(g, method="round")
        assert src.randint(4) == 1  # clamped
        with pytest.raises(ValueError):
            RandomSource(g, method="lemire")

