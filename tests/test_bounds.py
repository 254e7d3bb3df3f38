import hashlib
import math
from fractions import Fraction
from itertools import permutations
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randaudit import bounds
from randaudit.bounds import (
    MAX_BITS,
    attainable_fraction,
    binomial,
    decimal_string,
    derangement_count,
    factorial,
    rencontres_count,
    rencontres_counts,
    render_table1_text,
    sci_string,
    table1_report,
    table1_values,
)
from randaudit.errors import InfeasibleSizeError


def naive_factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def naive_binomial(n, k):
    return naive_factorial(n) // (naive_factorial(k) * naive_factorial(n - k))


def derangements_by_inclusion_exclusion(n):
    # D_n = n! * sum_{j=0..n} (-1)^j / j!, exact
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction((-1) ** j, naive_factorial(j))
    value = Fraction(naive_factorial(n)) * total
    assert value.denominator == 1
    return value.numerator


class TestExactCombinatorics:
    def test_pigeonhole_table_integers(self):
        assert factorial(13) == 6_227_020_800
        assert binomial(50, 10) == 10_272_278_170

    def test_binomial_of_zero_is_one(self):
        for n in (0, 1, 5, 100):
            assert binomial(n, 0) == 1

    def test_against_naive_multiply_loop(self):
        for n in list(range(0, 60)) + [127, 250, 500]:
            assert factorial(n) == naive_factorial(n)
        for n, k in [(10, 3), (50, 10), (500, 250), (500, 1), (120, 119)]:
            assert binomial(n, k) == naive_binomial(n, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            factorial(-1)
        with pytest.raises(ValueError):
            binomial(3, 4)

    def test_derangements_match_inclusion_exclusion(self):
        for n in range(0, 30):
            assert derangement_count(n) == derangements_by_inclusion_exclusion(n)
        assert derangement_count(7) == 1854

    def test_rencontres_partition_all_permutations(self):
        for n in range(1, 10):
            assert sum(rencontres_count(n, j) for j in range(n + 1)) == factorial(n)
        assert rencontres_count(5, 4) == 0  # exactly n-1 fixed points is impossible

    def test_rencontres_cells_in_one_pass(self):
        # the derangement audit's expected cells, against a count of fixed
        # points over every permutation
        for n in range(0, 8):
            cells = [0] * (n + 1)
            for perm in permutations(range(n)):
                cells[sum(map(eq, perm, range(n)))] += 1
            assert rencontres_counts(n) == cells
            assert [rencontres_count(n, j) for j in range(n + 1)] == cells
        with pytest.raises(ValueError):
            rencontres_counts(-1)

    @pytest.mark.parametrize("n, k", [(3, 4), (3, 5), (3, -1), (-1, 0), (-1, -2)])
    def test_binomial_refuses_k_outside_0_to_n(self, n, k):
        with pytest.raises(ValueError, match=r"^need 0 <= k <= n$"):
            binomial(n, k)

    def test_binomial_bounds_its_width_by_the_smaller_side(self):
        # C(n, n - 1) = n is narrow, though C(n, j) at j = n - 1 > n / 2
        # would be estimated far past MAX_BITS
        assert binomial(10 ** 6, 10 ** 6 - 1) == 10 ** 6

    def test_binomial_limit_is_its_estimate(self):
        # C(n, j) <= (e n / j)**j: at j = 32 that is 32 (log2 n - 3.56)
        # bits, under MAX_BITS at n = 2**8195 and over it at 2**8196
        n = 1 << 8195
        assert binomial(n, 32) == math.prod(range(n - 31, n + 1)) // naive_factorial(32)
        with pytest.raises(InfeasibleSizeError, match=r"^C\(\d+,32\) is wider"):
            binomial(2 * n, 32)

    def test_sizes_past_the_int_to_text_limit_are_checked_not_printed(self):
        # n has 39,457 digits, past Python's default limit of 4,300 for
        # int-to-text; C(n, 2) is 262,143 bits wide and fits
        n = 1 << 131071
        assert binomial(n, 2) == n * (n - 1) // 2
        for refused in (factorial, derangement_count):
            with pytest.raises(InfeasibleSizeError, match=r"^1\.00e\+5000! is wider"):
                refused(10 ** 5000)
        with pytest.raises(InfeasibleSizeError, match=r"^a 1\.00e\+5000-bit state space"):
            attainable_fraction(10 ** 5000, 1)

    def test_factorial_limit_is_the_last_n_whose_estimate_fits(self):
        # 20,366! is 262,143 bits wide, 20,367! about 262,157: the limit
        # falls between them, and an estimate one factor too wide or too
        # narrow moves it
        assert factorial(20366).bit_length() == MAX_BITS - 1
        for n in (20367, MAX_BITS):
            with pytest.raises(InfeasibleSizeError, match=f"{n}!"):
                factorial(n)

    def test_exactly_max_bits_is_allowed(self):
        assert attainable_fraction(MAX_BITS, 1).fraction == 1
        with pytest.raises(InfeasibleSizeError):
            attainable_fraction(MAX_BITS + 1, 1)

    def test_rencontres_counts_take_n_up_to_their_limit(self, monkeypatch):
        # the limit read at a size whose cells are cheap
        monkeypatch.setattr(bounds, "_MAX_RENCONTRES_N", 6)
        assert sum(rencontres_counts(6)) == 720
        with pytest.raises(InfeasibleSizeError, match="n <= 6"):
            rencontres_counts(7)

    @pytest.mark.parametrize("n", [5001, 20000])
    def test_rencontres_counts_refuse_n_past_their_cost(self, n):
        # n! fits in MAX_BITS, but 20,000's cells would take minutes
        with pytest.raises(InfeasibleSizeError, match="n <= 5000"):
            rencontres_counts(n)

    @pytest.mark.parametrize("n", [10 ** 5, MAX_BITS + 1])
    def test_derangements_refuse_n_past_the_bit_limit(self, n):
        # refused before the recurrence, which would run for minutes or hours here
        for count in (derangement_count, rencontres_counts):
            with pytest.raises(InfeasibleSizeError):
                count(n)


class TestAttainability:
    def test_attainable_fractions_well_known_values(self):
        assert round(float(attainable_fraction(32, binomial(50, 10)).fraction), 3) == 0.418
        assert round(float(attainable_fraction(64, binomial(500, 10)).fraction), 3) == 0.075
        assert round(float(attainable_fraction(128, binomial(500, 25)).fraction), 4) == 0.0003

    def test_l1_bound_example(self):
        rep = attainable_fraction(8, 720)
        assert rep.l1_lower_bound == Fraction(2 * 464, 720)
        assert float(rep.l1_lower_bound) == pytest.approx(1.2889, abs=1e-4)

    def test_equality_case(self):
        rep = attainable_fraction(32, 2 ** 32)
        assert rep.fraction == 1
        assert rep.l1_lower_bound == 0

    @given(
        bits=st.integers(min_value=1, max_value=80),
        target=st.integers(min_value=1, max_value=10 ** 30),
    )
    @settings(max_examples=100)
    def test_monotone_and_l1_zero_iff_states_cover(self, bits, target):
        rep = attainable_fraction(bits, target)
        assert 0 <= rep.fraction <= 1
        assert 0 <= rep.l1_lower_bound <= 2
        assert (rep.l1_lower_bound == 0) == (2 ** bits >= target)
        bigger = attainable_fraction(bits + 1, target)
        assert bigger.fraction >= rep.fraction
        harder = attainable_fraction(bits, target + 1)
        assert harder.fraction <= rep.fraction


class TestRendering:
    def test_sci_string_known_values(self):
        assert sci_string(2 ** (32 * 624)) == "9.27e+6010"
        assert sci_string(factorial(2084)) == "3.73e+6013"
        assert sci_string(binomial(500, 10)) == "2.46e+20"
        assert sci_string(Fraction(1, 3), 4) == "3.333e-1"
        assert sci_string(0) == "0e+0"
        assert sci_string(Fraction(-1, 8), 2) == "-1.3e-1"

    def test_sci_string_rounding_carry(self):
        assert sci_string(Fraction(9999, 1000), 3) == "1.00e+1"

    def test_sig_below_one_is_refused(self):
        for render in (sci_string, decimal_string):
            for value, sig in ((Fraction(1, 3), 0), (Fraction(1, 3), -1), (0, 0)):
                with pytest.raises(ValueError, match="sig must be >= 1"):
                    render(value, sig)

    def test_decimal_string(self):
        assert decimal_string(Fraction(418112, 1000000), 6) == "0.418112"
        assert decimal_string(Fraction(3, 4), 2) == "0.75"
        assert decimal_string(Fraction(1), 3) == "1.00"
        assert decimal_string(Fraction(2 * 464, 720), 5) == "1.2889"
        # large exponents fall back to scientific notation
        assert decimal_string(123456789, 3) == "1.23e+8"
        assert decimal_string(Fraction(1, 10 ** 15), 3) == "1.00e-15"

    @pytest.mark.parametrize("value, text", [
        (Fraction(1, 10 ** 9), "0.00000000100"),
        (Fraction(1, 10 ** 10), "1.00e-10"),
        (123456, "123000"),
        (1234567, "1.23e+6"),
        (10 ** 6, "1.00e+6"),
    ])
    def test_decimal_string_plain_range_ends(self, value, text):
        # at sig 3, plain for decimal exponents -9 through sig + 2 = 5
        assert decimal_string(value, 3) == text

    def test_renderings_are_pinned(self):
        # SHA-256 over both renderings at sig 1-8: carries (9995, 99995,
        # 9999/1000), the plain/scientific boundary and wide rationals
        values = [
            *table1_values().values(),
            9995, -9995, Fraction(9999, 1000), 99995, Fraction(199, 2 * 10 ** 11),
            Fraction(1, 3), Fraction(-1, 8), Fraction(1, 10 ** 15), Fraction(2 ** 2000 - 1, 3 ** 1000),
        ]
        digest = hashlib.sha256()
        for value in values:
            for sig in range(1, 9):
                digest.update(f"{sci_string(value, sig)} {decimal_string(value, sig)}\n".encode())
        assert digest.hexdigest() == "d83d77cd17738aea0d7d98947bc9220b3a79c1037354d8eef6f9adc93299fb46"

    def test_table1_values(self):
        v = table1_values()
        assert v["fact_13"] == 6_227_020_800
        assert v["c_50_10"] == 10_272_278_170
        assert v["fact_21"] == 51_090_942_171_709_440_000
        assert v["fact_21"] > v["state_64"]
        assert v["fact_13"] > v["state_32"]
        assert v["fact_35"] > v["state_128"]
        assert v["fact_2084"] > v["state_mt"]
        assert v["frac_mt"] < Fraction(166, 10 ** 8)

    def test_table1_renderings(self):
        rows = table1_report()
        text = render_table1_text(rows)
        assert "9.27e+6010" in text
        assert "4,294,967,296" in text
