"""Range-sequence kernels against the scalar draw-by-draw oracle.

The oracle below is the one-draw-per-call code the kernels replaced: each
call reads words through ``next_word`` and returns one integer.  A kernel
given a sequence of ranges must return exactly what the oracle returns
for those ranges one call at a time, leave ``words_emitted`` where the
oracle leaves it, and raise where the oracle raises.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randaudit.audit import MURDOCH_M
from randaudit.errors import DegenerateStreamError, ScriptedExhaustedError, UnreachableValuesWarning
from randaudit.generators import (
    RANDU,
    VARIANTS,
    HashCounterGenerator,
    LcgGenerator,
    Mt19937Generator,
    ScriptedGenerator,
    WichmannHillGenerator,
)
from randaudit.integers import KERNELS, MAX_REJECTIONS, METHODS, RandomSource, randint_floor

# ---------------------------------------------------------------------------
# The scalar oracle


def scalar_floor(gen, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1 + (m * gen.next_word() >> gen.width)


def scalar_round(gen, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    w = gen.width
    return max(1, (2 * m * gen.next_word() + (1 << w)) >> (w + 1))


def scalar_mask(gen, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    mu = (m - 1).bit_length()
    if mu == 0:
        return 1
    w = gen.width
    pool = 0
    bits = 0
    rejected = 0
    while True:
        while bits < mu:
            pool = (pool << w) | gen.next_word()
            bits += w
        shift = bits - mu
        r = pool >> shift
        pool &= (1 << shift) - 1
        bits = shift
        if r < m:
            return r + 1
        rejected += 1
        if rejected == MAX_REJECTIONS:
            raise DegenerateStreamError(f"{rejected} mask candidates in a row rejected for m={m}")


ORACLE = {"floor": scalar_floor, "round": scalar_round, "mask": scalar_mask}
ERRORS = (ValueError, DegenerateStreamError, ScriptedExhaustedError)


def oracle_draws(gen, method, ranges):
    """(values, error type or None): one scalar call per range, stopping at
    the first that raises."""
    values = []
    try:
        for m in ranges:
            values.append(ORACLE[method](gen, m))
    except ERRORS as exc:
        return values, type(exc)
    return values, None


# ---------------------------------------------------------------------------
# Every VARIANTS entry, the hash counter at several widths


def _script(width, length, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(length)]


GENERATORS = {
    "lcg": lambda: LcgGenerator(RANDU, 12345),
    "wichmann_hill": lambda: WichmannHillGenerator(7),
    "mt19937": lambda: Mt19937Generator(2024),
    "hash_counter/8": lambda: HashCounterGenerator("kernels", width=8),
    "hash_counter/12": lambda: HashCounterGenerator("kernels", width=12),
    "hash_counter/16": lambda: HashCounterGenerator("kernels", width=16),
    "hash_counter/32": lambda: HashCounterGenerator("kernels"),
    "hash_counter/64": lambda: HashCounterGenerator("kernels", width=64),
    # a short script runs out inside sequences; a constant one makes mask
    # reject until DegenerateStreamError
    "scripted": lambda: ScriptedGenerator(_script(5, 60, 1), width=5),
    "scripted/constant": lambda: ScriptedGenerator([29], width=5, cycles=None),
}


def test_every_variant_is_covered():
    assert {name.split("/")[0] for name in GENERATORS} == set(VARIANTS)


# a range is a number or the name of one that depends on the word width
SPECIAL = ("one", "two", "full", "over", "murdoch")


def resolve(m, width):
    return {
        "one": 1,
        "two": 2,
        "full": 1 << width,
        "over": (1 << width) + 1,
        "murdoch": MURDOCH_M,
    }.get(m, m)


RANGE = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=2 ** 70),
    st.integers(min_value=-2, max_value=0),
)


@given(
    name=st.sampled_from(sorted(GENERATORS)),
    method=st.sampled_from(METHODS),
    skip=st.integers(min_value=0, max_value=9),
    calls=st.lists(st.lists(RANGE, max_size=12), min_size=1, max_size=4),
)
@settings(max_examples=400, deadline=None)
def test_sequences_match_the_scalar_oracle(name, method, skip, calls):
    gen = GENERATORS[name]()
    gen.words(skip)
    ref = gen.clone()
    source = RandomSource(gen, method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreachableValuesWarning)
        for call in calls:
            ranges = [resolve(m, gen.width) for m in call]
            expected, expected_error = oracle_draws(ref, method, ranges)
            draws = source.draws
            if expected_error is None:
                assert source.randints(ranges) == expected
                assert source.draws == draws + len(ranges)
            else:
                with pytest.raises(expected_error):
                    source.randints(ranges)
            assert gen.words_emitted == ref.words_emitted
            if expected_error is not None:
                break


# ---------------------------------------------------------------------------
# Validate before drawing, settle on error, warn once


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [0, -1, -(2 ** 40)])
@pytest.mark.parametrize("position", [0, 2])
def test_bad_range_raises_before_reading_its_word(method, bad, position):
    # width 3 words 0..7; each of the ranges 4 and 8 takes one word by
    # every method (mask: the top 2 or 3 bits of a fresh word, accepted)
    gen = ScriptedGenerator(list(range(8)), width=3)
    ranges = [4, 8, 4][:position] + [bad, 4]
    with pytest.raises(ValueError):
        KERNELS[method](gen, ranges)
    assert gen.words_emitted == position
    assert gen.next_word() == position  # no word was read for the bad range


@pytest.mark.parametrize("method", METHODS)
def test_exhausted_script_settles_the_words_read(method):
    # three words, the third draw of 2**7 at width 3 needs a fourth
    gen = ScriptedGenerator([1, 2, 3], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS[method](gen, [8, 8, 8, 8])
    assert gen.words_emitted == 3
    gen = ScriptedGenerator([1, 2, 3, 4], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS["mask"](gen, [2 ** 7, 2 ** 7])  # 3 words, then 1 of 3
    assert gen.words_emitted == 4


def test_rejection_limit_settles_the_words_read():
    # the first draw takes word 0; 7 is rejected for m = 5 every time
    gen = ScriptedGenerator([0] + [7] * 100, width=3)
    with pytest.raises(DegenerateStreamError):
        KERNELS["mask"](gen, [5, 5, 5])
    assert gen.words_emitted == 1 + MAX_REJECTIONS


@pytest.mark.parametrize("method", ["floor", "round"])
def test_unreachable_warning_once_per_call_at_the_caller(method):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen = ScriptedGenerator(list(range(8)), width=3)
        source = RandomSource(gen, method)
        source.randints([100, 5, 200, 300])
        source.randint(9)
        randint_floor(gen, 10)
        source.randints([8, 8])
    assert [w.category for w in caught] == [UnreachableValuesWarning] * 3
    assert [w.filename for w in caught] == [__file__] * 3
    assert "m=100" in str(caught[0].message)
