"""Range-sequence kernels against the scalar draw-by-draw oracle.

The oracle below is the one-draw-per-call code the kernels replaced: each
call reads words one at a time, through ``words(1)``, and returns one
integer.  A kernel
given a sequence of ranges must return exactly what the oracle returns
for those ranges one call at a time, leave ``words_emitted`` where the
oracle leaves it, and raise where the oracle raises.
"""

import random
import warnings
from itertools import repeat

import pytest
from hypothesis import example, given, settings
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
from randaudit.integers import KERNELS, MAX_REJECTIONS, METHODS, RandomSource, RangeTile, randint_floor

# ---------------------------------------------------------------------------
# The scalar oracle


def scalar_floor(gen, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1 + (m * gen.words(1)[0] >> gen.width)


def scalar_round(gen, m):
    if m < 1:
        raise ValueError("m must be >= 1")
    w = gen.width
    return max(1, (2 * m * gen.words(1)[0] + (1 << w)) >> (w + 1))


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
            pool = (pool << w) | gen.words(1)[0]
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


# a run of one range: (m, count, copies), where the entries at the indices
# in copies are rebuilt as equal ints that are distinct objects
RUN = st.tuples(RANGE, st.integers(min_value=1, max_value=5), st.sets(st.integers(min_value=0, max_value=4)))

# a range object around a center: (center, a, b, step) is the values
# center + a .. center + b in the direction of step; around the small
# centers it holds values <= 0 and 1, and it crosses powers of two, and
# around "full" it crosses 2**width; up to 81 values, so both short and
# long ranges
RANGE_OBJECT = st.tuples(
    st.sampled_from((0, 1, 3, 16, 300, "full", "over", "murdoch")),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from((1, -1)),
)

# a call is a list of ranges, (m, count) drawn as repeat(m, count), a list
# of runs drawn as one flat list, or a range object
CALL = st.one_of(
    st.lists(RANGE, max_size=12),
    st.tuples(RANGE, st.integers(min_value=0, max_value=12)),
    st.lists(RUN, min_size=1, max_size=4).map(lambda runs: {"runs": runs}),
    RANGE_OBJECT.map(lambda spec: {"range": spec}),
)


def range_object(spec, width):
    center, a, b, step = spec
    center, (a, b) = resolve(center, width), sorted((a, b))
    return range(center + a, center + b + 1) if step > 0 else range(center + b, center + a - 1, -1)


def flatten(runs, width):
    """The flat range list of ``runs``.  Rebuilt entries are equal to their
    run's m but, for m outside CPython's small-int cache (-5..256), distinct
    objects, which no draw may tell apart."""
    ranges = []
    for m, count, copies in runs:
        m = resolve(m, width)
        ranges += [int(str(m)) if i in copies else m for i in range(count)]
    return ranges


@given(
    name=st.sampled_from(sorted(GENERATORS)),
    method=st.sampled_from(METHODS),
    skip=st.integers(min_value=0, max_value=9),
    calls=st.lists(CALL, min_size=1, max_size=4),
)
@settings(max_examples=400, deadline=None)
# runs at both ends of the one-word range and just past it
@example(name="hash_counter/8", method="mask", skip=0, calls=[("two", 5), ("full", 5), ("over", 5), ("one", 2)])
@example(name="scripted", method="mask", skip=3, calls=[(5, 12), ("murdoch", 12), (0, 2)])
# runs around a range that reads no word and one wider than a word; a run
# whose second draw is rejected (candidate 385 for m = 300) and a different m
@example(name="hash_counter/16", method="mask", skip=0, calls=[{"runs": [(300, 3, {1}), ("one", 2, set()), (300, 3, {0})]}])
@example(name="hash_counter/16", method="mask", skip=0, calls=[{"runs": [(300, 3, set()), ("over", 2, {1}), (300, 3, {2})]}])
@example(name="hash_counter/16", method="mask", skip=0, calls=[{"runs": [(300, 2, {1}), (5, 2, set())]}])
# ranges down across 2**width + 1 and up across 1 into 0, long and short
@example(name="hash_counter/8", method="mask", skip=0, calls=[{"range": ("full", -40, 40, -1)}, {"range": (0, 3, 5, 1)}])
@example(name="scripted", method="mask", skip=0, calls=[{"range": (1, -3, 40, 1)}])
def test_sequences_match_the_scalar_oracle(name, method, skip, calls):
    gen = GENERATORS[name]()
    gen.words(skip)
    ref = gen.clone()
    source = RandomSource(gen, method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreachableValuesWarning)
        for call in calls:
            if isinstance(call, tuple):
                m, count = resolve(call[0], gen.width), call[1]
                ranges = [m] * count
                drawn = repeat(m, count)
            elif isinstance(call, dict) and "range" in call:
                drawn = range_object(call["range"], gen.width)
                ranges = list(drawn)
            elif isinstance(call, dict):
                ranges = drawn = flatten(call["runs"], gen.width)
            else:
                ranges = drawn = [resolve(m, gen.width) for m in call]
            expected, expected_error = oracle_draws(ref, method, ranges)
            draws = source.draws
            if expected_error is None:
                assert source.randints(drawn) == expected
                assert source.draws == draws + len(ranges)
            else:
                with pytest.raises(expected_error):
                    source.randints(drawn)
            assert gen.words_emitted == ref.words_emitted
            if expected_error is not None:
                break


@pytest.mark.parametrize("method", METHODS)
def test_one_sequence_object_drawn_at_two_widths(method):
    # a mask plan is kept per width: on the tile, and in the cache of short
    # ranges; a plain tuple gets a new plan at every call, and so does a
    # range of another step, which has no runs of one shift
    ranges = (2, 3, 5, 300, 1, 17, 256, 257, 9)
    for drawn in (ranges, RangeTile(ranges), range(70, 1, -1), range(2, 20), range(3, 40, 2), range(301, 1, -2)):
        for name in ("hash_counter/8", "hash_counter/16", "hash_counter/8"):
            gen = GENERATORS[name]()
            ref = gen.clone()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnreachableValuesWarning)
                assert KERNELS[method](gen, drawn) == oracle_draws(ref, method, drawn)[0]
            assert gen.words_emitted == ref.words_emitted


@pytest.mark.parametrize("m", [0, 2, 5, 300, "over", "murdoch"])
def test_an_unbounded_repeat_draws_until_a_draw_raises(m):
    # the 60-word script runs out (m = 1 would draw forever without a word)
    gen = GENERATORS["scripted"]()
    ref = gen.clone()
    m = resolve(m, gen.width)
    expected_error = oracle_draws(ref, "mask", repeat(m))[1]
    with pytest.raises(expected_error):
        KERNELS["mask"](gen, repeat(m))
    assert gen.words_emitted == ref.words_emitted


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
    assert gen.words(1)[0] == position  # no word was read for the bad range
    # the bad range as a run, after the same ranges in a call of their own
    gen = ScriptedGenerator(list(range(8)), width=3)
    KERNELS[method](gen, [4, 8, 4][:position])
    with pytest.raises(ValueError):
        KERNELS[method](gen, repeat(bad, 3))
    assert gen.words_emitted == position
    assert gen.words(1)[0] == position


@pytest.mark.parametrize("method", METHODS)
def test_exhausted_script_settles_the_words_read(method):
    # three words, the third draw of 2**7 at width 3 needs a fourth
    gen = ScriptedGenerator([1, 2, 3], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS[method](gen, [8, 8, 8, 8])
    assert gen.words_emitted == 3
    gen = ScriptedGenerator([1, 2, 3], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS[method](gen, repeat(8, 4))
    assert gen.words_emitted == 3
    gen = ScriptedGenerator([1, 2, 3, 4], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS["mask"](gen, [2 ** 7, 2 ** 7])  # 3 words, then 1 of 3
    assert gen.words_emitted == 4
    gen = ScriptedGenerator([1, 2, 3, 4], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS["mask"](gen, repeat(2 ** 7, 2))
    assert gen.words_emitted == 4
    # a run whose second draw rejects 7 for m = 5 and runs out in its retry
    gen = ScriptedGenerator([1, 7, 7], width=3)
    with pytest.raises(ScriptedExhaustedError):
        KERNELS["mask"](gen, repeat(5, 3))
    assert gen.words_emitted == 3


def test_rejection_limit_settles_the_words_read():
    # the first draw takes word 0; 7 is rejected for m = 5 every time
    for ranges in ([5, 5, 5], repeat(5, 3), repeat(5)):
        gen = ScriptedGenerator([0] + [7] * 100, width=3)
        with pytest.raises(DegenerateStreamError):
            KERNELS["mask"](gen, ranges)
        assert gen.words_emitted == 1 + MAX_REJECTIONS


def test_multi_word_draw_raises_at_the_limit_not_before():
    # m = 2**3 + 1 takes 4-bit candidates from a pool of 3-bit words: 84
    # words of 7 are 63 candidates of 15, all rejected, and two 0 words
    # make the 64th, 0, accepted as 1
    gen = ScriptedGenerator([7] * 84 + [0, 0], width=3)
    assert KERNELS["mask"](gen, [9]) == [1]
    assert gen.words_emitted == 86
    assert MAX_REJECTIONS == 64
    with pytest.raises(DegenerateStreamError, match="64 mask candidates"):
        KERNELS["mask"](ScriptedGenerator([7] * 100, width=3), [9])


@pytest.mark.parametrize("method", ["floor", "round"])
def test_one_word_methods_draw_m_1_as_1(method):
    gen = ScriptedGenerator([0, 3, 7], width=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert KERNELS[method](gen, (1, 1, 1)) == [1, 1, 1]
    assert gen.words_emitted == 3


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
