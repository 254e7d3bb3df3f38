"""Mapping generator words to integers on {1..m}.

Three strategies are implemented: the multiply-and-floor and
round-to-nearest methods, which are deliberately biased and exist to
demonstrate that bias, and mask-and-reject, which is exactly uniform
whenever the input bits are IID uniform.  floor and round map a word by
one rule each (floor_value, whose scale may be a rational num/den, and
round_value), which the kernels and exact_distribution share; round draws
its 0 bucket as 1, so value 1 takes one and a half buckets and max/min is
about 3.  All kernels use integer arithmetic only, so results are
identical on every platform.

The unit of drawing is a range sequence.  ``KERNELS[method](gen, ranges)``
draws one integer on {1..m} for each m of ``ranges``, reading words from
the generator's ``stream`` iterator and adding the number read to
``gen.words_emitted`` once, when the call returns or raises.  A range
below 1 raises ValueError before any word is read for it.  Batching does
not change the stream: floor and round read one word per draw, and mask
discards the leftover bits of its last word at every range boundary, so
a sequence reads exactly the words its ranges would read one call at a
time.  Mask draws every sequence in one loop over (m, shift) pairs planned
by the sequence's shape (an ``itertools.repeat(m, count)`` is one pair);
an m above 2**width starts a pool of several words.

Samplers draw through a draw source.  The protocol is two sequence calls
and their one-element cases: ``randints(ranges)`` (a list, one draw per
range) with ``randint(m)``, and ``fractions(count)`` (a list of count
fractions in [0, 1), word / 2**width over a generator, 0 included) with
``fraction()``.  RandomSource implements it over a generator, and
sampling.ScriptedSource over scripted outcomes, which is also how the
path enumeration replays each path.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import length_hint

from .errors import DegenerateStreamError, InfeasibleSizeError, UnreachableValuesWarning
from .generators import Generator

__all__ = [
    "DRAW_CHUNK",
    "KERNELS",
    "METHODS",
    "floor_value",
    "round_value",
    "randint_floor",
    "randint_round",
    "randint_mask",
    "IntDistribution",
    "check_masses",
    "exact_distribution",
    "floor_sum",
    "floor_even_probability",
    "RandomSource",
    "RangeTile",
]

MAX_EXACT_WIDTH = 24

# Ranges per randints call where a caller draws a long or open-ended
# sequence in chunks; bounds the draws held at once.
DRAW_CHUNK = 4096

# Each candidate of a mask draw is rejected with probability below 1/2, so
# IID uniform bits reject this many in a row with probability below 2**-64.
MAX_REJECTIONS = 64


# ---------------------------------------------------------------------------
# Kernels (pure functions of one word)

def floor_value(word: int, width: int, num: int, den: int = 1) -> int:
    """Multiply-and-floor with the range scale num/den (an integer m is
    num = m): 1 + floor(num * word / (den * 2**width)), exactly.

    Statistical packages that compute ``floor(dn * u)`` in floating point
    effectively use a non-integral dn (for instance an expression like
    (2/5) * 2**32); a rational num/den reproduces that behavior exactly.
    """
    # floor(floor(x / 2^w) / den) = floor(x / (den 2^w)); den = 1 costs a shift
    return 1 + (num * word >> width) // den


def round_value(word: int, width: int, m: int) -> int:
    """Round-to-nearest: nearest integer to m * word / 2**width, half up,
    with the 0 bucket sent to 1.

    Value m's bucket is half an interior one, and value 1's one and a half.
    """
    return (2 * m * word + (1 << width)) >> (width + 1) or 1


# ---------------------------------------------------------------------------
# Drawing range sequences from a generator's stream

def _warn_unreachable(m: int, width: int) -> None:
    # stack: 1 here, 2 the kernel, 3 randint/randints/randint_*, 4 their caller
    warnings.warn(
        f"m={m} exceeds the word range 2**{width}; at least {m - (1 << width)} "
        "values can never be produced",
        UnreachableValuesWarning,
        stacklevel=4,
    )


def _one_word_kernel(value):
    """A kernel mapping one word to each range's draw by value(word, width, m)."""

    def kernel(gen: Generator, ranges) -> list[int]:
        w = gen.width
        limit = 1 << w
        read = gen.stream.__next__
        out: list[int] = []
        append = out.append
        warned = False
        try:
            for m in ranges:
                if not 0 < m <= limit:
                    if m < 1:
                        raise ValueError("m must be >= 1")
                    if not warned:  # once per call
                        _warn_unreachable(m, w)
                        warned = True
                append(value(read(), w, m))
        finally:
            # one word per draw
            gen.words_emitted += len(out)
        return out

    return kernel


class RangeTile(tuple):
    """A range sequence drawn many times over, such as a tile of whole
    shuffles; the mask kernel keeps its plan per word width on the tile."""

    def __init__(self, ranges):
        self.plans = {}


def _pair(m: int, w: int) -> tuple[int, int]:
    """m's (m, shift) in a mask plan, or (m, -1) for the slow branch."""
    return (m, w - (m - 1).bit_length()) if 1 < m <= 1 << w else (m, -1)


def _range_runs(r: range, w: int):
    """Yield the plan of a range of step 1 or -1 as one zip per run of one
    shift, O(log m) of them; a sentinel is a run of its own."""
    while r:
        m, shift = _pair(r[0], w)
        # up, m's run ends at 2**mu; down, at 2**(mu - 1) + 1
        n = 1 if shift < 0 else (1 << w - shift) - m + 1 if r.step > 0 else m - (1 << w - shift - 1)
        yield zip(r[:n], repeat(shift))
        r = r[n:]


# plans of ranges of at most 64, which callers draw again and again (a
# shuffle of n <= 8 draws range(n, 1, -1)), in a bounded cache
_short_range_plan = lru_cache(maxsize=64)(lambda r, w: tuple(chain.from_iterable(_range_runs(r, w))))


def _mask_plan(ranges, w: int):
    """The (m, shift) pairs of ``ranges``, built by the sequence's shape;
    only the pairs of a plain sequence are worked out entry by entry."""
    kind = type(ranges)
    if kind is range and ranges.step in (1, -1):
        return _short_range_plan(ranges, w) if len(ranges) <= 64 else chain.from_iterable(_range_runs(ranges, w))
    if kind is repeat:
        # an unbounded repeat draws until a draw raises
        count = length_hint(ranges, sys.maxsize)
        return repeat(_pair(next(ranges), w), count) if count else ()
    if kind is RangeTile:
        if w not in ranges.plans:
            pairs = {m: _pair(m, w) for m in set(ranges)}  # one pair object per m
            ranges.plans[w] = list(map(pairs.__getitem__, ranges))
        return ranges.plans[w]
    return map(_pair, ranges, repeat(w))


def _mask_kernel(gen: Generator, ranges) -> list[int]:
    """Mask-and-reject draws on {1..m} for each m of ``ranges``.

    A draw takes mu = (m - 1).bit_length() bits at a time, most significant
    first, and rejects candidates above m - 1.  Leftover bits of a word are
    kept for the next candidate within the draw but discarded when the draw
    ends, so each draw's word consumption depends only on (m, stream), and
    drawing a sequence reads the same words as drawing its ranges one call
    at a time.  Raises DegenerateStreamError after MAX_REJECTIONS rejected
    candidates in a row.

    One loop draws every sequence, over the (m, shift) pairs of a plan
    built before it (_mask_plan).  The sentinel shift -1 sends m < 1, m = 1
    (no word read) and m above 2**width (a pool of several words) to the
    slow branch, which shares the rejection loop.
    """
    w = gen.width
    read = gen.stream.__next__
    out: list[int] = []
    append = out.append
    # words read beyond one per draw made (m = 1 reads none); a rejected
    # draw counts its first word here until it is accepted
    extra = 0
    try:
        for m, shift in _mask_plan(ranges, w):
            if shift >= 0:
                x = read()
                r = x >> shift
                if r < m:
                    append(r + 1)
                    continue
                mu = w - shift
                pool = x & ((1 << shift) - 1)
                bits = shift
                rejected = 1
            elif m > 1:
                mu = (m - 1).bit_length()
                pool = read()
                bits = w
                rejected = 0
            elif m == 1:
                append(1)
                extra -= 1
                continue
            else:
                raise ValueError("m must be >= 1")
            extra += 1
            while True:
                while bits < mu:
                    pool = (pool << w) | read()
                    extra += 1
                    bits += w
                bits -= mu
                r = pool >> bits
                if r < m:
                    append(r + 1)
                    extra -= 1
                    break
                pool &= (1 << bits) - 1
                rejected += 1
                if rejected == MAX_REJECTIONS:
                    raise DegenerateStreamError(f"{rejected} mask candidates in a row rejected for m={m}")
    finally:
        gen.words_emitted += len(out) + extra
    return out


# method -> kernel(gen, ranges): one draw on {1..m} for each m of ranges,
# read from gen.stream; words_emitted is settled once per call, also when
# a draw raises
KERNELS = {
    "floor": _one_word_kernel(floor_value),
    "round": _one_word_kernel(round_value),
    "mask": _mask_kernel,
}
METHODS = tuple(KERNELS)


def randint_floor(gen: Generator, m: int) -> int:
    """One floor-method draw on {1..m}; consumes exactly one word."""
    return KERNELS["floor"](gen, (m,))[0]


def randint_round(gen: Generator, m: int) -> int:
    """One round-method draw on {1..m} (round_value); consumes one word."""
    return KERNELS["round"](gen, (m,))[0]


def randint_mask(gen: Generator, m: int) -> int:
    """One mask-and-reject draw on {1..m}: exactly uniform for uniform bits
    (see the mask kernel, KERNELS["mask"])."""
    return KERNELS["mask"](gen, (m,))[0]


# ---------------------------------------------------------------------------
# Exact induced distributions

@dataclass(frozen=True)
class IntDistribution:
    """Exact induced distribution of an integer method at width w.

    ``probs`` maps each attainable value to its probability as an exact
    rational, over a divisor of 2**width for floor and round and over m for
    mask.  Every method lives on {1..m}.
    """

    method: str
    width: int
    m: int
    probs: dict[int, Fraction]

    def __post_init__(self):
        check_masses(self.probs, self.m, "an IntDistribution")

    def max_min_ratio(self) -> Fraction:
        """Largest over smallest nonzero selection probability."""
        ps = self.probs.values()
        return Fraction(max(ps), min(ps))


def check_masses(probs: dict, m: int, name: str) -> dict:
    """probs if it puts masses >= 0 on 1..m that total exactly 1, else ValueError."""
    if not all(1 <= v <= m and p >= 0 for v, p in probs.items()) or sum(probs.values()) != 1:
        raise ValueError(f"{name} must put nonnegative masses on 1..{m} that sum to exactly 1")
    return probs


def exact_distribution(method: str, width: int, m: int) -> IntDistribution:
    """Exact distribution of a method over all 2**width equally likely words.

    floor maps the words [ceil((v-1)*2^w/m), ceil(v*2^w/m)) to v, and
    round the words [ceil((2v-1)*2^w/2m), ceil((2v+1)*2^w/2m)), value 1's
    from word 0.  The walk starts at word 0, takes its value v from the
    kernel's rule, counts the words up to v's last one and goes on from the
    next, so it visits only the values some word reaches, in increasing
    order: O(min(m, 2^w)) steps.  It agrees value for value with drawing
    every word through KERNELS (the test suite checks this).  mask is
    uniform 1/m by the rejection argument; its support is all of 1..m, so
    m is capped at 2**MAX_EXACT_WIDTH, the most values the others reach.
    """
    if method not in KERNELS:
        raise ValueError(f"unknown method {method!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 1 <= width <= MAX_EXACT_WIDTH:
        raise InfeasibleSizeError(f"width must be in [1, {MAX_EXACT_WIDTH}] for exact enumeration")
    total = 1 << width
    if method == "mask":
        if m > 1 << MAX_EXACT_WIDTH:
            raise InfeasibleSizeError(f"m must be at most 2**{MAX_EXACT_WIDTH} for an exact mask distribution")
        probs = dict.fromkeys(range(1, m + 1), Fraction(1, m))
    else:
        half = int(method == "round")
        value = round_value if half else floor_value
        probs = {}
        word = 0
        while word < total:
            v = value(word, width, m)
            # v's words end at ceil((2v + half) * 2^w / 2m)
            end = min(-(-(2 * v + half) * total // (2 * m)), total)
            probs[v] = Fraction(end - word, total)
            word = end
    return IntDistribution(method=method, width=width, m=m, probs=probs)


# ---------------------------------------------------------------------------
# Exact parity analysis for the floor method at full width

def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) in O(log) via a Euclidean step."""
    if n < 0 or m <= 0 or a < 0 or b < 0:
        raise ValueError("floor_sum requires n >= 0, m > 0, a >= 0, b >= 0")
    ans = 0
    while True:
        if a >= m:
            ans += (n - 1) * n // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return ans
        n, b = divmod(y_max, m)
        m, a = a, m


def floor_even_probability(width: int, num: int, den: int = 1) -> Fraction:
    """Exact P(Y even) for Y = 1 + floor(num * X / (den * 2**width)) with X
    uniform on w-bit words.

    Works at any width (including 32) because the parity count reduces to
    two floor sums: floor(t) mod 2 = floor(t) - 2*floor(t/2).

    A fact worth knowing: for an integer scale m = num with m = 2 mod 4,
    the result is exactly 1/2.  Writing m = 2*m' with m' odd, the parity
    of floor(m*X/2^w) is one fixed bit of (m'*X) mod 2^w, and
    multiplication by an odd number permutes residues mod 2^w, so that bit
    is set for exactly half of all words.  The famous 40/60 even/odd split
    therefore does not come from the idealized integer kernel; it needs
    the non-integral scale that floating-point package code actually uses
    (floor_value's num/den scale).
    """
    total = 1 << width
    odd = floor_sum(total, den * total, num, 0) - 2 * floor_sum(
        total, den * 2 * total, num, 0
    )
    return Fraction(odd, total)


# ---------------------------------------------------------------------------
# Sampling-facing draw source

class RandomSource:
    """Uniform integer and fraction draws on top of a word generator.

    Integer draws use mask-reject by default; the biased floor and round
    methods must be opted into explicitly to reproduce flawed behavior.
    Tracks the number of integer draws; word usage is read off the
    underlying generator.

    This is the draw-source protocol the samplers use: ``randints(ranges)``
    draws on {1..m} for each m of a sequence in one call, ``randint(m)`` is
    its one-range case, ``fractions(count)`` gives the generator's next
    count fractions (word / 2**width) and ``fraction()`` is its one-element
    case.
    """

    def __init__(self, gen: Generator, method: str = "mask"):
        if method not in KERNELS:
            raise ValueError(f"unknown method {method!r}")
        self._kernel = KERNELS[method]
        self.gen = gen
        self.method = method
        self.draws = 0

    def randints(self, ranges) -> list[int]:
        out = self._kernel(self.gen, ranges)
        self.draws += len(out)
        return out

    def randint(self, m: int) -> int:
        # calls the kernel itself rather than randints, so that a warning
        # points at the caller from the same stack depth as for randints
        out = self._kernel(self.gen, (m,))
        self.draws += 1
        return out[0]

    def fractions(self, count: int) -> list[float]:
        return self.gen.fractions(count)

    def fraction(self) -> float:
        return self.gen.fractions(1)[0]

    # kept only because perfbench/spans.py wraps this name on RandomSource
    fraction_nonzero = fraction

    @property
    def words_used(self) -> int:
        return self.gen.words_emitted

    @property
    def width(self) -> int:
        return self.gen.width
