"""Mapping generator words to integers on {1..m}.

Three strategies are implemented: the multiply-and-floor and
round-to-nearest methods, which are deliberately biased and exist to
demonstrate that bias, and mask-and-reject, which is exactly uniform
whenever the input bits are IID uniform.  All kernels use integer
arithmetic only, so results are identical on every platform.

The unit of drawing is a range sequence.  ``KERNELS[method](gen, ranges)``
draws one integer on {1..m} for each m of ``ranges``, reading words from
the generator's ``stream`` iterator and adding the number read to
``gen.words_emitted`` once, when the call returns or raises.  A range
below 1 raises ValueError before any word is read for it.  Batching does
not change the stream: floor and round read one word per draw, and mask
discards the leftover bits of its last word at every range boundary, so
a sequence reads exactly the words its ranges would read one call at a
time.

Samplers draw through a draw source.  The protocol is three methods:
``randints(ranges)`` (a list, one draw per range), ``randint(m)`` (its
one-range case) and ``fraction()`` (word / 2**width).  RandomSource
implements it over a generator; sampling.ScriptedSource and
pathenum._Replay implement it over scripted outcomes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateStreamError, InfeasibleSizeError, UnreachableValuesWarning
from .generators import Generator

__all__ = [
    "DRAW_CHUNK",
    "KERNELS",
    "METHODS",
    "floor_value",
    "floor_value_float",
    "floor_value_scaled",
    "round_value_raw",
    "randint_floor",
    "randint_round",
    "randint_mask",
    "mask_bits",
    "IntDistribution",
    "exact_distribution",
    "floor_sum",
    "floor_even_probability",
    "RandomSource",
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

def floor_value(word: int, width: int, m: int) -> int:
    """Multiply-and-floor: 1 + floor(m * word / 2**width), exactly."""
    return 1 + (m * word >> width)


def floor_value_scaled(word: int, width: int, num: int, den: int) -> int:
    """Multiply-and-floor with a rational range scale num/den.

    Statistical packages that compute ``floor(dn * u)`` in floating point
    effectively use a non-integral dn (for instance an expression like
    (2/5) * 2**32); this kernel reproduces that behavior exactly.
    """
    return 1 + num * word // (den << width)


def round_value_raw(word: int, width: int, m: int) -> int:
    """Round-to-nearest: nearest integer to m * word / 2**width, half up.

    The raw result lives on {0..m}; both endpoint buckets get half the
    mass of an interior bucket.
    """
    return (2 * m * word + (1 << width)) >> (width + 1)


def floor_value_float(word: int, width: int, m: float) -> int:
    """Textbook floating-point emulation: 1 + floor(m * (word / 2**width))
    evaluated in doubles, the way package code actually writes it.

    Exists only to demonstrate that behavior; every other kernel here is
    exact integer arithmetic.  Agrees with floor_value whenever the
    product m * word fits in 53 bits; beyond that, and whenever m itself
    is a non-integral float such as the result of (2/5) * 2**32, the two
    part ways (floor_value_scaled captures the latter exactly).
    """
    return 1 + math.floor(m * (word / (1 << width)))


def mask_bits(m: int) -> int:
    """Bits needed to represent m - 1 (0 for the degenerate m = 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (m - 1).bit_length()


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


def _mask_kernel(gen: Generator, ranges) -> list[int]:
    """Mask-and-reject draws on {1..m} for each m of ``ranges``.

    A draw takes mu = mask_bits(m) bits at a time, most significant first,
    and rejects candidates above m - 1.  Leftover bits of a word are kept
    for the next candidate within the draw but discarded when the draw
    ends, so each draw's word consumption depends only on (m, stream), and
    drawing a sequence reads the same words as drawing its ranges one call
    at a time.  Raises DegenerateStreamError after MAX_REJECTIONS rejected
    candidates in a row.
    """
    w = gen.width
    read = gen.stream.__next__
    out: list[int] = []
    append = out.append
    words = 0
    try:
        for m in ranges:
            if m < 2:
                if m < 1:
                    raise ValueError("m must be >= 1")
                append(1)
                continue
            mu = (m - 1).bit_length()
            bits = w - mu
            if bits >= 0:
                # the first candidate is the top mu bits of a fresh word
                pool = read()
                words += 1
                r = pool >> bits
                if r < m:
                    append(r + 1)
                    continue
                pool &= (1 << bits) - 1
                rejected = 1
            else:
                pool = bits = rejected = 0
            while True:
                while bits < mu:
                    pool = (pool << w) | read()
                    words += 1
                    bits += w
                bits -= mu
                r = pool >> bits
                if r < m:
                    append(r + 1)
                    break
                pool &= (1 << bits) - 1
                rejected += 1
                if rejected == MAX_REJECTIONS:
                    raise DegenerateStreamError(f"{rejected} mask candidates in a row rejected for m={m}")
    finally:
        gen.words_emitted += words
    return out


# method -> kernel(gen, ranges): one draw on {1..m} for each m of ranges,
# read from gen.stream; words_emitted is settled once per call, also when
# a draw raises
KERNELS = {
    "floor": _one_word_kernel(floor_value),
    # the raw round kernel reaches 0; sampling sends that bucket to 1
    "round": _one_word_kernel(lambda word, width, m: round_value_raw(word, width, m) or 1),
    "mask": _mask_kernel,
}
METHODS = tuple(KERNELS)


def randint_floor(gen: Generator, m: int) -> int:
    """One floor-method draw on {1..m}; consumes exactly one word."""
    return KERNELS["floor"](gen, (m,))[0]


def randint_round(gen: Generator, m: int) -> int:
    """One round-method draw, clamped into {1..m}; consumes one word.

    The raw kernel maps to {0..m}; this sampling-facing wrapper sends the
    0 bucket to 1.  Use exact_distribution to see the unclamped bias.
    """
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
    rational with denominator dividing 2**width.  floor and mask live on
    {1..m}; the raw round method also reaches 0.
    """

    method: str
    width: int
    m: int
    probs: dict[int, Fraction]

    def __post_init__(self):
        if sum(self.probs.values()) != 1:
            raise ValueError("probabilities must sum to exactly 1")

    def probability(self, value: int) -> Fraction:
        return self.probs.get(value, Fraction(0))

    def max_min_ratio(self) -> Fraction:
        """Largest over smallest nonzero selection probability."""
        ps = self.probs.values()
        return Fraction(max(ps), min(ps))

    def support(self) -> list[int]:
        return sorted(self.probs)

    def write_csv(self, fileobj) -> None:
        fileobj.write("value,numerator,denominator\n")
        for v in self.support():
            p = self.probs[v]
            fileobj.write(f"{v},{p.numerator},{p.denominator}\n")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def exact_distribution(method: str, width: int, m: int) -> IntDistribution:
    """Exact distribution of a method over all 2**width equally likely words.

    Computed by closed-form interval counting, which agrees value for
    value with brute-force enumeration of every word (the test suite
    checks this).  mask is uniform 1/m by the rejection argument.
    """
    if method not in KERNELS:
        raise ValueError(f"unknown method {method!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if width < 1 or width > MAX_EXACT_WIDTH:
        raise InfeasibleSizeError(
            f"width must be in [1, {MAX_EXACT_WIDTH}] for exact enumeration"
        )
    total = 1 << width
    probs: dict[int, Fraction] = {}
    if method == "mask":
        probs = {v: Fraction(1, m) for v in range(1, m + 1)}
    else:
        # floor maps the words [ceil((v-1)*2^w/m), ceil(v*2^w/m)) to v, raw
        # round (on {0..m}) the words [ceil((2v-1)*2^w/2m), ceil((2v+1)*2^w/2m))
        half = int(method == "round")
        prev = 0
        for v in range(1 - half, m + 1):
            hi = min(_ceil_div((2 * v + half) * total, 2 * m), total)
            if hi > prev:
                probs[v] = Fraction(hi - prev, total)
            prev = hi
            if prev >= total:
                break
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
    (see floor_value_scaled).
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
    its one-range case, and ``fraction()`` gives word / 2**width.
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

    def fraction(self) -> float:
        return self.gen.next_fraction()

    def fraction_nonzero(self) -> float:
        """A fraction in (0, 1): an exact 0 word is redrawn.

        vitter_z draws its skip fractions here.  Its skip walk takes no
        logarithm, so the redraw guards no arithmetic; it keeps vitter_z's
        stream as it is (v = 0 would keep no further record, a redrawn v
        does).  IID uniform w-bit words are 0 with
        probability 2**-w, so more than 64 // w + 1 zeros in a row
        (probability below 2**-64) raise DegenerateStreamError.
        """
        limit = 64 // self.gen.width + 1
        for _ in range(limit):
            f = self.gen.next_fraction()
            if f > 0.0:
                return f
        raise DegenerateStreamError(f"{limit} zero words in a row; the generator is stuck at 0")

    @property
    def words_used(self) -> int:
        return self.gen.words_emitted

    @property
    def width(self) -> int:
        return self.gen.width
