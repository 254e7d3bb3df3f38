"""Mapping generator words to integers on {1..m}.

Three strategies are implemented: the multiply-and-floor and
round-to-nearest methods, which are deliberately biased and exist to
demonstrate that bias, and mask-and-reject, which is exactly uniform
whenever the input bits are IID uniform.  All kernels use integer
arithmetic only, so results are identical on every platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateStreamError, InfeasibleSizeError, UnreachableValuesWarning
from .generators import Generator

__all__ = [
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


def _warn_unreachable(m: int, width: int) -> None:
    if m > (1 << width):
        warnings.warn(
            f"m={m} exceeds the word range 2**{width}; at least {m - (1 << width)} "
            "values can never be produced",
            UnreachableValuesWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Drawing from a generator

def randint_floor(gen: Generator, m: int) -> int:
    """One floor-method draw on {1..m}; consumes exactly one word."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _warn_unreachable(m, gen.width)
    return floor_value(gen.next_word(), gen.width, m)


def randint_round(gen: Generator, m: int) -> int:
    """One round-method draw, clamped into {1..m}; consumes one word.

    The raw kernel maps to {0..m}; this sampling-facing wrapper sends the
    0 bucket to 1.  Use exact_distribution to see the unclamped bias.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _warn_unreachable(m, gen.width)
    return max(1, round_value_raw(gen.next_word(), gen.width, m))


def mask_bits(m: int) -> int:
    """Bits needed to represent m - 1 (0 for the degenerate m = 1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (m - 1).bit_length()


def randint_mask(gen: Generator, m: int) -> int:
    """One mask-and-reject draw on {1..m}: exactly uniform for uniform bits.

    Takes mu = mask_bits(m) bits at a time, most significant first, and
    rejects candidates above m - 1.  Leftover bits of a word are kept for
    the next candidate within this call but discarded when the call
    returns, so each call's word consumption depends only on (m, stream).
    Raises DegenerateStreamError after MAX_REJECTIONS rejected candidates
    in a row.
    """
    mu = mask_bits(m)
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


# method -> the kernel drawing one integer on {1..m} from a generator
KERNELS = {"floor": randint_floor, "round": randint_round, "mask": randint_mask}
METHODS = tuple(KERNELS)


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
    """

    def __init__(self, gen: Generator, method: str = "mask"):
        if method not in KERNELS:
            raise ValueError(f"unknown method {method!r}")
        self._draw = KERNELS[method]
        self.gen = gen
        self.method = method
        self.draws = 0

    def randint(self, m: int) -> int:
        self.draws += 1
        return self._draw(self.gen, m)

    def fraction(self) -> float:
        return self.gen.next_fraction()

    def fraction_nonzero(self) -> float:
        """A fraction in (0, 1); redraws on an exact 0 word so that skip
        computations involving log(v) stay finite.

        IID uniform w-bit words are 0 with probability 2**-w, so more than
        64 // w + 1 zeros in a row (probability below 2**-64) raise
        DegenerateStreamError.
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
