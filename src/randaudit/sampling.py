"""Sampling and permutation algorithms over a draw source.

Every algorithm takes a RandomSource (or any object with the same small
draw API) so the generator and integer method are chosen by the caller.
Integer draws default to mask-reject through RandomSource; the biased
methods are an explicit opt-in there.

Each run is strictly sequential over its one draw source; experiments
that parallelize must hand each worker an independently seeded generator.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .errors import DegenerateStreamError, ShortStreamWarning

__all__ = [
    "Sample",
    "SampleSpec",
    "ScriptedSource",
    "pikk",
    "fisher_yates",
    "random_indices",
    "cormen_sample",
    "reservoir_r",
    "vitter_z",
    "ALGORITHMS",
    "STREAMING_ALGORITHMS",
]

_SENTINEL = object()


@dataclass(frozen=True)
class Sample:
    """Algorithm output plus an accounting of the randomness it consumed.

    items: selected indices (or stream items) in the algorithm's own order;
    words: generator words consumed; bits: the same consumption in raw bits
    (words times the word width, 0 for scripted test sources); draws:
    integer draws consumed; short: a reservoir was requested from a stream
    shorter than k.
    """

    items: tuple
    words: int
    draws: int
    bits: int = 0
    short: bool = False

    def as_set(self) -> frozenset:
        return frozenset(self.items)


class ScriptedSource:
    """Draw source with pre-decided outcomes, for traced tests and demos.

    randint pops from ``ints`` (each value is checked against the requested
    range); fraction pops from ``fractions``.  Word accounting is zero since
    no generator sits underneath.
    """

    def __init__(self, ints=(), fractions=()):
        self._ints = list(ints)
        self._fracs = list(fractions)
        self.draws = 0

    def randint(self, m: int) -> int:
        if not self._ints:
            raise IndexError("scripted integer draws exhausted")
        v = self._ints.pop(0)
        if not 1 <= v <= m:
            raise ValueError(f"scripted draw {v} outside 1..{m}")
        self.draws += 1
        return v

    def fraction(self) -> float:
        if not self._fracs:
            raise IndexError("scripted fractions exhausted")
        return self._fracs.pop(0)

    fraction_nonzero = fraction

    @property
    def words_used(self) -> int:
        return 0


def _accounted(source, fn):
    w0 = source.words_used
    d0 = source.draws
    items, short = fn()
    words = source.words_used - w0
    return Sample(
        items=tuple(items),
        words=words,
        draws=source.draws - d0,
        bits=words * getattr(source, "width", 0),
        short=short,
    )


# ---------------------------------------------------------------------------
# Whole-population algorithms

def pikk(source, n: int, k: int) -> Sample:
    """Permute indices and keep k: assign each index a fraction, sort, take
    the first k.

    Always consumes exactly n fraction draws.  Ties are broken by original
    index (stable), which matters for discrete word sources; a tie never
    triggers a redraw.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")

    def run():
        keyed = [(source.fraction(), i) for i in range(1, n + 1)]
        keyed.sort()
        return [i for _, i in keyed[:k]], False

    return _accounted(source, run)


def fisher_yates(source, n: int) -> Sample:
    """In-place shuffle of (1..n): for i from n-1 down to 1 swap position i
    with a uniform position j in {0..i}.  Consumes exactly n-1 integer
    draws and no sort."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def run():
        a = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = source.randint(i + 1) - 1
            a[i], a[j] = a[j], a[i]
        return a, False

    return _accounted(source, run)


def random_indices(source, n: int, k: int, with_replacement: bool = False) -> Sample:
    """Draw k indices from {1..n}, either independently (with replacement)
    or rejecting duplicates until k distinct indices are found.

    On wide IID uniform words every method gives each value probability at
    least about 1/(2n), so 90n duplicates in a row happen with probability
    below e**-45 < 2**-64; that many raise DegenerateStreamError.
    """
    if k < 0 or n < 1:
        raise ValueError("need n >= 1 and k >= 0")
    if not with_replacement and k > n:
        raise ValueError("k > n without replacement")

    def run():
        if with_replacement:
            return [source.randint(n) for _ in range(k)], False
        seen: set[int] = set()
        picks: list[int] = []
        duplicates = 0
        while len(picks) < k:
            v = source.randint(n)
            if v not in seen:
                seen.add(v)
                picks.append(v)
                duplicates = 0
                continue
            duplicates += 1
            if duplicates == 90 * n:
                raise DegenerateStreamError(f"{duplicates} duplicate draws in a row")
        return picks, False

    return _accounted(source, run)


def cormen_sample(source, n: int, k: int) -> Sample:
    """The recursive textbook sampler, unrolled iteratively.

    RandomSample(k, n) = RandomSample(k-1, n-1) plus one draw i on {1..n};
    add n if i was already chosen, else add i.  The unrolled loop is
    semantically identical by induction and has no recursion-depth limit.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")

    def run():
        chosen: set[int] = set()
        order: list[int] = []
        for j in range(n - k + 1, n + 1):
            i = source.randint(j)
            pick = j if i in chosen else i
            chosen.add(pick)
            order.append(pick)
        return order, False

    return _accounted(source, run)


# ---------------------------------------------------------------------------
# Reservoir (streaming) algorithms

def _fill(it, k: int) -> tuple[list, bool]:
    """The first k items of the iterator, and whether (with a warning) the
    stream ended sooner."""
    reservoir = list(itertools.islice(it, k))
    short = len(reservoir) < k
    if short:
        warnings.warn(
            f"stream ended after {len(reservoir)} items, reservoir wants {k}",
            ShortStreamWarning,
            stacklevel=5,
        )
    return reservoir, short


def reservoir_r(stream, k: int, source) -> Sample:
    """Single-pass reservoir sampling: item t > k replaces a uniform slot
    with probability k/t (draw j on {1..t}, replace slot j if j <= k).

    A stream shorter than k yields the whole stream with short=True."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def run():
        it = iter(stream)
        reservoir, short = _fill(it, k)
        if short:
            return reservoir, True
        for t, item in enumerate(it, start=k + 1):
            j = source.randint(t)
            if j <= k:
                reservoir[j - 1] = item
        return reservoir, False

    return _accounted(source, run)


def _skip_x(source, k: int, t: int) -> int:
    # inverse-CDF search: P(skip >= s+1) = prod_{i=1..s+1} (t+i-k)/(t+i)
    v = source.fraction_nonzero()
    s = 0
    num = t + 1 - k
    den = t + 1
    quot = num / den
    while quot > v:
        s += 1
        num += 1
        den += 1
        quot *= num / den
    return s


def _skip_z(source, k: int, t: int, w: float) -> tuple[int, float]:
    # rejection sampling of the skip length for large t, with the cheap
    # squeeze test tried before the exact density evaluation; a trial is
    # rejected with probability k/(t+1) < 1/22, so 32 rejections in a row
    # (probability below 2**-142) mean the fractions are not uniform
    term = t - k + 1
    for _ in range(32):
        u = source.fraction_nonzero()
        x = t * (w - 1.0)
        s = int(x)
        lhs = math.exp(
            math.log(((u * ((t + 1) / term) ** 2) * (term + s)) / (t + x)) / k
        )
        rhs = (((t + x) / (term + s)) * term) / t
        if lhs <= rhs:
            return s, rhs / lhs
        y = (((u * (t + 1)) / term) * (t + s + 1)) / (t + x)
        if k < s:
            denom = t
            numer_lim = term + s
        else:
            denom = t - k + s
            numer_lim = t + 1
        for numer in range(t + s, numer_lim - 1, -1):
            y = (y * numer) / denom
            denom -= 1
        w = math.exp(-math.log(source.fraction_nonzero()) / k)
        if math.exp(math.log(y) / k) <= (t + x) / t:
            return s, w
    raise DegenerateStreamError("32 skip lengths in a row were rejected; the fractions are not uniform")


def vitter_z(stream, k: int, source, switch_factor: int = 22) -> Sample:
    """Reservoir sampling with random skips; same output distribution as
    reservoir_r but o(stream length) draw consumption.

    Uses the sequential-search skip while t <= switch_factor * k, then the
    rejection-based skip.  switch_factor=22 is the published crossover.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def run():
        it = iter(stream)
        reservoir, short = _fill(it, k)
        if short:
            return reservoir, True
        t = k
        thresh = switch_factor * k
        w = None
        # one-item lookahead so the skip draw happens only when at least one
        # record remains; a stream of exactly k items costs no randomness
        pending = next(it, _SENTINEL)
        while pending is not _SENTINEL:
            if t <= thresh:
                s = _skip_x(source, k, t)
            else:
                if w is None:
                    w = math.exp(-math.log(source.fraction_nonzero()) / k)
                s, w = _skip_z(source, k, t, w)
            if s == 0:
                item = pending
            else:
                item = next(itertools.islice(it, s - 1, s), _SENTINEL)
                if item is _SENTINEL:
                    return reservoir, False
            reservoir[source.randint(k) - 1] = item
            t += s + 1
            pending = next(it, _SENTINEL)
        return reservoir, False

    return _accounted(source, run)


def _shuffle_prefix(source, n: int, k: int) -> Sample:
    full = fisher_yates(source, n)
    return Sample(items=full.items[:k], words=full.words, draws=full.draws, bits=full.bits)


# tag -> draw(spec, source, stream): one sample for a validated SampleSpec
ALGORITHMS = {
    "pikk": lambda spec, source, stream: pikk(source, spec.n, spec.k),
    "fisher_yates": lambda spec, source, stream: _shuffle_prefix(source, spec.n, spec.k),
    "random_indices": lambda spec, source, stream: random_indices(
        source, spec.n, spec.k, spec.with_replacement
    ),
    "cormen": lambda spec, source, stream: cormen_sample(source, spec.n, spec.k),
    "reservoir_r": lambda spec, source, stream: reservoir_r(stream, spec.k, source),
    "vitter_z": lambda spec, source, stream: vitter_z(stream, spec.k, source),
}

STREAMING_ALGORITHMS = ("reservoir_r", "vitter_z")


@dataclass(frozen=True)
class SampleSpec:
    """A validated sampling request: population size, sample size,
    replacement mode, and algorithm tag.

    n may be None only for the streaming algorithms, where the population
    arrives as a stream of unknown length.  Replacement is supported only
    by random_indices.  fisher_yates here means shuffle-and-keep-the-
    first-k (use the fisher_yates function directly for the raw
    permutation).
    """

    n: int | None
    k: int
    with_replacement: bool = False
    algorithm: str = "random_indices"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        streaming = self.algorithm in STREAMING_ALGORITHMS
        if self.k < (1 if streaming else 0):
            raise ValueError("sample size k out of range")
        if self.with_replacement and self.algorithm != "random_indices":
            raise ValueError(f"{self.algorithm} cannot sample with replacement")
        if self.n is None:
            if not streaming:
                raise ValueError(f"{self.algorithm} needs a known population size")
        else:
            if self.n < 1:
                raise ValueError("population size n must be >= 1")
            if not self.with_replacement and self.k > self.n:
                raise ValueError("k > n without replacement")

    def run(self, source, stream=None) -> Sample:
        """Draw one sample.  Streaming algorithms take items from
        ``stream`` (or 1..n when only n is given); the rest sample index
        sets from {1..n}."""
        if stream is None and self.algorithm in STREAMING_ALGORITHMS:
            if self.n is None:
                raise ValueError("streaming algorithms need a stream or n")
            stream = range(1, self.n + 1)
        return ALGORITHMS[self.algorithm](self, source, stream)
