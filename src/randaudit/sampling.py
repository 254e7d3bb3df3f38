"""Sampling and permutation algorithms over a draw source.

Every algorithm takes a draw source, a RandomSource or any object with
the same small protocol (``randints``, ``randint``, ``fractions`` and
``fraction``, counted by ``words_used``, ``draws`` and ``width``; see the
integers module) and uses nothing else of it, so the generator and
integer method are chosen by the caller.  Integer draws default to
mask-reject through RandomSource; the biased methods are an explicit
opt-in there.  Samplers that know their ranges ahead draw them with one
``randints`` call, and pikk draws its n keys with one ``fractions`` call.

Each run is strictly sequential over its one draw source; experiments
that parallelize must hand each worker an independently seeded generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import NamedTuple

from .errors import DegenerateStreamError, InfeasibleSizeError, ShortStreamWarning
from .integers import DRAW_CHUNK, RangeTile

__all__ = [
    "MAX_POPULATION",
    "Sample",
    "SampleSpec",
    "ScriptedSource",
    "pikk",
    "fisher_yates",
    "shuffles",
    "random_indices",
    "cormen_sample",
    "reservoir_r",
    "vitter_z",
    "ALGORITHMS",
    "STREAMING_ALGORITHMS",
]


class Sample(NamedTuple):
    """Algorithm output plus an accounting of the randomness it consumed.

    items: selected indices (or stream items) in the algorithm's own order;
    words: generator words consumed; bits: the same consumption in raw bits
    (words times the word width, 0 for scripted test sources); draws:
    integer draws consumed; short: a reservoir was requested from a stream
    shorter than k.

    A named tuple: its fields cannot be assigned, it is cheaper to build
    than a frozen dataclass (every sampler call builds one), and like any
    tuple it compares and hashes equal to a plain tuple of the same five
    values.
    """

    items: tuple
    words: int
    draws: int
    bits: int = 0
    short: bool = False

    def as_set(self) -> frozenset:
        return frozenset(self.items)


class ScriptedSource:
    """Draw source with pre-decided outcomes, for traced tests and demos,
    and the replay source of the path enumeration.

    randints reads the next value of ``ints`` per range (each value is
    checked against its range, and a value out of range is still used up);
    fractions(count) reads the next count of ``fractions``.  Running out
    calls ``_ran_out`` with the ranges the call still wants (None for a
    fraction), after the values that were left are used up; here it raises
    IndexError.  Word accounting is zero since no generator sits underneath.

    Both scripts are read in place through a cursor each.  An integer
    entry is a pair (value, m): a value given here records no range (m is
    None), and an entry that records m must be drawn on exactly that
    range, else the replay has diverged.
    """

    width = 0

    def __init__(self, ints=(), fractions=()):
        self._ints = [(v, None) for v in ints]
        self._fracs = list(fractions)
        self._ipos = self._fpos = 0
        self.draws = 0

    def _ran_out(self, ranges):
        raise IndexError("scripted draws exhausted")

    def randints(self, ranges) -> list[int]:
        ints, pos, out = self._ints, self._ipos, []
        it = iter(ranges)
        try:
            for m in it:
                if pos == len(ints):
                    self._ran_out([m, *it])
                v, recorded = ints[pos]
                pos += 1
                if recorded != m:
                    if recorded is not None:
                        raise AssertionError("replay diverged from recorded draw sequence")
                    if not 1 <= v <= m:
                        raise ValueError(f"scripted draw {v} outside 1..{m}")
                out.append(v)
        finally:
            self._ipos = pos
            self.draws += len(out)
        return out

    def randint(self, m: int) -> int:
        return self.randints((m,))[0]

    def fractions(self, count: int) -> list[float]:
        pos = self._fpos
        out = self._fracs[pos : pos + max(count, 0)]
        self._fpos = pos + len(out)
        if len(out) < count:
            self._ran_out([None] * (count - len(out)))
        return out

    def fraction(self) -> float:
        return self.fractions(1)[0]

    @property
    def words_used(self) -> int:
        return 0

    def fully_consumed(self) -> bool:
        return self._ipos == len(self._ints) and self._fpos == len(self._fracs)


def _sample(source, w0: int, d0: int, items, short: bool = False) -> Sample:
    """The Sample of ``items``, charged with what ``source`` consumed since
    its words_used and draws read w0 and d0."""
    words = source.words_used - w0
    return Sample(tuple(items), words, source.draws - d0, words * source.width, short)


# ---------------------------------------------------------------------------
# Whole-population algorithms

# The largest n (or k) a sampler takes where it holds n (or k) items in a
# list, and the largest n SampleSpec.run streams record by record
MAX_POPULATION = 10 ** 8


def _check_population(size: int, name: str = "population size n") -> None:
    if size > MAX_POPULATION:
        raise InfeasibleSizeError(f"{name} = {size} is above the limit of {MAX_POPULATION:,}")


def pikk(source, n: int, k: int) -> Sample:
    """Permute indices and keep k: assign each index a fraction, sort, take
    the first k.

    Draws the n keys in one ``fractions(n)`` call, whatever k is.  The
    indices are sorted by key with a stable sort, so ties are broken by
    original index, which matters for discrete word sources; a tie never
    triggers a redraw.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _check_population(n)
    w0, d0 = source.words_used, source.draws
    keys = source.fractions(n)
    order = sorted(range(n), key=keys.__getitem__)
    return _sample(source, w0, d0, [i + 1 for i in order[:k]])


def shuffles(source, n: int, count: int):
    """Yield ``count`` shuffles of [1..n], each a new list.

    Each shuffle is Fisher-Yates: for i from n-1 down to 1 swap position i
    with a uniform position j in {0..i}, n-1 integer draws and no sort.
    All the draws are made in the order single shuffles would make them,
    each call when the shuffle being built first needs it: one shuffle of
    n <= DRAW_CHUNK in one randints call, more in calls of a RangeTile of
    DRAW_CHUNK // (n - 1) whole shuffles (the last call shorter), built
    once, and each shuffle of n > DRAW_CHUNK in range slices of DRAW_CHUNK.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_population(n)
    period = range(n, 1, -1)
    if n == 1 or count == 1 and n <= DRAW_CHUNK:
        # one call of at most one shuffle's draws: the list needs no iterator
        draws = source.randints(period)
    elif n > DRAW_CHUNK:
        slices = [period[i : i + DRAW_CHUNK] for i in range(0, n - 1, DRAW_CHUNK)]
        draws = chain.from_iterable(map(source.randints, chain.from_iterable(repeat(slices, count))))
    else:
        # every full tile is drawn from the one plan the kernel keeps on it;
        # the last, partial tile is a tile too, which plans faster than a tuple
        tile = RangeTile(chain.from_iterable(repeat(period, DRAW_CHUNK // (n - 1))))
        full, rest = divmod(count * (n - 1), len(tile))
        draws = chain.from_iterable(map(source.randints, chain(repeat(tile, full), [RangeTile(tile[:rest])])))
    positions = range(n - 1, 0, -1)
    identity = list(range(1, n + 1))
    for _ in range(count):
        a = identity[:]
        # zip stops at the end of positions before taking another draw
        for i, j in zip(positions, draws):
            a[i], a[j - 1] = a[j - 1], a[i]
        yield a


def fisher_yates(source, n: int) -> Sample:
    """In-place shuffle of (1..n), the one-shuffle case of ``shuffles``.
    Consumes exactly n-1 integer draws and no sort."""
    return _shuffle_prefix(source, n, n)


def _shuffle_prefix(source, n: int, k: int) -> Sample:
    """The first k items of one shuffle of (1..n)."""
    w0, d0 = source.words_used, source.draws
    [shuffle] = shuffles(source, n, 1)
    return _sample(source, w0, d0, shuffle[:k])


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
    _check_population(k, "sample size k")
    w0, d0 = source.words_used, source.draws
    if with_replacement:
        return _sample(source, w0, d0, source.randints(repeat(n, k)))
    seen: set[int] = set()
    picks: list[int] = []
    duplicates = 0
    # k - len(picks) more draws are needed whatever they turn out to be,
    # so drawing that many at once reads the stream draw by draw
    while len(picks) < k:
        for v in source.randints(repeat(n, k - len(picks))):
            if v not in seen:
                seen.add(v)
                picks.append(v)
                duplicates = 0
                continue
            duplicates += 1
            if duplicates == 90 * n:
                raise DegenerateStreamError(f"{duplicates} duplicate draws in a row")
    return _sample(source, w0, d0, picks)


def cormen_sample(source, n: int, k: int) -> Sample:
    """The recursive textbook sampler, unrolled iteratively.

    RandomSample(k, n) = RandomSample(k-1, n-1) plus one draw i on {1..n};
    add n if i was already chosen, else add i.  The unrolled loop is
    semantically identical by induction and has no recursion-depth limit.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _check_population(k, "sample size k")
    w0, d0 = source.words_used, source.draws
    chosen: set[int] = set()
    order: list[int] = []
    sizes = range(n - k + 1, n + 1)
    for j, i in zip(sizes, source.randints(sizes)):
        pick = j if i in chosen else i
        chosen.add(pick)
        order.append(pick)
    return _sample(source, w0, d0, order)


# ---------------------------------------------------------------------------
# Reservoir (streaming) algorithms

def _fill(it, k: int) -> tuple[list, bool]:
    """The first k items of the iterator, and whether (with a warning) the
    stream ended sooner."""
    reservoir = list(islice(it, k))
    short = len(reservoir) < k
    if short:
        warnings.warn(
            f"stream ended after {len(reservoir)} items, reservoir wants {k}",
            ShortStreamWarning,
            stacklevel=3,
        )
    return reservoir, short


def reservoir_r(stream, k: int, source) -> Sample:
    """Single-pass reservoir sampling: item t > k replaces a uniform slot
    with probability k/t (draw j on {1..t}, replace slot j if j <= k).

    Records are read DRAW_CHUNK at a time and their draws made in one
    call; only records actually read are drawn for.  A stream shorter than
    k yields the whole stream with short=True."""
    if k < 1:
        raise ValueError("k must be >= 1")
    w0, d0 = source.words_used, source.draws
    it = iter(stream)
    reservoir, short = _fill(it, k)
    if short:
        return _sample(source, w0, d0, reservoir, True)
    t = k
    while chunk := list(islice(it, DRAW_CHUNK)):
        for item, j in zip(chunk, source.randints(range(t + 1, t + 1 + len(chunk)))):
            if j <= k:
                reservoir[j - 1] = item
        t += len(chunk)
    return _sample(source, w0, d0, reservoir)


def vitter_z(stream, k: int, source) -> Sample:
    """Reservoir sampling with random skips (Vitter 1985, Algorithm X at
    every stream length); same output distribution as reservoir_r, but
    one fraction and one slot draw per record kept instead of a draw per
    record.

    A fraction v, drawn at the first record after the last one kept,
    decides the skip: record t is kept once the running product of
    (i - k) / i over the records i since then falls to v or below.  Each
    factor is the chance that reservoir_r passes record i over, so the
    skip has reservoir_r's distribution.  The walk costs one multiply per
    record and stops with the stream, and a stream of exactly k items
    costs no randomness.  v = 0, from a 0 word, keeps no further record,
    also once the float product underflows to 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w0, d0 = source.words_used, source.draws
    it = iter(stream)
    reservoir, short = _fill(it, k)
    if short:
        return _sample(source, w0, d0, reservoir, True)
    v = None
    for t, item in enumerate(it, start=k + 1):
        if v is None:
            v = source.fraction()
            quot = (t - k) / t
        else:
            quot *= (t - k) / t
        # the exact product never reaches v = 0, although the float one can
        if quot <= v and v:
            reservoir[source.randint(k) - 1] = item
            v = None
    return _sample(source, w0, d0, reservoir)


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
    permutation).  A size above MAX_POPULATION is refused when the spec
    is built: k for random_indices and cormen, else n, even where a
    streaming spec is later run on a stream.
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
            if self.algorithm in ("random_indices", "cormen"):
                _check_population(self.k, "sample size k")
            else:
                _check_population(self.n)

    def run(self, source, stream=None) -> Sample:
        """Draw one sample.  Streaming algorithms take items from
        ``stream`` (or 1..n when only n is given); the rest sample index
        sets from {1..n}."""
        if stream is None and self.algorithm in STREAMING_ALGORITHMS:
            if self.n is None:
                raise ValueError("streaming algorithms need a stream or n")
            stream = range(1, self.n + 1)
        return ALGORITHMS[self.algorithm](self, source, stream)
