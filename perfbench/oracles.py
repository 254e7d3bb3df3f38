"""Reference computations that share no code with randaudit.

Every check in the benchmark compares the program's output with one of
these, or with a property the method must have.  Nothing here imports
randaudit: the words come from numpy's MT19937 and from hashlib, the
integer and sampling steps are written out again from their published
definitions, and the exact references are closed forms.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

# ---------------------------------------------------------------------------
# Word streams


class _ChunkedWords:
    """A callable word source that refills from ``_refill()`` and counts
    the words it hands out."""

    def __init__(self):
        self.words = 0
        self._pending: list[int] = []

    def __call__(self) -> int:
        if not self._pending:
            self._pending = self._refill()[::-1]
        self.words += 1
        return self._pending.pop()

    def take(self, count: int) -> list[int]:
        return [self() for _ in range(count)]


class MtWords(_ChunkedWords):
    """MT19937 words from numpy's legacy RandomState, which seeds with the
    reference init_genrand; a full-range uint32 draw returns the raw word."""

    def __init__(self, seed: int):
        import numpy as np

        super().__init__()
        self._np = np
        self._rs = np.random.RandomState(seed & 0xFFFFFFFF)

    def _refill(self) -> list[int]:
        return self._rs.randint(0, 2**32, size=1 << 16, dtype=self._np.uint64).tolist()


class HashWords(_ChunkedWords):
    """32-bit words of SHA-256(seed + "," + decimal(counter)), eight per
    digest, most significant first."""

    def __init__(self, seed: str):
        super().__init__()
        self.seed = seed.encode("utf-8")
        self.blocks = 0

    def _refill(self) -> list[int]:
        digest = hashlib.sha256(self.seed + b"," + str(self.blocks).encode("ascii")).digest()
        self.blocks += 1
        return list(struct.unpack(">8I", digest))


class LcgWords:
    """x -> (a*x + c) mod m; each word is the new register."""

    def __init__(self, a: int, c: int, m: int, seed: int):
        self.a, self.c, self.m, self.x = a, c, m, seed
        self.words = 0

    def __call__(self) -> int:
        self.x = (self.a * self.x + self.c) % self.m
        self.words += 1
        return self.x


def hull_dobell(a: int, c: int, m: int) -> bool:
    """Full period iff gcd(c, m) = 1, a - 1 is divisible by every prime
    factor of m, and by 4 when 4 divides m (trial division)."""
    if math.gcd(c, m) != 1:
        return False
    rest, p = m, 2
    while p * p <= rest:
        if rest % p == 0:
            if (a - 1) % p:
                return False
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1 and (a - 1) % rest:
        return False
    return not (m % 4 == 0 and (a - 1) % 4)


# ---------------------------------------------------------------------------
# Integers on {1..m}


class MaskDraws:
    """Mask-and-reject draws on {1..m} from a word source.

    One draw reads its words as a single bit string, most significant bit
    first, and tries the consecutive mu-bit fields of that string in turn,
    mu = bit length of m - 1.  Bits left over inside a draw carry to the
    next field; whatever is left when the draw accepts is thrown away, so
    every draw starts on a fresh word.
    """

    def __init__(self, next_word, width: int):
        self.next_word = next_word
        self.width = width
        self.draws = 0

    def __call__(self, m: int) -> int:
        self.draws += 1
        mu = (m - 1).bit_length()
        if mu == 0:
            return 1
        string, length, cursor = 0, 0, 0
        while True:
            while length - cursor < mu:
                string = (string << self.width) | self.next_word()
                length += self.width
            field = (string >> (length - cursor - mu)) & ((1 << mu) - 1)
            cursor += mu
            if field < m:
                return field + 1


def floor_masses(width: int, m: int) -> dict[int, Fraction]:
    """Distribution of 1 + floor(m * word / 2**width), counted word by word."""
    counts: dict[int, int] = {}
    for word in range(1 << width):
        v = 1 + (m * word >> width)
        counts[v] = counts.get(v, 0) + 1
    return {v: Fraction(c, 1 << width) for v, c in counts.items()}


def murdoch_floor_even_count(words) -> int:
    """Even values of 1 + floor((2/5) * 2**32 * word / 2**32) = 1 + (2 word) // 5."""
    import numpy as np

    w = np.asarray(words, dtype=np.uint64)
    return int(np.count_nonzero(((2 * w) // 5) % 2 == 1))


def murdoch_floor_even_fraction() -> Fraction:
    """P(1 + floor(2w/5) even) over all 32-bit words, in closed form.

    floor(2w/5) runs 0,0,0,1,1 over each block of five words, so it is odd
    exactly when w mod 5 is 3 or 4: two words in each of the
    floor(2**32 / 5) whole blocks, plus those among the 2**32 mod 5 words
    of the last partial block.
    """
    blocks, tail = divmod(1 << 32, 5)
    return Fraction(2 * blocks + max(0, tail - 3), 1 << 32)


def uniform_even_fraction(m: int) -> Fraction:
    """P(even) for a uniform draw on {1..m}."""
    return Fraction(m // 2, m)


# ---------------------------------------------------------------------------
# Samplers, written out from their definitions


def shuffle(draw, n: int) -> list[int]:
    """Fisher-Yates: for i = n-1 .. 1 swap slot i with a uniform slot j <= i."""
    a = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = draw(i + 1) - 1
        a[i], a[j] = a[j], a[i]
    return a


def distinct_indices(draw, n: int, k: int) -> list[int]:
    """Draw on {1..n} until k distinct values are seen, in order of first sight."""
    picks: list[int] = []
    while len(picks) < k:
        v = draw(n)
        if v not in picks:
            picks.append(v)
    return picks


def cormen(draw, n: int, k: int) -> list[int]:
    """RandomSample(k, n): one draw i on {1..j} for j = n-k+1 .. n; keep j
    when i is already taken, else keep i."""
    chosen: list[int] = []
    for j in range(n - k + 1, n + 1):
        i = draw(j)
        chosen.append(j if i in chosen else i)
    return chosen


def reservoir(draw, stream, k: int) -> list:
    """Algorithm R: item t > k overwrites slot j when a draw j on {1..t} is <= k."""
    it = iter(stream)
    slots = list(itertools.islice(it, k))
    for t, item in enumerate(it, start=k + 1):
        j = draw(t)
        if j <= k:
            slots[j - 1] = item
    return slots


def sort_keep(next_word, n: int, k: int) -> list[int]:
    """Permute-and-keep-k: index i gets the next word; keep the k smallest
    keys, ties going to the smaller index."""
    keys = [(next_word(), i) for i in range(1, n + 1)]
    return [i for _, i in sorted(keys)[:k]]


# ---------------------------------------------------------------------------
# Exact references


def derangements(n: int) -> int:
    """D_n = sum_i (-1)^i n! / i!  (inclusion-exclusion)."""
    return sum((-1) ** i * (math.factorial(n) // math.factorial(i)) for i in range(n + 1))


def rencontres(n: int, j: int) -> int:
    """Permutations of n items with exactly j fixed points: C(n, j) D_{n-j}."""
    return math.comb(n, j) * derangements(n - j)


def uniform_subsets(n: int, k: int) -> dict[frozenset, Fraction]:
    p = Fraction(1, math.comb(n, k))
    return {frozenset(c): p for c in itertools.combinations(range(1, n + 1), k)}


def shuffle_prefix_distribution(n: int, k: int, masses) -> dict[frozenset, Fraction]:
    """Distribution of the first k slots of a Fisher-Yates shuffle of n
    when a draw on {1..m} takes value v with probability masses(m)[v]:
    every sequence of draws, weighted by the product of its masses."""
    tables = [sorted(masses(i + 1).items()) for i in range(n - 1, 0, -1)]
    out: dict[frozenset, Fraction] = {}
    for path in itertools.product(*tables):
        weight = Fraction(1)
        values = iter(v for v, _ in path)
        for _, p in path:
            weight *= p
        a = shuffle(lambda m: next(values), n)
        key = frozenset(a[:k])
        out[key] = out.get(key, Fraction(0)) + weight
    return out


def rounded(num: int, den: int, digits: int) -> Decimal:
    """num/den to `digits` significant digits, halves rounded up."""
    ctx = Context(prec=digits, rounding=ROUND_HALF_UP)
    return ctx.divide(Decimal(num), Decimal(den))


def pigeonhole_table() -> dict[str, tuple[int, int]]:
    """Every quantity of the pigeonhole table as an exact num/den pair,
    keyed by the size column the table prints."""
    rows: dict[str, tuple[int, int]] = {}
    for bits, name in ((32, "2^32"), (64, "2^64"), (128, "2^128"), (32 * 624, "2^(32*624)")):
        rows[name] = (1 << bits, 1)
    for n in (13, 21, 35, 2084):
        rows[f"{n}!"] = (math.factorial(n), 1)
    samples = {
        "C(50,10)": math.comb(50, 10),
        "C(500,10)": math.comb(500, 10),
        "C(500,25)": math.comb(500, 25),
        "C(3.9e8,1000)": math.comb(390_000_000, 1000),
    }
    for name, value in samples.items():
        rows[name] = (value, 1)
    for states, target in (
        ("2^32", "C(50,10)"),
        ("2^64", "C(500,10)"),
        ("2^128", "C(500,25)"),
        ("2^(32*624)", "C(3.9e8,1000)"),
    ):
        s, t = rows[states][0], rows[target][0]
        rows[f"{states} / {target}"] = (s, t) if s < t else (1, 1)
    return rows
