"""Deterministic pseudo-random word generators behind one interface.

Every generator is a finite-state machine that emits fixed-width unsigned
words.  Equal construction arguments always yield equal output sequences;
`clone()` snapshots the full state so two copies evolve identically.

A generator's words come from one iterator, its ``stream``.  ``next_word``,
``words``, ``fractions`` and the integer kernels all read from it, and
whoever reads words adds their number to ``words_emitted``.
"""

from __future__ import annotations

import copy
import hashlib
import math
import random
import struct
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, cycle, islice, repeat
from typing import Iterator

from .errors import ScriptedExhaustedError

__all__ = [
    "Seed",
    "LcgParams",
    "RANDU",
    "full_period",
    "Generator",
    "LcgGenerator",
    "WichmannHillGenerator",
    "Mt19937Generator",
    "HashCounterGenerator",
    "ScriptedGenerator",
    "digest_words",
    "VARIANTS",
    "seed_generator",
    "from_spec",
    "load_scripted",
    "load_seed",
]


# ---------------------------------------------------------------------------
# Seeds

@dataclass(frozen=True)
class Seed:
    """Seed material as raw bytes plus a lossless human-readable form.

    The human form is the UTF-8 text itself when the bytes decode to
    printable text (and would not be mistaken for the hex escape), and
    ``hex:<digits>`` otherwise.
    """

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes):
            raise TypeError("Seed.data must be bytes")

    @classmethod
    def from_text(cls, text: str) -> "Seed":
        return cls(text.encode("utf-8"))

    @classmethod
    def from_int(cls, value: int) -> "Seed":
        if value < 0:
            raise ValueError("integer seeds must be nonnegative")
        return cls.from_text(str(value))

    @classmethod
    def parse(cls, human: str) -> "Seed":
        if human.startswith("hex:"):
            return cls(bytes.fromhex(human[4:]))
        return cls.from_text(human)

    @property
    def human(self) -> str:
        try:
            text = self.data.decode("utf-8")
        except UnicodeDecodeError:
            return "hex:" + self.data.hex()
        if text and text.isprintable() and not text.startswith("hex:"):
            return text
        return "hex:" + self.data.hex()


# ---------------------------------------------------------------------------
# LCG parameters and the full-period predicate

@dataclass(frozen=True)
class LcgParams:
    """Constants of the recurrence x -> (a*x + c) mod m."""

    m: int
    a: int
    c: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus m must be >= 2")
        if not 0 < self.a < self.m:
            raise ValueError("multiplier a must satisfy 0 < a < m")
        if not 0 <= self.c < self.m:
            raise ValueError("increment c must satisfy 0 <= c < m")

    @property
    def width(self) -> int:
        # ceil(log2(m)): registers fit in this many bits
        return (self.m - 1).bit_length()


RANDU = LcgParams(m=2 ** 31, a=65539, c=0)


def full_period(params: LcgParams) -> bool:
    """Hull-Dobell test: does the LCG visit all m states from every seed?

    True iff c and m are coprime, every prime factor of m divides
    b = a - 1, and 4 divides b when it divides m.  The prime rule needs no
    factoring: dividing r = m by gcd(r, b) again and again reaches 1 iff
    every prime of m divides b, since each step takes at least one copy of
    every prime that r shares with b and a prime b lacks never leaves r.
    That is at most log2(m) gcds, exact for a modulus of any size.
    """
    a, c, m = params.a, params.c, params.m
    if math.gcd(c, m) != 1:
        return False
    b = a - 1
    if m % 4 == 0 and b % 4 != 0:
        return False
    r = m
    while r > 1:
        g = math.gcd(r, b)
        if g == 1:
            return False
        r //= g
    return True


# ---------------------------------------------------------------------------
# Generator interface

class Generator:
    """Base class for fixed-width word emitters.

    Subclasses set ``width`` and ``words_emitted`` and implement
    ``_start``, which sets ``stream`` to the words that follow the current
    state.  ``stream`` is the generator's single source of words: a reader
    that takes words from it directly adds their number to
    ``words_emitted`` (the integer kernels do so once per call).  The
    stream holds the state, never the generator itself: without that
    reference cycle a dropped generator is freed at once, not left to the
    cycle collector (audits drop tens of thousands per run).  A
    generator is advanced by exactly one logical thread at a time; frozen
    states may be read concurrently but no internal locking is provided.
    """

    width: int
    words_emitted: int
    stream: Iterator[int]

    def _start(self) -> None:
        raise NotImplementedError

    def next_word(self) -> int:
        word = next(self.stream)
        self.words_emitted += 1
        return word

    def fractions(self, count: int) -> list[float]:
        """The next ``count`` words normalized to [0, 1) as word / 2**width."""
        scale = 1 << self.width
        return [word / scale for word in self.words(count)]

    def words(self, count: int) -> list[int]:
        out: list[int] = []
        if count > 0:
            try:
                out.extend(islice(self.stream, count))
            finally:
                self.words_emitted += len(out)
        return out

    def clone(self) -> "Generator":
        """An independent copy at the same position: the state is copied
        and the copy's stream rebuilt from it."""
        twin = object.__new__(type(self))
        state = {key: value for key, value in vars(self).items() if key != "stream"}
        twin.__dict__.update(copy.deepcopy(state))
        twin._start()
        return twin

    def spec(self) -> dict:
        """Construction record sufficient to rebuild this generator from
        scratch (initial seed, not the current registers)."""
        raise NotImplementedError


def _lcg_words(p: LcgParams, x: list[int]):
    """The words that follow register x[0], kept in x[0] as they go."""
    a, c, m = p.a, p.c, p.m
    r = x[0]
    while True:
        r = (a * r + c) % m
        x[0] = r
        yield r


class LcgGenerator(Generator):
    """Linear congruential generator; each emitted word is the new register."""

    def __init__(self, params: LcgParams, seed: int):
        if not 0 <= seed < params.m:
            raise ValueError(f"seed must be in [0, {params.m})")
        self.params = params
        self.width = params.width
        self._seed = seed
        self._x = [seed]  # the register, shared with the stream
        self.words_emitted = 0
        self._start()

    @property
    def register(self) -> int:
        return self._x[0]

    def _start(self) -> None:
        self.stream = _lcg_words(self.params, self._x)

    def spec(self) -> dict:
        p = self.params
        return {"variant": "lcg", "m": p.m, "a": p.a, "c": p.c, "seed": self._seed}


WH_MODULI = (30269, 30307, 30323)
WH_MULTIPLIERS = (171, 172, 170)
_WH_D = WH_MODULI[0] * WH_MODULI[1] * WH_MODULI[2]


def _wh_advance(s: list[int]) -> int:
    """Advance the registers s and return the output as an exact
    numerator over the product of the three moduli."""
    for i in range(3):
        s[i] = WH_MULTIPLIERS[i] * s[i] % WH_MODULI[i]
    m1, m2, m3 = WH_MODULI
    return (s[0] * m2 * m3 + s[1] * m1 * m3 + s[2] * m1 * m2) % _WH_D


def _wh_words(s: list[int]):
    while True:
        # exact integer floor; no float rounding in the discretization
        yield _wh_advance(s) * (1 << 32) // _WH_D


class WichmannHillGenerator(Generator):
    """Sum of three multiplicative LCGs; native output is a fraction in [0, 1).

    ``fractions`` gives the native output, the exact register sum over the
    product of the moduli rounded once to a float.  ``next_word`` is a
    32-bit discretization, floor(fraction * 2**32); it loses the low-order
    part of the native resolution and is provided only so this generator
    fits the common word interface.  Each word or fraction advances the
    state once.
    """

    width = 32

    def __init__(self, seed: int | tuple[int, int, int]):
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError("scalar seed must be nonnegative")
            triple = tuple(1 + seed % (m - 1) for m in WH_MODULI)
        else:
            triple = tuple(seed)
        if len(triple) != 3 or any(
            not 1 <= s < m for s, m in zip(triple, WH_MODULI)
        ):
            raise ValueError(f"registers must satisfy 1 <= s_i < {WH_MODULI}")
        self._seed = seed if isinstance(seed, int) else triple
        self._s = list(triple)
        self.words_emitted = 0
        self._start()

    @property
    def registers(self) -> tuple[int, int, int]:
        return tuple(self._s)

    def _start(self) -> None:
        self.stream = _wh_words(self._s)

    def fractions(self, count: int) -> list[float]:
        s = self._s
        out = [_wh_advance(s) / _WH_D for _ in range(count)]
        self.words_emitted += len(out)
        return out

    def spec(self) -> dict:
        seed = self._seed if isinstance(self._seed, int) else list(self._seed)
        return {"variant": "wichmann_hill", "seed": seed}


class Mt19937Generator(Generator):
    """MT19937 with the standard multiplier-based initialization.

    Integer seeds are reduced modulo 2**32.  No burn-in is applied; the raw
    early output is part of what the audit tooling is meant to expose.

    The initialization runs here; the twist and the tempering are CPython's
    C implementation of the same reference algorithm, a private
    ``random.Random`` loaded with the initialized state, whose
    ``getrandbits(32)`` is the tempered word.  The stream calls it once
    per word; ``words(n)`` reads n words from the same state at once.
    """

    width = 32

    def __init__(self, seed: int = 5489):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self._seed = seed
        mt = [0] * 624
        mt[0] = seed & 0xFFFFFFFF
        for i in range(1, 624):
            mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & 0xFFFFFFFF
        # index 624: the first draw twists, as after init_genrand
        self._rng = random.Random()
        self._rng.setstate((3, (*mt, 624), None))
        self.words_emitted = 0
        self._start()

    def _start(self) -> None:
        self.stream = map(self._rng.getrandbits, repeat(32))

    def words(self, count: int) -> list[int]:
        # getrandbits(32 * count) fills its result with consecutive words,
        # least significant first
        if count <= 0:
            return []
        block = self._rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        self.words_emitted += count
        return list(struct.unpack(f"<{count}I", block))

    def spec(self) -> dict:
        return {"variant": "mt19937", "seed": self._seed}


# word width -> unpacker of a 256-bit digest into big-endian words that wide
_UNPACK_256 = {
    width: struct.Struct(f">{256 // width}{code}").unpack
    for width, code in ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
}


def _block_words(seed_bytes: bytes, width: int, hash_name: str):
    """counter -> all width-bit words of Hash(seed_bytes , "," , decimal(counter)).

    The seed prefix is hashed once, here; each block copies that state and
    hashes only its counter.  Words are cut from the digest
    most-significant-bits first; any remainder narrower than ``width`` is
    dropped.  The hash must have a 256-bit digest, and 1 <= width <= 256.
    """
    prefix = hashlib.new(hash_name, seed_bytes + b",")
    if prefix.digest_size != 32:
        raise ValueError(f"{hash_name} is not a 256-bit hash")
    if not 1 <= width <= 256:
        raise ValueError("width must be in [1, 256]")
    unpack = _UNPACK_256.get(width)
    if unpack is None:
        mask = (1 << width) - 1
        shifts = range(256 - width, -1, -width)

        def unpack(digest):
            value = int.from_bytes(digest, "big")
            return tuple((value >> s) & mask for s in shifts)

    def block(counter: int) -> tuple[int, ...]:
        h = prefix.copy()
        h.update(b"%d" % counter)
        return unpack(h.digest())

    return block


def digest_words(
    seed_bytes: bytes, counter: int, width: int = 32, hash_name: str = "sha256"
) -> tuple[int, ...]:
    """All width-bit words of Hash(seed_bytes , "," , decimal(counter)).

    The same block function a HashCounterGenerator stream reads, applied to
    one counter.  Pure function: equal arguments give equal words
    regardless of query order.
    """
    if counter < 0:
        raise ValueError("counter must be nonnegative")
    return _block_words(seed_bytes, width, hash_name)(counter)


class HashCounterGenerator(Generator):
    """Counter-mode PRNG over a 256-bit cryptographic hash.

    State is the seed string S plus the number of words emitted.  Output
    block i, floor(256 / width) words, is Hash(S + "," + str(i)); S is
    UTF-8 text, the separator a single ASCII comma, and i unpadded ASCII
    decimal.  The default hash is SHA-256; any hashlib algorithm with a
    32-byte digest may be swapped in at construction.  Output depends only
    on (S, i), never on query order.

    Each stream hashes S + "," once and keeps that hash state; a block
    copies it and hashes only str(i), as the stream reaches it (no
    read-ahead).
    """

    def __init__(
        self,
        seed: Seed | str | bytes | int,
        width: int = 32,
        hash_name: str = "sha256",
    ):
        if isinstance(seed, Seed):
            seed_obj = seed
        elif isinstance(seed, bytes):
            seed_obj = Seed(seed)
        elif isinstance(seed, int):
            seed_obj = Seed.from_int(seed)
        else:
            seed_obj = Seed.from_text(seed)
        if not seed_obj.data:
            raise ValueError("hash_counter seed must be nonempty")
        self.seed = seed_obj
        self.width = width
        self.hash_name = hash_name
        self.words_emitted = 0
        self._start()

    @property
    def counter(self) -> int:
        """Blocks hashed so far: the next block's counter value."""
        return -(-self.words_emitted // (256 // self.width))

    def _start(self) -> None:
        # the hash state lives in the stream's closure, never in vars(self),
        # which clone() deep-copies; _block_words checks the hash and width
        block = _block_words(self.seed.data, self.width, self.hash_name)
        # the blocks from the one holding word ``words_emitted`` on, that
        # block cut to its unread words
        first, offset = divmod(self.words_emitted, 256 // self.width)
        blocks = map(block, count(first))
        if offset:
            blocks = chain([next(blocks)[offset:]], blocks)
        self.stream = chain.from_iterable(blocks)

    def spec(self) -> dict:
        return {
            "variant": "hash_counter",
            "seed": self.seed.human,
            "width": self.width,
            "hash": self.hash_name,
        }


def _exhausted(total: int):
    raise ScriptedExhaustedError(f"scripted source exhausted after {total} words")


class ScriptedGenerator(Generator):
    """Replays a fixed word list, then raises ScriptedExhaustedError.

    Recycling never happens silently; pass ``cycles`` > 1 (or None for
    unbounded) to opt in to repeating the script.
    """

    def __init__(self, script: list[int], width: int, cycles: int | None = 1):
        if width < 1:
            raise ValueError("width must be >= 1")
        limit = 1 << width
        for w in script:
            if not 0 <= w < limit:
                raise ValueError(f"scripted word {w} does not fit in {width} bits")
        if cycles is not None and cycles < 1:
            raise ValueError("cycles must be >= 1 or None")
        self.script = list(script)
        self.width = width
        self.cycles = cycles
        self.words_emitted = 0
        self._start()

    def _start(self) -> None:
        script = self.script
        words = cycle(script) if self.cycles is None else chain.from_iterable(repeat(script, self.cycles))
        # past the end, every read raises
        total = len(script) * (self.cycles or 0)
        exhausted = iter(partial(_exhausted, total), None)
        self.stream = chain(islice(words, self.words_emitted, None), exhausted)

    def spec(self) -> dict:
        return {
            "variant": "scripted",
            "script": list(self.script),
            "width": self.width,
            "cycles": self.cycles,
        }


# ---------------------------------------------------------------------------
# Construction helpers

def _int_seed(seed):
    """An integer seed, read from text (decimal or 0x-prefixed) when it is one."""
    if not isinstance(seed, str):
        return seed
    try:
        return int(seed, 0)
    except ValueError:
        raise ValueError(f"this generator needs an integer seed, got {seed!r}") from None


def _lcg(seed, m=None, a=None, c=None, params: LcgParams | None = None) -> LcgGenerator:
    return LcgGenerator(params or LcgParams(m=m, a=a, c=c), _int_seed(seed))


def _hash_counter(seed, width: int = 32, hash: str = "sha256") -> HashCounterGenerator:
    # a text seed is in Seed.human form, as spec() records it
    return HashCounterGenerator(Seed.parse(seed) if isinstance(seed, str) else seed, width, hash)


# variant -> build(seed, **fields), where fields are the rest of the
# variant's spec() record; integer seeds may also be given as text
VARIANTS = {
    "lcg": _lcg,
    "wichmann_hill": lambda seed: WichmannHillGenerator(_int_seed(seed)),
    "mt19937": lambda seed: Mt19937Generator(_int_seed(seed)),
    "hash_counter": _hash_counter,
    "scripted": lambda seed, script, width, cycles=1: ScriptedGenerator(script, width, cycles),
}


def seed_generator(variant: str, seed, **fields) -> Generator:
    """Build a freshly seeded generator.

    variant: one of lcg | wichmann_hill | mt19937 | hash_counter | scripted.
    The keywords are the fields of the variant's spec() record: LCGs take
    m=, a=, c= (or params=LcgParams(...)), hash counters width= and hash=,
    scripted sources script=, width= and cycles= (and ignore the seed).
    """
    try:
        build = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown generator variant: {variant!r}") from None
    return build(seed, **fields)


def from_spec(spec: dict) -> Generator:
    """Rebuild a generator from the dict its ``spec()`` method produced."""
    fields = dict(spec)
    return seed_generator(fields.pop("variant"), fields.pop("seed", None), **fields)


# ---------------------------------------------------------------------------
# File formats

def load_scripted(path) -> ScriptedGenerator:
    """Read a scripted source file: a ``width=<w>`` header line followed by
    newline-delimited unsigned decimal words."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("width="):
        raise ValueError("scripted file must start with a width=<w> header")
    width = int(lines[0][len("width="):])
    script = [int(ln) for ln in lines[1:]]
    return ScriptedGenerator(script, width)


def load_seed(path) -> int:
    """Read a seed file: one hex (0x-prefixed) or decimal line; lines
    starting with ``#`` are comments."""
    payload = None
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if payload is not None:
            raise ValueError("seed file must contain exactly one value line")
        payload = ln
    if payload is None:
        raise ValueError("seed file contains no value")
    return int(payload, 16) if payload.lower().startswith("0x") else int(payload, 10)
