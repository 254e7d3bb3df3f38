import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randaudit.errors import ScriptedExhaustedError
from randaudit.generators import (
    RANDU,
    VARIANTS,
    HashCounterGenerator,
    LcgGenerator,
    LcgParams,
    Mt19937Generator,
    ScriptedGenerator,
    Seed,
    WichmannHillGenerator,
    digest_words,
    from_spec,
    full_period,
    load_scripted,
    load_seed,
    seed_generator,
)
from randaudit.integers import KERNELS

# First outputs of the reference MT19937 stream for the canonical seed,
# frozen from an independent implementation (numpy.random.RandomState).
MT_5489_FIRST_10 = [
    3499211612, 581869302, 3890346734, 3586334585, 545404204,
    4161255391, 3922919429, 949333985, 2715962298, 1323567403,
]


class TestLcg:
    def test_randu_first_word_is_forced(self):
        g = LcgGenerator(RANDU, 1)
        assert g.next_word() == 65539

    def test_randu_second_word_matches_big_integer_oracle(self):
        # 65539^2 mod 2^31 by exact arbitrary-precision arithmetic
        expected = 65539 ** 2 % 2 ** 31
        g = LcgGenerator(RANDU, 1)
        g.next_word()
        assert g.next_word() == expected == 393225

    def test_seed_is_identity_initialization(self):
        g = LcgGenerator(RANDU, 1)
        assert g.register == 1
        assert g.words_emitted == 0

    def test_seed_out_of_range(self):
        with pytest.raises(ValueError):
            LcgGenerator(RANDU, 2 ** 31)
        with pytest.raises(ValueError):
            LcgGenerator(RANDU, -1)

    def test_width_is_ceil_log2_m(self):
        assert LcgParams(m=2 ** 31, a=65539, c=0).width == 31
        assert LcgParams(m=256, a=5, c=1).width == 8
        assert LcgParams(m=100, a=21, c=1).width == 7

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LcgParams(m=1, a=1, c=0)
        with pytest.raises(ValueError):
            LcgParams(m=8, a=8, c=1)
        with pytest.raises(ValueError):
            LcgParams(m=8, a=3, c=8)


class TestFullPeriod:
    def test_known_cases(self):
        assert full_period(LcgParams(m=256, a=5, c=1)) is True
        assert full_period(RANDU) is False
        assert full_period(LcgParams(m=2, a=1, c=1)) is True

    def test_matches_a_factoring_oracle(self):
        from sympy import factorint

        def hull_dobell(m, a, c):
            b = a - 1
            return (
                math.gcd(c, m) == 1
                and all(b % p == 0 for p in factorint(m))
                and (m % 4 != 0 or b % 4 == 0)
            )

        rng = random.Random(2026)
        verdicts = []
        for i in range(10_000):
            m = rng.randrange(2, 1 << 20)
            if i % 2:
                # a - 1 a multiple of every prime of m (and of 4 when 4 | m)
                step = math.prod(factorint(m)) * (4 if m % 4 == 0 else 1)
                a = step * rng.randrange(m // step + 1) % m + 1
            else:
                a = rng.randrange(1, m)
            params = LcgParams(m=m, a=a, c=rng.randrange(m))
            verdicts.append(full_period(params))
            assert verdicts[-1] == hull_dobell(m, a, params.c), params
        assert 2_000 < sum(verdicts) < 8_000

    @pytest.mark.parametrize(
        "m, a, expected",
        [
            (2**61 - 1, 1, True),
            (2**61 - 1, 2**60, False),
            ((2**61 - 1) ** 2, 2**61, True),
            ((2**31 - 1) * (2**61 - 1), 1, True),
            ((2**31 - 1) * (2**61 - 1), (2**31 - 1) * 6 + 1, False),
            ((2**31 - 1) * (2**61 - 1) << 64, (2**31 - 1) * (2**61 - 1) * 4 + 1, True),
        ],
    )
    def test_large_prime_factors_decided_fast(self, m, a, expected):
        start = time.perf_counter()
        assert full_period(LcgParams(m=m, a=a, c=1)) is expected
        assert time.perf_counter() - start < 0.01

    def test_full_period_params_orbit_covers_all_states(self):
        params = LcgParams(m=256, a=5, c=1)
        g = LcgGenerator(params, 17)
        seen = {g.register}
        for _ in range(params.m):
            seen.add(g.next_word())
        assert len(seen) == params.m

    def test_full_period_orbit_at_the_2_16_ceiling(self):
        params = LcgParams(m=1 << 16, a=5, c=1)
        assert full_period(params)
        g = LcgGenerator(params, 12345)
        seen = set()
        x = 12345
        for _ in range(params.m):
            seen.add(x)
            x = g.next_word()
        assert len(seen) == params.m and x == 12345

    @given(
        m=st.integers(min_value=2, max_value=512),
        a=st.integers(min_value=1, max_value=511),
        c=st.integers(min_value=0, max_value=511),
        start=st.integers(min_value=0, max_value=511),
    )
    @settings(max_examples=150, deadline=None)
    def test_predicate_matches_exhaustive_orbit(self, m, a, c, start):
        # Hull-Dobell is necessary and sufficient: the predicate agrees with
        # literally iterating the recurrence from an arbitrary start
        if not (a < m and c < m and start < m):
            return
        params = LcgParams(m=m, a=a, c=c)
        g = LcgGenerator(params, start)
        seen = set()
        x = start
        for _ in range(m):
            seen.add(x)
            x = g.next_word()
        covers = len(seen) == m and x == start
        assert full_period(params) == covers


class TestWichmannHill:
    def test_first_step_from_unit_triple(self):
        g = WichmannHillGenerator((1, 1, 1))
        [f] = g.fractions(1)
        assert g.registers == (171, 172, 170)
        assert f == pytest.approx(0.0169309, abs=5e-8)

    def test_word_is_floor_of_fraction(self):
        a = WichmannHillGenerator((1, 1, 1))
        b = WichmannHillGenerator((1, 1, 1))
        word = a.next_word()
        [frac] = b.fractions(1)
        assert word == math.floor(frac * 2 ** 32) or abs(word / 2 ** 32 - frac) < 2 ** -32

    def test_scalar_seed_expansion_is_deterministic(self):
        a = WichmannHillGenerator(12345)
        b = WichmannHillGenerator(12345)
        assert a.registers == b.registers

    def test_register_validation(self):
        with pytest.raises(ValueError):
            WichmannHillGenerator((0, 1, 1))
        with pytest.raises(ValueError):
            WichmannHillGenerator((1, 30307, 1))


class TestMt19937:
    def test_first_word_from_default_seed(self):
        assert Mt19937Generator(5489).next_word() == 3499211612

    def test_first_ten_words(self):
        g = Mt19937Generator(5489)
        assert [g.next_word() for _ in range(10)] == MT_5489_FIRST_10

    def test_matches_independent_reference_for_1000_words(self):
        np = pytest.importorskip("numpy")
        ref = np.random.RandomState(5489).randint(0, 2 ** 32, size=1000, dtype=np.uint64)
        assert Mt19937Generator(5489).words(1000) == list(ref)

    def test_batch_words_equal_repeated_next_word(self):
        a = Mt19937Generator(99)
        b = Mt19937Generator(99)
        assert a.words(1500) == [b.next_word() for _ in range(1500)]

    def test_seed_reduced_mod_2_32(self):
        a = Mt19937Generator(7)
        b = Mt19937Generator(7 + 2 ** 32)
        assert a.words(5) == b.words(5)


class TestHashCounter:
    def test_initial_state(self):
        g = HashCounterGenerator("abc")
        assert g.counter == 0
        assert g.words_emitted == 0

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            HashCounterGenerator("")

    def test_digest_words_is_pure(self):
        assert digest_words(b"S", 0) == digest_words(b"S", 0)
        assert digest_words(b"S", 0) != digest_words(b"S", 1)

    def test_eight_32_bit_words_per_digest_then_counter_advances(self):
        g = HashCounterGenerator("abc")
        first_eight = [g.next_word() for _ in range(8)]
        assert first_eight == list(digest_words(b"abc", 0))
        assert g.counter == 1
        assert g.next_word() == digest_words(b"abc", 1)[0]
        assert g.counter == 2

    def test_output_independent_of_query_order(self):
        # stateless: block 5 is the same whether or not blocks 0..4 were read
        direct = digest_words(b"xyz", 5)
        g = HashCounterGenerator("xyz")
        streamed = g.words(6 * 8)[5 * 8 :]
        assert list(direct) == streamed

    def test_batch_words_equal_repeated_next_word(self):
        # start mid-block so the batch spans digest-block boundaries
        a = HashCounterGenerator("batch")
        first = a.next_word()
        rest = a.words(21)
        b = HashCounterGenerator("batch")
        assert [first] + rest == [b.next_word() for _ in range(22)]

    def test_nondefault_width(self):
        g = HashCounterGenerator("abc", width=16)
        ws = g.words(16)
        assert all(0 <= w < 2 ** 16 for w in ws)
        assert g.counter == 1
        assert ws == list(digest_words(b"abc", 0, width=16))

    def test_hash_switch(self):
        g = HashCounterGenerator("abc", hash_name="sha3_256")
        h = HashCounterGenerator("abc", hash_name="sha256")
        assert g.next_word() != h.next_word()
        with pytest.raises(ValueError):
            HashCounterGenerator("abc", hash_name="sha512")

    def test_avalanche_between_adjacent_counters(self):
        import random as pyrand

        rng = pyrand.Random(1)
        n_seeds = 1000
        total = 0
        for _ in range(n_seeds):
            s = bytes(rng.randrange(256) for _ in range(16))
            w0 = digest_words(s, 0, width=256)[0]
            w1 = digest_words(s, 1, width=256)[0]
            total += bin(w0 ^ w1).count("1")
        mean = total / n_seeds
        assert abs(mean - 128) <= 5


HASH_WIDTHS = [1, 5, 8, 12, 16, 32, 64, 256]
HASH_NAMES = ["sha256", "sha3_256", "blake2s"]


def hashlib_words(seed: bytes, width: int, hash_name: str, count: int) -> list[int]:
    """The first ``count`` words of a hash counter, from hashlib alone: each
    block is the whole digest of seed + "," + decimal counter, cut into
    width-bit words from the top, with any narrower remainder dropped."""
    per_block = 256 // width
    out = []
    for counter in range(-(-count // per_block)):
        digest = hashlib.new(hash_name, seed + b"," + str(counter).encode()).digest()
        bits = format(int.from_bytes(digest, "big"), "0256b")
        out += [int(bits[j * width : (j + 1) * width], 2) for j in range(per_block)]
    return out[:count]


class TestDigestWords:
    """digest_words is the generator's block function: the same words, and
    the same refusals."""

    @pytest.mark.parametrize("hash_name", HASH_NAMES)
    @pytest.mark.parametrize("width", HASH_WIDTHS)
    def test_block_i_against_hashlib(self, width, hash_name):
        per_block = 256 // width
        reference = hashlib_words(b"digest", width, hash_name, 3 * per_block)
        for i in range(3):
            block = reference[i * per_block : (i + 1) * per_block]
            assert list(digest_words(b"digest", i, width, hash_name)) == block

    @pytest.mark.parametrize(
        "width, hash_name, message",
        [
            (0, "sha256", "width must be in"),
            (-1, "sha256", "width must be in"),
            (257, "sha256", "width must be in"),
            (32, "md5", "md5 is not a 256-bit hash"),
            (32, "sha512", "sha512 is not a 256-bit hash"),
        ],
    )
    def test_refuses_what_the_generator_refuses(self, width, hash_name, message):
        with pytest.raises(ValueError, match=message):
            HashCounterGenerator("x", width=width, hash_name=hash_name)
        with pytest.raises(ValueError, match=message):
            digest_words(b"x", 0, width=width, hash_name=hash_name)


# read n words from gen and return them: one words(n) call, n next_word()
# calls, or n draws on {1..2^width} by a kernel, each of which reads one
# word and returns it plus 1
READS = {
    "words": lambda gen, n: gen.words(n),
    "next": lambda gen, n: [gen.next_word() for _ in range(n)],
    "floor": lambda gen, n: [v - 1 for v in KERNELS["floor"](gen, [1 << gen.width] * n)],
    "mask": lambda gen, n: [v - 1 for v in KERNELS["mask"](gen, [1 << gen.width] * n)],
}


class TestInterleavedCalls:
    """words(n), next_word() and kernel draws mixed in one stream, around
    MT's 624-word state and the hash counter's digest blocks, against
    references that share no code with the generators."""

    # (read, n) reads n words through READS[read]; the words(0) after
    # ("next", 3) sits inside a partly read block
    STEPS = [
        ("next", 3), ("words", 0), ("words", 1), ("words", 623), ("next", 1),
        ("words", 624), ("words", 0), ("words", 625), ("next", 2), ("words", 1249),
        ("words", 0), ("next", 1), ("floor", 5), ("mask", 0), ("mask", 7), ("floor", 630),
        ("mask", 625), ("next", 1),
    ]
    TOTAL = sum(n for _, n in STEPS)
    CLONE_AFTER = 3  # after 627 words: mid-state for MT, mid-block for every hash width but 256

    def check(self, gen, reference, blocks_for=None):
        out = []
        for i, (read, n) in enumerate(self.STEPS):
            out += READS[read](gen, n)
            assert gen.words_emitted == len(out)
            if blocks_for:
                assert gen.counter == blocks_for(len(out))
            if i == self.CLONE_AFTER:
                twin = gen.clone()
                assert twin.words(self.TOTAL - len(out)) == reference[len(out):]
                assert twin.words_emitted == self.TOTAL
        assert out == reference

    @pytest.mark.parametrize("seed", [0, 5489, 2 ** 32 - 1, 2 ** 32 + 5])
    def test_mt19937_against_randomstate(self, seed):
        np = pytest.importorskip("numpy")
        ref = np.random.RandomState(seed % 2 ** 32).randint(0, 2 ** 32, size=self.TOTAL, dtype=np.uint64)
        self.check(Mt19937Generator(seed), ref.tolist())

    @pytest.mark.parametrize("width", HASH_WIDTHS)
    def test_hash_counter_against_hashlib(self, width):
        per_block = 256 // width
        for hash_name in HASH_NAMES:
            reference = hashlib_words(b"interleave", width, hash_name, self.TOTAL)
            gen = HashCounterGenerator("interleave", width=width, hash_name=hash_name)
            self.check(gen, reference, lambda words: -(-words // per_block))


class TestCursor:
    """The hash counter's position is words_emitted alone: counter and
    clone() are derived from it at every offset."""

    @pytest.mark.parametrize("hash_name", HASH_NAMES)
    @pytest.mark.parametrize("width", HASH_WIDTHS)
    def test_counter_and_clone_at_every_offset(self, width, hash_name):
        per_block = 256 // width
        reference = hashlib_words(b"cursor", width, hash_name, 5 * per_block)
        # every offset through three blocks: each side of two block boundaries
        for offset in range(3 * per_block + 1):
            gen = HashCounterGenerator("cursor", width=width, hash_name=hash_name)
            # reach the offset through all four readers
            quarter = offset // 4
            parts = zip(READS, (offset - 3 * quarter, quarter, quarter, quarter))
            assert sum((READS[read](gen, n) for read, n in parts), []) == reference[:offset]
            counter = -(-offset // per_block)
            assert gen.counter == counter
            twin = gen.clone()
            assert twin.counter == counter
            assert twin.words(per_block + 1) == reference[offset : offset + per_block + 1]
            assert twin.counter == -(-(offset + per_block + 1) // per_block)
            # the clone shares no hash state: the original did not move
            assert gen.counter == counter
            assert gen.next_word() == reference[offset]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_mid_stream_clone(self, variant):
        make = GENERATOR_PER_VARIANT[variant]
        expected = make().words(8)
        gen = make()
        gen.words(3)
        twin = gen.clone()
        assert gen.words(2) == expected[3:5]
        assert twin.words_emitted == 3
        assert twin.words(5) == expected[3:8]
        assert gen.words(3) == expected[5:8]
        assert twin.words_emitted == gen.words_emitted == 8


class TestScripted:
    def test_emits_in_order_then_errors(self):
        g = ScriptedGenerator([3, 1, 4], width=3)
        assert [g.next_word() for _ in range(3)] == [3, 1, 4]
        with pytest.raises(ScriptedExhaustedError):
            g.next_word()

    def test_explicit_cycles(self):
        g = ScriptedGenerator([1, 2], width=2, cycles=2)
        assert [g.next_word() for _ in range(4)] == [1, 2, 1, 2]
        with pytest.raises(ScriptedExhaustedError):
            g.next_word()

    def test_unbounded_cycles(self):
        g = ScriptedGenerator([7], width=3, cycles=None)
        assert [g.next_word() for _ in range(5)] == [7] * 5

    def test_width_validation(self):
        with pytest.raises(ValueError):
            ScriptedGenerator([8], width=3)
        # a width-0 word adds no bits, so a mask draw of it would never end
        for width in (0, -1):
            with pytest.raises(ValueError, match="width must be >= 1"):
                ScriptedGenerator([0], width=width, cycles=None)
            with pytest.raises(ValueError, match="width must be >= 1"):
                from_spec({"variant": "scripted", "script": [0], "width": width, "cycles": None})


# one generator per VARIANTS entry; three 12-bit hash-counter words leave
# a partly read block
GENERATOR_PER_VARIANT = {
    "lcg": lambda: LcgGenerator(RANDU, 1),
    "wichmann_hill": lambda: WichmannHillGenerator((7, 8, 9)),
    "mt19937": lambda: Mt19937Generator(4357),
    "hash_counter": lambda: HashCounterGenerator("count", width=12),
    "scripted": lambda: ScriptedGenerator(list(range(8)), width=3),
}


class TestDeterminismAndCloning:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LcgGenerator(RANDU, 1),
            lambda: WichmannHillGenerator((7, 8, 9)),
            lambda: Mt19937Generator(4357),
            lambda: HashCounterGenerator("determinism"),
        ],
        ids=["lcg", "wh", "mt", "hash"],
    )
    def test_equal_seeds_give_equal_10k_sequences(self, make):
        a, b = make(), make()
        assert a.words(10 ** 4) == b.words(10 ** 4)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_nonpositive_count_changes_nothing(self, variant):
        g = GENERATOR_PER_VARIANT[variant]()
        g.words(3)
        ref = g.clone()
        for count in (0, -1, -5):
            assert g.words(count) == []
        assert g.words_emitted == ref.words_emitted == 3
        assert getattr(g, "counter", None) == getattr(ref, "counter", None)
        assert g.words(5) == ref.words(5)

    def test_clone_advances_independently(self):
        g = Mt19937Generator(1)
        g.words(700)
        c = g.clone()
        assert g.words(50) == c.words(50)
        g.next_word()
        assert g.words_emitted == c.words_emitted + 1

    def test_spec_roundtrip(self):
        for g in (
            LcgGenerator(RANDU, 1),
            WichmannHillGenerator((7, 8, 9)),
            Mt19937Generator(4357),
            HashCounterGenerator("abc"),
            ScriptedGenerator([1, 2, 3], width=2),
        ):
            rebuilt = from_spec(g.spec())
            assert rebuilt.words(3) == g.words(3)

    def test_seed_generator_factory(self):
        g = seed_generator("lcg", 1, params=RANDU)
        assert g.next_word() == 65539
        g = seed_generator("mt19937", 5489)
        assert g.next_word() == 3499211612
        g = seed_generator("hash_counter", "abc")
        assert g.counter == 0
        with pytest.raises(ValueError):
            seed_generator("xkcd221", 4)


# fractions(count) read in this order: across MT's 624-word twists and
# across hash-counter blocks, starting inside a block and ending inside one
FRACTION_SPLITS = [3, 0, 1, 620, 5, 624, 2, 1249, 7]

# every word family, the hash counter at widths that cut its digest with
# and without struct, and at widths wider than a double's mantissa
FRACTION_GENERATORS = {
    "lcg": lambda: LcgGenerator(RANDU, 1),
    "mt19937": lambda: Mt19937Generator(4357),
    **{
        f"hash_counter/{w}": lambda w=w: HashCounterGenerator("fractions", width=w)
        for w in (1, 5, 12, 32, 64, 256)
    },
    "scripted": lambda: ScriptedGenerator(list(range(8)), width=3, cycles=None),
}


class TestFractions:
    @pytest.mark.parametrize("name", sorted(FRACTION_GENERATORS))
    def test_fractions_are_words_over_2_to_the_width(self, name):
        gen = FRACTION_GENERATORS[name]()
        ref = gen.clone()
        for count in FRACTION_SPLITS:
            before = gen.words_emitted
            assert gen.fractions(count) == [ref.next_word() / 2 ** ref.width for _ in range(count)]
            assert gen.words_emitted == before + count
        assert gen.fractions(1)[0] == ref.next_word() / 2 ** ref.width
        assert gen.words(5) == ref.words(5)

    def test_wichmann_hill_fractions_are_native(self):
        moduli, multipliers = (30269, 30307, 30323), (171, 172, 170)
        registers = [7, 8, 9]
        gen = WichmannHillGenerator(tuple(registers))

        def native():
            # (s1/m1 + s2/m2 + s3/m3) mod 1, exactly, for the next registers
            for i in range(3):
                registers[i] = multipliers[i] * registers[i] % moduli[i]
            return sum(Fraction(s, m) for s, m in zip(registers, moduli)) % 1

        for count in FRACTION_SPLITS:
            before = gen.words_emitted
            assert gen.fractions(count) == [float(native()) for _ in range(count)]
            assert gen.words_emitted == before + count
            # the word interface continues the same register sequence
            assert gen.next_word() == math.floor(native() * 2 ** 32)
        assert gen.fractions(1)[0] == float(native())
        assert gen.registers == tuple(registers)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_nonpositive_count_returns_nothing(self, variant):
        gen = GENERATOR_PER_VARIANT[variant]()
        gen.words(3)
        ref = gen.clone()
        for count in (0, -1, -5):
            assert gen.fractions(count) == []
        assert gen.words_emitted == 3
        assert gen.words(5) == ref.words(5)

    def test_exhausted_script_settles_the_words_read(self):
        gen = ScriptedGenerator([1, 2, 3], width=2)
        with pytest.raises(ScriptedExhaustedError):
            gen.fractions(5)
        assert gen.words_emitted == 3


class TestSeed:
    @given(st.text(min_size=1).filter(lambda s: s.isprintable()))
    def test_text_roundtrip(self, text):
        s = Seed.from_text(text)
        assert Seed.parse(s.human) == s

    @given(st.binary(min_size=1))
    def test_bytes_roundtrip(self, data):
        s = Seed(data)
        assert Seed.parse(s.human).data == data

    def test_int_seed_is_decimal_text(self):
        assert Seed.from_int(123456).human == "123456"
        with pytest.raises(ValueError):
            Seed.from_int(-1)

    def test_hex_prefixed_text_is_not_misparsed(self):
        s = Seed.from_text("hex:cafe")
        assert Seed.parse(s.human).data == b"hex:cafe"


class TestFileFormats:
    def test_scripted_file(self, tmp_path):
        p = tmp_path / "words.txt"
        p.write_text("width=8\n12\n255\n0\n")
        g = load_scripted(p)
        assert g.width == 8
        assert [g.next_word() for _ in range(3)] == [12, 255, 0]

    def test_scripted_file_needs_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("12\n255\n")
        with pytest.raises(ValueError):
            load_scripted(p)

    def test_seed_file_decimal_and_hex(self, tmp_path):
        p = tmp_path / "seed.txt"
        p.write_text("# a comment\n12345\n")
        assert load_seed(p) == 12345
        p.write_text("# c\n0x;\n".replace(";", "ff"))
        assert load_seed(p) == 255

    def test_seed_file_rejects_multiple_values(self, tmp_path):
        p = tmp_path / "seed.txt"
        p.write_text("1\n2\n")
        with pytest.raises(ValueError):
            load_seed(p)
