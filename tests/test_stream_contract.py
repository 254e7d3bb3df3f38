"""The stream contract: SHA-256 digests of words, samples, reports and CLI
output that every version must reproduce bit for bit.

A refactor must leave every digest here unchanged.  Changing one is a
deliberate stream-version change and is recorded in CHANGES.md together
with the new digest.

The vitter_z case runs a 4,400-record stream, far longer than the
streams the exact path enumeration covers (n <= 8), so it pins the skip
walk's float products bit for bit over long skips.
"""

import contextlib
import hashlib
import io
import json
import re
from dataclasses import asdict

import pytest

from randaudit import audit
from randaudit.cli import main
from randaudit.generators import (
    RANDU,
    HashCounterGenerator,
    LcgGenerator,
    LcgParams,
    Mt19937Generator,
    WichmannHillGenerator,
)
from randaudit.integers import METHODS, RandomSource, exact_distribution
from randaudit.pathenum import ENUMERABLE_ALGORITHMS, exact_permutation_distribution, exact_subset_distribution
from randaudit.sampling import ALGORITHMS, SampleSpec

WORDS = 10 ** 5


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sample_lines(samples) -> str:
    return "\n".join(
        f"{list(s.items)} {s.words} {s.draws} {s.bits} {s.short}" for s in samples
    )


GENERATORS = {
    "randu": lambda: LcgGenerator(RANDU, 1),
    "wichmann_hill": lambda: WichmannHillGenerator(1),
    "mt19937": lambda: Mt19937Generator(5489),
    "hash_counter": lambda: HashCounterGenerator("stream-contract"),
}

WORD_DIGESTS = {
    "hash_counter": "ab738e3019cad0adfec1b7f4d3fb40e46f62843e3333696f5688cc4e65050cb6",
    "mt19937": "e9b227f1c63b888fb98137969df38cb9712b536e982fd60c1d9f2ab111421a81",
    "randu": "210635df03999c6aad58c5110f2b57a527e69f3b245896458866c025bae65d1b",
    "wichmann_hill": "b1e0ca1eec23c235e1f6b920b1024d6978b5465a9601eb9b6322cd5dd5504a01",
}


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_first_words(family):
    words = GENERATORS[family]().words(WORDS)
    assert sha(",".join(map(str, words))) == WORD_DIGESTS[family]


# hash-counter words at the widths that cut a digest with struct (8, 16,
# 32 and 64 are struct codes; 1 and 12 are not), the full-digest width,
# and the other 256-bit hashes
HASH_WORDS = 300

HASH_WORD_DIGESTS = {
    (1, "sha256"): "113347aac5fa753f04ea7a04709a3c2a46b59ff71ad28cf71325d45276ad0f4c",
    (12, "sha256"): "14a130a341197f560d853f261b71e0365d1f97438b89c751f4c0d55fbaa15afd",
    (64, "sha256"): "a35f6672c6dcb2c28f47bbae0fa8e7438a03f205f2e62f21be4019c68bb4e4f0",
    (256, "sha256"): "411226d6c6c1602f7a069750f7df271746cc20a10c8c7d19a2c5d52dc568a83f",
    (32, "sha3_256"): "296186ddfed19a21f244fb597bd916c75f6154229df469c14a00339685901f71",
    (32, "blake2s"): "71ddd1d9dd1770f454aee37f5769bc70d15b0dd7620cf7859e22b13465706278",
}


@pytest.mark.parametrize("width, hash_name", sorted(HASH_WORD_DIGESTS))
def test_hash_counter_words(width, hash_name):
    words = HashCounterGenerator("contract:width", width, hash_name).words(HASH_WORDS)
    assert sha(",".join(map(str, words))) == HASH_WORD_DIGESTS[width, hash_name]


SAMPLE_N, SAMPLE_K, SAMPLE_RUNS = 20, 5, 100

SAMPLE_DIGESTS = {
    ("cormen", "floor"): "db87c030feac107acb8cbd90d4c0fa2877fcc960e98dc3531d0a717af91f9b9b",
    ("cormen", "mask"): "b9ff5541b41a440598e3fc905711af1aad3789c03cb8b558f1fd2f379473b5e2",
    ("cormen", "round"): "f9b705265cb28ad433a73d2831ea45246d0d791f8311252efde69143f4461fec",
    ("fisher_yates", "floor"): "e65512cac50942da847a478caf69488e354b45b0176f685afc4462a2eecb0a5d",
    ("fisher_yates", "mask"): "5a6ac54240a82855b45b33623ab15f81c1c208f52d78ca9eb7f93bb008588151",
    ("fisher_yates", "round"): "e6e0403da435c6187beec3614bfbb4c2af471d9c7ddf6a1a6570f7cb81a26b4a",
    ("pikk", "floor"): "515620832546b4a4ad93e836f178dcf7b233d6541356607c1f194fab80496382",
    ("pikk", "mask"): "e2d798ec40941a2ef38ca6bbce82306abafd15ac88a3255e9e487d1d458bab34",
    ("pikk", "round"): "b2ba866149e560e9dfd1232e6f8e2f7a6713469267d84ba02ffb18743463cec7",
    ("random_indices", "floor"): "dd0c8944f922c4160e92b8cff8af25a8b38ba81c44982d09d0af2cd5606cd9d3",
    ("random_indices", "mask"): "b79db5d9e4ca70791cd5dcebf23a997361fecf254ec2591ebb48cccbeabd9e55",
    ("random_indices", "round"): "387d6625601fd308ed10b55c834fa15c8faa5d10dfcb619aa6f62e4791d711f4",
    ("reservoir_r", "floor"): "96b8bc9102c2a68b2b872e020f93a7b0a52a0419ab360424fc5ef2de539764ff",
    ("reservoir_r", "mask"): "0cde342a423b5fc87431822406ec18fc61b96cc2ac50cfa6a5c31efd1dbd2f80",
    ("reservoir_r", "round"): "7d8e7aa4d4250b5658637087dae09ca18e14e690d12de81cd0da086345eb2217",
    ("vitter_z", "floor"): "28158b8e00be282798c3e2162784b1c7a950052da7547285b95b191ca50332d4",
    ("vitter_z", "mask"): "b689709de4a82956218ba3426a24063527b5d8ad8ed9ffb7fbca90e499f6a1f0",
    ("vitter_z", "round"): "ab0e23c833609befd24f1c914eee4964ec4a7973b25410c124c097e7578495c0",
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_samples(algorithm, method):
    source = RandomSource(HashCounterGenerator(f"contract:{algorithm}:{method}"), method)
    spec = SampleSpec(SAMPLE_N, SAMPLE_K, algorithm=algorithm)
    samples = [spec.run(source) for _ in range(SAMPLE_RUNS)]
    assert sha(sample_lines(samples)) == SAMPLE_DIGESTS[algorithm, method]


# pikk on every generator family at k = 0, 5 and n: the hash counter at
# width 4 has 16 key values for 20 items, so ties are certain and the
# index tie-break is pinned; Wichmann-Hill keys are its native fractions
PIKK_GENERATORS = {
    "hash_counter/4": lambda: HashCounterGenerator("contract:pikk", width=4),
    "wichmann_hill": lambda: WichmannHillGenerator(11),
    "mt19937": lambda: Mt19937Generator(2718),
    "randu": lambda: LcgGenerator(RANDU, 1),
}

PIKK_DIGESTS = {
    ("hash_counter/4", 0): "520c2d74966c52c5aa251f13ee93eb8aa2ce387ba3da453b4216a5dbb51c6178",
    ("hash_counter/4", 5): "e63ac6f8f0f4eaef7809db957608c8643a888b677501070cf6202c5efda3ee03",
    ("hash_counter/4", 20): "7ebbd029bb1f5e3123decbc038bcfd2eba8d37abd0dd8a0eb11d161db47b8672",
    ("mt19937", 0): "161641d61d6619934b72cafcaf4d86d53af0eb0739fe7777c8ecee74b3409de5",
    ("mt19937", 5): "c7ac60ad764967c2511bdfca9876478b3742177bad1d33fc77951ec7a204fd0a",
    ("mt19937", 20): "04514451bdc43ea4bce0dcb027a0b82a76da2ea90b83affa4fda7fcf4edc36f1",
    ("randu", 0): "f81804562bd102b1224bd85fb2ba4eb2b1d4d7b0dcd6e25536f70daf9e15cebd",
    ("randu", 5): "36813a4c7e828489c1cb0441272a47fd5089ce83a4e9a7333a4c5623acb3b6d5",
    ("randu", 20): "a1b28febbf4c2c75eef556f0c1b67d1549cc2b3d30f61c41ab25a971661ca645",
    ("wichmann_hill", 0): "161641d61d6619934b72cafcaf4d86d53af0eb0739fe7777c8ecee74b3409de5",
    ("wichmann_hill", 5): "f96940d425981c32a47af5957a8410db3a75b4f44299f79a18ae8c1bb3e90522",
    ("wichmann_hill", 20): "68f9d54e5e13f071e2e3c6213a699cebdb5915e09057051f452bf4d8e0a91e1b",
}


@pytest.mark.parametrize("k", [0, SAMPLE_K, SAMPLE_N])
@pytest.mark.parametrize("family", sorted(PIKK_GENERATORS))
def test_pikk_samples(family, k):
    source = RandomSource(PIKK_GENERATORS[family]())
    samples = [SampleSpec(SAMPLE_N, k, algorithm="pikk").run(source) for _ in range(SAMPLE_RUNS)]
    assert sha(sample_lines(samples)) == PIKK_DIGESTS[family, k]


VITTER_Z_DIGEST = "28232c0d9cd9d304777090bc572b49de3238d5fdaae598c07f77e2ef3413f1f9"


def test_vitter_z_long_stream():
    k = 10
    stream = range(1, 20 * 22 * k + 1)
    source = RandomSource(HashCounterGenerator("contract:vitter_z:z-phase"))
    samples = [SampleSpec(None, k, algorithm="vitter_z").run(source, stream) for _ in range(5)]
    assert sha(sample_lines(samples)) == VITTER_Z_DIGEST


EXPERIMENTS = {
    "murdoch": lambda: audit.murdoch_experiment(Mt19937Generator(42), "floor", 10 ** 5),
    "murdoch_mask": lambda: audit.murdoch_experiment(
        HashCounterGenerator("contract:murdoch"), "mask", 10 ** 5
    ),
    "murdoch_floor_hash": lambda: audit.murdoch_experiment(
        HashCounterGenerator("contract:murdoch-floor"), "floor", 10 ** 5
    ),
    # mask draws on the per-word MT19937 stream
    "murdoch_mask_mt": lambda: audit.murdoch_experiment(Mt19937Generator(42), "mask", 10 ** 5),
    "coverage": lambda: audit.permutation_coverage(LcgParams(m=64, a=5, c=1), 4),
    "derangement": lambda: audit.derangement_test(HashCounterGenerator("contract:d"), 7, 10 ** 4),
    "spearman": lambda: audit.spearman_test(WichmannHillGenerator(5), 4, 10 ** 4),
    "sample_frequency": lambda: audit.sample_frequency_test(
        LcgGenerator(RANDU, 3), 5, 2, 1000, "fisher_yates", "floor", 0.01
    ),
    "calibration": lambda: audit.calibration(base_seed="contract", repetitions=1),
}

REPORT_DIGESTS = {
    "calibration": "d09284d45cb80a363c7be42297405be13fb306b6407ec9043e4e9a84ce20289e",
    "coverage": "2ef067affecca32d391eb94c9ee4ba72050b8c55bad59b61d077a3a1fbc294a6",
    "derangement": "21e949b4b0b9fe2d90afad3aba38adbe8223873d057aaaeeda0175b0df65aae3",
    "murdoch": "5ef1373234e6daef9338e4d5485ffbaad2d5f3de7943dcfcfa1d1d3600eee153",
    "murdoch_floor_hash": "ed5befbc41de3209c3bb425a3e9dd792be9f796449142e30afde64c30febea1e",
    "murdoch_mask": "60188d903e543744933d7c4de7aee0cff9fb24dc2c7acb457b2789c195b8add7",
    "murdoch_mask_mt": "8bc16cc4ffa3cbbdbc5badd47d403c84f75887b878bab7841eebdea733cd58f7",
    "sample_frequency": "1655a365c91f1263407d09de9e0d5d535d096b14c691af0c9510e1bcff1f1275",
    "spearman": "4fac4e76638257b23daef571f739cef7979454bd73a6848d4862a49c3e48fe4b",
}


def report_text(report) -> str:
    fields = asdict(report)
    fields.pop("duration_s")
    return json.dumps(fields, sort_keys=True)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_reports(name):
    assert sha(report_text(EXPERIMENTS[name]())) == REPORT_DIGESTS[name]


COMMANDS = {
    "gen": [
        "gen", "--prng", "wh", "--seed", "3", "--as", "integers",
        "--int-range", "1000", "--method", "round", "--count", "200",
    ],
    "sample": [
        "sample", "--prng", "lcg", "--a", "65539", "--c", "0", "--m", "2147483648",
        "--seed", "1", "--n", "1000", "--k", "20", "--algo", "cormen", "--method", "floor",
    ],
    "bounds": [
        "bounds", "--state-bits", "32", "--target-n", "50", "--target-k", "10",
        "--format", "json",
    ],
    **{f"table1_{fmt}": ["bounds", "--table1", "--format", fmt] for fmt in ("text", "csv", "json")},
    # --count above DRAW_CHUNK: two full chunks and a part
    "gen_fractions_hash": ["gen", "--seed", "contract", "--as", "fractions", "--count", "10000"],
    "gen_fractions_wh": ["gen", "--prng", "wh", "--seed", "5", "--as", "fractions", "--count", "10000"],
    "gen_words_mt": ["gen", "--prng", "mt", "--seed", "9", "--as", "words", "--count", "10000"],
    # mask integers (the default method) over three DRAW_CHUNK calls
    "gen_integers_mask": [
        "gen", "--prng", "mt", "--seed", "9", "--as", "integers", "--int-range", "1000", "--count", "10000",
    ],
    # mask integers wider than a word (40 bits from 32-bit words), drawn
    # from a repeat of one range
    "gen_integers_mask_wide": [
        "gen", "--seed", "contract", "--as", "integers", "--int-range", "1000000000000", "--count", "5000",
    ],
    "audit": [
        "audit", "sample-frequency", "--prng", "mt", "--seed", "11", "--n", "4",
        "--k", "2", "--reps", "600", "--algorithm", "reservoir_r", "--method", "round",
    ],
}

CLI_DIGESTS = {
    "audit": "09df3d446376d8c0161d78979af81fdf4dca6463cdb4d51b6a026a04a04dcf2b",
    "bounds": "0b1326a236102024d50a10539a7ff86ef5642f195958d8f75c91de73e95264cd",
    "gen": "b32739b06cd8099d6d93f70c5cd8a86a8cb5d1f0a07645035c4858e2f0045246",
    "gen_fractions_hash": "02bf4cb11aad09052af3dfc883ff7eb7b35fc5d1983a1b8a19e29da9aa6d1c80",
    "gen_fractions_wh": "c089fd96c96b96a73efc101fbea1ce2497f6a46c29bc24a5c5ece2d332cb887f",
    "gen_integers_mask": "22afd5a6607f81a1eb1d9e333263786a7028f4b4a7e588ec564fe896532ebbc3",
    "gen_integers_mask_wide": "bd199fecb2b7c2fc1134b9d71f86f1f0e48441af51c2f2ce36661c85d8ab90bd",
    "gen_words_mt": "152531d51c02fda0bb1024a827bd6f922a3af77a111e46da002a944face1ace6",
    "sample": "859824ce0abd3a103e5a3b1b418825348faf78a4fe4aec65872e8daa93f4bf47",
    "table1_csv": "3be2a67bc4a7d4bb42e7dc88b7374743ece024bb4ad95c0dd0036391feb51974",
    "table1_json": "a9a66aa8aabd4abe0f6bb275d53f2e182d561f5fee02b786adf12122e0ab3461",
    "table1_text": "894696ff8c807aff5e347f9826b63b894497198c5b38d0b4eef0942b2f162745",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_stdout(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(COMMANDS[command]) == 0
    text = re.sub(r'"duration_s": [0-9.e+-]+', '"duration_s": 0', out.getvalue())
    assert sha(text) == CLI_DIGESTS[command]


# Exact path-enumeration references: [outcome, numerator, denominator]
# rows in the order the enumeration first reaches each outcome (subsets
# sorted, permutations as produced), so both the masses and the DFS order
# are pinned.
PATHENUM_CASES = {
    **{
        algorithm: lambda algorithm=algorithm: exact_subset_distribution(algorithm, 6, 3)
        for algorithm in ENUMERABLE_ALGORITHMS
    },
    **{
        f"fisher_yates/floor{w}": lambda w=w: exact_subset_distribution(
            "fisher_yates", 6, 3, draw_dist=lambda m: exact_distribution("floor", w, m).probs
        )
        for w in (4, 7)
    },
    "permutations": lambda: exact_permutation_distribution(5),
}

PATHENUM_DIGESTS = {
    "cormen": "473699761e6b1a69eb745d1838ac6ff993e346accd65afbf41a94439a09c64e5",
    "fisher_yates": "832f2df9940f144622e6a3db9422bbf46608c3e57ca0ed97d9a2314d0d0f1ba8",
    "fisher_yates/floor4": "0df2769015cef17759b1ebc19c6e1496baf03e569e1a740142c3a451967b8c79",
    "fisher_yates/floor7": "665c9847d1f0f859c6d4d2aa050597c83c4b0e005457c559b5afc7bc364c485a",
    "permutations": "55043abdbde73ec007b31580306c1efe591b3ff7baad15c5dcf42ad70255cf91",
    "pikk": "d2a1d7b741d6d5d1cb5efa4847592418991006235ee3b48ec77616d6e7f76d06",
    "random_indices": "dec673893d416fbd2e0598b0510d6815b8e6d73b4014abd818c25b46ab296beb",
    "reservoir_r": "3ede6e6e9a3dc92f2555b31aa05e73b38e6d29c97c58ed1bb28adb0018df0572",
    "vitter_z": "3ede6e6e9a3dc92f2555b31aa05e73b38e6d29c97c58ed1bb28adb0018df0572",
}


def distribution_rows(dist) -> str:
    return json.dumps(
        [
            [sorted(outcome) if isinstance(outcome, frozenset) else list(outcome), p.numerator, p.denominator]
            for outcome, p in dist.items()
        ]
    )


@pytest.mark.parametrize("case", sorted(PATHENUM_CASES))
def test_exact_distributions(case):
    assert sha(distribution_rows(PATHENUM_CASES[case]())) == PATHENUM_DIGESTS[case]
