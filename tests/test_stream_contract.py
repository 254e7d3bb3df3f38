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
from randaudit.integers import METHODS, RandomSource
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
    "coverage": lambda: audit.permutation_coverage(LcgParams(m=64, a=5, c=1), 4),
    "derangement": lambda: audit.derangement_test(HashCounterGenerator("contract:d"), 7, 10 ** 4),
    "spearman": lambda: audit.spearman_test(WichmannHillGenerator(5), 4, 10 ** 4),
    "sample_frequency": lambda: audit.sample_frequency_test(
        LcgGenerator(RANDU, 3), 5, 2, 1000, "fisher_yates", "floor", 0.01
    ),
    "calibration": lambda: audit.calibration(base_seed="contract", repetitions=1),
}

REPORT_DIGESTS = {
    "calibration": "8fdf73e256bf6e2624808b734eca8f41c89b51ff5ae829c247c647634746a288",
    "coverage": "2ef067affecca32d391eb94c9ee4ba72050b8c55bad59b61d077a3a1fbc294a6",
    "derangement": "c1dce3bc74967ffaa3a32592bcd56ca3de05b3752ac2142f32aa6779d850e4bb",
    "murdoch": "0018acc28eb454d2ae378d50dfb6c280e5408d3fd97f0de97d82318b0caf301a",
    "murdoch_mask": "29420da9f97602c212faded52f7d24360c331e6db936e4b347230a0b2f57e3a2",
    "sample_frequency": "758e6738b46a01bcbd6e5b365a8e255c813907fcea96a165ab8e6ed3aa0f44a9",
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
    "audit": [
        "audit", "sample-frequency", "--prng", "mt", "--seed", "11", "--n", "4",
        "--k", "2", "--reps", "600", "--algorithm", "reservoir_r", "--method", "round",
    ],
}

CLI_DIGESTS = {
    "audit": "8ba71d4225d7c55095ab0be2f54181ddeffac97d2d5f368da6586ba11906b0a9",
    "bounds": "0b1326a236102024d50a10539a7ff86ef5642f195958d8f75c91de73e95264cd",
    "gen": "b32739b06cd8099d6d93f70c5cd8a86a8cb5d1f0a07645035c4858e2f0045246",
    "sample": "859824ce0abd3a103e5a3b1b418825348faf78a4fe4aec65872e8daa93f4bf47",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_stdout(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(COMMANDS[command]) == 0
    text = re.sub(r'"duration_s": [0-9.e+-]+', '"duration_s": 0', out.getvalue())
    assert sha(text) == CLI_DIGESTS[command]
