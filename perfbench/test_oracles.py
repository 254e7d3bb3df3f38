"""The benchmark's own tests: each oracle agrees with the program on a small
input and each check rejects a deliberately perturbed output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import asdict
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from randaudit import audit, bounds, cli, integers, pathenum  # noqa: E402
from randaudit.generators import (  # noqa: E402
    HashCounterGenerator,
    LcgParams,
    Mt19937Generator,
    ScriptedGenerator,
    full_period,
)


def _report(value) -> dict:
    return json.loads(json.dumps(workloads.encode(value)))


def _flip(words: list[int], i: int) -> list[int]:
    return words[:i] + [words[i] ^ 1] + words[i + 1 :]


def test_mt19937_words_from_numpy():
    ours = oracles.MtWords(2024).take(3000)
    assert ours == Mt19937Generator(2024).words(3000)
    assert _flip(ours, 1700) != Mt19937Generator(2024).words(3000)


def test_hash_words_from_hashlib():
    ours = oracles.HashWords("perfbench").take(100)
    assert ours == HashCounterGenerator("perfbench").words(100)
    assert _flip(ours, 37) != HashCounterGenerator("perfbench").words(100)


def test_mask_draws_carry_leftover_bits_within_a_draw():
    # 5-bit words and m = 5 (mu = 3): a rejected field leaves 2 bits that the
    # next field of the same draw must use
    script = [31, 0, 29, 7, 18, 31, 31, 4, 12, 9, 30, 1] * 20
    gen = ScriptedGenerator(script, width=5)
    want = [integers.randint_mask(gen, m) for m in (5, 3, 7, 2, 5, 6) * 8]
    draw = oracles.MaskDraws(iter(script).__next__, 5)
    assert [draw(m) for m in (5, 3, 7, 2, 5, 6) * 8] == want

    def no_carry(next_word, width, m):  # a mask-reject that drops the leftover bits
        mu = (m - 1).bit_length()
        while True:
            field = next_word() >> (width - mu)
            if field < m:
                return field + 1

    words = iter(script).__next__
    assert [no_carry(words, 5, m) for m in (5, 3, 7, 2, 5, 6) * 8] != want


def test_one_word_shortcut_is_not_the_mask_stream():
    """At mu = 31 a draw is not (w >> 1) + 1 over the words with (w >> 1) < m:
    after a rejection the next field takes the leftover bit first."""
    m = inputs.MURDOCH_M
    gen = Mt19937Generator(42)
    program = [integers.randint_mask(gen, m) for _ in range(10**5)]
    words = oracles.MtWords(42)
    shortcut = []
    while len(shortcut) < 10**5:
        w = words() >> 1
        if w < m:
            shortcut.append(w + 1)
    assert sum(a != b for a, b in zip(program, shortcut)) == 98_591
    draw = oracles.MaskDraws(oracles.MtWords(42), 32)
    assert [draw(m) for _ in range(10**5)] == program


def test_murdoch_check_rejects_a_changed_count():
    inp = {**inputs.murdoch(3), "replications": 10**5, "ops": [("hash_counter", "mask"), ("mt19937", "floor")]}
    expected = checks.murdoch_expect(inp)
    for gen, method in inp["ops"]:
        label = f"{gen}/{method}"
        report = _report(audit.murdoch_experiment(workloads.GENERATORS[gen](inp), method, inp["replications"]))
        assert checks.murdoch_check(label, report, expected, inp) == []
        report["observed"]["even_count"] += 1
        assert checks.murdoch_check(label, report, expected, inp)


def test_floor_parity_closed_form():
    closed = oracles.murdoch_floor_even_fraction()
    assert closed == integers.floor_even_probability(32, 2**33, 5)
    # the same count over a small width, word by word, with the formula's
    # argument: parity of floor(2w/5) is odd exactly when w mod 5 is 3 or 4
    assert sum(1 for w in range(1 << 12) if (1 + (2 * w) // 5) % 2 == 0) == sum(
        1 for w in range(1 << 12) if w % 5 in (3, 4)
    )
    assert checks.exact_check("floor_parity", [closed.numerator, closed.denominator], {}, {}) == []
    bad = closed + Fraction(1, 1 << 32)
    assert checks.exact_check("floor_parity", [bad.numerator, bad.denominator], {}, {})


def test_uniform_subsets_from_comb():
    inp = {"subset": (6, 3)}
    expected = {"subsets": oracles.uniform_subsets(6, 3)}
    for algo in pathenum.ENUMERABLE_ALGORITHMS:
        rows = _report(pathenum.exact_subset_distribution(algo, 6, 3))
        assert checks.exact_check(f"subsets/{algo}", rows, expected, inp) == []
    rows[0][1:] = [rows[0][1] * 2 + 1, rows[0][2] * 2]
    rows[1][1:] = [rows[1][1] * 2 - 1, rows[1][2] * 2]
    assert checks.exact_check("subsets/vitter_z", rows, expected, inp)


def test_rencontres_cells():
    assert [oracles.rencontres(5, j) for j in range(6)] == [44, 45, 20, 10, 0, 1]
    assert all(oracles.rencontres(7, j) == bounds.rencontres_count(7, j) for j in range(8))
    rows = _report(pathenum.exact_permutation_distribution(5))
    assert checks.exact_check("permutations", rows, {}, {"permutation_n": 5}) == []
    identity = next(r for r in rows if r[0] == [1, 2, 3, 4, 5])
    derangement = next(r for r in rows if r[0] == [2, 3, 4, 5, 1])
    identity[1:], derangement[1:] = [1, 240], [3, 240]
    problems = checks.exact_check("permutations", rows, {}, {"permutation_n": 5})
    assert any("fixed-point cells" in p for p in problems)


def test_biased_enumeration_and_coverage():
    inp = {"biased": (5, 2), "floor_width": 4, "coverage": {"m": 256, "a": 5, "c": 3, "n": 5}, "subset": (5, 2)}
    expected = checks.exact_expect(inp)
    rows = _report(
        pathenum.exact_subset_distribution(
            "fisher_yates", 5, 2, draw_dist=lambda m: integers.exact_distribution("floor", 4, m).probs
        )
    )
    assert checks.exact_check("biased", rows, expected, inp) == []
    rows[0][1] += 1
    assert checks.exact_check("biased", rows, expected, inp)

    report = _report(audit.permutation_coverage(LcgParams(m=256, a=5, c=3), 5))
    assert checks.exact_check("coverage", report, expected, inp) == []
    report["observed"]["distinct_permutations"] -= 1
    assert checks.exact_check("coverage", report, expected, inp)


def test_hull_dobell_agrees_with_the_program():
    for m in (12, 64, 90, 256):
        for a in range(1, m):
            for c in range(0, m, 5):
                assert oracles.hull_dobell(a, c, m) == full_period(LcgParams(m=m, a=a, c=c))


def test_pigeonhole_table():
    rows = [asdict(r) for r in bounds.table1_report()]
    assert checks.exact_check("table1", rows, {}, {}) == []
    text = workloads.run_cli(cli.main, ["bounds", "--table1"])
    assert checks.cli_check("bounds", text, {}, {}) == []
    rows[3]["full"] = "0.418499"
    assert checks.exact_check("table1", rows, {}, {})
    assert checks.cli_check("bounds", text.replace("6,227,020,800", "6,227,020,801"), {}, {})


def test_cli_sample_checks():
    inp = {**inputs.cli_sample(5), "n": 3000, "k": 20, "gen_count": 500, "stream_records": [f"x{i}" for i in range(800)]}
    run_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", f"test-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        with open(workloads.stream_path(run_dir), "w", encoding="utf-8") as fh:
            fh.writelines(r + "\n" for r in inp["stream_records"])
        expected = checks.cli_expect(inp)
        for label, argv in workloads.cli_argvs(inp, run_dir):
            out = workloads.run_cli(cli.main, argv)
            assert checks.cli_check(label, out, expected, inp) == [], label
            lines = out.splitlines()
            del lines[2]  # one item, integer or table row fewer
            assert checks.cli_check(label, "\n".join(lines), expected, inp), label
    finally:
        shutil.rmtree(run_dir)


def test_calibration_check():
    inp = {**inputs.calibration(4), "repetitions": 1}
    report = _report(audit.calibration(**inp))
    expected = checks.calibration_expect(inp)
    assert checks.calibration_check("calibration", report, expected, inp) == []
    report["observed"]["p_values"]["spearman"][0] *= 1 + 1e-6
    assert checks.calibration_check("calibration", report, expected, inp)
