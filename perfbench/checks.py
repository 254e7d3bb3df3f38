"""Checks of every operation's output, made apart from the program.

Each workload has an ``expect`` step, run once per benchmark run from the
seed's inputs with oracles.py alone, and a ``check`` step that compares one
operation's output with it or with a property the method must have.  A
check returns a list of problems; an empty list means the output is
correct.  Nothing here imports randaudit.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import inputs
import oracles


def _diff(pairs: dict) -> list[str]:
    return [f"{name} is {got!r}, expected {want!r}" for name, (got, want) in pairs.items() if got != want]


def _far(pairs: dict) -> list[str]:
    return [
        f"{name} is {got!r}, expected {want!r}"
        for name, (got, want) in pairs.items()
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)
    ]


def _binom_p(successes: int, trials: int, p0: float) -> float:
    from scipy.stats import binomtest

    return float(binomtest(successes, trials, p0).pvalue)


# ---------------------------------------------------------------------------
# murdoch


def murdoch_expect(inp: dict) -> dict:
    n, m = inp["replications"], inputs.MURDOCH_M
    out = {}
    for gen, method in inp["ops"]:
        words = oracles.MtWords(inp["mt_seed"]) if gen == "mt19937" else oracles.HashWords(inp["hash_seed"])
        if method == "floor":
            even = oracles.murdoch_floor_even_count(words.take(n))
            ref = oracles.murdoch_floor_even_fraction()
        else:
            draw = oracles.MaskDraws(words, 32)
            even = sum(1 - draw(m) % 2 for _ in range(n))
            ref = oracles.uniform_even_fraction(m)
        out[f"{gen}/{method}"] = {"even": even, "ref": ref, "p": _binom_p(even, n, float(ref))}
    return out


def murdoch_check(label: str, report: dict, exp: dict, inp: dict) -> list[str]:
    e, n = exp[label], inp["replications"]
    p_even = e["even"] / n
    ref = float(e["ref"])
    return _diff(
        {
            "replications": (report["replications"], n),
            "even_count": (report["observed"]["even_count"], e["even"]),
            "p_even": (report["observed"]["p_even"], p_even),
            "p_even_exact": (Fraction(report["reference"]["p_even_exact"]), e["ref"]),
            "passed": (report["passed"], abs(p_even - ref) <= report["reference"]["tolerance"]),
        }
    ) + _far(
        {
            "z": (report["statistics"]["z"], (p_even - ref) / math.sqrt(ref * (1 - ref) / n)),
            "binomial p": (report["p_values"]["binomial_vs_reference"], e["p"]),
        }
    )


# ---------------------------------------------------------------------------
# calibration


def _derangement_p(seed: str, n: int, reps: int) -> float:
    draw = oracles.MaskDraws(oracles.HashWords(seed), 32)
    none_fixed = 0
    for _ in range(reps):
        perm = oracles.shuffle(draw, n)
        none_fixed += all(v != i for i, v in enumerate(perm, start=1))
    return _binom_p(none_fixed, reps, float(Fraction(oracles.rencontres(n, 0), math.factorial(n))))


def _spearman_p(seed: str, n: int, reps: int) -> float:
    """Mean rank correlation of shuffle pairs against its exact null
    (mean 0, variance 1/(n-1) per pair), two-sided normal p-value."""
    draw = oracles.MaskDraws(oracles.HashWords(seed), 32)
    total = 0.0
    for _ in range(reps):
        p, q = oracles.shuffle(draw, n), oracles.shuffle(draw, n)
        total += 1.0 - 6.0 * sum((x - y) ** 2 for x, y in zip(p, q)) / (n * (n * n - 1))
    z = total / reps * math.sqrt(reps * (n - 1))
    return math.erfc(abs(z) / math.sqrt(2))


def _frequency_p(seed: str, n: int, k: int, reps: int) -> float:
    """Chi-square of subset counts against uniform over all C(n, k) subsets."""
    from scipy.stats import chi2

    draw = oracles.MaskDraws(oracles.HashWords(seed), 32)
    counts = Counter(frozenset(oracles.distinct_indices(draw, n, k)) for _ in range(reps))
    cells = oracles.uniform_subsets(n, k)
    expected = reps / len(cells)
    stat = sum((counts[c] - expected) ** 2 / expected for c in cells)
    return float(chi2.sf(stat, len(cells) - 1))


def calibration_expect(inp: dict) -> dict:
    base = inp["base_seed"]
    p = {"derangement": [], "spearman": [], "sample_frequency": []}
    for r in range(inp["repetitions"]):
        p["derangement"].append(_derangement_p(f"{base}:derangement:{r}", inp["derangement_n"], inp["derangement_reps"]))
        p["spearman"].append(_spearman_p(f"{base}:spearman:{r}", inp["spearman_n"], inp["spearman_reps"]))
        p["sample_frequency"].append(
            _frequency_p(f"{base}:sample_frequency:{r}", inp["freq_n"], inp["freq_k"], inp["freq_reps"])
        )
    return p


def calibration_check(label: str, report: dict, exp: dict, inp: dict) -> list[str]:
    got = report["observed"]["p_values"]
    problems = _diff(
        {
            "config": (report["config"], {"experiment": "calibration", **inp}),
            "p-value families": (sorted(got), sorted(exp)),
        }
    )
    if problems:
        return problems
    for family, ps in exp.items():
        if len(got[family]) != len(ps):
            problems.append(f"{family}: {len(got[family])} p-values, expected {len(ps)}")
            continue
        problems += _far({f"{family}[{r}]": (g, w) for r, (g, w) in enumerate(zip(got[family], ps))})
    alpha = inp["alpha"]
    rejections = {family: sum(1 for q in ps if q < alpha) for family, ps in got.items()}
    total = sum(rejections.values())
    return problems + _diff(
        {
            "rejections": (report["observed"]["rejections"], rejections),
            "rejections_total": (report["observed"]["rejections_total"], total),
            "passed": (report["passed"], total <= report["reference"]["max_rejections"]),
        }
    )


# ---------------------------------------------------------------------------
# exact


def _coverage_count(a: int, c: int, m: int, n: int) -> int:
    width = (m - 1).bit_length()
    return len(
        {tuple(oracles.shuffle(oracles.MaskDraws(oracles.LcgWords(a, c, m, x), width), n)) for x in range(m)}
    )


def exact_expect(inp: dict) -> dict:
    cov = inp["coverage"]
    width = inp["floor_width"]
    return {
        "subsets": oracles.uniform_subsets(*inp["subset"]),
        "biased": oracles.shuffle_prefix_distribution(*inp["biased"], lambda m: oracles.floor_masses(width, m)),
        "distinct": _coverage_count(cov["a"], cov["c"], cov["m"], cov["n"]),
        "full_period": oracles.hull_dobell(cov["a"], cov["c"], cov["m"]),
    }


def _distribution(rows, key=frozenset) -> dict:
    return {key(outcome): Fraction(num, den) for outcome, num, den in rows}


def _check_permutations(rows, n: int) -> list[str]:
    dist = _distribution(rows, key=tuple)
    total = math.factorial(n)
    problems = []
    if sorted(dist) != list(itertools.permutations(range(1, n + 1))):
        problems.append(f"outcomes are not the {total} permutations of 1..{n}")
    if any(p != Fraction(1, total) for p in dist.values()):
        problems.append("a permutation's mass differs from 1/n!")
    cells = Counter()
    for perm, p in dist.items():
        cells[sum(1 for i, v in enumerate(perm, start=1) if i == v)] += p
    want = {j: Fraction(oracles.rencontres(n, j), total) for j in range(n + 1) if oracles.rencontres(n, j)}
    return problems + _diff({"fixed-point cells": (dict(cells), want)})


def _check_table(rows: list[tuple[str, str, str]]) -> list[str]:
    """Pigeonhole table rows (size, full, scientific) against exact values."""
    table = oracles.pigeonhole_table()
    problems = _diff({"sizes": (sorted(q for q, _, _ in rows), sorted(table))})
    for quantity, full, sci in rows:
        if quantity not in table:
            continue
        num, den = table[quantity]
        if Decimal(sci) != oracles.rounded(num, den, 3):
            problems.append(f"{quantity}: scientific {sci} is not {oracles.rounded(num, den, 3)}")
        if not full:
            continue
        if " / " in quantity:
            if Decimal(full) != oracles.rounded(num, den, 6):
                problems.append(f"{quantity}: {full} is not {oracles.rounded(num, den, 6)}")
        elif int(full.replace(",", "")) != num:
            problems.append(f"{quantity}: {full} is not {num:,}")
    return problems


def exact_check(label: str, value, exp: dict, inp: dict) -> list[str]:
    if label.startswith("subsets/"):
        return _diff({"distribution": (_distribution(value), exp["subsets"])})
    if label == "permutations":
        return _check_permutations(value, inp["permutation_n"])
    if label == "biased":
        dist = _distribution(value)
        return _diff({"mass": (sum(dist.values()), 1), "distribution": (dist, exp["biased"])})
    if label == "coverage":
        cov = inp["coverage"]
        total = math.factorial(cov["n"])
        distinct = exp["distinct"]
        return _diff(
            {
                "distinct_permutations": (value["observed"]["distinct_permutations"], distinct),
                "observed_fraction": (value["observed"]["observed_fraction"], distinct / total),
                "total_permutations": (value["reference"]["total_permutations"], total),
                "predicted_max_fraction_exact": (
                    Fraction(value["reference"]["predicted_max_fraction_exact"]),
                    min(Fraction(1), Fraction(cov["m"], total)),
                ),
                "coverage <= min(m, n!)": (distinct <= min(cov["m"], total), True),
                "passed": (value["passed"], True),
                "flags": (value["flags"], [] if exp["full_period"] else ["not_full_period"]),
            }
        )
    if label == "table1":
        return _check_table([(r["quantity"], r["full"], r["sci"]) for r in value])
    if label == "floor_parity":
        return _diff({"P(even)": (Fraction(*value), oracles.murdoch_floor_even_fraction())})
    return [f"unknown operation {label}"]


# ---------------------------------------------------------------------------
# cli_sample

FOOTER = re.compile(r"# consumed words=(\d+) bits=(\d+) draws=(\d+) short=(True|False)$")


def _sample_reference(algo: str, seed: str, n: int, k: int):
    """(items, words, draws) the sampler must produce, or None for vitter-z,
    which is checked by its properties alone."""
    words = oracles.MtWords(int(seed)) if algo in inputs.CLI_MT_ALGOS else oracles.HashWords(seed)
    if algo == "pikk":
        return oracles.sort_keep(words, n, k), words.words, 0
    draw = oracles.MaskDraws(words, 32)
    if algo == "fisher-yates":
        items = oracles.shuffle(draw, n)[:k]
    elif algo == "random-indices":
        items = oracles.distinct_indices(draw, n, k)
    elif algo == "cormen":
        items = oracles.cormen(draw, n, k)
    elif algo == "reservoir-r":
        items = oracles.reservoir(draw, range(1, n + 1), k)
    else:
        return None
    return items, words.words, draw.draws


def cli_expect(inp: dict) -> dict:
    n, k = inp["n"], inp["k"]
    out = {f"sample/{algo}": _sample_reference(algo, seed, n, k) for algo, seed in inp["seeds"].items()}
    draw = oracles.MaskDraws(oracles.HashWords(inp["gen_seed"]), 32)
    out["gen"] = [draw(inp["gen_range"]) for _ in range(inp["gen_count"])]
    return out


def _check_sample(lines: list[str], population, k: int, reference) -> list[str]:
    footer = FOOTER.match(lines[-1])
    if footer is None:
        return [f"no consumption footer: {lines[-1]!r}"]
    words, bits, draws = (int(footer.group(i)) for i in (1, 2, 3))
    as_int = isinstance(population, range)
    items = [int(x) for x in lines[1:-1]] if as_int else lines[1:-1]
    members = population if as_int else set(population)
    problems = _diff(
        {
            "sample size": (len(items), k),
            "distinct items": (len(set(items)), k),
            "items outside the population": (sum(1 for x in items if x not in members), 0),
            "bits": (bits, 32 * words),
            "short": (footer.group(4), "False"),
        }
    )
    if reference is None:  # vitter-z: o(stream) randomness, one slot draw per replacement
        problems += _diff(
            {
                "words <= stream / 2": (words <= len(population) // 2, True),
                "draws <= words": (draws <= words, True),
            }
        )
    else:
        want_items, want_words, want_draws = reference
        problems += _diff({"items": (items, want_items), "words": (words, want_words), "draws": (draws, want_draws)})
    return problems


def _table_rows(text_lines: list[str]) -> list[tuple[str, str, str]]:
    rows = []
    for line in text_lines[1:]:
        parts = re.split(r" {2,}", line.strip())
        full = parts[2] if len(parts) == 4 else ""
        rows.append((parts[1], full, parts[-1]))
    return rows


def cli_check(label: str, stdout: str, exp: dict, inp: dict) -> list[str]:
    lines = stdout.splitlines()
    if label == "bounds":
        return _check_table(_table_rows(lines))
    try:
        header = json.loads(lines[0][2:]) if lines[0].startswith("# ") else None
    except json.JSONDecodeError:
        header = None
    if header is None:
        return [f"no configuration header: {lines[0]!r}"]
    if label == "gen":
        return _diff({"integers": ([int(x) for x in lines[1:]], exp["gen"])})
    if label == "sample/vitter-z-file":
        return _check_sample(lines, inp["stream_records"], inp["k"], None)
    return _check_sample(lines, range(1, inp["n"] + 1), inp["k"], exp[label])


EXPECT = {"murdoch": murdoch_expect, "calibration": calibration_expect, "exact": exact_expect, "cli_sample": cli_expect}
CHECK = {"murdoch": murdoch_check, "calibration": calibration_check, "exact": exact_check, "cli_sample": cli_check}


def verify(workload: str, seed: int, outputs_path: str) -> list[str]:
    """Problems found in every round's outputs (see worker.py); operations
    that failed are counted as failed and not checked here."""
    inp = inputs.INPUTS[workload](seed)
    expected = EXPECT[workload](inp)
    problems = []
    with open(outputs_path, encoding="utf-8") as fh:
        for number, line in enumerate(fh):
            for label, value, error in json.loads(line):
                if error is not None:
                    continue
                try:
                    found = CHECK[workload](label, value, expected, inp)
                except (KeyError, IndexError, TypeError, ValueError) as exc:  # output not in the expected shape
                    found = [f"unreadable output: {type(exc).__name__}: {exc}"]
                problems += [f"round {number} {label}: {p}" for p in found]
    return problems
