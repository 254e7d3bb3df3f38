"""Exact big-integer combinatorics and analytic counting bounds.

Counting a generator's reachable outcomes against the number of
permutations or samples of a population is a pure pigeonhole argument, so
everything here is exact: factorials and binomials are arbitrary-precision
integers, attainability fractions are rationals, and the floating
inequalities (Stirling, entropy) are evaluated in 50-digit arithmetic,
far beyond the gap between each bound and its target.

Exact values are limited to MAX_BITS bits, checked from a cheap estimate
before anything large is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleSizeError

__all__ = [
    "MAX_BITS",
    "factorial",
    "binomial",
    "power",
    "derangement_count",
    "rencontres_count",
    "sci_string",
    "decimal_string",
    "AttainabilityReport",
    "attainable_fraction",
    "stirling_bounds",
    "entropy_bounds",
    "stirling_combination_bound",
    "Table1Row",
    "table1_values",
    "table1_report",
    "render_table1_text",
    "render_table1_csv",
]


# 2**18 bits is about 78,900 decimal digits.  Reducing an attainable
# fraction of that width takes about 0.3 s (gcd is quadratic in the width);
# the pigeonhole table needs under 20,000 bits.
MAX_BITS = 1 << 18


def _check_bits(bits: float, what: str) -> None:
    if bits > MAX_BITS:
        raise InfeasibleSizeError(f"{what} is wider than the {MAX_BITS}-bit limit for exact values")


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    # n! >= 2**n once n >= 4, so n itself bounds the width from below
    _check_bits(n if n > MAX_BITS else math.lgamma(n + 1) / math.log(2), f"{n}!")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    j = min(k, n - k)
    if j:
        # C(n, j) <= (e n / j)**j
        _check_bits(j * (math.log2(n) - math.log2(j) + math.log2(math.e)), f"C({n},{k})")
    return math.comb(n, k)


def power(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return n ** k


def derangement_count(n: int) -> int:
    """Number of permutations of n items with no fixed point."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    prev2, prev1 = 1, 0  # D_0, D_1
    for i in range(2, n + 1):
        prev2, prev1 = prev1, (i - 1) * (prev1 + prev2)
    return prev1


def rencontres_count(n: int, j: int) -> int:
    """Number of permutations of n items with exactly j fixed points."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    return binomial(n, j) * derangement_count(n - j)


# ---------------------------------------------------------------------------
# Exact decimal rendering for astronomically sized rationals

def _decimal_exponent(num: int, den: int) -> tuple[int, int, int]:
    # largest e with 10^e <= num/den, via a bit-length estimate refined by
    # at most a couple of exact steps
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    if e >= 0:
        den_s, num_s = den * 10 ** e, num
    else:
        den_s, num_s = den, num * 10 ** (-e)
    while num_s < den_s:
        num_s *= 10
        e -= 1
    while num_s >= 10 * den_s:
        den_s *= 10
        e += 1
    return e, num_s, den_s


def sci_string(value, sig: int = 3) -> str:
    """value rendered as d.dd...e+exp with sig significant digits, computed
    in exact integer arithmetic (round half up)."""
    fr = Fraction(value)
    if fr < 0:
        return "-" + sci_string(-fr, sig)
    if fr == 0:
        return "0e+0"
    e, num, den = _decimal_exponent(fr.numerator, fr.denominator)
    mant = (num * 10 ** (sig - 1) * 2 + den) // (2 * den)
    if mant >= 10 ** sig:
        mant //= 10
        e += 1
    s = str(mant)
    return (f"{s[0]}.{s[1:]}e{e:+d}") if sig > 1 else f"{s}e{e:+d}"


def decimal_string(value, sig: int = 6) -> str:
    """Plain decimal (0.0750445 style) when the exponent is moderate,
    falling back to sci_string otherwise."""
    fr = Fraction(value)
    if fr == 0:
        return "0"
    e, num, den = _decimal_exponent(abs(fr).numerator, abs(fr).denominator)
    if -9 <= e < sig + 3:
        mant = (num * 10 ** (sig - 1) * 2 + den) // (2 * den)
        if mant >= 10 ** sig:
            mant //= 10
            e += 1
        digits = str(mant)
        sign = "-" if fr < 0 else ""
        if e >= sig - 1:
            return sign + digits + "0" * (e - sig + 1)
        if e >= 0:
            return sign + digits[: e + 1] + "." + digits[e + 1 :]
        return sign + "0." + "0" * (-e - 1) + digits
    return sci_string(fr, sig)


# ---------------------------------------------------------------------------
# Attainability and the L1 lower bound

@dataclass(frozen=True)
class AttainabilityReport:
    """How much of a target outcome space a state space can reach.

    fraction = min(1, states / target); when the state space falls short,
    at least target - states outcomes get probability 0 instead of
    1/target, which forces an L1 distance of 2 * (target - states) / target
    between the intended uniform and anything the generator induces.
    """

    state_bits: int
    state_space: int
    target: int
    fraction: Fraction
    l1_lower_bound: Fraction

    @property
    def fraction_display(self) -> str:
        return decimal_string(self.fraction, 6)

    @property
    def l1_display(self) -> str:
        return decimal_string(self.l1_lower_bound, 6)


def attainable_fraction(state_bits: int, target: int) -> AttainabilityReport:
    if state_bits < 1:
        raise ValueError("state_bits must be >= 1")
    if target < 1:
        raise ValueError("target must be >= 1")
    _check_bits(state_bits, f"a {state_bits}-bit state space")
    _check_bits(target.bit_length(), "the target")
    states = 1 << state_bits
    fraction = min(Fraction(1), Fraction(states, target))
    l1 = max(Fraction(0), 2 * Fraction(target - states, target))
    return AttainabilityReport(
        state_bits=state_bits,
        state_space=states,
        target=target,
        fraction=fraction,
        l1_lower_bound=l1,
    )


# ---------------------------------------------------------------------------
# Analytic bounds (50-digit evaluation)

_DPS = 50


def stirling_bounds(n: int):
    """(lower, upper) with lower <= n! <= upper:
    sqrt(2 pi) n^(n+1/2) e^-n <= n! <= e n^(n+1/2) e^-n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import mpmath

    with mpmath.workdps(_DPS):
        nn = mpmath.mpf(n)
        core = nn ** (nn + mpmath.mpf(1) / 2) * mpmath.exp(-nn)
        return mpmath.sqrt(2 * mpmath.pi) * core, mpmath.e * core


def entropy_bounds(n: int, k: int):
    """(lower, upper) with lower <= C(n,k) <= upper:
    2^(n H(k/n)) / (n+1) <= C(n,k) <= 2^(n H(k/n)),
    H(q) = -q log2 q - (1-q) log2 (1-q), H(0) = H(1) = 0."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    import mpmath

    with mpmath.workdps(_DPS):
        q = mpmath.mpf(k) / n
        h = -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)
        upper = mpmath.mpf(2) ** (n * h)
        return upper / (n + 1), upper


def stirling_combination_bound(l: int, m: int):
    """Lower bound m^(m(l-1)+1) / (sqrt(l) (m-1)^((m-1)(l-1))) <= C(l*m, l)."""
    if l < 1 or m < 2:
        raise ValueError("need l >= 1 and m >= 2")
    import mpmath

    with mpmath.workdps(_DPS):
        num = mpmath.mpf(m) ** (m * (l - 1) + 1)
        den = mpmath.sqrt(l) * mpmath.mpf(m - 1) ** ((m - 1) * (l - 1))
        return num / den


# ---------------------------------------------------------------------------
# The pigeonhole table

@dataclass(frozen=True)
class Table1Row:
    feature: str
    quantity: str
    full: str  # exact integer rendering, empty when impractically long
    sci: str


def table1_values() -> dict:
    """Every number in the pigeonhole table, exact."""
    mt_bits = 32 * 624
    c_big = binomial(390_000_000, 1000)
    return {
        "state_32": 1 << 32,
        "fact_13": factorial(13),
        "c_50_10": binomial(50, 10),
        "frac_32": attainable_fraction(32, binomial(50, 10)).fraction,
        "state_64": 1 << 64,
        "fact_21": factorial(21),
        "c_500_10": binomial(500, 10),
        "frac_64": attainable_fraction(64, binomial(500, 10)).fraction,
        "state_128": 1 << 128,
        "fact_35": factorial(35),
        "c_500_25": binomial(500, 25),
        "frac_128": attainable_fraction(128, binomial(500, 25)).fraction,
        "mt_bits": mt_bits,
        "state_mt": 1 << mt_bits,
        "fact_2084": factorial(2084),
        "c_390m_1000": c_big,
        "frac_mt": attainable_fraction(mt_bits, c_big).fraction,
    }


def table1_report() -> list[Table1Row]:
    v = table1_values()

    def int_row(feature, quantity, value, show_full=True):
        return Table1Row(
            feature=feature,
            quantity=quantity,
            full=f"{value:,}" if show_full else "",
            sci=sci_string(value, 3),
        )

    def frac_row(feature, quantity, value):
        return Table1Row(
            feature=feature,
            quantity=quantity,
            full=decimal_string(value, 6),
            sci=sci_string(value, 3),
        )

    return [
        int_row("32-bit state space", "2^32", v["state_32"]),
        int_row("Permutations of 13", "13!", v["fact_13"]),
        int_row("Samples of 10 out of 50", "C(50,10)", v["c_50_10"]),
        frac_row("Fraction attainable, 32-bit state", "2^32 / C(50,10)", v["frac_32"]),
        int_row("64-bit state space", "2^64", v["state_64"]),
        int_row("Permutations of 21", "21!", v["fact_21"]),
        int_row("Samples of 10 out of 500", "C(500,10)", v["c_500_10"], show_full=False),
        frac_row("Fraction attainable, 64-bit state", "2^64 / C(500,10)", v["frac_64"]),
        int_row("128-bit state space", "2^128", v["state_128"], show_full=False),
        int_row("Permutations of 35", "35!", v["fact_35"], show_full=False),
        int_row("Samples of 25 out of 500", "C(500,25)", v["c_500_25"], show_full=False),
        frac_row("Fraction attainable, 128-bit state", "2^128 / C(500,25)", v["frac_128"]),
        int_row("MT state space", "2^(32*624)", v["state_mt"], show_full=False),
        int_row("Permutations of 2084", "2084!", v["fact_2084"], show_full=False),
        int_row(
            "Samples of 1000 out of 390 million",
            "C(3.9e8,1000)",
            v["c_390m_1000"],
            show_full=False,
        ),
        frac_row("Fraction attainable, MT state", "2^(32*624) / C(3.9e8,1000)", v["frac_mt"]),
    ]


def render_table1_text(rows: list[Table1Row] | None = None) -> str:
    rows = rows if rows is not None else table1_report()
    w_feat = max(len(r.feature) for r in rows)
    w_q = max(len(r.quantity) for r in rows)
    w_full = max(len(r.full) for r in rows)
    lines = [
        f"{'Feature':<{w_feat}}  {'Size':<{w_q}}  {'Full':>{w_full}}  Scientific"
    ]
    for r in rows:
        lines.append(
            f"{r.feature:<{w_feat}}  {r.quantity:<{w_q}}  {r.full:>{w_full}}  {r.sci}"
        )
    return "\n".join(lines)


def render_table1_csv(rows: list[Table1Row] | None = None) -> str:
    import csv
    import io

    rows = rows if rows is not None else table1_report()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["feature", "quantity", "full", "scientific"])
    for r in rows:
        writer.writerow([r.feature, r.quantity, r.full, r.sci])
    return buf.getvalue()
