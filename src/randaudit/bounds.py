"""Exact big-integer combinatorics and the pigeonhole table.

Counting a generator's reachable outcomes against the number of
permutations or samples of a population is a pure pigeonhole argument, so
everything here is an exact integer or rational: factorials, binomials
and derangement counts are arbitrary-precision integers, attainability
fractions and L1 lower bounds are Fractions, and decimal renderings are
rounded from those in integer arithmetic.

Exact values are limited to MAX_BITS bits, checked from a cheap estimate
before anything large is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .errors import InfeasibleSizeError

__all__ = [
    "MAX_BITS",
    "factorial",
    "binomial",
    "derangement_count",
    "rencontres_count",
    "rencontres_counts",
    "sci_string",
    "decimal_string",
    "AttainabilityReport",
    "attainable_fraction",
    "Table1Row",
    "table1_values",
    "table1_report",
    "render_table1_text",
]


# 2**18 bits is about 78,900 decimal digits.  Reducing an attainable
# fraction of that width takes about 0.3 s (gcd is quadratic in the width);
# the pigeonhole table needs under 20,000 bits.
MAX_BITS = 1 << 18


def _check_bits(bits: float, what: str, *ints: int) -> None:
    """Refuse a value wider than MAX_BITS bits.  ``what`` names it with a
    {} for each of ``ints``, filled in only when it is refused."""
    if bits > MAX_BITS:
        label = what.format(*map(_int_text, ints))
        raise InfeasibleSizeError(f"{label} is wider than the {MAX_BITS}-bit limit for exact values")


def _int_text(i: int) -> str:
    """i in decimal, or by sci_string past Python's int-to-text digit limit."""
    try:
        return str(i)
    except ValueError:
        return sci_string(i)


def _check_factorial(n: int) -> None:
    """Refuse n < 0, and an n whose n! is wider than MAX_BITS; n! also
    bounds D_n and every rencontres cell."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # n! >= 2**n once n >= 4, so n itself bounds the width from below
    _check_bits(n if n > MAX_BITS else math.lgamma(n + 1) / math.log(2), "{}!", n)


def factorial(n: int) -> int:
    _check_factorial(n)
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    j = min(k, n - k)
    if j:
        # C(n, j) <= (e n / j)**j
        _check_bits(j * (math.log2(n) - math.log2(j) + math.log2(math.e)), "C({},{})", n, k)
    return math.comb(n, k)


def _derangements():
    """D_0, D_1, D_2, ... by D_i = (i - 1) (D_{i-1} + D_{i-2})."""
    d, d_next = 1, 0
    for i in count(2):
        yield d
        d, d_next = d_next, (i - 1) * (d_next + d)


def derangement_count(n: int) -> int:
    """Number of permutations of n items with no fixed point."""
    _check_factorial(n)
    return next(islice(_derangements(), n, None))


def rencontres_count(n: int, j: int) -> int:
    """Number of permutations of n items with exactly j fixed points."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    return binomial(n, j) * derangement_count(n - j)


# The n + 1 cells of rencontres_counts cost about n^3: 0.6 s at n = 3,000
# and 2.1 s at 5,000 (2 vCPU, Python 3.11.7), far inside MAX_BITS.
_MAX_RENCONTRES_N = 5000


def rencontres_counts(n: int) -> list[int]:
    """rencontres_count(n, j) for j = 0..n, from one pass over D_0..D_n;
    n above 5,000 raises InfeasibleSizeError."""
    _check_factorial(n)
    if n > _MAX_RENCONTRES_N:
        raise InfeasibleSizeError(f"rencontres counts need n <= {_MAX_RENCONTRES_N}")
    # C(n, i) D_i permutations fix exactly n - i points
    return [math.comb(n, i) * d for i, d in zip(range(n + 1), _derangements())][::-1]


# ---------------------------------------------------------------------------
# Exact decimal rendering for astronomically sized rationals

def _rounded(value, sig: int) -> tuple[str, int, int, str]:
    """value's sign, its decimal exponent, and its exponent and sig leading
    digits after rounding half up, in exact integer arithmetic; the digits
    are empty for 0.  A carry to 10**sig moves the rounded exponent."""
    if sig < 1:
        raise ValueError("sig must be >= 1")
    fr = Fraction(value)
    if fr == 0:
        return "", 0, 0, ""
    num, den = abs(fr.numerator), fr.denominator
    # largest e with 10^e <= num/den, via a bit-length estimate refined by
    # at most a couple of exact steps
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    if e >= 0:
        den *= 10 ** e
    else:
        num *= 10 ** (-e)
    while num < den:
        num *= 10
        e -= 1
    while num >= 10 * den:
        den *= 10
        e += 1
    mant = (num * 10 ** (sig - 1) * 2 + den) // (2 * den)
    carry = mant >= 10 ** sig
    return "-" if fr < 0 else "", e, e + carry, str(mant // 10 if carry else mant)


def sci_string(value, sig: int = 3) -> str:
    """value rendered as d.dd...e+exp with sig significant digits, computed
    in exact integer arithmetic (round half up)."""
    sign, _, e, s = _rounded(value, sig)
    return _sci(sign, e, s) if s else "0e+0"


def _sci(sign: str, e: int, digits: str) -> str:
    point = "." if len(digits) > 1 else ""
    return f"{sign}{digits[0]}{point}{digits[1:]}e{e:+d}"


def decimal_string(value, sig: int = 6) -> str:
    """Plain decimal (0.0750445 style) when the exponent is moderate,
    falling back to sci_string otherwise."""
    sign, e_exact, e, digits = _rounded(value, sig)
    if not digits:
        return "0"
    if not -9 <= e_exact < sig + 3:
        return _sci(sign, e, digits)
    if e >= sig - 1:
        return sign + digits + "0" * (e - sig + 1)
    if e >= 0:
        return sign + digits[: e + 1] + "." + digits[e + 1 :]
    return sign + "0." + "0" * (-e - 1) + digits


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
    target: int
    fraction: Fraction
    l1_lower_bound: Fraction


def attainable_fraction(state_bits: int, target: int) -> AttainabilityReport:
    if state_bits < 1:
        raise ValueError("state_bits must be >= 1")
    if target < 1:
        raise ValueError("target must be >= 1")
    _check_bits(state_bits, "a {}-bit state space", state_bits)
    _check_bits(target.bit_length(), "the target")
    states = 1 << state_bits
    fraction = min(Fraction(1), Fraction(states, target))
    l1 = max(Fraction(0), 2 * Fraction(target - states, target))
    return AttainabilityReport(
        state_bits=state_bits,
        target=target,
        fraction=fraction,
        l1_lower_bound=l1,
    )


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


# (feature, size, table1_values key, whether an integer's full digits are shown)
_TABLE1_ROWS = (
    ("32-bit state space", "2^32", "state_32", True),
    ("Permutations of 13", "13!", "fact_13", True),
    ("Samples of 10 out of 50", "C(50,10)", "c_50_10", True),
    ("Fraction attainable, 32-bit state", "2^32 / C(50,10)", "frac_32", True),
    ("64-bit state space", "2^64", "state_64", True),
    ("Permutations of 21", "21!", "fact_21", True),
    ("Samples of 10 out of 500", "C(500,10)", "c_500_10", False),
    ("Fraction attainable, 64-bit state", "2^64 / C(500,10)", "frac_64", True),
    ("128-bit state space", "2^128", "state_128", False),
    ("Permutations of 35", "35!", "fact_35", False),
    ("Samples of 25 out of 500", "C(500,25)", "c_500_25", False),
    ("Fraction attainable, 128-bit state", "2^128 / C(500,25)", "frac_128", True),
    ("MT state space", "2^(32*624)", "state_mt", False),
    ("Permutations of 2084", "2084!", "fact_2084", False),
    ("Samples of 1000 out of 390 million", "C(3.9e8,1000)", "c_390m_1000", False),
    ("Fraction attainable, MT state", "2^(32*624) / C(3.9e8,1000)", "frac_mt", True),
)


def table1_report() -> list[Table1Row]:
    """The table's rows: a fraction in full as a 6-digit decimal, an integer
    with digit grouping, or nothing where it is impractically long."""
    v = table1_values()
    rows = []
    for feature, size, key, show in _TABLE1_ROWS:
        value = v[key]
        full = decimal_string(value, 6) if isinstance(value, Fraction) else f"{value:,}" if show else ""
        rows.append(Table1Row(feature, size, full, sci_string(value, 3)))
    return rows


def render_table1_text(rows: list[Table1Row]) -> str:
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
