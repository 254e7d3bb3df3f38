"""The analytic bounds against mpmath at 60 digits.

The Stirling and combination bounds are 50-digit decimals, so each must
agree with its formula evaluated by an independent arbitrary-precision
library to 1e-45 relative; the entropy bounds are exact rationals and
must equal their closed form.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from randaudit.bounds import MAX_BITS, entropy_bounds, stirling_bounds, stirling_combination_bound
from randaudit.errors import InfeasibleSizeError

TOLERANCE = mpmath.mpf("1e-45")


def relative_error(value, reference):
    return abs(mpmath.mpf(str(value)) - reference) / abs(reference)


def test_stirling_bounds_match_mpmath():
    with mpmath.workdps(60):
        for n in [*range(1, 201), 10 ** 5, 10 ** 9]:
            lower, upper = stirling_bounds(n)
            nn = mpmath.mpf(n)
            core = nn ** (nn + mpmath.mpf(1) / 2) * mpmath.exp(-nn)
            assert relative_error(lower, mpmath.sqrt(2 * mpmath.pi) * core) < TOLERANCE, n
            assert relative_error(upper, mpmath.e * core) < TOLERANCE, n


def test_combination_bound_matches_mpmath():
    with mpmath.workdps(60):
        for l in range(1, 11):
            for m in range(2, 11):
                reference = mpmath.mpf(m) ** (m * (l - 1) + 1) / (
                    mpmath.sqrt(l) * mpmath.mpf(m - 1) ** ((m - 1) * (l - 1))
                )
                assert relative_error(stirling_combination_bound(l, m), reference) < TOLERANCE, (l, m)


def test_entropy_bounds_are_exact():
    for n in range(2, 61):
        for k in range(1, n):
            upper = Fraction(n ** n, k ** k * (n - k) ** (n - k))
            assert entropy_bounds(n, k) == (upper / (n + 1), upper)
    # and they agree with 2^(n H(k/n)) evaluated in floating point
    with mpmath.workdps(60):
        q = mpmath.mpf(3) / 10
        h = -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)
        _, upper = entropy_bounds(10, 3)
        assert relative_error(mpmath.mpf(upper.numerator) / upper.denominator, mpmath.mpf(2) ** (10 * h)) < TOLERANCE


def test_entropy_bounds_size_limit():
    # n^n has n log2 n bits: n = 17,000 is inside the limit, 18,500 is not
    assert 17_000 * math.log2(17_000) < MAX_BITS < 18_500 * math.log2(18_500)
    lower, upper = entropy_bounds(17_000, 5_000)
    assert lower < upper
    with pytest.raises(InfeasibleSizeError):
        entropy_bounds(18_500, 2)
