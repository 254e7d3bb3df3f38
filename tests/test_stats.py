"""The standard-library p-values against scipy, which stays a test oracle.

``audit._binom_pvalue`` follows ``scipy.stats.binomtest``'s two-sided
rule and ``audit._chisquare`` follows ``scipy.stats.chisquare``; both are
compared here over grids that reach n = 10**6 and df = 30.
"""

import hashlib
import math
import random

import pytest
from scipy.stats import binomtest, chi2, chisquare

from randaudit import audit, bounds

D7 = bounds.derangement_count(7) / math.factorial(7)


def binomial_grid():
    """(k, n, p): k at 0, n, np and every whole sd from np out to 8 sd."""
    for n in (1, 2, 5, 37, 10**3, 10**4, 10**6):
        for p in (1e-6, 0.001, 0.4, 0.5, 0.999, D7):
            mean, sd = n * p, math.sqrt(n * p * (1 - p))
            ks = {0, n, round(mean)} | {round(mean + t * sd) for t in range(-8, 9)}
            for k in sorted(k for k in ks if 0 <= k <= n):
                yield k, n, p


def test_binomial_pvalue_matches_scipy():
    cases = list(binomial_grid())
    assert len(cases) > 300
    for k, n, p in cases:
        expected = binomtest(k, n, p).pvalue
        assert math.isclose(audit._binom_pvalue(k, n, p), expected, rel_tol=1e-11), (k, n, p)


# SHA-256 over repr of the p-value and both tails at every grid point; the
# scipy comparison above allows 1e-11 and would not see a 1-ulp drift
BINOMIAL_BITS = "653f796a5c1a0549831a1dc15d92aa2ba3002f0b368786fc52a4abdef058515a"


def test_binomial_pvalue_and_tails_are_bit_pinned():
    digest = hashlib.sha256()
    for k, n, p in binomial_grid():
        pvalue = audit._binom_pvalue(k, n, p)
        upper, lower = (audit._binom_tail(k, n, p, 1 - p, up) for up in (True, False))
        digest.update(f"{pvalue!r} {upper!r} {lower!r}\n".encode())
    assert digest.hexdigest() == BINOMIAL_BITS


@pytest.mark.parametrize("df", range(1, 31))
def test_chi2_tail_matches_scipy(df):
    factors = (1e-4, 0.01, 0.1, 0.3, 0.5, 0.8, 0.9, 1, 1.1, 1.5, 2, 3, 5, 8, 13, 20, 40)
    for x in [df * f for f in factors] + [0.0, 0.5, 1, 2, 30, 100, 300]:
        assert math.isclose(audit._chi2_sf(x, df), chi2.sf(x, df), rel_tol=1e-12), x


def test_chisquare_matches_scipy():
    rng = random.Random(5)
    for cells in (2, 3, 10, 31):
        counts = [rng.randrange(50, 150) for _ in range(cells)]
        weights = [rng.random() + 0.5 for _ in range(cells)]
        expected = [sum(counts) * w / sum(weights) for w in weights]
        for exp in (None, expected):
            stat, p = audit._chisquare(counts, exp)
            ref = chisquare(counts, f_exp=exp)
            assert math.isclose(stat, ref.statistic, rel_tol=1e-13)
            assert math.isclose(p, ref.pvalue, rel_tol=1e-12)
