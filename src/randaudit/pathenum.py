"""Exact output distributions of the sampling algorithms under ideal draws.

The harness runs the real algorithm implementations over every possible
sequence of draw outcomes, weighting each path by its exact probability,
and accumulates the induced distribution as exact rationals.  A path
is the draws made so far, as two tuples in the order drawn: integer
entries (value, m) and fraction entries.  The algorithm replays a path
through a sampling.ScriptedSource that reads those entries in place.
When the replay runs out inside a call, the call has already named
every range it wants, so the search branches over those pending ranges
one draw at a time without running the algorithm again.  The algorithm
is replayed once per complete path, and once more wherever a path ends
just before a new call.  Each path carries its mass as an unreduced
integer pair, and the rationals are formed once per outcome at the end.

Where an algorithm consumes a uniform integer on {1..m}, the branch is
over the m values with probability 1/m each: for mask-reject on IID
uniform bits every mu-bit pattern is equally likely and a rejection
restarts the draw from an identical state, so the geometric series over
rejection prefixes collapses to exactly 1/m per accepted value.  A
non-uniform per-draw distribution can be supplied instead to model the
biased integer methods.

Two algorithms need their randomness enumerated at a coarser granularity
than raw draws:

* pikk sorts fractions, so its output depends only on their relative
  order; for IID continuous uniforms every rank order has probability
  exactly 1/n! and ties have probability zero.  The harness runs the real
  pikk once per rank order.
* vitter_z turns one fraction v into a skip length: skip = s exactly when
  v lies in [q(s), q(s-1)), where q(s) is a product of rationals.  The
  harness computes those cell boundaries exactly, branches over the cells
  with their exact widths, and hands the real code a representative v
  from strictly inside each cell; the implementation still derives the
  skip itself.  The implementation accumulates q in floats, but for
  n <= 12 every cell is wider than 9e-4 (the narrowest, 5/5544, is at
  n = 12, k = t = 5, skip 6) while float error stays below 1e-14, so a
  representative can never be seen on the wrong side of a boundary.

random_indices without replacement rejects duplicates; a duplicate draw
leaves the algorithm state unchanged, so the next accepted value is
distributed as the draw distribution conditioned on the unseen values
(the same geometric collapse).  The harness enumerates duplicate-free
paths with those collapsed weights; the rejection code path itself is
exercised by scripted unit tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from fractions import Fraction

from .integers import check_masses
# perfbench/spans.py wraps the six samplers by their names in this module
from .sampling import (  # noqa: F401
    ALGORITHMS,
    SampleSpec,
    ScriptedSource,
    cormen_sample,
    fisher_yates,
    pikk,
    random_indices,
    reservoir_r,
    vitter_z,
)

__all__ = [
    "exact_subset_distribution",
    "exact_permutation_distribution",
    "uniform_subset_reference",
    "ENUMERABLE_ALGORITHMS",
]


class _NeedDraw(Exception):
    """The replayed path ran out at a draw.  ``ranges`` lists what the
    call still wants, starting with the draw it ran out on: m for an
    integer on {1..m}, None for a fraction."""

    def __init__(self, ranges):
        self.ranges = ranges


class _Replay(ScriptedSource):
    """Replays a path: its integer entries (value, m) are read in place,
    its fraction entries (v, t) give v; running out raises _NeedDraw."""

    def __init__(self, ints, fracs):
        # only vitter_z paths hold fractions; integer entries are not copied
        self._ints, self._fracs = ints, [v for v, _ in fracs] if fracs else []
        self._ipos = self._fpos = self.draws = 0

    def _ran_out(self, ranges):
        raise _NeedDraw(ranges)


def _enumerate(run, branch):
    """DFS over the draw paths of ``run(source) -> outcome``.

    A path is two tuples in the order drawn: integer entries (value, m)
    and fraction entries (v, t), where t is whatever state the branch rule
    keeps for the next fraction.  ``branch(m, ints, fracs)`` lists the
    (entry, probability) pairs that extend the path at its next draw (m as
    in _NeedDraw).  A stack entry holds a path, the ranges its call still
    wants and the path mass as an integer pair num/den; an entry with
    ranges pending branches on the next one directly, and only an entry
    with none pending is replayed.  Returns {outcome: Fraction} in order
    of first appearance; the masses sum to exactly 1.
    """
    sums: dict = defaultdict(int)
    stack = [((), (), (), 1, 1)]
    while stack:
        ints, fracs, pending, num, den = stack.pop()
        if not pending:
            src = _Replay(ints, fracs)
            try:
                outcome = run(src)
            except _NeedDraw as need:
                pending = need.ranges
            else:
                if not src.fully_consumed():
                    raise AssertionError("algorithm finished without using all draws")
                sums[outcome, den] += num
                continue
        m, rest = pending[0], pending[1:]
        for entry, p in branch(m, ints, fracs):
            if p:
                path = (ints, fracs + (entry,)) if m is None else (ints + (entry,), fracs)
                stack.append((*path, rest, num * p.numerator, den * p.denominator))
    results: dict = {}
    for (outcome, den), num in sums.items():
        results[outcome] = results.get(outcome, 0) + Fraction(num, den)
    total = sum(results.values())
    if total != 1:
        raise AssertionError(f"path probabilities sum to {total}, not 1")
    return results


# Branch rules, built from (n, k, draw_dist).  draw_dist(m) -> {value:
# Fraction} is the per-draw distribution, uniform when omitted.

def _uniform(m: int) -> dict[int, Fraction]:
    p = Fraction(1, m)
    return {v: p for v in range(1, m + 1)}


def _draw_model(draw_dist, m: int) -> dict[int, Fraction]:
    """draw_dist(m), or uniform, checked: a replay takes a recorded value as it is."""
    return check_masses((draw_dist or _uniform)(m), m, f"draw_dist({m})")


def _int_draws(n, k, draw_dist):
    """Every integer draw on {1..m} branches over draw_dist(m), listed once
    per m."""

    @functools.cache
    def entries(m):
        return [((v, m), p) for v, p in _draw_model(draw_dist, m).items()]

    return lambda m, ints, fracs: entries(m)


def _distinct_draws(n, k, draw_dist):
    """Draw-until-distinct on {1..n}, collapsed: paths are duplicate-free
    and each accepted value v after the distinct prefix 'seen' carries
    weight p(v) / (1 - p(seen))."""
    base = _draw_model(draw_dist, n)

    def branch(m, ints, fracs):
        if m != n:
            raise AssertionError("collapsed enumeration expects draws on {1..n}")
        seen = {v for v, _ in ints}
        denom = 1 - sum(base[s] for s in seen)
        return [((v, n), p / denom) for v, p in base.items() if v not in seen and p]

    return branch


def _skip_cells(k: int, t: int, remaining: int):
    """Exact skip-length cells for vitter_z at state t (t records seen).

    Yields (skip, probability, representative_v) for skip = 0..remaining-1
    plus one tail cell (skip >= remaining, probability q(remaining-1))
    whose representative drives the real code past the end of the stream.
    """
    q_prev = Fraction(1)
    q = Fraction(t + 1 - k, t + 1)  # q(0) = P(skip >= 1)
    for s in range(remaining):
        yield s, q_prev - q, float((q + q_prev) / 2)
        q_prev = q
        q *= Fraction(t + s + 2 - k, t + s + 2)
    if q_prev > 0:
        yield remaining, q_prev, float(q_prev / 2)  # tail: stream exhausts


def _skips_and_slots(n, k, draw_dist):
    """vitter_z: a fraction branches over the exact skip cells, and its
    entry (v, t) records t, the records seen once the skip's record is
    kept; a slot draw is uniform on {1..k}."""

    def branch(m, ints, fracs):
        if m is None:
            t = fracs[-1][1] if fracs else k
            return [((v, t + s + 1), p) for s, p, v in _skip_cells(k, t, n - t)]
        if m != k:
            raise AssertionError("vitter slot draw should be on {1..k}")
        return [((v, k), Fraction(1, k)) for v in range(1, k + 1)]

    return branch


# algorithm -> branch rule, where its draws are not plain integer draws
_BRANCH_RULES = {"random_indices": _distinct_draws, "vitter_z": _skips_and_slots}


def _pikk_subsets(spec: SampleSpec):
    n = spec.n
    counts: dict = defaultdict(int)
    # pikk's output depends only on the rank order of its n keys.  The n
    # rank fractions are distinct, so each arrangement of them gives the
    # items one rank order, and the n! arrangements give every order once.
    ranks = [(r + 1) / (n + 2) for r in range(n)]
    for fracs in itertools.permutations(ranks):
        counts[spec.run(ScriptedSource(fractions=fracs)).as_set()] += 1
    total = math.factorial(n)
    return {subset: Fraction(count, total) for subset, count in counts.items()}


ENUMERABLE_ALGORITHMS = tuple(ALGORITHMS)


def exact_subset_distribution(algorithm: str, n: int, k: int, draw_dist=None):
    """Exact distribution over k-subsets of {1..n} induced by an algorithm.

    draw_dist(m) -> {value: Fraction}, optional, replaces the uniform
    integer-draw distribution on {1..m} (not supported for pikk or
    vitter_z, whose extra randomness is fraction-valued).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    spec = SampleSpec(n, k, algorithm=algorithm)
    if draw_dist is not None and algorithm in ("pikk", "vitter_z"):
        raise ValueError(f"{algorithm} enumeration does not take a draw distribution")
    if algorithm == "pikk":
        return _pikk_subsets(spec)
    branch = _BRANCH_RULES.get(algorithm, _int_draws)(n, k, draw_dist)
    return _enumerate(lambda src: spec.run(src).as_set(), branch)


def exact_permutation_distribution(n: int, draw_dist=None):
    """Exact distribution over full permutations produced by fisher_yates."""
    return _enumerate(lambda src: fisher_yates(src, n).items, _int_draws(n, n, draw_dist))


def uniform_subset_reference(n: int, k: int) -> dict:
    p = Fraction(1, math.comb(n, k))
    return {
        frozenset(c): p for c in itertools.combinations(range(1, n + 1), k)
    }
