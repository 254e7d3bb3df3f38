"""Exact output distributions of the sampling algorithms under ideal draws.

The harness runs the real algorithm implementations over every possible
sequence of draw outcomes, weighting each path by its exact probability,
and accumulates the induced distribution as exact rationals.  Paths are
explored by replaying a growing outcome script against the algorithm and
branching wherever the script runs out.

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
  skip itself.  The implementation accumulates q in floats, but at the
  sizes enumerated here every cell is wider than 1e-3 while float error
  stays below 1e-14, so a representative can never be seen on the wrong
  side of a boundary.

random_indices without replacement rejects duplicates; a duplicate draw
leaves the algorithm state unchanged, so the next accepted value is
distributed as the draw distribution conditioned on the unseen values
(the same geometric collapse).  The harness enumerates duplicate-free
scripts with those collapsed weights; the rejection code path itself is
exercised by scripted unit tests.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

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
    """The script ran out at a draw: an integer on {1..m}, or a fraction
    when m is None."""

    def __init__(self, m=None):
        self.m = m


class _Replay:
    """Feeds a recorded outcome script to an algorithm; raises when the
    algorithm asks for a draw beyond the script."""

    def __init__(self, script):
        self._script = script
        self._pos = 0
        self.draws = 0

    def randints(self, ranges) -> list[int]:
        """The scripted values for ``ranges``; raises _NeedDraw at the first
        range past the end of the script."""
        script, pos, out = self._script, self._pos, []
        try:
            for m in ranges:
                if pos == len(script):
                    raise _NeedDraw(m)
                kind, value, m_recorded = script[pos]
                if kind != "i" or m_recorded != m:
                    raise AssertionError("replay diverged from recorded draw sequence")
                out.append(value)
                pos += 1
        finally:
            self.draws += pos - self._pos
            self._pos = pos
        return out

    def randint(self, m: int) -> int:
        return self.randints((m,))[0]

    def fraction(self) -> float:
        if self._pos >= len(self._script):
            raise _NeedDraw()
        kind, value, _ = self._script[self._pos]
        if kind != "f":
            raise AssertionError("replay diverged from recorded draw sequence")
        self._pos += 1
        return value

    fraction_nonzero = fraction

    @property
    def words_used(self) -> int:
        return 0

    def fully_consumed(self) -> bool:
        return self._pos == len(self._script)


def _enumerate(run, branch):
    """DFS over the draw scripts of ``run(source) -> outcome``.

    ``branch(m, script)`` lists the (entry, probability) pairs that extend
    ``script`` at the draw it ran out on (m as in _NeedDraw).  Returns
    {outcome: Fraction}; the masses sum to exactly 1.
    """
    results: dict = defaultdict(Fraction)
    stack = [((), Fraction(1))]
    while stack:
        script, prob = stack.pop()
        src = _Replay(script)
        try:
            outcome = run(src)
        except _NeedDraw as need:
            for entry, p in branch(need.m, script):
                if p:
                    stack.append((script + (entry,), prob * p))
            continue
        if not src.fully_consumed():
            raise AssertionError("algorithm finished without using all draws")
        results[outcome] += prob
    total = sum(results.values())
    if total != 1:
        raise AssertionError(f"path probabilities sum to {total}, not 1")
    return dict(results)


# Branch rules, built from (n, k, draw_dist).  draw_dist(m) -> {value:
# Fraction} is the per-draw distribution, uniform when omitted.

def _uniform(m: int) -> dict[int, Fraction]:
    p = Fraction(1, m)
    return {v: p for v in range(1, m + 1)}


def _int_draws(n, k, draw_dist):
    """Every integer draw on {1..m} branches over draw_dist(m)."""
    dist = draw_dist or _uniform
    return lambda m, script: [(("i", v, m), p) for v, p in dist(m).items()]


def _distinct_draws(n, k, draw_dist):
    """Draw-until-distinct on {1..n}, collapsed: scripts are duplicate-free
    and each accepted value v after the distinct prefix 'seen' carries
    weight p(v) / (1 - p(seen))."""
    base = (draw_dist or _uniform)(n)

    def branch(m, script):
        if m != n:
            raise AssertionError("collapsed enumeration expects draws on {1..n}")
        seen = {entry[1] for entry in script}
        denom = 1 - sum(base[s] for s in seen)
        return [(("i", v, n), p / denom) for v, p in base.items() if v not in seen and p]

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
    """vitter_z: a fraction branches over the exact skip cells (its script
    entry records the skip, so the records seen so far are k plus the skips
    and their records); a slot draw is uniform on {1..k}."""

    def branch(m, script):
        if m is None:
            t = k + sum(entry[2] + 1 for entry in script if entry[0] == "f")
            return [(("f", v, s), p) for s, p, v in _skip_cells(k, t, n - t)]
        if m != k:
            raise AssertionError("vitter slot draw should be on {1..k}")
        return [(("i", v, k), Fraction(1, k)) for v in range(1, k + 1)]

    return branch


# algorithm -> branch rule, where its draws are not plain integer draws
_BRANCH_RULES = {"random_indices": _distinct_draws, "vitter_z": _skips_and_slots}


def _pikk_subsets(spec: SampleSpec):
    n = spec.n
    results: dict = defaultdict(Fraction)
    p = Fraction(1, math.factorial(n))
    for order in itertools.permutations(range(n)):
        # item with rank r in the order gets the r-th smallest fraction
        fracs = [0.0] * n
        for rank, item in enumerate(order):
            fracs[item] = (rank + 1) / (n + 2)
        results[spec.run(ScriptedSource(fractions=fracs)).as_set()] += p
    return dict(results)


ENUMERABLE_ALGORITHMS = tuple(ALGORITHMS)


def exact_subset_distribution(algorithm: str, n: int, k: int, draw_dist=None):
    """Exact distribution over k-subsets of {1..n} induced by an algorithm.

    draw_dist(m) -> {value: Fraction}, optional, replaces the uniform
    integer-draw distribution (not supported for pikk or vitter_z, whose
    extra randomness is fraction-valued).
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
