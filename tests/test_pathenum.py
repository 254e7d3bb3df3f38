from fractions import Fraction

import pytest

from randaudit.integers import exact_distribution
from randaudit.pathenum import (
    ENUMERABLE_ALGORITHMS,
    _NeedDraw,
    _Replay,
    _skip_cells,
    exact_permutation_distribution,
    exact_subset_distribution,
    uniform_subset_reference,
)
from randaudit.sampling import ScriptedSource, vitter_z


@pytest.mark.parametrize("algorithm", ENUMERABLE_ALGORITHMS)
def test_uniform_on_subsets_spot_check(algorithm):
    assert exact_subset_distribution(algorithm, 4, 2) == uniform_subset_reference(4, 2)
    assert exact_subset_distribution(algorithm, 5, 3) == uniform_subset_reference(5, 3)


def test_cormen_five_choose_two_exhaustive():
    dist = exact_subset_distribution("cormen", 5, 2)
    assert len(dist) == 10
    assert all(p == Fraction(1, 10) for p in dist.values())


def test_fisher_yates_all_24_permutations_equally_often():
    dist = exact_permutation_distribution(4)
    assert len(dist) == 24
    assert set(dist.values()) == {Fraction(1, 24)}


def test_masses_always_sum_to_one():
    for algorithm in ENUMERABLE_ALGORITHMS:
        dist = exact_subset_distribution(algorithm, 6, 2)
        assert sum(dist.values()) == 1


def test_biased_draws_break_uniformity():
    # feed the floor method's width-4 distribution into the samplers: the
    # induced subset distribution must show the bias exactly
    def floor_dist(m):
        return exact_distribution("floor", 4, m).probs

    for algorithm in ("random_indices", "fisher_yates", "cormen", "reservoir_r"):
        dist = exact_subset_distribution(algorithm, 5, 2, draw_dist=floor_dist)
        assert sum(dist.values()) == 1
        assert any(p != Fraction(1, 10) for p in dist.values()), algorithm


def test_biased_random_indices_collapse_matches_direct_formula():
    # two draws without replacement: P({a,b}) = p_a p_b / (1-p_a) + p_b p_a / (1-p_b)
    def floor_dist(m):
        return exact_distribution("floor", 4, m).probs

    p = floor_dist(5)
    dist = exact_subset_distribution("random_indices", 5, 2, draw_dist=floor_dist)
    for pair, mass in dist.items():
        a, b = sorted(pair)
        expected = p[a] * p[b] / (1 - p[a]) + p[b] * p[a] / (1 - p[b])
        assert mass == expected


def test_draw_dist_rejected_where_meaningless():
    with pytest.raises(ValueError):
        exact_subset_distribution("pikk", 4, 2, draw_dist=lambda m: {})
    with pytest.raises(ValueError):
        exact_subset_distribution("vitter_z", 4, 2, draw_dist=lambda m: {})


def test_vitter_z_follows_skip_cells_on_long_streams():
    # k=2 over 2,000 records: the cell representatives for skip 200 from
    # t=2 and skip 37 from t=203 keep records 203 and 241, and the tail
    # cell from t=241 walks off the end; long skips use the same rule
    k, length = 2, 2000

    def representative(t, skip=None):
        cells = list(_skip_cells(k, t, length - t))
        return cells[-1][2] if skip is None else cells[skip][2]

    src = ScriptedSource(
        ints=[1, 2],
        fractions=[representative(2, 200), representative(203, 37), representative(241)],
    )
    sample = vitter_z(range(1, length + 1), k, src)
    assert sample.items == (203, 241)
    assert sample.draws == 2
    with pytest.raises(IndexError):
        src.fraction()  # every scripted fraction was used


def test_replay_randints_branches_at_the_first_unscripted_draw():
    src = _Replay((("i", 3, 5), ("i", 1, 4)))
    with pytest.raises(_NeedDraw) as need:
        src.randints([5, 4, 3, 2])
    assert need.value.m == 3
    assert src.draws == 2
    assert src.fully_consumed()
