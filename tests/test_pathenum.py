import itertools
import math
from collections import defaultdict
from fractions import Fraction

import pytest

from randaudit import pathenum, sampling

from randaudit.errors import InfeasibleSizeError
from randaudit.generators import ScriptedGenerator
from randaudit.integers import RandomSource, exact_distribution
from randaudit.pathenum import (
    ENUMERABLE_ALGORITHMS,
    _NeedDraw,
    _Replay,
    _skip_cells,
    exact_permutation_distribution,
    exact_subset_distribution,
    uniform_subset_reference,
)
from randaudit.sampling import SampleSpec, ScriptedSource, fisher_yates, reservoir_r, vitter_z
from test_sampling import PROTOCOL


@pytest.mark.parametrize("algorithm", ENUMERABLE_ALGORITHMS)
def test_uniform_on_subsets_spot_check(algorithm):
    for n, k in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (5, 3)]:
        assert exact_subset_distribution(algorithm, n, k) == uniform_subset_reference(n, k)


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


def _vitter_z_admitted(n, k):
    try:
        pathenum._check_paths("vitter_z", n, k)
    except InfeasibleSizeError:
        return False
    return True


def test_vitter_z_skip_cells_are_wider_than_float_error():
    # the margin the pathenum docstring states, over every (n, k) that
    # MAX_PATHS and the record limit admit (n = k + 1 up to k = 3,161):
    # every cell is wider than 3e-5, and vitter_z's float products of
    # (i - k) / i stay within 1e-15 of the exact boundaries, so a cell's
    # midpoint lands in it
    widths, errors = [], [0]
    k = 1
    while _vitter_z_admitted(k + 1, k):
        n = k + 1
        while _vitter_z_admitted(n, k):
            for t in range(k, n):
                widths += [p for _, p, _ in _skip_cells(k, t, n - t)]
                quot, exact = 1.0, Fraction(1)
                for i in range(t + 1, n + 1):
                    quot *= (i - k) / i
                    exact *= Fraction(i - k, i)
                    errors.append(abs(Fraction(quot) - exact))
            n += 1
        k += 1
    assert k == 3162
    # the tail cell at n = 57, k = t = 54: (1/55)(2/56)(3/57)
    assert min(widths) == Fraction(1, 29260) > 3e-5
    assert max(errors) < 1e-15


def test_replay_randints_branches_at_the_first_unscripted_draw():
    # a recorded call comes back whole; the next call is reported whole
    values = (3, 1)
    src = _Replay((([5, 4], values),))
    assert src.randints([]) == []  # no ranges: no call
    assert src.randints(range(5, 3, -1)) is values
    assert src.draws == 2
    assert src.fully_consumed()
    with pytest.raises(_NeedDraw) as need:
        src.randints([3, 2])
    assert need.value.want == [3, 2]
    assert src.draws == 2
    assert src.fully_consumed()


@pytest.mark.parametrize("ranges", [[5, 3], [5], [5, 4, 2], [4, 5]])
def test_replay_refuses_a_call_that_asks_for_other_ranges(ranges):
    src = _Replay((([5, 4], (3, 1)),))
    with pytest.raises(AssertionError, match="diverged"):
        src.randints(ranges)
    assert src.draws == 0


def test_replay_reports_the_rest_of_an_iterator_of_ranges():
    src = _Replay((([4], (2,)),))
    assert src.randint(4) == 2
    with pytest.raises(_NeedDraw) as need:
        src.randints(itertools.repeat(4, 3))
    assert need.value.want == [4, 4, 4]


def test_replay_fraction_reports_one_fraction():
    with pytest.raises(_NeedDraw) as need:
        _Replay(()).fraction()
    assert need.value.want == 1


def test_replay_defines_the_whole_draw_protocol():
    assert all(hasattr(_Replay(()), name) for name in PROTOCOL)


def test_replay_fractions_report_the_whole_count():
    src = _Replay(((1, (0.25,)), (3, (0.5, 0.125, 0.75))))
    # no count: no call, so the recorded calls still come in order
    assert src.fractions(0) == src.fractions(-2) == []
    assert src.fractions(1) == (0.25,)
    with pytest.raises(AssertionError, match="diverged"):
        src.fractions(2)
    assert src.fractions(3) == (0.5, 0.125, 0.75)
    assert src.fully_consumed()
    with pytest.raises(_NeedDraw) as need:
        src.fractions(4)
    assert need.value.want == 4
    assert src.draws == 0


def floor3(m):
    return exact_distribution("floor", 3, m).probs


def brute_force(ranges, run):
    """Every draw tuple over ``ranges`` run through a ScriptedSource, each
    weighted by its floor-w=3 probability."""
    dist = defaultdict(Fraction)
    for draws in itertools.product(*(range(1, m + 1) for m in ranges)):
        p = math.prod(floor3(m)[v] for m, v in zip(ranges, draws))
        src = ScriptedSource(ints=draws)
        outcome = run(src)
        with pytest.raises(IndexError):
            src.randint(8)  # the run used every draw
        if p:
            dist[outcome] += p
    return dict(dist)


def test_fisher_yates_matches_brute_force_over_every_draw_tuple():
    expected = brute_force([5, 4, 3, 2], lambda src: fisher_yates(src, 5).items)
    assert exact_permutation_distribution(5, draw_dist=floor3) == expected


def test_reservoir_r_matches_brute_force_over_every_draw_tuple():
    expected = brute_force([3, 4, 5], lambda src: reservoir_r(range(1, 6), 2, src).as_set())
    assert exact_subset_distribution("reservoir_r", 5, 2, draw_dist=floor3) == expected


# (draws per run, run on a draw source, enumeration under a draw model)
WORD_CASES = {
    **{
        f"{algorithm}_{n}_2": (
            draws,
            lambda src, spec=SampleSpec(n, 2, algorithm=algorithm): spec.run(src).as_set(),
            lambda dist, algorithm=algorithm, n=n: exact_subset_distribution(algorithm, n, 2, draw_dist=dist),
        )
        for algorithm, n, draws in [("fisher_yates", 4, 3), ("cormen", 5, 2), ("reservoir_r", 5, 3)]
    },
    "permutations_4": (
        3,
        lambda src: fisher_yates(src, 4).items,
        lambda dist: exact_permutation_distribution(4, draw_dist=dist),
    ),
}


@pytest.mark.parametrize("method", ["floor", "round"])
@pytest.mark.parametrize("case", sorted(WORD_CASES))
def test_enumeration_matches_every_word_tuple_drawn(method, case):
    # every tuple of 3-bit words drawn through the method's kernel, each
    # with mass 8**-draws, against the enumeration fed the method's exact
    # distribution at width 3
    draws, run, enumerate_under = WORD_CASES[case]
    expected = defaultdict(Fraction)
    for words in itertools.product(range(8), repeat=draws):
        gen = ScriptedGenerator(list(words), 3)
        expected[run(RandomSource(gen, method))] += Fraction(1, 8 ** draws)
        assert gen.words_emitted == draws
    assert enumerate_under(lambda m: exact_distribution(method, 3, m).probs) == expected


@pytest.mark.parametrize(
    "model",
    [{0: Fraction(1, 2), 1: Fraction(1, 2)}, {1: Fraction(1, 3), 2: Fraction(1, 3)}, {1: Fraction(3, 2), 2: Fraction(-1, 2)}],
    ids=["value_0", "mass_2_3", "negative_mass"],
)
def test_a_bad_draw_model_is_refused_before_any_replay(model):
    for algorithm in ("fisher_yates", "random_indices"):
        with pytest.raises(ValueError, match="draw_dist\\(2\\)"):
            exact_subset_distribution(algorithm, 2, 1, draw_dist=lambda m: model)


def test_exactly_k_positive_draw_values_are_drawn_in_every_order():
    model = {1: Fraction(1, 3), 2: Fraction(0), 3: Fraction(2, 3)}
    dist = exact_subset_distribution("random_indices", 3, 2, draw_dist=lambda m: model)
    assert dist == {frozenset({1, 3}): 1}


@pytest.mark.parametrize(
    "n, k, model",
    [
        (3, 2, {1: Fraction(1), 2: Fraction(0), 3: Fraction(0)}),
        (3, 3, {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)}),
    ],
    ids=["one_value_k2", "two_values_k3"],
)
def test_too_few_positive_draw_values_are_refused_before_any_replay(monkeypatch, n, k, model):
    # drawing until k values are distinct could never finish
    def no_replay(path):
        raise AssertionError("replayed a path")

    monkeypatch.setattr(pathenum, "_Replay", no_replay)
    with pytest.raises(ValueError, match=f"draw_dist\\({n}\\) puts positive mass on fewer than k = {k} values"):
        exact_subset_distribution("random_indices", n, k, draw_dist=lambda m: model)


@pytest.mark.parametrize(
    "enumerate_case, replays",
    [
        (lambda: exact_permutation_distribution(6), math.factorial(6) + 1),
        (lambda: exact_subset_distribution("reservoir_r", 6, 2), 3 * 4 * 5 * 6 + 1),
        (lambda: exact_subset_distribution("fisher_yates", 6, 2), math.factorial(6) + 1),
    ],
    ids=["permutations6", "reservoir_r_6_2", "fisher_yates_6_2"],
)
def test_one_replay_per_complete_path_plus_one_per_call(monkeypatch, enumerate_case, replays):
    count = [0]

    class CountingReplay(_Replay):
        def __init__(self, path):
            count[0] += 1
            super().__init__(path)

    monkeypatch.setattr(pathenum, "_Replay", CountingReplay)
    enumerate_case()
    assert count[0] == replays


def test_pikk_enumeration_runs_pikk_once_per_rank_order(monkeypatch):
    calls = [0]

    def counting_pikk(*args):
        calls[0] += 1
        return real_pikk(*args)

    real_pikk = sampling.pikk
    # the enumeration may call pikk by either module's name
    monkeypatch.setattr(sampling, "pikk", counting_pikk)
    monkeypatch.setattr(pathenum, "pikk", counting_pikk)
    assert exact_subset_distribution("pikk", 6, 2) == uniform_subset_reference(6, 2)
    assert calls[0] == math.factorial(6)


# complete draw paths at n = 6, k = 2: 6!, 6!/4!, 6!/2! and 3**4
PATH_COUNTS_6_2 = {"pikk": 720, "fisher_yates": 720, "random_indices": 30, "cormen": 30, "reservoir_r": 360, "vitter_z": 81}


@pytest.mark.parametrize("algorithm", sorted(PATH_COUNTS_6_2))
def test_max_paths_admits_exactly_the_closed_form_count(monkeypatch, algorithm):
    paths = PATH_COUNTS_6_2[algorithm]
    monkeypatch.setattr(pathenum, "MAX_PATHS", paths - 1)
    with pytest.raises(InfeasibleSizeError, match=f"^{algorithm} at n = 6, k = 2 has more than {paths - 1} draw paths$"):
        exact_subset_distribution(algorithm, 6, 2)
    monkeypatch.setattr(pathenum, "MAX_PATHS", paths)
    assert exact_subset_distribution(algorithm, 6, 2) == uniform_subset_reference(6, 2)


@pytest.mark.parametrize("algorithm", sorted(set(PATH_COUNTS_6_2) - {"pikk"}))
def test_the_closed_form_counts_the_complete_paths(monkeypatch, algorithm):
    complete = [0]

    class CountingReplay(_Replay):
        def fully_consumed(self):
            complete[0] += 1
            return super().fully_consumed()

    monkeypatch.setattr(pathenum, "_Replay", CountingReplay)
    exact_subset_distribution(algorithm, 6, 2)
    assert complete[0] == PATH_COUNTS_6_2[algorithm]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exact_subset_distribution("fisher_yates", 40, 10), "fisher_yates at n = 40, k = 10"),
        (lambda: exact_subset_distribution("pikk", 10, 2), "pikk at n = 10, k = 2"),
        (lambda: exact_subset_distribution("vitter_z", 20, 3), "vitter_z at n = 20, k = 3"),
        (lambda: exact_permutation_distribution(14), "fisher_yates at n = 14, k = 14"),
    ],
    ids=["fisher_yates_40_10", "pikk_10_2", "vitter_z_20_3", "permutations_14"],
)
def test_too_many_paths_are_refused_before_any_replay(monkeypatch, call, message):
    # a replay would fail at once, not run for hours
    for name in ("_Replay", "ScriptedSource"):
        monkeypatch.setattr(pathenum, name, None)
    with pytest.raises(InfeasibleSizeError, match=f"^{message} has more than 1,000,000 draw paths$"):
        call()


@pytest.mark.parametrize(
    "algorithm, n, k",
    [("reservoir_r", 10 ** 5 + 1, 10 ** 5), ("vitter_z", 10 ** 5 + 1, 10 ** 5), ("vitter_z", 20, 1)],
)
def test_paths_times_n_above_the_record_limit_are_refused_before_any_replay(monkeypatch, algorithm, n, k):
    # n = k + 1 has only n paths, but each replay walks n records
    for name in ("_Replay", "ScriptedSource"):
        monkeypatch.setattr(pathenum, name, None)
    with pytest.raises(InfeasibleSizeError, match=f"^{algorithm} at n = {n}, k = {k} replays more than 10,000,000 records$"):
        exact_subset_distribution(algorithm, n, k)


@pytest.mark.parametrize("algorithm", sorted(PATH_COUNTS_6_2))
def test_the_record_limit_admits_exactly_paths_times_n(monkeypatch, algorithm):
    records = PATH_COUNTS_6_2[algorithm] * 6
    monkeypatch.setattr(pathenum, "_MAX_PATH_RECORDS", records - 1)
    with pytest.raises(InfeasibleSizeError, match=f"^{algorithm} at n = 6, k = 2 replays more than {records - 1:,} records$"):
        exact_subset_distribution(algorithm, 6, 2)
    monkeypatch.setattr(pathenum, "_MAX_PATH_RECORDS", records)
    assert exact_subset_distribution(algorithm, 6, 2) == uniform_subset_reference(6, 2)


# the branch rules' own checks, each fed a run that breaks its rule

def test_distinct_draws_refuse_a_draw_off_1_to_n():
    with pytest.raises(AssertionError, match="^collapsed enumeration expects draws on "):
        pathenum._enumerate(lambda src: src.randint(4), pathenum._distinct_draws(3, 1, None))


def test_distinct_draws_exclude_and_reweigh_what_earlier_calls_drew():
    # one draw per call: the second call branches over the values the first
    # did not draw, weighted as one call of two draws would weigh them
    def floor_dist(m):
        return exact_distribution("floor", 4, m).probs

    one_call = exact_subset_distribution("random_indices", 5, 2, draw_dist=floor_dist)
    two_calls = pathenum._enumerate(
        lambda src: frozenset((src.randint(5), src.randint(5))), pathenum._distinct_draws(5, 2, floor_dist)
    )
    assert two_calls == one_call


def test_vitter_z_branches_refuse_a_slot_draw_off_1_to_k():
    with pytest.raises(AssertionError, match="^vitter slot draw should be on "):
        pathenum._enumerate(lambda src: src.randint(3), pathenum._skips_and_slots(4, 2, None))


def test_pikk_enumeration_refuses_keys_left_unread(monkeypatch):
    # a pikk that reads n - 1 of its n keys leaves each chunk's last keys over
    monkeypatch.setattr(pathenum, "pikk", lambda src, n, k: sampling.pikk(src, n - 1, k))
    with pytest.raises(AssertionError, match="^pikk left scripted keys unused$"):
        exact_subset_distribution("pikk", 3, 1)


# _enumerate's own checks, fed a custom run and the plain integer branch rule

def test_enumerate_rejects_a_run_that_asks_a_different_range_on_replay():
    calls = [0]

    def run(src):
        calls[0] += 1
        return src.randint(2 if calls[0] == 1 else 3)

    with pytest.raises(AssertionError, match="diverged"):
        pathenum._enumerate(run, pathenum._int_draws(3, 1, None))


def test_enumerate_rejects_a_run_that_leaves_a_scripted_draw_unused():
    calls = [0]

    def run(src):
        calls[0] += 1
        return src.randint(2) if calls[0] == 1 else "done"

    with pytest.raises(AssertionError, match="finished without using all draws"):
        pathenum._enumerate(run, pathenum._int_draws(2, 1, None))


def test_enumerate_rejects_branch_masses_that_do_not_sum_to_one():
    rule = pathenum._int_draws(2, 1, None)

    def half(*args):
        return [(entry, num, den * 2) for entry, num, den in rule(*args)]

    with pytest.raises(AssertionError, match=r"sum to 1/2, not 1"):
        pathenum._enumerate(lambda src: src.randint(2), half)
