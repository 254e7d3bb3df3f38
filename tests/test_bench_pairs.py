"""scripts/bench_pairs.py's summary and argument checks, on canned
perfbench/run.py results; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "score", "unit": "x", "better": "higher", "bound": 0.1},
]


def result(wall_s, score=1.0):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "score": {"value": score, "unit": "x"}},
    }


def pairs_of(parent, change):
    return [(result(p), result(c)) for p, c in zip(parent, change)]


def test_a_clear_gain_holds():
    parent = [1.60, 1.58, 1.62, 1.59, 1.61, 1.63, 1.57, 1.60, 1.64, 1.56]
    change = [1.46, 1.45, 1.47, 1.44, 1.46, 1.48, 1.43, 1.46, 1.49, 1.45]
    row = bench_pairs.summarise(pairs_of(parent, change), METRICS)[0]
    assert row["metric"] == "wall_s"
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["parent"] == pytest.approx((1.60, 1.5825, 1.6175))
    assert row["change"][0] == pytest.approx(1.46)
    assert row["claim"]
    assert "better in 10/10  gain holds" in bench_pairs.render(row)


def test_a_clear_loss_is_a_regression():
    parent = [1.46, 1.45, 1.47, 1.44, 1.46, 1.48, 1.43, 1.46, 1.49, 1.45]
    change = [1.60, 1.58, 1.62, 1.59, 1.61, 1.63, 1.57, 1.60, 1.64, 1.56]
    row = bench_pairs.summarise(pairs_of(parent, change), METRICS)[0]
    assert (row["wins"], row["losses"]) == (0, 10)
    assert row["regression"] and not row["claim"]
    assert "better in 0/10  gain not shown  worse in 10/10  regression shown" in bench_pairs.render(row)


def test_a_gain_shows_no_regression():
    parent = [1.60, 1.58, 1.62, 1.59, 1.61, 1.63, 1.57, 1.60, 1.64, 1.56]
    change = [1.46, 1.45, 1.47, 1.44, 1.46, 1.48, 1.43, 1.46, 1.49, 1.45]
    row = bench_pairs.summarise(pairs_of(parent, change), METRICS)[0]
    assert row["losses"] == 0 and not row["regression"]
    assert bench_pairs.render(row).endswith("worse in 0/10  regression not shown")


def test_eight_losses_in_ten_or_a_loss_inside_the_parent_iqr_are_no_regression():
    row = bench_pairs.summarise(pairs_of([1.60] * 10, [1.80] * 8 + [1.50] * 2), METRICS)[0]
    assert row["losses"] == 8 and not row["regression"]
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    row = bench_pairs.summarise(pairs_of(parent, [p + 0.01 for p in parent]), METRICS)[0]
    assert row["losses"] == 10 and not row["regression"]


def test_lower_is_worse_where_higher_is_better():
    pairs = [(result(1.0, score=s + 2), result(1.0, score=s)) for s in (10, 11, 10, 11, 10, 11, 10, 11, 10, 11)]
    score = bench_pairs.summarise(pairs, METRICS)[1]
    assert score["losses"] == 10
    assert score["regression"]


def test_eight_wins_in_ten_are_not_a_gain():
    parent = [1.60] * 10
    change = [1.40] * 8 + [1.70] * 2
    row = bench_pairs.summarise(pairs_of(parent, change), METRICS)[0]
    assert row["wins"] == 8
    assert not row["claim"]


def test_ties_count_for_neither_side():
    row = bench_pairs.summarise(pairs_of([1.5] * 10, [1.5] * 10), METRICS)[0]
    assert row["wins"] == 0
    assert not row["claim"]


def test_a_median_gap_inside_the_parent_iqr_is_not_a_gain():
    # the change wins every pair by a little, but the parent's own runs
    # spread by more than the gap
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [p - 0.01 for p in parent]
    row = bench_pairs.summarise(pairs_of(parent, change), METRICS)[0]
    assert row["wins"] == 10
    assert not row["claim"]


def test_higher_is_better_where_the_metric_says_so():
    pairs = [(result(1.0, score=s), result(1.0, score=s + 2)) for s in (10, 11, 10, 11, 10, 11, 10, 11, 10, 11)]
    score = bench_pairs.summarise(pairs, METRICS)[1]
    assert score["wins"] == 10
    assert score["claim"]


def test_checkouts_at_paths_of_different_length_are_refused(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "bb"),
                          "--workload", "murdoch", "--seed", "1"])
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err


def test_a_run_without_a_correct_result_is_an_error(tmp_path):
    # a checkout with no perfbench/run.py: the child exits nonzero
    with pytest.raises(ValueError, match="no correct result"):
        bench_pairs.run_side(str(tmp_path), "murdoch", 1, 1)


def test_a_bytecode_cache_under_either_checkout_is_refused(tmp_path, capsys):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
    for side in ("a", "b"):
        cache = tmp_path / side / "src" / "randaudit" / "__pycache__"
        cache.mkdir(parents=True)
        code = bench_pairs.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                                 "--workload", "murdoch", "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache} exists") and err.count("\n") == 1
        cache.rmdir()


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    # a stand-in perfbench/run.py that imports a module of its checkout,
    # run from an environment that would write bytecode
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "stand_in.py").write_text("VALUE = 1\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "sys.path.insert(0, 'src')\n"
        "import stand_in\n"
        "print(json.dumps({'correct': True, 'flag': os.environ.get('PYTHONDONTWRITEBYTECODE')}))\n"
    )
    result = bench_pairs.run_side(str(tmp_path), "murdoch", 1, 1)
    assert result == {"correct": True, "flag": "1"}
    assert bench_pairs.bytecode_cache(str(tmp_path)) is None
