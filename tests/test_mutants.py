"""scripts/mutants.py's mutator, on a toy function, its list of
equivalent mutants against the current source, and how it ends a test
run that hangs; no mutant is tested."""

import collections
import importlib.util
import signal
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

TOY = '''
LIMIT = 1 + 2


def f(a: int | None, b=3) -> int:
    if a < b and a is not None:
        a += 1
    return a * 2 << 1


class C:
    K = 5

    def g(self):
        def h(x):
            return x & 7

        return h(self.K) // 2
'''


def test_one_mutant_per_site_in_every_function():
    # module- and class-level code, annotations and defaults are left alone
    assert [(m.line, *m.key) for m in mutants.mutants(TOY)] == [
        (6, "f", "a < b and a is not None -> a < b or a is not None"),
        (6, "f", "a < b -> a <= b"),
        (6, "f", "a is not None -> a is None"),
        (7, "f", "a += 1 -> a -= 1"),
        (7, "f", "a += 1 -> a += 2"),
        (8, "f", "a * 2 << 1 -> a * 2 >> 1"),
        (8, "f", "a * 2 -> a // 2"),
        (8, "f", "a * 2 -> a * 3"),
        (8, "f", "a * 2 << 1 -> a * 2 << 2"),
        (16, "C.g.h", "x & 7 -> x | 7"),
        (16, "C.g.h", "x & 7 -> x & 8"),
        (18, "C.g", "h(self.K) // 2 -> h(self.K) * 2"),
        (18, "C.g", "h(self.K) // 2 -> h(self.K) // 3"),
    ]


def test_a_repeated_text_is_keyed_by_its_site():
    source = "def f(n):\n    a = n - 1\n    b = n - 1\n    return a, b\n"
    assert [(m.line, *m.key) for m in mutants.mutants(source)] == [
        (2, "f", "n - 1 -> n + 1"),
        (2, "f", "n - 1 -> n - 2"),
        (3, "f", "n - 1 -> n + 1 (site 2)"),
        (3, "f", "n - 1 -> n - 2 (site 2)"),
    ]


def test_each_mutant_changes_only_its_site():
    found = mutants.mutants(TOY)
    assert len({m.source for m in found}) == len(found)
    for m in found:
        compile(m.source, "<mutant>", "exec")
        assert m.mutated in m.source and m.original != m.mutated


@pytest.mark.parametrize("stem", sorted(mutants.EQUIVALENT))
def test_every_listed_equivalent_names_a_current_site(stem):
    source = (ROOT / "src" / "randaudit" / f"{stem}.py").read_text(encoding="utf-8")
    sites = collections.Counter(m.key for m in mutants.mutants(source))
    listed = mutants.EQUIVALENT[stem]
    # a key that named two sites would hide a survivor at the second
    assert {key: sites[key] for key in listed if sites[key] != 1} == {}
    assert all(reason.strip() for reason in listed.values())


HANG = "import time\n\n\ndef test_hang():\n    time.sleep(600)\n"
MODULE = Path("src/randaudit/integers.py")


def test_a_run_past_its_timeout_is_killed(tmp_path):
    (tmp_path / "test_hang.py").write_text(HANG)
    started = time.monotonic()
    assert mutants.run_tests([None], MODULE, [str(tmp_path / "test_hang.py")], 0.5, tmp_path) == ["timeout"]
    assert time.monotonic() - started < 60
    assert [path.name for path in tmp_path.iterdir()] == ["test_hang.py"]


def test_a_run_that_maps_more_than_the_memory_limit_fails(tmp_path):
    # 3 GiB of zeroed pages, never touched: no memory is used either way
    (tmp_path / "test_big.py").write_text("def test_big():\n    bytearray(3 << 30)\n")
    assert mutants.run_tests([None], MODULE, [str(tmp_path / "test_big.py")], 60, tmp_path) == ["killed"]


def test_an_interrupt_kills_every_running_test_run(tmp_path, monkeypatch):
    (tmp_path / "test_hang.py").write_text(HANG)
    started = []
    popen = mutants.subprocess.Popen
    monkeypatch.setattr(mutants.subprocess, "Popen", lambda *a, **kw: started.append(popen(*a, **kw)) or started[-1])

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(mutants, "time", SimpleNamespace(monotonic=time.monotonic, sleep=interrupt))
    with pytest.raises(KeyboardInterrupt):
        mutants.run_tests([None, None], MODULE, [str(tmp_path / "test_hang.py")], 600, tmp_path)
    assert len(started) == min(2, mutants.JOBS)
    assert [proc.returncode for proc in started] == [-signal.SIGKILL] * len(started)
