#!/usr/bin/env python3
"""Mutation testing: which one-site changes to a module do the tests miss?

    python3 scripts/mutants.py src/randaudit/integers.py --tests integers --timeout 120

The mutator makes one mutant per site in every function and method of the
module (module- and class-level code is left alone): each comparison
flipped (< and <=, > and >=, == and !=, is and is not, in and not in),
each + and -, << and >>, * and //, & and | swapped (augmented assignments
too), each integer constant plus 1, and each ``and`` and ``or`` swapped.
Annotations are never mutated.

Each mutant is the whole module unparsed from its syntax tree, written
into a copy of the checkout (without .git and caches) of its own in a new
temporary directory (``tempfile.mkdtemp``, so TMPDIR decides where; it is
removed afterwards); so tests that run the CLI or a script in a subprocess
run the mutant too.  The named test set then runs in that copy with
``pytest -x`` and PYTHONPATH set to its src, one mutant per CPU at a time,
and each copy is removed after its run.  A run still going after
``--timeout`` seconds is killed with its process group and counted apart,
as killed: the test suite's own hang limit would fail it.  Each run may
map MEMORY_LIMIT bytes at most, so a mutant that allocates without bound
fails with MemoryError (killed) instead of filling the machine.  An
interrupt (Ctrl-C) kills every running test run before the copies are
removed.  The unmutated checkout must pass the same tests first, or the
script exits 2.

A mutant's key is (function, "original -> mutated" source text), with
" (site i)" added for the i-th site of that function that shows the same
text, from the second on.  A surviving mutant whose key is in EQUIVALENT,
with the reason it cannot change what the module computes, is counted but
not shown; every other survivor is printed as ``path:line function: key
text``.  The exit code is 0 when no unlisted survivor is left and 1
otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# name -> the test files a mutant of the module runs against
TEST_SETS = {
    "integers": (
        "tests/test_integers.py",
        "tests/test_kernels.py",
        "tests/test_stream_contract.py",
        "tests/test_sampling.py",
        "tests/test_pathenum.py",
        "tests/test_refusals.py",
    ),
    "pathenum": (
        "tests/test_pathenum.py",
        "tests/test_stream_contract.py",
        "tests/test_refusals.py",
    ),
    "sampling": (
        "tests/test_sampling.py",
        "tests/test_stream_contract.py",
        "tests/test_pathenum.py",
        "tests/test_refusals.py",
    ),
    "bounds": (
        "tests/test_bounds.py",
        "tests/test_stream_contract.py",
        "tests/test_refusals.py",
        "tests/test_cli.py",
        "tests/test_stats.py",
    ),
}

COMPARE_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}

# module stem -> {mutant key: why the survivor is equivalent};
# tests/test_mutants.py checks that each key names exactly one site.
# In integers.py the mask kernel's fast branch (shift >= 0) and its slow
# branch (the sentinel shift -1) read and reject the same words, so moving
# an m from one to the other, or cutting a plan into other runs, changes
# only the speed.
_SAME_STREAM = "the value moves to the mask kernel's slow branch, which draws the same stream"
_RUN_LENGTH = "only the runs the plan is cut into change: the same (m, shift) pairs in other zips"
_ZERO = "both renderings of 0 read only the empty digits, never its exponents"
_ESTIMATE = "another starting exponent estimate, which the loops correct"
EQUIVALENT: dict[str, dict[tuple[str, str], str]] = {
    "integers": {
        ("_one_word_kernel.kernel", "m < 1 -> m <= 1"): "m = 1 never gets here: 0 < 1 <= 2**w for every width",
        ("_one_word_kernel.kernel", "m < 1 -> m < 2"): "m = 1 never gets here: 0 < 1 <= 2**w for every width",
        ("_pair", "1 < m <= 1 << w -> 1 < m < 1 << w"): "m = 2**w: " + _SAME_STREAM,
        ("_pair", "1 < m <= 1 << w -> 2 < m <= 1 << w"): "m = 2: " + _SAME_STREAM,
        ("_pair", "1 << w -> 1 >> w"): "every m: " + _SAME_STREAM,
        ("_pair", "1 << w -> 2 << w"): "m in (2**w, 2**(w+1)] gets shift w - (w + 1) = -1, the sentinel itself",
        ("_pair", "-1 -> -2"): "every negative shift is the sentinel: the kernel tests shift >= 0, _range_runs shift < 0",
        ("_range_runs", "shift < 0 -> shift <= 0"): _RUN_LENGTH,
        ("_range_runs", "shift < 0 -> shift < 1"): _RUN_LENGTH,
        (
            "_range_runs",
            "1 if shift < 0 else (1 << w - shift) - m + 1 if r.step > 0 else m - (1 << w - shift - 1) -> "
            "2 if shift < 0 else (1 << w - shift) - m + 1 if r.step > 0 else m - (1 << w - shift - 1)",
        ): "the value after a sentinel gets shift -1 too: " + _SAME_STREAM,
        ("_range_runs", "r.step > 0 -> r.step >= 0"): "a range's step is never 0",
        ("_mask_plan", "len(ranges) <= 64 -> len(ranges) < 64"): "only which range plans are cached changes",
        ("_mask_plan", "len(ranges) <= 64 -> len(ranges) <= 65"): "only which range plans are cached changes",
        ("_mask_kernel", "shift >= 0 -> shift > 0"): "m in (2**(w-1), 2**w], shift 0: " + _SAME_STREAM,
        ("_mask_kernel", "shift >= 0 -> shift >= 1"): "m in (2**(w-1), 2**w], shift 0: " + _SAME_STREAM,
        ("_mask_kernel", "m > 1 -> m > 2"): "m = 2 has shift w - 1 >= 0, so it never reaches the slow branch",
        ("floor_sum", "y_max < m -> y_max <= m"): "at y_max == m every a*i + b with i < n is below m, so the rest adds 0",
    },
    # pikk's output depends only on the order of its keys, and any v in the
    # tail cell (0, q) walks vitter_z off the end of the stream
    "pathenum": {
        ("_pikk_subsets", "r + 1 -> r - 1"): "the rank fractions stay distinct and increasing",
        ("_pikk_subsets", "r + 1 -> r + 2"): "the rank fractions stay distinct and increasing",
        ("_pikk_subsets", "n + 2 -> n + 3"): "the rank fractions stay distinct and increasing",
        ("_skip_cells", "q_prev / 2 -> q_prev / 3"): "q/3 lies inside the tail cell (0, q) as q/2 does",
    },
    # shuffles' three branches draw the same ranges in the same order and
    # differ only in how they cut them into randints calls
    "sampling": {
        ("shuffles", "n > DRAW_CHUNK -> n >= DRAW_CHUNK"): "shuffles of n = DRAW_CHUNK move to the slice branch",
        ("shuffles", "n - 1 -> n + 1"): "the extra range slices start past the end of the period, so they are empty",
        ("random_indices", "duplicates = 0 -> duplicates = 1"): "the first draw is always new and sets the count to 0",
        # shuffles(source, n, 1) draws a shuffle of n <= DRAW_CHUNK in the
        # same one randints call, so moving an n to it changes only speed
        ("_shuffle", "1 <= n <= DRAW_CHUNK -> 1 < n <= DRAW_CHUNK"): "n = 1 moves to shuffles(source, 1, 1)",
        ("_shuffle", "1 <= n <= DRAW_CHUNK -> 2 <= n <= DRAW_CHUNK"): "n = 1 moves to shuffles(source, 1, 1)",
        ("_shuffle", "1 <= n <= DRAW_CHUNK -> 1 <= n < DRAW_CHUNK"): "n = DRAW_CHUNK moves to shuffles(source, n, 1)",
    },
    # _rounded's two exact loops move any starting exponent to the one with
    # 1 <= num/den < 10, and the digits depend only on that ratio
    "bounds": {
        ("_rounded", "('', 0, 0, '') -> ('', 1, 0, '')"): _ZERO,
        ("_rounded", "('', 0, 0, '') -> ('', 0, 1, '')"): _ZERO,
        (
            "_rounded",
            "(num.bit_length() - den.bit_length()) * 30103 -> (num.bit_length() - den.bit_length()) // 30103",
        ): _ESTIMATE,
        ("_rounded", "num.bit_length() - den.bit_length() -> num.bit_length() + den.bit_length()"): _ESTIMATE,
        (
            "_rounded",
            "(num.bit_length() - den.bit_length()) * 30103 -> (num.bit_length() - den.bit_length()) * 30104",
        ): _ESTIMATE,
        (
            "_rounded",
            "(num.bit_length() - den.bit_length()) * 30103 // 100000 -> "
            "(num.bit_length() - den.bit_length()) * 30103 // 100001",
        ): _ESTIMATE,
        ("_rounded", "e >= 0 -> e > 0"): "at e = 0 the other branch multiplies num by 10**0 = 1",
        ("_rounded", "e >= 0 -> e >= 1"): "at e = 0 the other branch multiplies num by 10**0 = 1",
        ("_rounded", "num < den -> num <= den"): "num == den gets one more x10, which the second loop puts on den too",
        ("_rounded", "fr < 0 -> fr <= 0"): "fr == 0 has returned already",
    },
}


class Mutant(NamedTuple):
    function: str
    line: int
    original: str
    mutated: str
    source: str
    site: int = 1  # the i-th site of the function that shows this text

    @property
    def key(self) -> tuple[str, str]:
        text = f"{self.original} -> {self.mutated}"
        return self.function, text if self.site == 1 else f"{text} (site {self.site})"


def _edits(node):
    """Each one-site edit of ``node``: (container, field or index, new value)."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE_FLIPS:
                yield node.ops, i, COMPARE_FLIPS[type(op)]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOP_SWAPS:
        yield node, "op", BINOP_SWAPS[type(node.op)]()
    elif isinstance(node, ast.BoolOp):
        yield node, "op", BOOL_SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield node, "value", node.value + 1


def _swap(container, key, value):
    """Set container[key] (or its attribute ``key``) to ``value``; return the old value."""
    if isinstance(container, list):
        container[key], old = value, container[key]
    else:
        old = getattr(container, key)
        setattr(container, key, value)
    return old


# a constant is shown with the expression or simple statement that holds it
_SHOWN_WHOLE = (ast.expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return)


def mutants(source: str) -> list[Mutant]:
    """One mutant per site of ``source``, in source order, each shown as
    the expression it changes (for a constant, what holds it)."""
    tree = ast.parse(source)
    found = []
    sites = collections.Counter()
    for function, node, parent in _walk_functions(tree):
        shown = parent if isinstance(node, ast.Constant) and isinstance(parent, _SHOWN_WHOLE) else node
        for container, key, value in _edits(node):
            before = ast.unparse(shown)
            old = _swap(container, key, value)
            after, mutated = ast.unparse(shown), ast.unparse(tree)
            _swap(container, key, old)
            sites[function, before, after] += 1
            found.append(Mutant(function, node.lineno, before, after, mutated + "\n", sites[function, before, after]))
    return found


def _walk_functions(tree):
    """(qualified function name, node, its parent) for every node a
    function's body holds, in source order: methods as Class.method,
    nested functions under their own name; annotations and decorators are
    skipped."""

    def visit(node, function, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            children = node.body
        else:
            children = [
                child
                for name, value in ast.iter_fields(node) if name not in ("annotation", "returns")
                for child in (value if isinstance(value, list) else [value]) if isinstance(child, ast.AST)
            ]
        for child in children:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, prefix + child.name, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, None, prefix + child.name + ".")
            else:
                if function is not None:
                    yield function, child, node
                yield from visit(child, function, prefix)

    yield from visit(tree, None, "")


# what a copy of the checkout leaves out
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


JOBS = os.cpu_count() or 1  # test runs at a time
MEMORY_LIMIT = 1 << 30  # bytes of address space per test run


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(sources, relative: Path, tests, timeout: float, workdir: Path) -> list[str]:
    """The outcome of ``pytest -x`` over ``tests`` for each source of the
    module at ``relative`` (None: left as it is), each in its own copy of
    the checkout under ``workdir`` importing its src, JOBS at a time:
    survived, killed (a collection error kills too) or timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    outcomes = [""] * len(sources)
    waiting = list(enumerate(sources))[::-1]
    running = {}  # Popen -> (index, its copy, deadline)
    try:
        while waiting or running:
            while waiting and len(running) < JOBS:
                i, source = waiting.pop()
                checkout = workdir / f"m{i:04d}"
                shutil.copytree(ROOT, checkout, ignore=_NOT_COPIED)
                if source is not None:
                    (checkout / relative).write_text(source, encoding="utf-8")
                env["PYTHONPATH"] = str(checkout / "src")
                proc = subprocess.Popen(
                    cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    start_new_session=True, preexec_fn=_limit_memory,
                )
                running[proc] = i, checkout, time.monotonic() + timeout
            time.sleep(0.2)
            for proc, (i, checkout, deadline) in list(running.items()):
                code = proc.poll()
                if code is None and time.monotonic() < deadline:
                    continue
                if code is None:
                    _kill(proc)
                    outcomes[i] = "timeout"
                else:
                    outcomes[i] = {0: "survived", 1: "killed", 2: "killed"}.get(code, f"error (pytest exit {code})")
                del running[proc]
                shutil.rmtree(checkout)
    finally:
        for proc in running:
            _kill(proc)
    return outcomes


def _kill(proc: subprocess.Popen) -> None:
    """Kill a test run and every process its tests started (its process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module under src/, e.g. src/randaudit/integers.py")
    parser.add_argument("--tests", choices=tuple(TEST_SETS), default="integers", help="the named test set")
    parser.add_argument("--timeout", type=float, default=120, help="seconds per mutant's test run")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve()
    if ROOT / "src" not in module.parents:
        parser.error(f"{args.module} is not under {ROOT / 'src'}")
    if args.timeout <= 0:
        parser.error("--timeout must be > 0")
    relative = module.relative_to(ROOT)
    tests = TEST_SETS[args.tests]
    equivalent = EQUIVALENT.get(module.stem, {})
    found = mutants(module.read_text(encoding="utf-8"))

    workdir = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        [baseline] = run_tests([None], relative, tests, args.timeout, workdir)
        if baseline != "survived":
            print(f"the unmutated package does not pass --tests {args.tests}: {baseline}", file=sys.stderr)
            return 2
        outcomes = run_tests([m.source for m in found], relative, tests, args.timeout, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    survivors = [m for m, outcome in zip(found, outcomes) if outcome == "survived"]
    unlisted = [m for m in survivors if m.key not in equivalent]
    errors = [(m, outcome) for m, outcome in zip(found, outcomes) if outcome.startswith("error")]
    print(
        f"{relative}: {len(found)} mutants, {outcomes.count('killed')} killed, "
        f"{outcomes.count('timeout')} timed out, {len(survivors)} survived "
        f"({len(survivors) - len(unlisted)} listed as equivalent), {len(errors)} errors"
    )
    for m, outcome in errors:
        print(f"{relative}:{m.line} {': '.join(m.key)}: {outcome}")
    for m in unlisted:
        print(f"{relative}:{m.line} {': '.join(m.key)}")
    return 1 if unlisted or errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
