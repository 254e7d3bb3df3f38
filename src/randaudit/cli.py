"""Command-line front end: generate, sample, bounds tables, audits.

Every command resolves a seed (its one seed flag, else the RANDAUDIT_SEED
env var), echoes the full configuration and seed into its output header, and
is byte-for-byte reproducible from that header apart from timing fields.

A warning (an unreachable integer range, a stream shorter than the
reservoir, fresh entropy) is one ``warning:`` line on stderr.  Exit codes,
each failure with a one-line ``error:`` on stderr after any warnings (a
usage error is a plain ValueError): 0 success; 2 usage error, including
alpha outside (0, 1), zero calibration repetitions, flags that would be
ignored (``bounds --table1`` with a row's flags, two ``bounds`` target
forms, two seed flags, ``--a``/``--c``/``--m`` without ``--prng lcg``, a
seed or LCG flag with ``--scripted``, ``gen --int-range`` without
``--as integers``), an audit ``--out`` that cannot be opened (refused
before the audit runs), an exhausted scripted source, and a degenerate
generator (DegenerateStreamError: a mask or duplicate redraw loop hit its
limit); 3 infeasible size or out of memory (MemoryError), including
``bounds`` values wider than 2**18 bits (``--state-bits`` above 262144,
``--target-perm`` above about 20,400, C(n,k) above about 78,900 digits), a
derangement audit whose exact rate D_n / n! is too long to print, and a
size above ``sampling.MAX_POPULATION`` (10**8), refused before any output:
n for ``pikk``, ``fisher-yates``, a permutation audit, or ``reservoir-r``
and ``vitter-z`` streaming 1..n; k for ``random-indices`` and
``cormen``.  ``audit sample-frequency --algorithm`` takes all six samplers.

``main(argv)`` may be called repeatedly in one process: it builds its
parser on the first call and reuses it, so a call pays only for parsing
its argv.  ``build_parser()`` returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import warnings
from contextlib import nullcontext
from functools import cache
from itertools import repeat

from . import audit as audit_mod
from . import bounds as bounds_mod
from .errors import DegenerateStreamError, InfeasibleSizeError, ScriptedExhaustedError
from .generators import LcgParams, load_scripted, load_seed, seed_generator
# perfbench/spans.py wraps the three one-draw functions by their names in this module
from .integers import DRAW_CHUNK, METHODS, RandomSource, randint_floor, randint_mask, randint_round  # noqa: F401
from .sampling import ALGORITHMS, STREAMING_ALGORITHMS, SampleSpec

SEED_ENV = "RANDAUDIT_SEED"

USAGE_ERROR = 2
INFEASIBLE = 3

_ALGO_NAMES = tuple(sorted(tag.replace("_", "-") for tag in ALGORITHMS))

# --prng name -> generator variant
PRNG_VARIANTS = {"hash": "hash_counter", "mt": "mt19937", "lcg": "lcg", "wh": "wichmann_hill"}

# argparse dests of the seed flags and of the LCG fields
SEED_FLAGS = ("seed", "seed_file")
LCG_FLAGS = ("a", "c", "m")


def _given(args, dests) -> list[str]:
    """The flags among ``dests`` that the command line set."""
    return ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]


def _resolve_seed(args, allow_entropy: bool) -> str:
    """The seed text, as given: the one seed flag given, else the
    environment variable.  Fresh entropy, 0x and 32 hex digits that every
    generator family reads, is allowed only where reproducibility is not
    the point (plain generation), and prints a warning."""
    given = _given(args, SEED_FLAGS)
    if len(given) > 1:
        raise ValueError(f"pass one seed flag, not {' and '.join(given)}")
    if args.seed_file is not None:
        return load_seed(args.seed_file)
    for seed in (args.seed, os.environ.get(SEED_ENV)):
        if seed is not None:
            return seed
    if allow_entropy:
        value = int.from_bytes(os.urandom(16), "big")
        if args.prng == "lcg":
            value %= args.m  # an LCG refuses a seed of m or more
        seed = f"0x{value:032x}"
        print(
            f"warning: no seed given; using fresh entropy {seed} "
            f"(pass --seed or set {SEED_ENV} to reproduce)",
            file=sys.stderr,
        )
        return seed
    raise ValueError(f"a seed is required: pass --seed or --seed-file or set {SEED_ENV}")


def _build_generator(args, allow_entropy: bool):
    """The --prng generator seeded by _resolve_seed, with the seed text;
    its LCG flags are checked before the seed is resolved."""
    variant = PRNG_VARIANTS[args.prng]
    fields = {}
    if variant == "lcg":
        if args.m is None or args.a is None or args.c is None:
            raise ValueError("--prng lcg requires --a, --c and --m")
        fields = {"m": args.m, "a": args.a, "c": args.c}
        LcgParams(**fields)  # refuses bad flags before any entropy is drawn
    elif given := _given(args, LCG_FLAGS):
        raise ValueError(f"--prng {args.prng} takes no {' or '.join(given)}")
    seed_text = _resolve_seed(args, allow_entropy)
    return seed_generator(variant, seed_text, **fields), seed_text


def _generator_and_seed(args, allow_entropy: bool):
    """The --scripted word file, or _build_generator's generator, with the
    seed text the header records."""
    if args.scripted:
        if given := _given(args, SEED_FLAGS + LCG_FLAGS):
            raise ValueError(f"--scripted takes no {' or '.join(given)}")
        return load_scripted(args.scripted), f"scripted:{args.scripted}"
    return _build_generator(args, allow_entropy)


def _header(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True)


def _emit_csv(fh, rows) -> None:
    """Every CSV the CLI prints: the csv module's default dialect, CR LF line ends."""
    import csv  # loaded only by the commands that print CSV

    csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# gen

def _cmd_gen(args) -> int:
    # checked before the seed is resolved, so a bad input prints no header
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    if args.emit == "integers":
        if args.int_range is None:
            raise ValueError("--as integers requires --int-range")
        if args.int_range < 1:
            raise ValueError("--int-range must be >= 1")
    elif args.int_range is not None:
        raise ValueError(f"--int-range is for --as integers only, not --as {args.emit}")
    gen, seed_text = _generator_and_seed(args, allow_entropy=True)

    config = {
        "command": "gen",
        "generator": gen.spec(),
        "seed": seed_text,
        "count": args.count,
        "as": args.emit,
        "method": args.method if args.emit == "integers" else None,
        "int_range": args.int_range if args.emit == "integers" else None,
    }
    print(_header(config))
    randints = RandomSource(gen, method=args.method).randints
    draw = {
        "words": gen.words,
        "fractions": gen.fractions,
        "integers": lambda count: randints(repeat(args.int_range, count)),
    }[args.emit]
    for done in range(0, args.count, DRAW_CHUNK):
        # repr is str for an int, and the shortest round-trip text for a float
        print("\n".join(map(repr, draw(min(DRAW_CHUNK, args.count - done)))))
    return 0


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args) -> int:
    algo_tag = args.algo.replace("-", "_")
    streaming = algo_tag in STREAMING_ALGORITHMS
    if args.file is not None:
        if not streaming:
            raise ValueError(f"--file is for the streaming algorithms only, not --algo {args.algo}")
        if args.n is not None:
            raise ValueError("--file and --n exclude each other: the stream is the population")
    elif args.n is None:
        hint = " or --file (use - for stdin)" if streaming else ""
        raise ValueError(f"--algo {args.algo} needs --n{hint}")

    gen, seed_text = _generator_and_seed(args, allow_entropy=False)
    source = RandomSource(gen, method=args.method)
    spec = SampleSpec(
        n=args.n,
        k=args.k,
        with_replacement=args.with_replacement,
        algorithm=algo_tag,
    )

    config = {
        "command": "sample",
        "algo": args.algo,
        "n": args.n,
        "k": args.k,
        "file": args.file,
        "generator": gen.spec(),
        "seed": seed_text,
        "method": args.method,
        "with_replacement": args.with_replacement,
    }
    print(_header(config))
    if args.file is None:
        sample = spec.run(source)
    else:
        with nullcontext(sys.stdin) if args.file == "-" else open(args.file, encoding="utf-8") as fh:
            sample = spec.run(source, stream=map(str.rstrip, fh, repeat("\n")))

    for item in sample.items:
        print(item)
    print(
        f"# consumed words={sample.words} bits={sample.bits} "
        f"draws={sample.draws} short={sample.short}"
    )
    return 0


# ---------------------------------------------------------------------------
# bounds

def _cmd_bounds(args) -> int:
    # every input is used or refused: the table takes none, a row one target
    targets = {
        "--target": args.target is not None,
        "--target-perm": args.target_perm is not None,
        "--target-n/--target-k": args.target_n is not None or args.target_k is not None,
    }
    forms = [flag for flag, given in targets.items() if given]
    if args.table1:
        if forms or args.state_bits is not None:
            raise ValueError("--table1 takes no --state-bits or target flags")
        rows = bounds_mod.table1_report()
        if args.format == "csv":
            header = ("feature", "quantity", "full", "scientific")
            _emit_csv(sys.stdout, [header, *(row.__dict__.values() for row in rows)])
        elif args.format == "json":
            print(json.dumps([row.__dict__ for row in rows], indent=2))
        else:
            print(bounds_mod.render_table1_text(rows))
        return 0

    if args.state_bits is None:
        raise ValueError("pass --table1 or --state-bits with a target")
    if len(forms) > 1:
        raise ValueError(f"pass one target, not {' and '.join(forms)}")
    if args.target is not None:
        target = args.target
        label = str(args.target)
    elif args.target_perm is not None:
        target = bounds_mod.factorial(args.target_perm)
        label = f"{args.target_perm}!"
    elif args.target_n is not None and args.target_k is not None:
        target = bounds_mod.binomial(args.target_n, args.target_k)
        label = f"C({args.target_n},{args.target_k})"
    else:
        raise ValueError("pass --target, --target-perm, or --target-n with --target-k")
    rep = bounds_mod.attainable_fraction(args.state_bits, target)
    payload = {
        "state_bits": rep.state_bits,
        "target": label,
        "target_sci": bounds_mod.sci_string(rep.target, 6),
        "fraction": bounds_mod.decimal_string(rep.fraction, 6),
        "fraction_sci": bounds_mod.sci_string(rep.fraction, 6),
        "l1_lower_bound": bounds_mod.decimal_string(rep.l1_lower_bound, 6),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _emit_csv(sys.stdout, [payload.keys(), payload.values()])
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------
# audit

def _cmd_audit(args) -> int:
    # each experiment parameter comes from the flag of the same name, except
    # the generator, the toy LCG's parameters and the calibration seed
    run = audit_mod.EXPERIMENTS[args.audit_command.replace("-", "_")]
    kwargs = {}
    for name in inspect.signature(run).parameters:
        if name == "gen":
            kwargs[name] = _build_generator(args, allow_entropy=False)[0]
        elif name == "params":
            kwargs[name] = LcgParams(m=args.m, a=args.a, c=args.c)
        elif name == "base_seed":
            kwargs[name] = _resolve_seed(args, allow_entropy=False)
        elif hasattr(args, name):
            kwargs[name] = getattr(args, name)

    # --out is opened before the run, so an unwritable path costs no audit;
    # append mode keeps an existing file's bytes until the report replaces them
    target = nullcontext(sys.stdout) if args.out is None else open(args.out, "a", newline="", encoding="utf-8")
    with target as fh:
        report = run(**kwargs)
        if args.out is not None:
            fh.truncate(0)
        if args.format == "csv":
            _emit_csv(fh, [audit_mod.AuditReport.CSV_COLUMNS, report.csv_row()])
        else:
            fh.write(report.to_json() + "\n")
    if args.out is not None:
        print(f"# wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_seed_flags(p: argparse.ArgumentParser, seed_help="seed (integer, or any string for --prng hash)"):
    p.add_argument("--seed", help=seed_help)
    p.add_argument("--seed-file", help="file with one line of seed text, read as --seed reads it")


def _add_generator_flags(p: argparse.ArgumentParser, default_prng="hash"):
    p.add_argument(
        "--prng",
        choices=tuple(PRNG_VARIANTS),
        default=default_prng,
        help="generator family (default: the hash-counter generator)",
    )
    p.add_argument("--a", type=int, help="LCG multiplier")
    p.add_argument("--c", type=int, help="LCG increment")
    p.add_argument("--m", type=int, help="LCG modulus (--prng lcg only)")
    _add_seed_flags(p)


def _add_source_flags(p: argparse.ArgumentParser):
    """gen's and sample's words (a generator or a scripted file) and method."""
    _add_generator_flags(p)
    p.add_argument("--scripted", help="scripted word file (width=<w> header)")
    p.add_argument("--method", choices=METHODS, default="mask")


def _add_report_flags(p: argparse.ArgumentParser, reps=None, alpha=False):
    """An audit's --reps (with its default) and --alpha, if it takes them, and its output."""
    if reps is not None:
        p.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=reps)
    if alpha:
        p.add_argument("--alpha", type=float, default=audit_mod.DEFAULT_ALPHA)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randaudit",
        description="Pseudo-random generators, sampling algorithms, and bias audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit words, fractions, or integers")
    _add_source_flags(g)
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--as", dest="emit", choices=("words", "fractions", "integers"), default="words")
    g.add_argument("--int-range", type=int, help="integer range {1..M} for --as integers")
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("sample", help="draw a sample or permutation")
    _add_source_flags(s)
    s.add_argument("--n", type=int, help="population size 1..n")
    s.add_argument("--k", type=int, required=True, help="sample size")
    s.add_argument("--file", help="stream file for the reservoir algorithms, in place of --n (- for stdin)")
    s.add_argument(
        "--algo",
        choices=_ALGO_NAMES,
        default="random-indices",
        help="sampling algorithm (default random-indices with mask draws)",
    )
    s.add_argument("--with-replacement", action="store_true")
    s.set_defaults(fn=_cmd_sample)

    b = sub.add_parser("bounds", help="attainability fractions and the pigeonhole table")
    b.add_argument("--table1", action="store_true", help="print the full pigeonhole table")
    b.add_argument("--state-bits", type=int)
    b.add_argument("--target", type=int, help="raw target outcome count")
    b.add_argument("--target-perm", type=int, help="target = (this)!")
    b.add_argument("--target-n", type=int, help="target = C(n,k): n")
    b.add_argument("--target-k", type=int, help="target = C(n,k): k")
    b.add_argument("--format", choices=("text", "csv", "json"), default="text")
    b.set_defaults(fn=_cmd_bounds)

    a = sub.add_parser("audit", help="run a bias experiment, emit a report")
    asub = a.add_subparsers(dest="audit_command", required=True)

    am = asub.add_parser("murdoch", help="even/odd split of floor vs mask integers")
    _add_generator_flags(am, default_prng="mt")
    am.add_argument("--method", choices=("floor", "mask"), required=True)
    _add_report_flags(am, reps=10 ** 6)

    ac = asub.add_parser("coverage", help="exhaustive permutation coverage of a toy LCG")
    for flag in ("--a", "--c", "--m", "--n"):
        ac.add_argument(flag, type=int, required=True)
    _add_report_flags(ac)

    for name, summary in (("derangement", "derangement frequency test"), ("spearman", "mean rank-correlation test")):
        ap = asub.add_parser(name, help=summary)
        _add_generator_flags(ap)
        ap.add_argument("--n", type=int, default=7)
        _add_report_flags(ap, reps=10 ** 4, alpha=True)

    af = asub.add_parser("sample-frequency", help="chi-square over all k-subsets")
    _add_generator_flags(af)
    af.add_argument("--n", type=int, default=5)
    af.add_argument("--k", type=int, default=2)
    af.add_argument("--algorithm", default="random_indices", choices=tuple(ALGORITHMS))
    af.add_argument("--method", choices=METHODS, default="mask")
    _add_report_flags(af, reps=10 ** 4, alpha=True)

    acal = asub.add_parser("calibration", help="100-repetition null battery")
    _add_seed_flags(acal, seed_help="base seed string")
    acal.add_argument("--repetitions", type=int, default=100)
    _add_report_flags(acal, alpha=True)

    a.set_defaults(fn=_cmd_audit)
    return parser


def _warn_one_line(message, category, filename, lineno, file=None, line=None):
    # without the library file, line number and source line that Python's
    # default format prints
    print(f"warning: {message}", file=sys.stderr)


@cache
def _main_parser() -> argparse.ArgumentParser:
    """main's parser: built on main's first call, then reused for the
    process.  Parsing leaves a parser as it was: each parse_args makes a
    new namespace with the defaults, and each help text is formatted when
    it is printed."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn_one_line
        try:
            return args.fn(args)
        except (InfeasibleSizeError, MemoryError) as exc:
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return INFEASIBLE
        except (ValueError, OSError, ScriptedExhaustedError, DegenerateStreamError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
