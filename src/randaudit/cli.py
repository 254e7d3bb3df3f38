"""Command-line front end: generate, sample, bounds tables, audits.

Every command resolves a seed (flag > seed file > RANDAUDIT_SEED env
var), echoes the full configuration and seed into its output header, and
is byte-for-byte reproducible from that header apart from timing fields.

Exit codes, each failure with a one-line ``error:`` on stderr: 0 success;
2 usage error, including alpha outside (0, 1), zero calibration
repetitions, an exhausted scripted source, and a degenerate generator
(DegenerateStreamError: a redraw loop hit its limit); 3 infeasible size,
including ``bounds`` values wider than 2**18 bits (``--state-bits`` above
262144, ``--target-perm`` above about 20,400, C(n,k) above about 78,900
digits).  ``audit sample-frequency --algorithm`` takes all six samplers.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
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


class CliError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _resolve_seed(args, allow_entropy: bool) -> str:
    """Seed precedence: explicit flag, seed file, environment variable.
    Fresh entropy is allowed only where reproducibility is not the point
    (plain generation), and prints a warning."""
    if getattr(args, "seed_string", None) is not None:
        return args.seed_string
    if getattr(args, "seed", None) is not None:
        return str(args.seed)
    if getattr(args, "seed_file", None) is not None:
        return str(load_seed(args.seed_file))
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return env
    if allow_entropy:
        seed = "hex:" + os.urandom(16).hex()
        print(
            f"warning: no seed given; using fresh entropy {seed} "
            f"(pass --seed or set {SEED_ENV} to reproduce)",
            file=sys.stderr,
        )
        return seed
    raise CliError(
        f"a seed is required: pass --seed/--seed-string/--seed-file or set {SEED_ENV}"
    )


def _build_generator(args, seed_text: str):
    variant = PRNG_VARIANTS[args.prng]
    fields = {}
    if variant == "lcg":
        if args.m is None or args.a is None or args.c is None:
            raise CliError("--prng lcg requires --a, --c and --m")
        fields = {"m": args.m, "a": args.a, "c": args.c}
    return seed_generator(variant, seed_text, **fields)


def _generator_and_seed(args, allow_entropy: bool):
    """The --scripted word file, or the --prng generator seeded by
    _resolve_seed, with the seed text the header records."""
    if args.scripted:
        return load_scripted(args.scripted), f"scripted:{args.scripted}"
    seed_text = _resolve_seed(args, allow_entropy)
    return _build_generator(args, seed_text), seed_text


def _header(config: dict) -> str:
    return "# " + json.dumps(config, sort_keys=True)


# ---------------------------------------------------------------------------
# gen

def _cmd_gen(args) -> int:
    gen, seed_text = _generator_and_seed(args, allow_entropy=True)
    if args.emit == "integers" and args.int_range is None:
        raise CliError("--as integers requires --int-range")

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
    if args.emit == "integers":
        randints = RandomSource(gen, method=args.method).randints
        for done in range(0, args.count, DRAW_CHUNK):
            values = randints(repeat(args.int_range, min(DRAW_CHUNK, args.count - done)))
            print("\n".join(map(str, values)))
        return 0
    for _ in range(args.count):
        if args.emit == "words":
            print(gen.next_word())
        else:
            print(repr(gen.next_fraction()))
    return 0


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args) -> int:
    algo_tag = args.algo.replace("-", "_")
    streaming = algo_tag in STREAMING_ALGORITHMS
    if streaming:
        if args.file is None and args.n is None:
            raise CliError(f"--algo {args.algo} needs --file (use - for stdin) or --n")
    elif args.n is None:
        raise CliError(f"--algo {args.algo} needs --n")

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
    if streaming and args.file is not None:
        if args.file == "-":
            sample = spec.run(source, stream=(ln.rstrip("\n") for ln in sys.stdin))
        else:
            with open(args.file, encoding="utf-8") as fh:
                sample = spec.run(source, stream=(ln.rstrip("\n") for ln in fh))
    else:
        sample = spec.run(source)

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
    if args.table1:
        rows = bounds_mod.table1_report()
        if args.format == "csv":
            sys.stdout.write(bounds_mod.render_table1_csv(rows))
        elif args.format == "json":
            print(json.dumps([row.__dict__ for row in rows], indent=2))
        else:
            print(bounds_mod.render_table1_text(rows))
        return 0

    if args.state_bits is None:
        raise CliError("pass --table1 or --state-bits with a target")
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
        raise CliError("pass --target, --target-perm, or --target-n with --target-k")
    rep = bounds_mod.attainable_fraction(args.state_bits, target)
    payload = {
        "state_bits": rep.state_bits,
        "target": label,
        "target_sci": bounds_mod.sci_string(rep.target, 6),
        "fraction": rep.fraction_display,
        "fraction_sci": bounds_mod.sci_string(rep.fraction, 6),
        "l1_lower_bound": rep.l1_display,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(",".join(payload.keys()))
        print(",".join(str(v) for v in payload.values()))
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
            kwargs[name] = _build_generator(args, _resolve_seed(args, allow_entropy=False))
        elif name == "params":
            kwargs[name] = LcgParams(m=args.m, a=args.a, c=args.c)
        elif name == "base_seed":
            kwargs[name] = _resolve_seed(args, allow_entropy=False)
        elif hasattr(args, name):
            kwargs[name] = getattr(args, name)
    report = run(**kwargs)

    if args.format == "csv":
        import csv as csv_lib

        def write_csv(fh):
            writer = csv_lib.writer(fh)
            writer.writerow(audit_mod.AuditReport.CSV_COLUMNS)
            writer.writerow(report.csv_row())

        if args.out is None:
            write_csv(sys.stdout)
        else:
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                write_csv(fh)
    else:
        text = report.to_json()
        if args.out is None:
            print(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    if args.out is not None:
        print(f"# wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

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
    p.add_argument("--seed", help="seed (integer, or any string for --prng hash)")
    p.add_argument("--seed-string", help="explicit string seed for --prng hash")
    p.add_argument("--seed-file", help="file with one hex/decimal seed line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randaudit",
        description="Pseudo-random generators, sampling algorithms, and bias audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit words, fractions, or integers")
    _add_generator_flags(g)
    g.add_argument("--scripted", help="scripted word file (width=<w> header)")
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--as", dest="emit", choices=("words", "fractions", "integers"), default="words")
    g.add_argument("--int-range", type=int, help="integer range {1..M} for --as integers")
    g.add_argument("--method", choices=METHODS, default="mask")
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("sample", help="draw a sample or permutation")
    _add_generator_flags(s)
    s.add_argument("--scripted", help="scripted word file")
    s.add_argument("--n", type=int, help="population size 1..n")
    s.add_argument("--k", type=int, required=True, help="sample size")
    s.add_argument("--file", help="stream file for reservoir algorithms (- for stdin)")
    s.add_argument(
        "--algo",
        choices=_ALGO_NAMES,
        default="random-indices",
        help="sampling algorithm (default random-indices with mask draws)",
    )
    s.add_argument("--method", choices=METHODS, default="mask")
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
    am.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=10 ** 6)
    _add_report_flags(am)

    ac = asub.add_parser("coverage", help="exhaustive permutation coverage of a toy LCG")
    ac.add_argument("--a", type=int, required=True)
    ac.add_argument("--c", type=int, required=True)
    ac.add_argument("--m", type=int, required=True)
    ac.add_argument("--n", type=int, required=True)
    _add_report_flags(ac)

    ad = asub.add_parser("derangement", help="derangement frequency test")
    _add_generator_flags(ad)
    ad.add_argument("--n", type=int, default=7)
    ad.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=10 ** 4)
    ad.add_argument("--alpha", type=float, default=audit_mod.DEFAULT_ALPHA)
    _add_report_flags(ad)

    asp = asub.add_parser("spearman", help="mean rank-correlation test")
    _add_generator_flags(asp)
    asp.add_argument("--n", type=int, default=7)
    asp.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=10 ** 4)
    asp.add_argument("--alpha", type=float, default=audit_mod.DEFAULT_ALPHA)
    _add_report_flags(asp)

    af = asub.add_parser("sample-frequency", help="chi-square over all k-subsets")
    _add_generator_flags(af)
    af.add_argument("--n", type=int, default=5)
    af.add_argument("--k", type=int, default=2)
    af.add_argument("--reps", dest="replications", metavar="REPS", type=int, default=10 ** 4)
    af.add_argument("--algorithm", default="random_indices", choices=tuple(ALGORITHMS))
    af.add_argument("--method", choices=METHODS, default="mask")
    af.add_argument("--alpha", type=float, default=audit_mod.DEFAULT_ALPHA)
    _add_report_flags(af)

    acal = asub.add_parser("calibration", help="100-repetition null battery")
    acal.add_argument("--seed", help="base seed string")
    acal.add_argument("--seed-string", dest="seed_string")
    acal.add_argument("--seed-file")
    acal.add_argument("--repetitions", type=int, default=100)
    acal.add_argument("--alpha", type=float, default=audit_mod.DEFAULT_ALPHA)
    _add_report_flags(acal)

    a.set_defaults(fn=_cmd_audit)
    return parser


def _add_report_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InfeasibleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INFEASIBLE
    except (ValueError, OSError, ScriptedExhaustedError, DegenerateStreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
