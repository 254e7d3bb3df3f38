"""Every subcommand's flags, recorded: a refactor of the parser must keep
each option string, dest, type, default, choice and required setting."""

import argparse

from randaudit.cli import build_parser

# command -> flag -> (dest, type, default, choices, required)
FLAGS = {
    "gen": {
        "--prng": ("prng", None, "hash", ("hash", "mt", "lcg", "wh"), False),
        "--a": ("a", "int", None, None, False),
        "--c": ("c", "int", None, None, False),
        "--m": ("m", "int", None, None, False),
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--scripted": ("scripted", None, None, None, False),
        "--count": ("count", "int", 10, None, False),
        "--as": ("emit", None, "words", ("words", "fractions", "integers"), False),
        "--int-range": ("int_range", "int", None, None, False),
        "--method": ("method", None, "mask", ("floor", "round", "mask"), False),
    },
    "sample": {
        "--prng": ("prng", None, "hash", ("hash", "mt", "lcg", "wh"), False),
        "--a": ("a", "int", None, None, False),
        "--c": ("c", "int", None, None, False),
        "--m": ("m", "int", None, None, False),
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--scripted": ("scripted", None, None, None, False),
        "--n": ("n", "int", None, None, False),
        "--k": ("k", "int", None, None, True),
        "--file": ("file", None, None, None, False),
        "--algo": ("algo", None, "random-indices", ("cormen", "fisher-yates", "pikk", "random-indices", "reservoir-r", "vitter-z"), False),
        "--method": ("method", None, "mask", ("floor", "round", "mask"), False),
        "--with-replacement": ("with_replacement", None, False, None, False),
    },
    "bounds": {
        "--table1": ("table1", None, False, None, False),
        "--state-bits": ("state_bits", "int", None, None, False),
        "--target": ("target", "int", None, None, False),
        "--target-perm": ("target_perm", "int", None, None, False),
        "--target-n": ("target_n", "int", None, None, False),
        "--target-k": ("target_k", "int", None, None, False),
        "--format": ("format", None, "text", ("text", "csv", "json"), False),
    },
    "audit murdoch": {
        "--prng": ("prng", None, "mt", ("hash", "mt", "lcg", "wh"), False),
        "--a": ("a", "int", None, None, False),
        "--c": ("c", "int", None, None, False),
        "--m": ("m", "int", None, None, False),
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--method": ("method", None, None, ("floor", "mask"), True),
        "--reps": ("replications", "int", 1000000, None, False),
        "--out": ("out", None, None, None, False),
        "--format": ("format", None, "json", ("json", "csv"), False),
    },
    "audit coverage": {
        "--a": ("a", "int", None, None, True),
        "--c": ("c", "int", None, None, True),
        "--m": ("m", "int", None, None, True),
        "--n": ("n", "int", None, None, True),
        "--out": ("out", None, None, None, False),
        "--format": ("format", None, "json", ("json", "csv"), False),
    },
    "audit derangement": {
        "--prng": ("prng", None, "hash", ("hash", "mt", "lcg", "wh"), False),
        "--a": ("a", "int", None, None, False),
        "--c": ("c", "int", None, None, False),
        "--m": ("m", "int", None, None, False),
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--n": ("n", "int", 7, None, False),
        "--reps": ("replications", "int", 10000, None, False),
        "--alpha": ("alpha", "float", 0.001, None, False),
        "--out": ("out", None, None, None, False),
        "--format": ("format", None, "json", ("json", "csv"), False),
    },
    "audit spearman": {
        "--prng": ("prng", None, "hash", ("hash", "mt", "lcg", "wh"), False),
        "--a": ("a", "int", None, None, False),
        "--c": ("c", "int", None, None, False),
        "--m": ("m", "int", None, None, False),
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--n": ("n", "int", 7, None, False),
        "--reps": ("replications", "int", 10000, None, False),
        "--alpha": ("alpha", "float", 0.001, None, False),
        "--out": ("out", None, None, None, False),
        "--format": ("format", None, "json", ("json", "csv"), False),
    },
    "audit sample-frequency": {
        "--prng": ("prng", None, "hash", ("hash", "mt", "lcg", "wh"), False),
        "--a": ("a", "int", None, None, False),
        "--c": ("c", "int", None, None, False),
        "--m": ("m", "int", None, None, False),
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--n": ("n", "int", 5, None, False),
        "--k": ("k", "int", 2, None, False),
        "--reps": ("replications", "int", 10000, None, False),
        "--algorithm": ("algorithm", None, "random_indices", ("pikk", "fisher_yates", "random_indices", "cormen", "reservoir_r", "vitter_z"), False),
        "--method": ("method", None, "mask", ("floor", "round", "mask"), False),
        "--alpha": ("alpha", "float", 0.001, None, False),
        "--out": ("out", None, None, None, False),
        "--format": ("format", None, "json", ("json", "csv"), False),
    },
    "audit calibration": {
        "--seed": ("seed", None, None, None, False),
        "--seed-file": ("seed_file", None, None, None, False),
        "--repetitions": ("repetitions", "int", 100, None, False),
        "--alpha": ("alpha", "float", 0.001, None, False),
        "--out": ("out", None, None, None, False),
        "--format": ("format", None, "json", ("json", "csv"), False),
    },
}


def subcommands(parser, path=()):
    """(command path, parser) for each leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, path + (name,))
            return
    yield " ".join(path), parser


def record(parser):
    return {
        ", ".join(a.option_strings): (a.dest, a.type and a.type.__name__, a.default, a.choices, a.required)
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction)
    }


def test_every_subcommand_keeps_its_flags():
    got = {path: record(parser) for path, parser in subcommands(build_parser())}
    assert got.keys() == FLAGS.keys()
    for path, flags in FLAGS.items():
        assert got[path] == flags, path
