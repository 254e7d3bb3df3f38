import csv
import json
import re

import pytest
from test_stream_contract import CLI_DIGESTS, COMMANDS, sha

from randaudit import audit
from randaudit.cli import INFEASIBLE, SEED_ENV, USAGE_ERROR, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --prng -> its flags, LCG parameters included
PRNG_FLAGS = {
    "hash": ["--prng", "hash"],
    "mt": ["--prng", "mt"],
    "wh": ["--prng", "wh"],
    "lcg": ["--prng", "lcg", "--a", "5", "--c", "1", "--m", "256"],
}


class TestGen:
    def test_hash_words_deterministic(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--prng", "hash", "--seed", "abc", "--count", "3"
        )
        assert code == 0
        header, *values = out.strip().splitlines()
        assert header.startswith("# ")
        assert json.loads(header[2:])["seed"] == "abc"
        code2, out2, _ = run_cli(
            capsys, "gen", "--prng", "hash", "--seed", "abc", "--count", "3"
        )
        assert out2 == out

    def test_randu_trace(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "gen", "--prng", "lcg", "--a", "65539", "--m", "2147483648", "--c", "0",
            "--seed", "1", "--count", "2",
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["65539", "393225"]

    def test_count_zero_prints_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "7", "--count", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("# ")

    def test_entropy_fallback_warns(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV, raising=False)
        code, out, err = run_cli(capsys, "gen", "--count", "1")
        assert code == 0
        assert "entropy" in err
        assert re.search(r" 0x[0-9a-f]{32} ", err)

    def test_integers_need_range(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--seed", "1", "--as", "integers")
        assert code == USAGE_ERROR
        code, out, _ = run_cli(
            capsys,
            "gen", "--seed", "1", "--as", "integers", "--int-range", "6",
            "--count", "5", "--method", "mask",
        )
        assert code == 0
        values = [int(v) for v in out.strip().splitlines()[1:]]
        assert all(1 <= v <= 6 for v in values)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--count", "-1"],
            ["--as", "integers", "--int-range", "0"],
            ["--as", "integers", "--int-range", "-3"],
            ["--as", "integers", "--int-range", "0", "--count", "0"],
        ],
    )
    def test_bad_count_or_range_exits_2_before_the_header(self, capsys, monkeypatch, argv):
        # no seed either: the input check comes before the entropy warning
        monkeypatch.delenv(SEED_ENV, raising=False)
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == USAGE_ERROR
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_wh_and_mt_generators(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--prng", "mt", "--seed", "5489", "--count", "1")
        assert code == 0
        assert out.strip().splitlines()[1] == "3499211612"
        code, out, _ = run_cli(
            capsys, "gen", "--prng", "wh", "--seed", "1", "--count", "1", "--as", "fractions"
        )
        assert code == 0
        assert float(out.strip().splitlines()[1]) < 1.0

    def test_seed_file_reads_as_the_same_seed(self, capsys, tmp_path):
        path = tmp_path / "seed.txt"
        path.write_text("# the seed 0x1f\n0x1f\n")
        from_file = run_cli(capsys, "gen", "--seed-file", str(path), "--count", "3")
        assert from_file == run_cli(capsys, "gen", "--seed", "0x1f", "--count", "3")
        assert from_file[0] == 0

    @pytest.mark.parametrize("text", ["010", "0x1F", "7", "abc", "hex:41", "hex:zz"])
    @pytest.mark.parametrize("prng", sorted(PRNG_FLAGS))
    def test_every_seed_origin_hands_on_the_same_text(self, capsys, monkeypatch, tmp_path, prng, text):
        # --seed, a seed file and RANDAUDIT_SEED give the same stdout, stderr
        # and exit code: the header records the text as given, the hash
        # counter hashes it as it is (hex:41 is six characters, not the byte
        # 0x41), and the integer families read or refuse it
        path = tmp_path / "seed.txt"
        path.write_text(f"# a seed\n{text}\n")
        argv = ["gen", *PRNG_FLAGS[prng], "--count", "2"]
        monkeypatch.delenv(SEED_ENV, raising=False)
        runs = [run_cli(capsys, *argv, "--seed", text), run_cli(capsys, *argv, "--seed-file", str(path))]
        monkeypatch.setenv(SEED_ENV, text)
        runs.append(run_cli(capsys, *argv))
        assert runs[1:] == runs[:1] * 2
        code, out, err = runs[0]
        if prng != "hash" and text in ("abc", "hex:41", "hex:zz"):
            assert (code, out) == (USAGE_ERROR, "")
            assert err == f"error: an integer seed is decimal digits or 0x and hex digits, got '{text}'\n"
        else:
            assert (code, err) == (0, "")
            header = json.loads(out.splitlines()[0][2:])
            assert header["seed"] == text
            if prng == "hash":
                assert header["generator"]["seed"] == text

    @pytest.mark.parametrize("prng", sorted(PRNG_FLAGS))
    def test_fresh_entropy_names_a_seed_that_replays(self, capsys, monkeypatch, prng):
        monkeypatch.delenv(SEED_ENV, raising=False)
        argv = ["gen", *PRNG_FLAGS[prng], "--count", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        [line] = err.splitlines()
        seed = re.fullmatch(
            r"warning: no seed given; using fresh entropy (0x[0-9a-f]{32}) "
            rf"\(pass --seed or set {SEED_ENV} to reproduce\)",
            line,
        ).group(1)
        assert run_cli(capsys, *argv, "--seed", seed) == (0, out, "")

    @pytest.mark.parametrize("m", ["0", "2"])
    def test_refused_lcg_flags_draw_no_entropy(self, capsys, monkeypatch, m):
        # m = 0 and a = 5 >= m = 2 are refused before the seed is resolved,
        # so no fresh-entropy warning names a seed for a run that never starts
        monkeypatch.delenv(SEED_ENV, raising=False)
        code, out, err = run_cli(capsys, "gen", "--prng", "lcg", "--a", "5", "--c", "1", "--m", m)
        assert (code, out) == (USAGE_ERROR, "")
        [line] = err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("text, value", [("010", 10), ("0x1F", 31), ("0o17", None)])
    def test_seed_text_reads_by_one_rule_from_the_flag_and_a_file(self, capsys, tmp_path, text, value):
        # decimal digits, or 0x and hex digits: 010 is ten and 0o17 is refused
        path = tmp_path / "seed.txt"
        path.write_text(f"# a seed\n{text}\n")
        runs = [
            run_cli(capsys, "gen", "--prng", "mt", *flag, "--count", "3")
            for flag in (["--seed", text], ["--seed-file", str(path)])
        ]
        if value is None:
            for code, out, err in runs:
                assert (code, out) == (USAGE_ERROR, "")
                assert err == f"error: an integer seed is decimal digits or 0x and hex digits, got '{text}'\n"
            return
        _, expected, _ = run_cli(capsys, "gen", "--prng", "mt", "--seed", str(value), "--count", "3")
        for code, out, _ in runs:
            assert code == 0
            assert out.splitlines()[1:] == expected.splitlines()[1:]

    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "fromenv")
        code, out, err = run_cli(capsys, "gen", "--count", "1")
        assert code == 0
        assert json.loads(out.splitlines()[0][2:])["seed"] == "fromenv"
        assert err == ""


class TestSample:
    def test_requires_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV, raising=False)
        code, _, err = run_cli(capsys, "sample", "--n", "5", "--k", "2")
        assert code == USAGE_ERROR
        assert "seed" in err

    def test_reproducible_output(self, capsys):
        args = ("sample", "--n", "50", "--k", "10", "--seed", "2026")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_k_greater_than_n(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--n", "3", "--k", "5", "--seed", "1"
        )
        assert code == USAGE_ERROR

    def test_scripted_fisher_yates_trace(self, capsys, tmp_path):
        # width-2 words: j drawn by mask on {0..i}; script realizes j=0 twice
        p = tmp_path / "script.txt"
        p.write_text("width=2\n0\n0\n")
        code, out, _ = run_cli(
            capsys,
            "sample", "--n", "3", "--k", "3", "--algo", "fisher-yates",
            "--scripted", str(p),
        )
        assert code == 0
        assert out.strip().splitlines()[1:4] == ["2", "3", "1"]

    def test_reservoir_fill_phase_from_file(self, capsys, tmp_path):
        lines = tmp_path / "lines.txt"
        lines.write_text("alpha\nbeta\n")
        code, out, _ = run_cli(
            capsys,
            "sample", "--file", str(lines), "--k", "2", "--algo", "reservoir-r",
            "--seed", "9",
        )
        assert code == 0
        assert out.strip().splitlines()[1:3] == ["alpha", "beta"]

    def test_reservoir_needs_file(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--k", "2", "--algo", "vitter-z", "--seed", "1"
        )
        assert code == USAGE_ERROR

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algo", "reservoir-r", "--n", "10", "--k", "2"], "--file and --n"),
            (["--algo", "vitter-z", "--n", "3", "--k", "5"], "--file and --n"),
            (["--algo", "cormen", "--k", "2"], "--file is for the streaming algorithms"),
            (["--algo", "cormen", "--n", "10", "--k", "2"], "--file is for the streaming algorithms"),
        ],
        ids=["reservoir-r-with-n", "vitter-z-with-n-below-k", "cormen", "cormen-with-n"],
    )
    def test_file_is_refused_where_it_would_be_ignored(self, capsys, tmp_path, flags, message):
        stream = tmp_path / "s50.txt"
        stream.write_text("".join(f"{i}\n" for i in range(1, 51)))
        code, out, err = run_cli(capsys, "sample", "--file", str(stream), *flags, "--seed", "1")
        assert code == USAGE_ERROR
        assert out == ""  # refused before the header
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1


class TestBounds:
    def test_table1_text(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--table1")
        assert code == 0
        assert "0.418112" in out
        assert "9.27e+6010" in out

    def test_table1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--table1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "feature,quantity,full,scientific"

    def test_custom_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--state-bits", "32", "--target-n", "50", "--target-k", "10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fraction"] == "0.418112"

    def test_custom_row_csv_parses(self, capsys):
        # the label C(50,10) holds a comma, so the row must quote it
        code, out, _ = run_cli(
            capsys,
            "bounds", "--state-bits", "32", "--target-n", "50", "--target-k", "10",
            "--format", "csv",
        )
        assert code == 0
        header, row = csv.reader(out.splitlines())
        assert len(header) == len(row) == 6
        assert dict(zip(header, row))["target"] == "C(50,10)"

    def test_perm_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--state-bits", "8", "--target-perm", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "6!"
        assert payload["l1_lower_bound"] == "1.28889"

    def test_requires_target(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--state-bits", "32")
        assert code == USAGE_ERROR

    def test_requires_a_flag(self, capsys):
        code, out, err = run_cli(capsys, "bounds")
        assert code == USAGE_ERROR
        assert out == ""
        assert err == "error: pass --table1 or --state-bits with a target\n"

    def test_plain_target_text_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--state-bits", "32", "--target", "100")
        assert code == 0
        assert out.splitlines() == [
            "state_bits: 32",
            "target: 100",
            "target_sci: 1.00000e+2",
            "fraction: 1.00000",
            "fraction_sci: 1.00000e+0",
            "l1_lower_bound: 0",
        ]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--table1", "--state-bits", "32", "--target", "5"], "--table1 takes no"),
            (["--table1", "--target-perm", "13"], "--table1 takes no"),
            (["--table1", "--state-bits", "32", "--format", "csv"], "--table1 takes no"),
            (["--table1", "--target-k", "3"], "--table1 takes no"),
            (["--state-bits", "32", "--target", "5", "--target-perm", "13"], "--target and --target-perm"),
            (["--state-bits", "32", "--target-perm", "13", "--target-n", "50"], "--target-perm and --target-n"),
            (
                ["--state-bits", "32", "--target", "5", "--target-n", "50", "--target-k", "10"],
                "--target and --target-n/--target-k",
            ),
        ],
        ids=["table1-row", "table1-perm", "table1-state-bits", "table1-k", "target-perm", "perm-n", "target-nk"],
    )
    def test_inputs_that_would_be_ignored_are_refused(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "bounds", *flags)
        assert code == USAGE_ERROR
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1


class TestAudit:
    def test_murdoch_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "murdoch", "--prng", "mt", "--seed", "42", "--method", "floor",
            "--reps", "100000",
        )
        assert code == 0
        report = json.loads(out)
        assert report["experiment"] == "murdoch"
        assert abs(report["observed"]["p_even"] - 0.4) < 0.01
        assert report["passed"] is True

    def test_coverage(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "coverage", "--a", "5", "--c", "1", "--m", "256", "--n", "6"
        )
        assert code == 0
        report = json.loads(out)
        assert report["observed"]["distinct_permutations"] <= 256

    def test_audit_requires_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV, raising=False)
        code, _, err = run_cli(
            capsys, "audit", "derangement", "--n", "5", "--reps", "10000"
        )
        assert code == USAGE_ERROR

    def test_infeasible_cells_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "audit", "sample-frequency", "--seed", "1", "--n", "30", "--k", "10",
            "--reps", "10000000",
        )
        assert code == INFEASIBLE

    @pytest.mark.parametrize(
        "m, n, code",
        [(64, 0, USAGE_ERROR), (64, -2, USAGE_ERROR), (64, 9, INFEASIBLE), (2 ** 17, 4, INFEASIBLE)],
    )
    def test_coverage_size_errors(self, capsys, m, n, code):
        got, out, err = run_cli(
            capsys, "audit", "coverage", "--a", "5", "--c", "1", "--m", str(m), "--n", str(n)
        )
        assert got == code
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert ("n must be >= 1" in err) == (code == USAGE_ERROR)
        assert out == ""

    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "3",
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["experiment"] == "coverage"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_holds_the_bytes_stdout_gets(self, capsys, monkeypatch, tmp_path, fmt):
        monkeypatch.setattr(audit.time, "perf_counter", lambda: 0.0)  # duration_s 0
        argv = ["audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "3", "--format", fmt]
        _, printed, _ = run_cli(capsys, *argv)
        out_path = tmp_path / f"report.{fmt}"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0 and out == f"# wrote {out_path}\n"
        assert out_path.read_bytes() == printed.encode("utf-8")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("experiment,seed,replications")


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--table1", "--format", "csv"],
            ["bounds", "--state-bits", "32", "--target-n", "50", "--target-k", "10", "--format", "csv"],
            ["audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "3", "--format", "csv"],
        ],
        ids=["table1", "row", "audit"],
    )
    def test_every_csv_ends_its_lines_with_crlf(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.split("\r\n")
        assert len(lines) > 2 and lines[-1] == ""
        assert not any("\n" in line or "\r" in line for line in lines)

    def test_unopenable_out_exits_2_before_the_audit_runs(self, capsys, monkeypatch, tmp_path):
        calls = []

        def coverage(params, n):
            calls.append((params, n))

        monkeypatch.setitem(audit.EXPERIMENTS, "coverage", coverage)
        code, out, err = run_cli(
            capsys,
            "audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "3",
            "--out", str(tmp_path / "missing" / "r.json"),
        )
        assert code == USAGE_ERROR
        assert calls == [] and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    def test_failed_run_leaves_an_existing_out_file_as_it_was(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        out_path.write_bytes(b"old report\r\n")
        code, out, err = run_cli(
            capsys,
            "audit", "coverage", "--a", "5", "--c", "1", "--m", "64", "--n", "0",
            "--out", str(out_path),
        )
        assert code == USAGE_ERROR and "n must be >= 1" in err
        assert out_path.read_bytes() == b"old report\r\n"


class TestUsageErrors:
    def test_scripted_exhaustion_is_a_clean_error(self, capsys, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("width=8\n1\n2\n")
        code, _, err = run_cli(capsys, "gen", "--scripted", str(p), "--count", "5")
        assert code == USAGE_ERROR
        assert "exhausted" in err

    def test_warning_is_one_line_before_the_error(self, capsys, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("width=5\n1\n2\n")
        code, _, err = run_cli(
            capsys, "sample", "--scripted", str(p), "--algo", "cormen", "--n", "40", "--k", "3",
            "--method", "floor",
        )
        assert code == USAGE_ERROR
        assert err.splitlines() == [
            "warning: m=38 exceeds the word range 2**5; at least 6 values can never be produced",
            "error: scripted source exhausted after 2 words",
        ]

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--frobnicate"])
        assert exc.value.code == USAGE_ERROR

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--seed", "1", "--seed-file", "s.txt"], "pass one seed flag, not --seed and --seed-file"),
            (["sample", "--n", "5", "--k", "2", "--seed", "1", "--seed-file", "s.txt"], "--seed and --seed-file"),
            (["audit", "calibration", "--seed", "x", "--seed-file", "s.txt"], "pass one seed flag"),
            (["gen", "--prng", "hash", "--m", "5", "--a", "3", "--c", "1", "--seed", "x"],
             "--prng hash takes no --a or --c or --m"),
            # no seed: the flag is refused before gen warns of fresh entropy
            (["gen", "--prng", "mt", "--c", "1"], "--prng mt takes no --c"),
            (["audit", "murdoch", "--method", "mask", "--seed", "1", "--m", "5"], "--prng mt takes no --m"),
            (["audit", "spearman", "--seed", "1", "--a", "3"], "--prng hash takes no --a"),
            (["gen", "--scripted", "SCRIPT", "--seed", "1"], "--scripted takes no --seed"),
            (["sample", "--scripted", "SCRIPT", "--n", "5", "--k", "2", "--m", "5"], "--scripted takes no --m"),
            (["gen", "--seed", "1", "--int-range", "6"], "--int-range is for --as integers only, not --as words"),
            (["gen", "--seed", "1", "--as", "fractions", "--int-range", "6"], "not --as fractions"),
        ],
    )
    def test_flags_that_would_be_ignored_are_refused(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.delenv(SEED_ENV, raising=False)
        script = tmp_path / "script.txt"
        script.write_text("width=8\n1\n2\n")
        code, out, err = run_cli(capsys, *(str(script) if arg == "SCRIPT" else arg for arg in argv))
        assert code == USAGE_ERROR
        assert out == ""  # refused before the header
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    def test_lcg_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--prng", "lcg", "--seed", "1")
        assert code == USAGE_ERROR
        assert "--a" in err or "lcg" in err


class TestOneParserPerProcess:
    """main parses every call with one parser; no call leaves a trace in the next."""

    HELP_PATHS = [
        [], ["gen"], ["sample"], ["bounds"], ["audit"],
        *(["audit", name.replace("_", "-")] for name in sorted(audit.EXPERIMENTS)),
    ]

    def test_contract_commands_match_their_digests_around_an_error_and_a_help(self, capsys):
        def check(command):
            assert main(COMMANDS[command]) == 0
            out = re.sub(r'"duration_s": [0-9.e+-]+', '"duration_s": 0', capsys.readouterr().out)
            assert sha(out) == CLI_DIGESTS[command], command

        for command in sorted(COMMANDS):
            check(command)
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--frobnicate"])
        assert exc.value.code == USAGE_ERROR
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        for command in sorted(COMMANDS, reverse=True):
            check(command)

    @pytest.mark.parametrize(
        "first, second, key, value",
        [
            (["sample", "--seed", "1", "--n", "10", "--k", "3", "--with-replacement"],
             ["sample", "--seed", "1", "--n", "10", "--k", "3"], "with_replacement", False),
            (["gen", "--seed", "1", "--as", "integers", "--int-range", "7"],
             ["gen", "--seed", "1", "--as", "words"], "int_range", None),
        ],
        ids=["with-replacement", "int-range"],
    )
    def test_a_flag_never_reaches_the_next_calls_header(self, capsys, first, second, key, value):
        # a leaked --int-range would also make the second gen exit 2
        assert run_cli(capsys, *first)[0] == 0
        code, out, _ = run_cli(capsys, *second)
        assert code == 0
        assert json.loads(out.splitlines()[0][2:])[key] == value

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("path", HELP_PATHS, ids=lambda path: " ".join(path) or "randaudit")
    def test_help_matches_a_fresh_parsers_on_every_call(self, capsys, path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*path, "--help"])
        fresh = capsys.readouterr().out
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([*path, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == fresh
