import csv
import io
import json

import pytest

from symident import suites
from symident.cli import main, parse_range, render_table
from symident.sequences import table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_forms(self):
        assert parse_range("1:4", "r") == [1, 2, 3, 4]
        assert parse_range("7", "r") == [7]

    def test_rejects_garbage(self):
        from symident.cli import UsageError
        with pytest.raises(UsageError):
            parse_range("a:b", "r")
        with pytest.raises(UsageError):
            parse_range("4:1", "r")


class TestTableCommand:
    def test_markdown_matches_published_slice(self, capsys):
        code, out, _ = run_cli(capsys, "table", "fib", "--r", "1:3", "--n", "1:6",
                               "--format", "md")
        assert code == 0
        assert "| 2 | 1 | 1 | 2 | 3 | 5 | 8 |" in out

    def test_formats_carry_identical_numbers(self, capsys):
        code, md, _ = run_cli(capsys, "table", "lucas", "--r", "2:4", "--n", "0:5",
                              "--format", "md")
        code2, csv_text, _ = run_cli(capsys, "table", "lucas", "--r", "2:4",
                                     "--n", "0:5", "--format", "csv")
        code3, js, _ = run_cli(capsys, "table", "lucas", "--r", "2:4", "--n", "0:5",
                               "--format", "json")
        assert code == code2 == code3 == 0
        md_cells = [row.strip("|").split("|") for row in md.strip().splitlines()[2:]]
        md_nums = [[int(c.strip()) for c in row[1:]] for row in md_cells]
        csv_rows = list(csv.reader(io.StringIO(csv_text)))
        csv_nums = [[int(c) for c in row[1:]] for row in csv_rows[1:]]
        payload = json.loads(js)
        assert md_nums == csv_nums == payload["values"]

    def test_cnk_blank_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "cnk", "--n", "0:4", "--k", "0:2",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[2] == ["1", "1", "", ""]
        assert rows[5] == ["4", "1", "3", "2"]

    def test_lucas_discrepancy_flagged_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "table", "lucas")
        assert code == 0
        assert "12274" in out
        assert "11274" in err and "12274" in err

    def test_out_of_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "fib", "--n", "0:5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, refused, takes", [
        (("cnk", "--r", "1:2"), "--r", "--n, --k"),
        (("fib", "--k", "1:2"), "--k", "--r, --n"),
        (("lucas", "--n", "0:3", "--k", "1"), "--k", "--r, --n"),
    ])
    def test_option_the_kind_does_not_take_is_refused(self, capsys, argv, refused, takes):
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: table %s does not take %s (it takes %s)\n" % (argv[0], refused, takes)

    def test_empty_range_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "table", "fib", "--r", "")
        assert (code, out, err) == (2, "", "error: bad r range '' (expected a:b)\n")

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table", "fib", "--r", "1:2", "--n", "1:3",
                               "--format", "csv", "-o", str(target))
        assert code == 0 and out == ""
        assert "1,1,2" in target.read_text()

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(capsys, "table", "fib", "-o", "/nonexistent/dir/t.md")
        assert code == 2
        assert "cannot write" in err


class TestVerifyCommand:
    def test_symbolic_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "first-kind", "--family", "h",
                               "--r", "2", "--m-max", "8", "--mode", "symbolic")
        assert code == 0
        assert "9 passed, 0 failed" in out

    def test_congruence_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "congruence", "--r", "2",
                               "--q", "11", "--n-max", "200")
        assert code == 0

    def test_bad_hypothesis_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "congruence", "--r", "4", "--q", "11")
        assert code == 2
        assert "not prime" in err

    def test_failing_check_exits_one(self, capsys):
        # r = 1 satisfies the stated hypotheses but the residue identities
        # genuinely fail for the all-ones sequence
        code, out, _ = run_cli(capsys, "verify", "congruence", "--r", "1",
                               "--q", "7", "--n-max", "20", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["failed"] >= 1
        failing = [r for r in payload["reports"] if r["status"] == "fail"]
        assert failing and "counterexample" in failing[0]

    def test_random_mode_needs_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("SYMIDENT_SEED", raising=False)
        code, _, err = run_cli(capsys, "verify", "first-kind", "--r", "4",
                               "--m-max", "2", "--mode", "random")
        assert code == 2
        assert "seed" in err.lower()

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMIDENT_SEED", "31")
        code, out, _ = run_cli(capsys, "verify", "first-kind", "--family", "e",
                               "--r", "4", "--m-max", "2", "--mode", "random",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 31

    def test_random_output_reproducible(self, capsys):
        args = ("verify", "second-kind", "--family", "p", "--r", "4",
                "--n-max", "4", "--mode", "random", "--seed", "5",
                "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("suite", ["determinants", "cross-oracle"])
    def test_explicit_zero_window_is_not_the_default(self, capsys, suite):
        # --n-max 0 reaches the check and is refused there; it must not be
        # replaced by the suite's default window
        code, out, err = run_cli(capsys, "verify", suite, "--r", "1", "--n-max", "0")
        assert code == 2
        assert out == ""
        assert "n_max >= 1" in err

    def test_explicit_zero_window_is_kept(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "inversion", "--r", "1",
                               "--n-max", "0", "--format", "json")
        assert code == 0
        assert [r["params"]["n"] for r in json.loads(out)["reports"]] == [0]

    @pytest.mark.parametrize("order", ["0", "5", "19"])
    def test_series_below_substitution_order(self, capsys, order):
        code, out, _ = run_cli(capsys, "verify", "series", "--order", order,
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["passed"], payload["failed"]) == (5, 0)

    @pytest.mark.parametrize("argv", [("principal", "--r", "0", "--n-max", "3"),
                                      ("roots", "--r", "0"),
                                      ("first-kind", "--r", "0:2", "--m-max", "2"),
                                      ("cross-oracle", "--r", "0", "--n-max", "5")])
    def test_r_below_one_is_refused_by_its_option(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --r must be >= 1, got %s\n" % argv[2]

    @pytest.mark.parametrize("argv", [("discriminant", "--r", "4"),
                                      ("first-kind", "--r", "1", "--m-max", "-1")])
    def test_run_that_checks_nothing_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "select no checks" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_timings_only_on_request(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "binomial-unit", "--r", "2",
                               "--format", "json")
        assert code == 0
        assert "elapsed_ms" not in out
        code, out, _ = run_cli(capsys, "verify", "binomial-unit", "--r", "2",
                               "--format", "json", "--timings")
        assert code == 0
        assert "elapsed_ms" in out
        # microsecond resolution: a check this small no longer rounds to 0
        assert any(rec["elapsed_ms"] > 0 for rec in json.loads(out)["reports"])
        code, out, _ = run_cli(capsys, "verify", "binomial-unit", "--r", "1:2",
                               "--format", "csv", "--timings")
        assert code == 0
        assert any(float(row[-1]) > 0 for row in list(csv.reader(io.StringIO(out)))[1:])

    def test_closed_form_disagreement_is_a_failing_report(self, capsys, monkeypatch):
        from symident import sequences
        halved = sequences._fib_halved_form
        monkeypatch.setattr(sequences, "_fib_halved_form", lambda r, n: halved(r, n) + 1)
        code, out, err = run_cli(capsys, "verify", "cross-oracle", "--r", "3",
                                 "--n-max", "5", "--format", "json")
        assert code == 1
        assert "Traceback" not in out + err
        (rec,) = json.loads(out)["reports"]
        assert rec["status"] == "fail"
        assert "closed forms disagree at r=3" in rec["counterexample"]

    def test_a_raising_check_is_an_error_report(self, capsys, monkeypatch):
        from symident import identities

        def unit_binomial_sum_check(r):
            raise RuntimeError("injected at r=%d" % r)

        monkeypatch.setattr(identities, "unit_binomial_sum_check", unit_binomial_sum_check)
        code, out, err = run_cli(capsys, "verify", "roots", "--r", "2", "--format", "json")
        assert code == 1 and err == ""
        recs = json.loads(out)["reports"]
        where = "test_cli.py:%d in unit_binomial_sum_check" % (
            unit_binomial_sum_check.__code__.co_firstlineno + 1)
        assert [rec for rec in recs if rec["status"] != "pass"] == [
            {"check": "unit_binomial_sum_check", "params": {"r": 2}, "status": "error",
             "counterexample": "RuntimeError: injected at r=2 (%s)" % where}]
        assert len(recs) == 5  # the row's other checks still ran
        code, out, err = run_cli(capsys, "verify", "roots", "--r", "2")
        assert code == 1 and "Traceback" not in out + err
        assert "| unit_binomial_sum_check[r=2] | error | RuntimeError: injected at r=2 (%s) |" \
            % where in out
        assert "4 passed, 1 failed" in out
        # a ValueError is still a usage error
        monkeypatch.setattr(identities, "unit_binomial_sum_check", lambda r: int("r"))
        code, out, err = run_cli(capsys, "verify", "roots", "--r", "2")
        assert code == 2 and out == "" and err.startswith("error: invalid literal")

    def test_a_value_error_inside_a_check_is_an_error_report(self, capsys, monkeypatch):
        # a ValueError from the check's own body is a bad argument (above);
        # one raised deeper, in the arithmetic it calls, is the check's error
        from symident import identities

        def complete_prefix(n, v):
            raise ValueError("injected")

        monkeypatch.setattr(identities, "complete_prefix", complete_prefix)
        code, out, err = run_cli(capsys, "verify", "genfun-transfer", "--r", "1",
                                 "--format", "json")
        assert code == 1 and err == ""
        (rec,) = json.loads(out)["reports"]
        assert (rec["check"], rec["params"], rec["status"]) == \
            ("genfun_transfer_check", {"r": 1, "order": 6}, "error")
        assert rec["counterexample"].startswith("ValueError: injected (test_cli.py:")

    def test_tables_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "tables", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] == 3


# a small window for every suite in the table
SMALL_WINDOWS = {
    "first-kind": ("--r", "1", "--m-max", "2"),
    "second-kind": ("--r", "1", "--n-max", "2"),
    "genfun-transfer": ("--r", "1"),
    "series": ("--order", "5", "--alpha-max", "2"),
    "principal": ("--r", "1", "--n-max", "2"),
    "principal-combined": ("--r", "1", "--bound", "3"),
    "binomial-unit": ("--r", "1"),
    "roots": ("--r", "1"),
    "discriminant": ("--r", "1"),
    "cross-oracle": ("--r", "1", "--n-max", "5"),
    "inversion": ("--r", "1", "--n-max", "2"),
    "fibonacci-sums": ("--bound", "5"),
    "lucas-sums": ("--bound", "5"),
    "congruence": ("--r", "2", "--q", "11", "--n-max", "30"),
    "determinants": ("--r", "1", "--n-max", "3"),
    "genfun-sequences": ("--r", "1", "--order", "5"),
    "partition-relations": ("--r", "1", "--n-max", "3"),
    "initial-block": ("--r", "1"),
    "consistency": ("--r", "1", "--m-max", "2"),
    "tables": (),
}


class TestSuiteTable:
    def test_small_windows_cover_the_table(self):
        assert SMALL_WINDOWS.keys() == suites.SUITES.keys()

    @pytest.mark.parametrize("suite", list(suites.SUITES))
    def test_every_suite_runs_through_verify(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", suite, *SMALL_WINDOWS[suite],
                                 "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["passed"] >= 1 and payload["failed"] == 0

    @pytest.mark.parametrize("suite", list(suites.SUITES))
    def test_no_suite_ends_in_a_traceback(self, capsys, monkeypatch, suite):
        from symident import identities, sequences

        def _report(*args):
            raise RuntimeError("injected")

        for module in (identities, sequences):
            monkeypatch.setattr(module, "_report", _report)
        code, out, err = run_cli(capsys, "verify", suite, *SMALL_WINDOWS[suite],
                                 "--format", "json")
        assert code == 1 and err == ""
        assert "Traceback" not in out
        recs = json.loads(out)["reports"]
        assert recs and {rec["status"] for rec in recs} == {"error"}
        assert all(rec["counterexample"].startswith("RuntimeError: injected (test_cli.py:")
                   for rec in recs)

    @pytest.mark.parametrize("module, name, suite, build", [
        ("identities", "_expansion_values", "first-kind", "_expansion_row"),
        ("sequences", "fib_recurrence", "inversion", "_inversion_row"),
        ("combinat", "ballot_series", "series", "_series_row"),
    ])
    def test_a_raising_row_build_is_one_error_report(self, capsys, monkeypatch,
                                                     module, name, suite, build):
        import importlib

        def raising(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(importlib.import_module("symident." + module), name, raising)
        argv = SMALL_WINDOWS[suite] + (("--family", "h") if suite == "first-kind" else ())
        code, out, err = run_cli(capsys, "verify", suite, *argv, "--format", "json")
        assert code == 1 and err == "" and "Traceback" not in out
        (rec,) = json.loads(out)["reports"]
        assert (rec["check"], rec["status"]) == (build, "error")
        assert rec["counterexample"].startswith("RuntimeError: injected (test_cli.py:")

    def test_battery_rows_name_table_suites(self):
        for name, options in suites.BATTERY:
            assert name in suites.SUITES
            assert set(options) <= set(suites.SUITES[name][1]), name

    @pytest.mark.parametrize("argv, refused, takes", [
        (("roots", "--r", "2", "--n-max", "100"), "--n-max", "--r"),
        (("tables", "--r", "5"), "--r", "no options"),
        (("initial-block", "--family", "q"), "--family", "--r"),
        (("roots", "--r", "2", "--mode", "random"), "--mode", "--r"),
        (("series", "--r", "1", "--seed", "3"), "--r, --seed", "--order, --alpha-max"),
    ])
    def test_option_the_suite_does_not_take_is_refused(self, capsys, argv, refused, takes):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: suite %s does not take %s (it takes %s)\n" % (argv[0], refused, takes)

    def test_bad_family_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "first-kind", "--family", "q")
        assert code == 2
        assert out == ""
        assert "family must be e, h, p or all" in err

    def test_congruence_needs_a_single_r_with_q(self, capsys):
        code, out, err = run_cli(capsys, "verify", "congruence", "--r", "2:3", "--q", "11")
        assert code == 2
        assert out == ""
        assert "congruence with --q needs a single --r" in err

    @pytest.mark.parametrize("argv, message", [
        (("series", "--alpha-max", "-1"), "series needs --order >= 0 and --alpha-max >= 0"),
        (("series", "--order", "-1"), "series needs --order >= 0 and --alpha-max >= 0"),
        (("principal", "--r", "1", "--n-max", "0"), "principal needs --n-max >= 1"),
        (("principal", "--r", "1", "--n-max", "-1"), "principal needs --n-max >= 1"),
    ])
    def test_window_that_checks_nothing_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: %s\n" % message

    def test_congruence_r_without_q_selects_its_default_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "congruence", "--r", "5",
                               "--n-max", "30", "--format", "json")
        assert code == 0
        assert [rec["params"]["q"] for rec in json.loads(out)["reports"]] == [23, 43]


class TestRenderTable:
    def test_json_is_sorted_and_newline_terminated(self):
        t = table("fib", rows=[1, 2], cols=[1, 2])
        js = render_table(t, "json")
        assert js.endswith("\n")
        assert json.loads(js)["values"] == [[1, 1], [1, 1]]


class TestBadArgv:
    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["table", "fib", "--bogus"]) == 2
