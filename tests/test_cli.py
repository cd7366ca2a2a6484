"""Command-line behavior: outputs, exit codes, determinism."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from boundedpd import cli
from boundedpd.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestMatch:
    def test_grim_mirror_prints_totals(self):
        code, out, _ = run_cli(["match", "GRIM", "GRIM", "--N", "10", "--table", "intro"])
        assert code == 0 and out == "10 10\n"

    def test_one_sided_defection(self):
        code, out, _ = run_cli(["match", "AllD", "AllC", "--N", "5", "--table", "intro"])
        assert code == 0 and out == "10 -10\n"

    def test_missing_strategy_file_fails_with_usage_code(self):
        code, _, err = run_cli(["match", "missing.pdstrat", "GRIM"])
        assert code == 2 and "missing.pdstrat" in err

    def test_strategy_file_diagnostics_carry_position(self, tmp_path):
        bad = tmp_path / "bad.pdstrat"
        bad.write_text("strategy X\nif opp == then play C\n")
        code, _, err = run_cli(["match", str(bad), "GRIM"])
        assert code == 2
        assert f"{bad}:2:" in err

    @pytest.mark.parametrize("text, position", [
        ("strategy X\ncounter n: ² bits\nalways play C\n", "2:12: expected counter width in bits"),
        ("strategy X\ncounter n: 2 bits\nif n == ² then play D\nalways play C\n",
         "3:9: expected action, integer, or N, got '²'"),
    ])
    def test_a_superscript_digit_is_a_positioned_diagnostic(self, tmp_path, text, position):
        bad = tmp_path / "x.pdstrat"
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli(["match", str(bad), "GRIM"])
        assert code == 2
        assert err == f"boundedpd: {bad}:{position}\n"

    def test_table_file_and_trace_output(self, tmp_path):
        table = tmp_path / "table.cfg"
        table.write_text("T=3\nR=2\nP=1\nS=-1\nH=-1\n")
        code, out, _ = run_cli([
            "match", "AllD", "AllD", "--N", "4", "--table", str(table),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 0 and out == "4 4\n"
        written = (tmp_path / "run" / "match.csv").read_text()
        assert written.splitlines()[1] == "tick,a1,a2,pay1,pay2,cost1,cost2"

    def test_table_file_with_run_parameters_is_refused(self, tmp_path):
        # The run parameters come from the flags; a table file naming N or
        # mode would otherwise be silently ignored.
        table = tmp_path / "t.cfg"
        table.write_text("T=2\nR=1\nP=-1\nS=-2\nN=50\nmode=OPD\n")
        code, out, err = run_cli(["match", "GRIM", "GRIM", "--table", str(table)])
        assert code == 2 and out == ""
        assert "N, mode" in err and "T,R,P,S,H,Q,Q_hat" in err

    def test_table_file_with_zero_denominator_is_refused(self, tmp_path):
        table = tmp_path / "zero.cfg"
        table.write_text("T=3/0\n")
        code, out, err = run_cli(["match", "GRIM", "GRIM", "--table", str(table)])
        assert (code, out) == (2, "")
        assert err == f"boundedpd: {table}: bad rational for 'T': '3/0'\n"

    def test_table_file_values_take_the_q_flag_syntax(self, tmp_path):
        # Decimals read exactly, as --q and --r read them.
        totals = []
        for name, text in (("ratios.cfg", "T=5/2\nR=3/2\nP=1/3\nS=-1/4\n"),
                           ("decimals.cfg", "T=5/2\nR=1.5\nP=1/3\nS=-0.25\n")):
            table = tmp_path / name
            table.write_text(text)
            code, out, err = run_cli(["match", "TFT", "AllD", "--N", "10", "--table", str(table)])
            assert (code, err) == (0, "")
            totals.append(out)
        assert totals == ["11/4 11/2\n"] * 2

    def test_a_directory_is_no_table_or_spec_file(self, tmp_path):
        for argv in (["match", "GRIM", "GRIM", "--table", str(tmp_path)],
                     ["population", str(tmp_path)]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, "") and str(tmp_path) in err

    def test_bad_config_rejected(self):
        code, _, err = run_cli(["match", "GRIM", "GRIM", "--N", "0"])
        assert code == 2 and "N must be" in err


class TestPopulation:
    @pytest.fixture
    def popspec(self, tmp_path):
        spec = tmp_path / "pop.txt"
        spec.write_text("2 x OFT\n2 x AllD\n")
        return spec

    def test_summary_lines_and_csvs(self, popspec, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli([
            "population", str(popspec), "--N", "10", "--t", "1",
            "--seed", "3", "--out", str(out_dir),
        ])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4 and lines[0].startswith("0 OFT payoff=")
        assert (out_dir / "population.csv").exists()
        assert (out_dir / "summary.csv").exists()

    def test_oft_outscores_the_defectors(self, popspec):
        code, out, _ = run_cli(["population", str(popspec), "--N", "30", "--seed", "5"])
        assert code == 0
        payoffs = {}
        for line in out.splitlines():
            parts = line.split()
            payoffs.setdefault(parts[1], []).append(int(parts[2].split("=")[1]))
        assert min(payoffs["OFT"]) > max(payoffs["AllD"])

    def test_identical_seed_identical_bytes(self, popspec, tmp_path):
        outputs = []
        for i in range(5):
            out_dir = tmp_path / f"run{i}"
            code, _, _ = run_cli([
                "population", str(popspec), "--N", "20", "--seed", "9",
                "--out", str(out_dir),
            ])
            assert code == 0
            outputs.append((out_dir / "population.csv").read_bytes())
        assert all(blob == outputs[0] for blob in outputs)

    def test_a_broken_strategy_file_is_named_in_the_diagnostic(self, tmp_path):
        (tmp_path / "bad2.pdstrat").write_text("strategy Bad\nalways play C\n"
                                               "if opp == D then play Z\n")
        spec = tmp_path / "pop.txt"
        spec.write_text("1 x bad2.pdstrat\n1 x GRIM\n")
        code, out, err = run_cli(["population", str(spec), "--N", "5"])
        assert (code, out) == (2, "")
        assert err == (f"boundedpd: {spec}: line 1: {tmp_path / 'bad2.pdstrat'}:3:23: "
                       "expected action, got 'Z'\n")

    def test_odd_roster_is_a_usage_error(self, tmp_path):
        spec = tmp_path / "odd.txt"
        spec.write_text("3 x GRIM\n")
        code, _, err = run_cli(["population", str(spec), "--N", "5"])
        assert code == 2 and "even" in err


class TestOutputs:
    @pytest.mark.parametrize("argv", [
        ["match", "TFT", "AllD", "--N", "50"],
        ["population", "SPEC", "--N", "30", "--seed", "4", "--instantaneous-rematch"],
    ], ids=["match", "population"])
    def test_no_csv_is_built_without_out(self, argv, tmp_path, monkeypatch):
        spec = tmp_path / "pop.txt"
        spec.write_text("2 x OFT\n1 x AllD\n1 x AllW\n")
        argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
        written = run_cli(argv + ["--out", str(tmp_path / "out")])
        assert written[0] == 0 and any((tmp_path / "out").iterdir())

        def refuse(*args, **kwargs):
            raise AssertionError("a CSV was built without --out")

        for name in ("match_csv", "population_csv", "summary_to_csv"):
            monkeypatch.setattr(cli, name, refuse)
        assert run_cli(argv) == written

class TestAnalyze:
    def test_oft_constant(self):
        code, out, _ = run_cli(["analyze", "--oft-constant", "--q", "1",
                                "--r", "0", "--table", "intro"])
        assert code == 0 and out == "3\n"

    @pytest.mark.parametrize("q, printed", [("0.1234567", "30000000/1234567"),
                                            ("0.0000001", "30000000")])
    def test_oft_constant_takes_q_exactly(self, q, printed):
        code, out, _ = run_cli(["analyze", "--oft-constant", "--q", q])
        assert code == 0 and out == printed + "\n"

    def test_oft_constant_requires_positive_q(self):
        code, _, err = run_cli(["analyze", "--oft-constant", "--q", "0"])
        assert code == 2 and "positive" in err

    def test_fixed_population_security_level(self):
        code, out, _ = run_cli([
            "analyze", "AllC", "--gamma", "all-AllD", "--N", "10", "--size-bound", "5",
        ])
        assert code == 0
        assert "security level: -20.000" in out

    def test_draw_model_report(self):
        code, out, _ = run_cli([
            "analyze", "OFT", "--q", "0.5", "--r", "0", "--N", "40", "--size-bound", "5",
        ])
        assert code == 0 and "competitive ratio" in out

    def test_sweep_emits_cr_rows(self, tmp_path):
        code, out, _ = run_cli([
            "analyze", "OFT", "--q", "0.5", "--r", "0",
            "--sweep-N", "20:40:20", "--size-bound", "5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,security_level,h,competitive_ratio"
        assert len(lines) == 3
        written = (tmp_path / "sweep.csv").read_text()
        assert written.startswith("# config_sha256=")
        assert written.endswith(out)

    def test_strategy_required_without_oft_constant(self):
        code, _, err = run_cli(["analyze", "--q", "0.5"])
        assert code == 2 and "needs a strategy" in err

    def test_models_required(self):
        code, _, err = run_cli(["analyze", "OFT"])
        assert code == 2 and "population models" in err

    @pytest.mark.parametrize("argv, message", [
        (["--oft-constant"], "--oft-constant needs --q"),
        (["OFT", "--gamma", "all-AllD", "--mode", "XYZ"],
         "unknown mode 'XYZ' (expected FTPD or OPD)"),
        (["OFT", "--gamma", "AllD"], "unknown population 'AllD'; expected all-<builtin>"),
        (["OFT", "--gamma", "all-Nope"], "unknown builtin 'Nope' in 'all-Nope'"),
        (["OFT", "--q", "1/2", "--sweep-N", "3:5:0"], "--sweep-N expects START:STOP:STEP"),
        (["OFT", "--q", "1/2", "--sweep-N", "5:3:1"], "--sweep-N produced no horizons"),
    ])
    def test_usage_errors(self, argv, message):
        assert run_cli(["analyze", *argv]) == (2, "", f"boundedpd: {message}\n")

    def test_a_positive_delay_sets_a_rematch_period(self):
        code, out, _ = run_cli(["analyze", "OFT", "--q", "1/2", "--r", "1", "--N", "6",
                                "--size-bound", "4"])
        assert code == 0 and "model draw(q=1/2): mean" in out

    #: ``analyze`` arguments that differ from the first in one input each:
    #: the strategy, the model and the size bound.
    HEADER_INPUTS = [
        ["OFT", "--q", "1/2"],
        ["GRIM", "--q", "1/2"],
        ["OFT", "--q", "1/3"],
        ["OFT", "--q", "1/2", "--size-bound", "5"],
    ]

    @pytest.mark.parametrize("sweep", [[], ["--sweep-N", "4:6:2"]], ids=["report", "sweep"])
    def test_csv_headers_name_their_inputs(self, sweep, tmp_path):
        name = "sweep.csv" if sweep else "report.csv"
        inputs = [argv + sweep for argv in self.HEADER_INPUTS]
        if sweep:
            # Same last horizon, so the same config: only the horizons differ.
            inputs.append(["OFT", "--q", "1/2", "--sweep-N", "3:6:3"])

        def written(argv, out_dir):
            argv = ["analyze", *argv, "--N", "6", "--out", str(out_dir)]
            if "--size-bound" not in argv:
                argv += ["--size-bound", "4"]
            assert run_cli(argv)[0] == 0
            return (out_dir / name).read_bytes()

        blobs = [written(argv, tmp_path / f"run{i}") for i, argv in enumerate(inputs)]
        headers = [blob.split(b"\n", 1)[0] for blob in blobs]
        assert all(header.startswith(b"# config_sha256=") for header in headers)
        assert len(set(headers)) == len(headers)
        assert written(inputs[0], tmp_path / "again") == blobs[0]


class TestOutOfRangeConfig:
    """A config outside the game's ranges is a usage error in every
    subcommand: exit 2 and one ``boundedpd:`` line, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "OFT", "--q", "0.5", "--r", "-1"], "--r must be at least 0"),
        (["analyze", "OFT", "--q", "0.5", "--N", "0"], "N must be at least 1"),
        (["analyze", "OFT", "--q", "0.5", "--k", "1"], "budget k must be at least 2"),
        (["list-strategies", "--N", "0"], "N must be at least 1"),
        (["analyze", "OFT", "--q", "abc"], "--q expects a number, got 'abc'"),
        (["analyze", "OFT", "--q", "1/0"], "--q expects a number, got '1/0'"),
        (["analyze", "OFT", "--q", "0.5", "--r", "x"], "--r expects a number, got 'x'"),
        (["analyze", "OFT", "--q", "1/2", "--r", "0.0000001", "--N", "20",
          "--size-bound", "4"], "--r must be 0 or make 2r+1 a whole number of ticks"),
        (["analyze", "--oft-constant", "--q", "abc"], "--q expects a number"),
        (["analyze", "--oft-constant", "--q", "3/2"],
         "q must be positive and at most 1, got 3/2"),
        (["analyze", "--oft-constant", "--q", "1", "--r", "-5"], "r must be at least 0, got -5"),
        (["analyze", "OFT", "--q", "1.00000000000000000001", "--N", "10", "--size-bound", "4"],
         "q must be in (0, 1], got 100000000000000000001/100000000000000000000"),
        (["analyze", "OFT", "--q", "0.5", "--size-bound", "0"],
         "--size-bound must be at least 1"),
        (["analyze", "OFT", "--gamma", "all-AllD", "--size-bound", "-1"],
         "--size-bound must be at least 1"),
        (["analyze", "GRIM", "--gamma", "all-AllD", "--N", "8", "--size-bound", "2"],
         "size_bound 2 admits no candidate program"),
        (["analyze", "GRIM", "--gamma", "all-AllD", "--N", "8", "--r", "1"],
         "--r is the rematch delay of an opting-out pool; it needs OPD mode"),
    ], ids=["analyze-r", "analyze-N", "analyze-k", "list-strategies-N",
            "analyze-q-word", "analyze-q-zero-denominator", "analyze-r-word",
            "analyze-r-not-whole-ticks",
            "oft-constant-q-word", "oft-constant-q-above-one", "oft-constant-r-negative",
            "analyze-q-just-above-one",
            "analyze-size-bound-0", "analyze-gamma-size-bound-negative",
            "analyze-size-bound-below-every-program", "analyze-r-outside-opd"])
    def test_rejected_with_usage_code(self, argv, message):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("boundedpd: ") and message in err

    @pytest.mark.parametrize("flag, message", [
        (["--N", "0"], "N must be at least 1"),
        (["--t", "0"], "rematch period t must be at least 1"),
    ], ids=["N", "t"])
    def test_population_rejected_with_usage_code(self, tmp_path, flag, message):
        spec = tmp_path / "pop.txt"
        spec.write_text("2 x GRIM\n")
        self.test_rejected_with_usage_code(["population", str(spec)] + flag, message)


class TestListStrategies:
    def test_catalog_listing(self):
        code, out, _ = run_cli(["list-strategies", "--N", "1000"])
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("GRIM\tworst tick cost 2") for line in lines)
        assert any(line.startswith("CountingDefector\tworst tick cost 10") for line in lines)
        assert any("OPD" in line and line.startswith("OFT") for line in lines)

    #: Listings at N = 2 (no CountingDefector) and N = 1000 (a 10-bit counter).
    @pytest.mark.parametrize("n, expected", [
        ("2", "GRIM\tworst tick cost 2\tFTPD+OPD\n"
              "OFT\tworst tick cost 2\tOPD\n"
              "TFT\tworst tick cost 2\tFTPD+OPD\n"
              "AllC\tworst tick cost 0\tFTPD+OPD\n"
              "AllD\tworst tick cost 0\tFTPD+OPD\n"
              "AllW\tworst tick cost 0\tFTPD+OPD\n"),
        ("1000", "GRIM\tworst tick cost 2\tFTPD+OPD\n"
                 "OFT\tworst tick cost 2\tOPD\n"
                 "TFT\tworst tick cost 2\tFTPD+OPD\n"
                 "AllC\tworst tick cost 0\tFTPD+OPD\n"
                 "AllD\tworst tick cost 0\tFTPD+OPD\n"
                 "AllW\tworst tick cost 0\tFTPD+OPD\n"
                 "CountingDefector\tworst tick cost 10\tFTPD+OPD\n"),
    ])
    def test_listing_is_pinned(self, n, expected):
        assert run_cli(["list-strategies", "--N", n]) == (0, expected, "")


class TestFlagSurface:
    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0 and out.startswith("usage: boundedpd")

    def test_population_k_flag_checks_roster_size(self, tmp_path):
        spec = tmp_path / "pop.txt"
        spec.write_text("2 x GRIM\n")
        code, _, _ = run_cli(["population", str(spec), "--N", "5", "--K", "1"])
        assert code == 0
        code, _, err = run_cli(["population", str(spec), "--N", "5", "--K", "3"])
        assert code == 2 and "players" in err

    def test_analyze_mode_flag(self):
        code, out, _ = run_cli([
            "analyze", "AllC", "--gamma", "all-AllD", "--N", "6",
            "--mode", "OPD", "--size-bound", "5",
        ])
        assert code == 0 and "security level" in out
        code, _, err = run_cli(["analyze", "OFT", "--q", "0.5", "--mode", "FTPD",
                                "--N", "6"])
        assert code == 2 and "OPD" in err

    def test_summary_csv_carries_meta(self, tmp_path):
        spec = tmp_path / "pop.txt"
        spec.write_text("2 x GRIM\n")
        code, _, _ = run_cli(["population", str(spec), "--N", "5",
                              "--out", str(tmp_path / "o")])
        assert code == 0
        text = (tmp_path / "o" / "summary.csv").read_text()
        assert text.startswith("# config_sha256=")
