import json
import math
import warnings

import pytest

from cylbif.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEigen:
    def test_n3_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "eigen.json"
        code, out, _ = run_cli(capsys, "eigen", "--n", "3", "--k", "1",
                               "--json-out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["lambda1"] == pytest.approx(math.pi**2 - 1, rel=1e-9)

    def test_norm_residual_reported(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--n", "2", "--k", "-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["norm_residual"] < 1e-9

    def test_lambda1_below_scan_start(self, capsys):
        code, out, _ = run_cli(capsys, "eigen", "--n", "12", "--k", "7")
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(0.04750873059, rel=1e-6)

    def test_invalid_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--n", "1", "--k", "1")
        assert code == 2
        assert "n >= 2" in err

    @pytest.mark.parametrize("k", ["nan", "-inf", "inf"])
    def test_nonfinite_curvature_is_usage_error(self, capsys, k):
        code, out, err = run_cli(capsys, "eigen", "--n", "2", f"--k={k}")
        assert code == 2
        assert out == ""
        assert err == f"error: curvature k must be finite and nonzero, got k={k}\n"

    def test_option_prefix_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # --j is no abbreviation of --json-out
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eigen", "--n", "3", "--k", "1", "--j", "5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --j 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestScan:
    def test_rows_and_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--k", "1", "--tlo", "0.5", "--thi", "50",
            "--points", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21
        assert lines[0].startswith("n,k,j,T,")
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[4]) > 0.0 > float(last[4])  # endpoint signs
        assert all(line.rsplit(",", 1)[1] == "true" for line in lines[1:])

    def test_failure_reason_on_stderr(self, capsys):
        # k = -4 puts C_k(1) outside the closed form's series disk for the
        # conical degrees of T = 5 and T = 50; T = 0.5 has a real degree
        argv = ("scan", "--n", "2", "--k", "-4", "--points", "3")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("2/3 rows disagree; first at T=4.99")
        assert "series disk" in err
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[5] == "nan" for row in rows] == [False, True, True]

    def test_overflow_prints_one_stderr_line(self, capsys):
        # at T <= 0.0077 both closed-form Legendre/Ferrers values overflow;
        # the failing rows must print no floating-point warnings, and the
        # one stderr line names the overflow
        argv = ("scan", "--n", "2", "--k", "1", "--tlo", "0.004", "--thi", "0.04",
                "--points", "8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert err.count("\n") == 1
        assert err.startswith("3/8 rows disagree; first at T=0.004: closed form overflows at "
                              "T=0.004, j=1")

    def test_refused_rows_print_the_first_rows_own_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "3", "--k", "9.5")
        assert code == 1
        assert err == (
            "200/200 rows disagree; first at T=0.5: degree-form hypergeometric series "
            "did not converge within 10000 terms (nu=(-0.5+3.947605083649689j), c=1.5, "
            "w=0.9991185951609711)\n"
        )

    def test_single_point_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--n", "2", "--k", "1", "--tlo", "1", "--thi", "2",
            "--points", "1",
        )
        assert code == 2
        assert "points" in err


class TestBifurcate:
    def test_report_contents_and_determinism(self, capsys, tmp_path):
        args = (
            "bifurcate", "--n", "2", "--k", "1", "--epsilon", "0.1",
            "--profile-samples", "64",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(out1)
        assert payload["T_star"] > 0.0
        assert 1 in payload["kernel_modes"]
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2  # byte-identical repeated run

    def test_deep_kernel_probe(self, capsys):
        # T_star ~ 0.52 puts the probe at T_star/64 at sqrt(-Lam) ~ 770
        code, out, _ = run_cli(capsys, "bifurcate", "--n", "3", "--k", "8.4")
        assert code == 0
        assert json.loads(out)["kernel_modes"] == [1]

    def test_profile_output(self, capsys, tmp_path):
        profile_path = tmp_path / "profile.csv"
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "bifurcate", "--n", "3", "--k", "1",
            "--report-out", str(report_path), "--profile-out", str(profile_path),
            "--epsilon", "0.2", "--profile-samples", "32",
        )
        assert code == 0
        lines = profile_path.read_text().strip().splitlines()
        assert lines[0] == "t,rho"
        rho = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(sum(r - 1.0 for r in rho) / len(rho)) < 1e-14


    @pytest.mark.parametrize(
        "option,value,message",
        [("--epsilon", "0.9", "epsilon"), ("--profile-samples", "3", "samples")],
    )
    def test_profile_options_checked_without_profile_out(
        self, capsys, tmp_path, option, value, message
    ):
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "bifurcate", "--n", "2", "--k", "1", option, value,
            "--report-out", str(report),
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_window_is_usage_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "bifurcate", "--n", "2", "--k", "1", "--thi", "inf")
        assert code == 2
        assert out == ""
        assert [str(w.message) for w in caught] == []
        assert err == "error: need 0 < t_lo < t_hi < inf, got t_lo=0.5, t_hi=inf\n"

    @pytest.mark.parametrize("jmax", ["0", "-3"])
    def test_nonpositive_jmax_is_usage_error(self, capsys, jmax):
        code, out, err = run_cli(capsys, "bifurcate", "--n", "2", "--k", "1", "--jmax", jmax)
        assert code == 2
        assert out == ""
        assert "j_max" in err


class TestProfile:
    def test_with_explicit_period(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--n", "2", "--k", "1", "--tstar", "3.0",
            "--epsilon", "0.25", "--samples", "8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        rho = [float(line.split(",")[1]) for line in lines[1:]]
        assert rho[4] == pytest.approx(0.75, abs=1e-14)  # half period

    def test_stdout_equals_csv_file(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        argv = ["profile", "--n", "2", "--k", "1", "--tstar", "3.0"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, _, _ = run_cli(capsys, *argv, "--csv-out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_epsilon_cap_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "profile", "--n", "2", "--k", "1", "--tstar", "3.0",
            "--epsilon", "0.7",
        )
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize("tstar", ["inf", "nan"])
    def test_nonfinite_period_is_usage_error(self, capsys, tstar):
        code, out, err = run_cli(capsys, "profile", "--n", "2", "--k", "1", "--tstar", tstar)
        assert code == 2
        assert out == ""
        assert err == f"error: period must be positive and finite, got {tstar}\n"

    def test_inadmissible_case_with_explicit_period_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "profile", "--tstar", "2", "--n", "1", "--k", "0")
        assert code == 2
        assert out == ""
        assert "n >= 2" in err


class TestVerify:
    def test_subset_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "geometry,gamma,bessel")
        assert code == 0
        assert "geometry::pythagorean-identity" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--only", "connection-formulas", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert all(record["status"] == "PASS" for record in records)

    def test_unknown_group_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "no-such-group")
        assert code == 2
        assert "unknown check group" in err

    @pytest.mark.parametrize(
        "flag,value", [("--only", ""), ("--cases", " "), ("--cases", ";")],
        ids=["only", "cases-blank", "cases-separator"],
    )
    def test_empty_selection_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} is empty" in err

    @pytest.mark.parametrize("chunk", ["2", "2,1,5", "two,1"])
    def test_malformed_case_is_usage_error(self, capsys, chunk):
        code, out, err = run_cli(capsys, "verify", "--only", "geometry", "--cases", f"3,1;{chunk}")
        assert code == 2
        assert out == ""
        assert f"malformed pair {chunk!r}" in err


class TestConfigFile:
    def test_defaults_from_file_with_cli_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nk = 1  # spherical case\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "eigen")
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(math.pi**2 - 1, rel=1e-9)
        code, out, _ = run_cli(capsys, "--config", str(cfg), "eigen", "--k", "-1")
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(math.pi**2 + 1, rel=1e-9)

    def test_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nk = 1\n")
        code, out, _ = run_cli(capsys, f"--config={cfg}", "eigen")
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(math.pi**2 - 1, rel=1e-9)

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_missing_config_is_usage_error(self, capsys, tmp_path, form):
        path = str(tmp_path / "absent.cfg")
        argv = ["--config", path] if form == "separate" else [f"--config={path}"]
        code, _, err = run_cli(capsys, *argv, "eigen", "--n", "2", "--k", "1")
        assert code == 2
        assert "absent.cfg" in err

    @pytest.mark.parametrize(
        "line,key", [("bogus = 3", "bogus"), ("epsilon = 0.9", "epsilon")],
        ids=["no-option", "other-subcommand"],
    )
    def test_key_without_option_is_usage_error(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\nk = 1\n{line}\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "eigen")
        assert code == 2
        assert out == ""
        assert err == f"error: --config key {key!r} is not an option of cylbif eigen\n"

    def test_key_of_the_chosen_subcommand_counts(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 2\nk = 1\nepsilon = 0.25\nsamples = 8\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "profile", "--tstar", "3.0")
        assert code == 0
        rho = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert len(rho) == 8 and rho[4] == pytest.approx(0.75, abs=1e-14)

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "eigen", "--n", "2", "--k", "1")
        assert code == 2
        assert "key=value" in err


class TestOutputDirOverride:
    def test_env_var_redirects_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CYLBIF_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "eigen", "--n", "3", "--k", "1", "--json-out", "eigen.json"
        )
        assert code == 0
        payload = json.loads((tmp_path / "eigen.json").read_text())
        assert payload["n"] == 3

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "eigen", "--n", "3", "--k", "1",
            "--json-out", str(tmp_path / "missing" / "eigen.json"),
        )
        assert code == 2
        assert err.startswith("error:")
