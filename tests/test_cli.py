import ctypes
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from dcgof import boot, cli, estimate
from dcgof.cli import (
    EXIT_BOOTSTRAP,
    EXIT_FIT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    ParseError,
    _build_parser,
    _resolve_config,
    load_series,
    main,
)
from dcgof.model import ModelSpec, Theta, simulate, simulate_x_ar1
from dcgof.rng import substream


def write_series_csv(path, T=160, seed=0, theta=None):
    spec = ModelSpec(link="probit", q=1, n_regressors=1)
    theta = theta or Theta(pi0=0.2, delta=(0.6,), beta=(1.0,))
    rng = substream(seed, "clidata")
    x = simulate_x_ar1(0.8, T, rng).reshape(-1, 1)
    data = simulate(spec, theta, T, x=x, rng=rng)
    with open(path, "w") as fh:
        fh.write("y,x1\n")
        for yi, xi in zip(data.y, data.x[:, 0]):
            fh.write(f"{yi},{xi:.17g}\n")
    return data


def write_ar_model_input(tmp_path):
    """A probit series with index autoregression (``p_ar=1``) and its model
    file; returns their paths."""
    spec = ModelSpec(link="probit", p_ar=1, n_regressors=1)
    data = simulate(spec, Theta(pi0=0.2, alpha=(0.5,), beta=(0.8,)), 300,
                    rng=substream(2, "ar"))
    data_path = tmp_path / "ar.csv"
    data_path.write_text("y,x1\n" + "".join(
        f"{yi},{xi:.17g}\n" for yi, xi in zip(data.y, data.x[:, 0])))
    model_path = tmp_path / "model.json"
    model_path.write_text(spec.dumps())
    return data_path, model_path


class TestLoadSeries:
    def test_three_row_example(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.1\n1,-0.2\n1,0.3\n")
        series = load_series(str(path), support_size=1)
        assert series.T == 3 and series.n_regressors == 1
        assert list(series.y) == [0, 1, 1]

    def test_out_of_range_outcome_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n2,0.1\n")
        with pytest.raises(ParseError, match="row 1"):
            load_series(str(path), support_size=1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_series(str(path))

    def test_non_integer_outcome_names_location(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.1\n0.5,0.2\n")
        with pytest.raises(ParseError, match="row 2, column y"):
            load_series(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.1\n1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_series(str(path))

    def test_bad_regressor_names_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,abc\n")
        with pytest.raises(ParseError, match="column x1"):
            load_series(str(path))

    @pytest.mark.parametrize("header, repeated", [("y,x1,x1", "x1"), ("y,x1,y", "y")])
    def test_repeated_header_name_is_parse_error(self, tmp_path, capsys, header, repeated):
        # the repeat once loaded without a word: its column was dropped
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n0,0.1,0.2\n1,-0.2,0.3\n")
        with pytest.raises(ParseError, match=f"column '{repeated}' more than once"):
            load_series(str(path))
        assert main(["fit", "--input", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert f"column '{repeated}' more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("value, shown", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf"),
    ])
    def test_nonfinite_regressor_names_row_and_column(self, tmp_path, capsys, value, shown):
        # `Series` once rejected it with a message naming neither
        path = tmp_path / "d.csv"
        path.write_text(f"y,x1,x2\n0,0.1,0.2\n1,0.3,{value}\n0,nan,0.4\n")
        with pytest.raises(ParseError, match=f"row 2, column x2: value {shown} is not finite"):
            load_series(str(path))
        assert main(["fit", "--input", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "row 2, column x2" in capsys.readouterr().err


class TestCmdTest:
    def test_smoke_and_reruns_identical(self, tmp_path):
        # a dynamic probit, and a probit with index autoregression; at T=160
        # and 300 the KS1 draws are searched against the observed value
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=1)
        ar_path, model_path = write_ar_model_input(tmp_path)
        inputs = {"ylags": ["--input", str(data_path), "--ylags", "1"],
                  "p_ar": ["--input", str(ar_path), "--model-file", str(model_path)]}
        for name, model_args in inputs.items():
            out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}3"
            args = ["test", *model_args, "--B", "29", "--seed", "5", "--stats", "CvM0,KS0,KS1,BPD_1"]
            assert main(args + ["--out", str(out1)]) == EXIT_OK
            assert main(args + ["--out", str(out2), "--threads", "3"]) == EXIT_OK
            assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
            payload = json.loads((out1 / "report.json").read_text())
            assert set(payload) == {"model", "report"}  # no echo of the flags
            for entry in payload["report"]["statistics"]:
                assert 0.0 < entry["p_value"] <= 1.0
            assert (out1 / "report.txt").exists()

    @pytest.mark.parametrize("flag, value, repeated", [("--stats", "CvM0,CvM0", "CvM0")])
    def test_repeated_list_entry_is_parse_error(self, tmp_path, capsys, flag, value, repeated):
        # a repeated statistic was once reported once by `test` but twice by `mc`
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=2)
        argv = ["test", "--input", str(data_path), "--ylags", "1", "--B", "19",
                "--out", str(tmp_path / "o"), flag, value]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {flag} lists {repeated} more than once\n"

    def test_stats_name_with_leading_zero_is_parse_error(self, tmp_path, capsys):
        # CvM01 was once read as CvM1, which the report then listed once
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=2)
        argv = ["test", "--input", str(data_path), "--ylags", "1", "--B", "19",
                "--out", str(tmp_path / "o"), "--stats", "CvM1,CvM01"]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == "error: unknown statistic name 'CvM01'\n"

    def test_fit_failure_exit_code(self, tmp_path):
        path = tmp_path / "ones.csv"
        rows = "\n".join(f"1,{v:.3f}" for v in np.linspace(-1, 1, 60))
        path.write_text("y,x1\n" + rows + "\n")
        code = main(["test", "--input", str(path), "--B", "19", "--out", str(tmp_path / "o")])
        assert code == EXIT_FIT

    def test_power_against_interaction_dgp(self, tmp_path):
        # data with interaction dynamics and chi-square errors, tested
        # against a static probit null: BPD_2 must reject
        from dcgof.boot import scenario_registry
        from dcgof.model import simulate as sim
        sc = {s.id: s for s in scenario_registry()}[11]
        x = simulate_x_ar1(0.8, 300, substream(1, "p11x"))
        data = sim(sc.dgp_spec, sc.dgp_theta, 300, x=x.reshape(-1, 1),
                   rng=substream(1, "p11y"))
        path = tmp_path / "alt.csv"
        with open(path, "w") as fh:
            fh.write("y,x1\n")
            for yi, xi in zip(data.y, data.x[:, 0]):
                fh.write(f"{yi},{xi:.17g}\n")
        out = tmp_path / "o"
        code = main(["test", "--input", str(path), "--B", "99", "--seed", "1",
                     "--stats", "BPD_2", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["statistics"][0]["p_value"] <= 0.05

    def test_unreliable_bootstrap_exit_code(self, tmp_path):
        path = tmp_path / "tiny.csv"
        y = [1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1]
        path.write_text("y\n" + "\n".join(str(v) for v in y) + "\n")
        code = main(["test", "--input", str(path), "--B", "19", "--seed", "3",
                     "--stats", "CvM0", "--out", str(tmp_path / "o")])
        assert code == EXIT_BOOTSTRAP

    def test_internal_error_prints_its_traceback(self, tmp_path, capsys, monkeypatch):
        # a bug once printed only "internal error: <message>", with no traceback
        def broken(config):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "cmd_test", broken)
        assert main(["test", "--input", "x.csv", "--out", str(tmp_path)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert 'raise RuntimeError("a bug")' in err
        assert err.endswith("RuntimeError: a bug\ninternal error: a bug\n")


class TestCmdFit:
    def test_writes_fit_json(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=2)
        out = tmp_path / "fitout"
        code = main(["fit", "--input", str(data_path), "--ylags", "1", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
        assert set(payload) == {"fit", "model"}  # fit reads no bootstrap setting
        assert payload["fit"]["converged"] is True
        assert payload["model"]["q"] == 1

    def test_model_file(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=3)
        model_path = tmp_path / "model.json"
        model_path.write_text(ModelSpec(link="probit", q=1, n_regressors=1).dumps())
        out = tmp_path / "o"
        code = main(["fit", "--input", str(data_path), "--model-file", str(model_path),
                     "--out", str(out)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["fit", "test"])
    @pytest.mark.parametrize("content", [None, '{"q": 1}', '[1]'])
    def test_unreadable_model_file_is_parse_error(self, tmp_path, command, content):
        # a missing file, one without a "link" key, or one that is not an object
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=3)
        model_path = tmp_path / "model.json"
        if content is not None:
            model_path.write_text(content)
        code = main([command, "--input", str(data_path), "--model-file", str(model_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("command", ["fit", "test"])
    @pytest.mark.parametrize("via", ["--link", "--model-file"])
    def test_chisq1_cannot_be_fitted(self, tmp_path, capsys, monkeypatch, command, via):
        # a data-generating process only: rejected before any likelihood pass
        def no_pass(*args):
            raise AssertionError("a likelihood pass ran")

        monkeypatch.setattr(estimate, "_loglik_pass", no_pass)
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=3)
        model_path = tmp_path / "model.json"
        model_path.write_text(ModelSpec(link="chisq1", q=1, n_regressors=1).dumps())
        flags = ["--link", "chisq1", "--ylags", "1"] if via == "--link" else \
            ["--model-file", str(model_path)]
        code = main([command, "--input", str(data_path), *flags, "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert ("invalid choice: 'chisq1'" if via == "--link" else "-1/sqrt(2)") in err
        assert not (tmp_path / "o").exists()

    def test_model_file_switch_takes_json_booleans(self, tmp_path):
        # "false" in quotes once meant interactions=True
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=3)
        model_path = tmp_path / "model.json"
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        model_path.write_text(json.dumps({**spec.to_json_dict(), "interactions": "false"}))
        code = main(["fit", "--input", str(data_path), "--model-file", str(model_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    def test_model_file_ordered_must_follow_support_size(self, tmp_path, capsys):
        # a binary model file with "ordered": true once fitted pi0 = 0 and a free mu0
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=3)
        model_path = tmp_path / "model.json"
        spec = ModelSpec(link="probit", q=1, n_regressors=1)
        model_path.write_text(json.dumps({**spec.to_json_dict(), "ordered": True}))
        code = main(["fit", "--input", str(data_path), "--model-file", str(model_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert "'ordered'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_model_file_sets_the_outcome_bound(self, tmp_path):
        # an ordered J = 2 model file accepts y = 2 without --J 2
        spec = ModelSpec(link="probit", support_size=2, n_regressors=1)
        data = simulate(spec, Theta(beta=(1.0,), mu=(-0.5, 0.5)), 200, rng=substream(3, "j2"))
        assert data.y.max() == 2
        data_path = tmp_path / "ordered.csv"
        data_path.write_text("y,x1\n" + "".join(
            f"{yi},{xi:.17g}\n" for yi, xi in zip(data.y, data.x[:, 0])))
        model_path = tmp_path / "model.json"
        model_path.write_text(spec.dumps())
        code = main(["fit", "--input", str(data_path), "--model-file", str(model_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert json.loads((tmp_path / "o" / "fit.json").read_text())["model"]["support_size"] == 2

    def test_ordered_stderr_in_fit_json(self, tmp_path):
        spec = ModelSpec(link="probit", support_size=2, q=1, n_regressors=1)
        data = simulate(spec, Theta(delta=(0.5,), beta=(1.0,), mu=(-0.5, 1.0)), 2000,
                        rng=substream(1, "o"))
        data_path = tmp_path / "ordered.csv"
        data_path.write_text("y,x1\n" + "".join(
            f"{yi},{xi:.17g}\n" for yi, xi in zip(data.y, data.x[:, 0])))
        out = tmp_path / "o"
        code = main(["fit", "--input", str(data_path), "--J", "2", "--ylags", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        fit = json.loads((out / "fit.json").read_text())["fit"]
        # natural order (pi0, delta, beta, mu_0, mu_1); the intercept is fixed
        assert fit["stderr"][0] == 0.0
        assert all(0.0 < se < 1.0 for se in fit["stderr"][-2:])

    def test_singular_information_writes_null_stderr(self, tmp_path):
        # an all-zero regressor leaves its score column zero: the fit converges
        # but the information matrix cannot be inverted
        y = (substream(5, "zero").random(200) < 0.4).astype(int)
        data_path = tmp_path / "zero.csv"
        data_path.write_text("y,x1\n" + "".join(f"{yi},0.0\n" for yi in y))
        out = tmp_path / "o"
        assert main(["fit", "--input", str(data_path), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "fit.json").read_text())["fit"]["stderr"] is None

    def test_summary_prints_index_autoregression(self, tmp_path, capsys):
        data_path, model_path = write_ar_model_input(tmp_path)
        code = main(["fit", "--input", str(data_path), "--model-file", str(model_path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        fit = json.loads((tmp_path / "o" / "fit.json").read_text())["fit"]
        (alpha,) = fit["theta_hat"]["alpha"]
        assert f"  alpha: {alpha:.4g}" in capsys.readouterr().out.splitlines()


class TestCmdMc:
    def test_smoke_and_thread_invariance(self, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        args = ["mc", "--scenarios", "1", "--T", "60", "--R", "50", "--seed", "3",
                "--stats", "CvM0,KS0,BPD_1"]
        assert main(args + ["--out", str(out1), "--threads", "1"]) == EXIT_OK
        assert main(args + ["--out", str(out2), "--threads", "2"]) == EXIT_OK
        assert (out1 / "rejections.csv").read_bytes() == (out2 / "rejections.csv").read_bytes()
        assert (out1 / "rejections.json").read_bytes() == (out2 / "rejections.json").read_bytes()
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
        payload = json.loads((out1 / "rejections.json").read_text())
        assert set(payload) == {"tables"}  # each table holds the settings it used
        rates = payload["tables"][0]["rates"]
        for level_cells in rates.values():
            for value in level_cells.values():
                assert 0.0 <= value <= 100.0

    @pytest.mark.filterwarnings("ignore::dcgof.model.ProbabilityFloorWarning")
    def test_progress_line_names_failure_causes(self, tmp_path, capsys):
        # scenario 3 at T=60, seed 2 loses two replications to the floor
        # rule and scenario 3 at seed 1 one to separation; the causes go to
        # stderr, the output files do not change
        for seed, causes in ((2, {"probability floor": 2}), (1, {"separation": 1})):
            out = tmp_path / f"o{seed}"
            assert main(["mc", "--scenarios", "3", "--T", "60", "--R", "50", "--seed", str(seed),
                         "--stats", "CvM0", "--out", str(out)]) == EXIT_OK
            line = capsys.readouterr().err.strip().splitlines()[-1]
            match = re.fullmatch(r"scenario 3 T=60: (\d+) of 50 replications "
                                 r"\(failed: (.*)\) \[[0-9.]+s\]", line)
            assert match, line
            named = {c: int(n) for n, c in (part.split(" ", 1) for part in match[2].split(", "))}
            assert named == causes
            assert int(match[1]) == 50 - sum(causes.values())
            tables = json.loads((out / "rejections.json").read_text())["tables"]
            assert tables[0]["R_effective"] == int(match[1]) and "failures" not in tables[0]

    def test_unknown_scenario_is_parse_error(self, tmp_path):
        code = main(["mc", "--scenarios", "12", "--T", "60", "--R", "50",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    def test_missing_required_flags(self, tmp_path):
        code = main(["mc", "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("flags", [["--threads", "abc"], ["--link", "probitt"], ["--bogus"],
                                       ["--ordered"], []])
    def test_usage_errors_exit_1(self, tmp_path, flags):
        # exit 2 is reserved for model fit failures
        argv = ["mc", *flags] if flags else []
        assert main(argv) == EXIT_PARSE

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_parse_error(self, tmp_path, capsys, threads):
        # --threads 0 once ran serially without a word
        argv = ["mc", "--scenarios", "1", "--T", "60", "--R", "50", "--out", str(tmp_path / "o")]
        assert main(argv + ["--threads", threads]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, repeated", [
        ("--stats", "CvM0,KS0,CvM0", "CvM0"), ("--levels", "0.05,0.050", "0.05"),
        ("--scenarios", "1,2,1", "1"), ("--T", "60,60", "60"),
    ])
    def test_repeated_list_entry_is_parse_error(self, tmp_path, capsys, flag, value, repeated):
        # a repeated statistic once gave duplicate rejections.csv columns but
        # one key in rejections.json
        argv = ["mc", "--scenarios", "1", "--T", "60", "--R", "50", "--out", str(tmp_path / "o")]
        assert main(argv + [flag, value]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {flag} lists {repeated} more than once\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--m", "1,2"], "unrecognized arguments: --m 1,2"),
        (["--stats", ""], "statistic list must be nonempty"),
    ])
    def test_stats_alone_chooses_statistics(self, tmp_path, capsys, flags, message):
        # --m once set the Box-Pierce lags of the default list; without it,
        # argparse read `--m` as an abbreviation of --model-file, which mc ignores
        argv = ["mc", "--scenarios", "1", "--T", "60", "--R", "50", "--out", str(tmp_path / "o")]
        assert main(argv + flags) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "test", "mc"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_is_parse_error(self, tmp_path, capsys, monkeypatch, command, via):
        # `test --seed -1` once fitted the data first and then failed on the
        # substream key; `fit --seed -5` exited 0, and `fit` reads no seed
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(estimate, "fit_mle", no_fit)
        monkeypatch.setattr(boot, "fit_mle", no_fit)
        monkeypatch.setattr(boot, "_fit", no_fit)
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=3)
        conf = {"input": str(data_path)} if command != "mc" else \
            {"scenarios": [1], "T": [60], "R": 50}
        if via == "config":
            conf["seed"] = -1
        conf_path = tmp_path / "conf.json"
        conf_path.write_text(json.dumps(conf))
        argv = [command, "--config", str(conf_path), "--out", str(tmp_path / "o")]
        argv += ["--seed", "-1"] if via == "flag" else []
        assert main(argv) == EXIT_PARSE
        if command == "fit":
            message = "unrecognized arguments: --seed -1" if via == "flag" else \
                f"config {conf_path}: unknown key 'seed'"
        else:
            where = "--seed" if via == "flag" else f"config {conf_path}: key 'seed'"
            message = f"{where} must be nonnegative, got -1"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["test", "mc"])
    def test_series_too_short_fails_before_any_fit(self, tmp_path, capsys, monkeypatch, command):
        # BPN_25 once failed only after a fit or a chunk of replicates, with
        # a message that did not name it; mc checks T=20 before the T=60 cell
        def no_call(*args, **kwargs):
            raise AssertionError("a fit or replicate ran")

        monkeypatch.setattr(boot, "fit_mle", no_call)
        monkeypatch.setattr(boot, "_replicate", no_call)
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, T=20, seed=3)
        argv = {"test": ["test", "--input", str(data_path), "--ylags", "1"],
                "mc": ["mc", "--scenarios", "1", "--T", "60,20", "--R", "50"]}[command]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: BPN_25 needs T >= 27, got 20\n"
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--help"])
        assert exc.value.code == 0
        assert "--scenarios" in capsys.readouterr().out

    def test_all_scenarios(self):
        def scenarios(value):
            args = _build_parser().parse_args(["mc", "--scenarios", value, "--T", "60", "--R", "50"])
            return _resolve_config(args).scenarios

        assert scenarios("all") == tuple(range(1, 12))
        assert scenarios("2,5") == (2, 5)
        with pytest.raises(ValueError):
            scenarios("1,all")


class TestCommandOptions:
    @pytest.mark.parametrize("command", ["fit", "test", "mc"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unread_option_is_usage_error(self, tmp_path, capsys, command, via):
        # every command once took all 16 options and ignored those it does not
        # read: `fit --stats XYZ` and `mc --B 999 --input nowhere.csv` exited 0
        every = {name for names in cli._COMMAND_OPTIONS.values() for name in names}
        unread = sorted(every - set(cli._COMMAND_OPTIONS[command]))
        assert unread
        path = tmp_path / "conf.json"
        for name in unread:
            switch = name == "interactions"
            if via == "flag":
                argv = [f"--{name}"] + ([] if switch else ["1"])
                message = "unrecognized arguments: " + " ".join(argv)
            else:
                key = name.replace("-", "_")
                path.write_text(json.dumps({key: True if switch else "1"}))
                argv, message = ["--config", str(path)], f"config {path}: unknown key {key!r}"
            assert main([command, *argv, "--out", str(tmp_path / "o")]) == EXIT_PARSE
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "test", "mc"])
    def test_every_option_has_help(self, command):
        actions = cli._option_parser(command)._actions
        assert [a.option_strings for a in actions if not a.help] == []


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestKeepHeap:
    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        def cdll(name):
            assert name is None  # the symbols already loaded into the process
            return SimpleNamespace(mallopt=mallopt)

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._keep_heap.__wrapped__()
        assert calls == [(-3, 4 * 2**20), (-1, 64 * 2**20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int

    @pytest.mark.parametrize("error", [None, OSError, TypeError])
    def test_does_nothing_without_mallopt(self, monkeypatch, error):
        # no mallopt symbol (macOS, musl), or no C library to open (Windows)
        def cdll(name):
            if error is not None:
                raise error("no C library")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_heap.__wrapped__() is None

    def test_runs_only_once_the_arguments_resolve(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_keep_heap", lambda: calls.append(1))
        with pytest.raises(SystemExit):
            main(["mc", "--help"])
        assert main(["mc", "--bogus"]) == EXIT_PARSE
        assert main(["mc", "--threads", "0"]) == EXIT_PARSE
        assert calls == []
        # resolved, then mc finds no --T
        assert main(["mc", "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert calls == [1]

    @pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in the C library")
    def test_second_call_faults_few_pages(self, tmp_path):
        # glibc's dynamic trim threshold once gave the freed top of the heap
        # back after each bootstrap step: about 9k page faults per call here
        spec = ModelSpec(link="probit", support_size=2, q=1, n_regressors=1)
        theta = Theta(delta=(0.5,), beta=(1.0,), mu=(-0.5, 1.0))
        data = simulate(spec, theta, 2000, rng=substream(1, "o"))
        path = tmp_path / "ord.csv"
        path.write_text("y,x1\n" + "".join(
            f"{yi},{xi:.17g}\n" for yi, xi in zip(data.y, data.x[:, 0])))
        code = (
            "import resource, sys\n"
            "from dcgof.cli import main\n"
            "argv = ['test', '--input', sys.argv[1], '--J', '2', '--ylags', '1', '--B', '19',\n"
            "        '--out', sys.argv[2]]\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "o")],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, check=True, timeout=120)
        faults = int(out.stdout.splitlines()[-1])
        assert faults < 1000, faults


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=4)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "input": str(data_path), "ylags": 1, "B": 29, "seed": 1,
            "stats": "CvM0,KS0", "out": str(tmp_path / "from_conf"),
        }))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["test", "--config", str(conf), "--out", str(out_a)]) == EXIT_OK
        assert main(["test", "--config", str(conf), "--out", str(out_b), "--seed", "1"]) == EXIT_OK
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def resolve(self, tmp_path, conf, command="mc"):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        return _resolve_config(_build_parser().parse_args([command, "--config", str(path)]))

    def test_numbers_and_lists_are_their_flag_text(self, tmp_path):
        config = self.resolve(tmp_path, {"T": 100, "levels": [0.1, 0.05],
                                         "stats": ["CvM0", "KS1"], "R": 50})
        assert (config.T, config.levels) == ((100,), (0.1, 0.05))
        assert (config.stats, config.R) == (("CvM0", "KS1"), 50)
        assert self.resolve(tmp_path, {"input": "d.csv", "B": "29"}, command="test").B == 29
        assert self.resolve(tmp_path, {"T": [100, 200], "scenarios": "all"}).T == (100, 200)

    @pytest.mark.parametrize("conf", [
        {"B": 29.5}, {"interactions": "false"}, {"interactions": 1}, {"R": True}, {"link": "probitt"},
        {"threads": "abc"}, ["B", 29], {"scen": [1]},
    ])
    def test_values_its_flag_would_reject(self, tmp_path, conf):
        with pytest.raises(ParseError, match="takes|invalid|one JSON object|unknown key 'scen'"):
            self.resolve(tmp_path, conf, command="mc" if "R" in conf else "test")

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_is_parse_error(self, tmp_path, threads):
        conf = {"scenarios": [1], "T": [60], "R": 50, "threads": threads}
        with pytest.raises(ParseError, match=f"key 'threads' must be at least 1, got {threads}"):
            self.resolve(tmp_path, conf)

    @pytest.mark.parametrize("key, value", [
        ("stats", ["CvM0", "CvM0"]), ("stats", "CvM0,CvM0"), ("levels", [0.05, 0.05]),
        ("scenarios", [3, 3]), ("T", [60, 60]),
    ])
    def test_repeated_list_entry_is_parse_error(self, tmp_path, key, value):
        conf = {"scenarios": [1], "T": [60], "R": 50, key: value}
        with pytest.raises(ParseError, match=f"key '{key}' lists .* more than once"):
            self.resolve(tmp_path, conf)
        # a flag that replaces the key's list replaces its repeat too
        path = tmp_path / "conf.json"
        flag_value = "CvM0" if key == "stats" else "0.05" if key == "levels" else "1"
        args = _build_parser().parse_args(["mc", "--config", str(path), f"--{key}", flag_value])
        assert len(getattr(_resolve_config(args), key)) == 1

    def test_switches_take_json_booleans(self, tmp_path):
        for value in (True, False):
            conf = {"input": "d.csv", "interactions": value}
            assert self.resolve(tmp_path, conf, command="fit").interactions is value
        # a quoted "false" once switched the option on
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=6)
        conf = tmp_path / "fit.json"
        conf.write_text(json.dumps({"input": str(data_path), "ylags": 1, "interactions": "false"}))
        assert main(["fit", "--config", str(conf), "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_ordered_is_no_key(self, tmp_path):
        # ordered follows from J; a config file cannot set it
        with pytest.raises(ParseError, match="'ordered'"):
            self.resolve(tmp_path, {"ordered": True, "J": 2}, command="fit")

    @pytest.mark.parametrize("value", [True, False, 3, "x", [1]])
    def test_unknown_key_is_unknown_whatever_its_type(self, tmp_path, capsys, value):
        # a JSON boolean once got "takes the text of its flag", other types
        # argparse's "unrecognized arguments"
        with pytest.raises(ParseError, match="unknown key 'bogus'"):
            self.resolve(tmp_path, {"R": 50, "bogus": value})
        path = tmp_path / "conf.json"
        assert main(["mc", "--config", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: config {path}: unknown key 'bogus'\n"

    @pytest.mark.parametrize("key", ["m", "config"])
    def test_removed_and_nested_keys_are_unknown(self, tmp_path, capsys, key):
        # a config key once named a second config file, which was never read
        inner = tmp_path / "inner.json"
        inner.write_text(json.dumps({"B": 25}))
        value = {"m": [1, 2], "config": str(inner)}[key]
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({key: value, "scenarios": [1], "T": [60], "R": 50}))
        assert main(["mc", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: config {path}: unknown key {key!r}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_level_rejected(self, tmp_path):
        code = main(["mc", "--scenarios", "1", "--T", "60", "--R", "50", "--levels", "1.5",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE


def test_what_each_start_loads():
    # scipy is a test oracle only: importing scipy.special alone once cost
    # about 0.25 s of every dcgof start, and the runtime needs numpy only.
    # --threads > 1 forks its workers with os.fork and pipes alone: neither
    # multiprocessing nor concurrent.futures is loaded, even by a parallel
    # run, since their imports alone raised peak RSS by about 1 MB.
    report = ("print('loaded:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
              "    or m.startswith(('multiprocessing', 'concurrent.futures'))))")
    starts = {
        "import dcgof": "import sys, dcgof\n" + report,
        "dcgof mc --threads 2": (
            "import sys, tempfile\nfrom dcgof.cli import main\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    argv = ['mc', '--scenarios', '1', '--T', '60', '--R', '50', '--threads', '2']\n"
            "    assert main([*argv, '--out', out]) == 0\n" + report
        ),
        "python -m dcgof --help": (
            "import runpy, sys\nsys.argv = ['dcgof', '--help']\ntry:\n"
            "    runpy.run_module('dcgof', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    assert not exc.code, exc.code\n" + report
        ),
    }
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}

    def start(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                              text=True, timeout=60)

    for name, code in starts.items():
        out = start(code)
        assert out.returncode == 0, (name, out.stderr)
        assert out.stdout.splitlines()[-1] == "loaded:", (name, out.stdout.splitlines()[-1])

    # numpy loads once a command has parsed: with it blocked, `import dcgof`,
    # `--help` and usage errors still answer (each once loaded all seven
    # compute modules, about half of a `--help` start)
    no_numpy = "import sys\nsys.modules['numpy'] = None  # `import numpy` raises\n"
    out = start(no_numpy + "import dcgof\nprint(*sorted(m for m in sys.modules if 'dcgof' in m))")
    assert (out.returncode, out.stdout) == (0, "dcgof\n"), out.stderr
    cli_start = no_numpy + (
        "import runpy\nrunpy.run_module('dcgof', run_name='__main__', alter_sys=True)")
    for args, code, err in [
        (["--help"], 0, ""),
        (["test", "--help"], 0, ""),
        (["mc", "--bogus"], 1, "error: unrecognized arguments: --bogus\n"),
        (["test", "--input", "x.csv", "--threads", "0"], 1,
         "error: --threads must be at least 1, got 0\n"),
    ]:
        out = start(cli_start, *args)
        assert (out.returncode, out.stderr) == (code, err), args
        assert out.stdout.startswith("usage: dcgof") == (code == 0), args
