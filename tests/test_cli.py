import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dcgof.cli import (
    EXIT_BOOTSTRAP,
    EXIT_FIT,
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


class TestCmdTest:
    def test_smoke_and_reruns_identical(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=1)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        args = ["test", "--input", str(data_path), "--ylags", "1", "--B", "29",
                "--seed", "5", "--stats", "CvM0,KS0,BPD_1"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2), "--threads", "3"]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        payload = json.loads((out1 / "report.json").read_text())
        for entry in payload["report"]["statistics"]:
            assert 0.0 < entry["p_value"] <= 1.0
        assert (out1 / "report.txt").exists()

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


class TestCmdFit:
    def test_writes_fit_json(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=2)
        out = tmp_path / "fitout"
        code = main(["fit", "--input", str(data_path), "--ylags", "1", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "fit.json").read_text())
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

    def test_model_file_sets_the_outcome_bound(self, tmp_path):
        # an ordered J = 2 model file accepts y = 2 without --J 2
        spec = ModelSpec(link="probit", support_size=2, ordered=True, n_regressors=1)
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
        spec = ModelSpec(link="probit", support_size=2, ordered=True, q=1, n_regressors=1)
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
        spec = ModelSpec(link="probit", p_ar=1, n_regressors=1)
        data = simulate(spec, Theta(pi0=0.2, alpha=(0.5,), beta=(0.8,)), 300,
                        rng=substream(2, "ar"))
        data_path = tmp_path / "ar.csv"
        data_path.write_text("y,x1\n" + "".join(
            f"{yi},{xi:.17g}\n" for yi, xi in zip(data.y, data.x[:, 0])))
        model_path = tmp_path / "model.json"
        model_path.write_text(spec.dumps())
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
        payload = json.loads((out1 / "rejections.json").read_text())
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

    @pytest.mark.parametrize("flags", [["--threads", "abc"], ["--link", "probitt"], ["--bogus"], []])
    def test_usage_errors_exit_1(self, tmp_path, flags):
        # exit 2 is reserved for model fit failures
        argv = ["mc", *flags] if flags else []
        assert main(argv) == EXIT_PARSE

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
        config = self.resolve(tmp_path, {"T": 100, "m": [1, 2], "levels": [0.1, 0.05],
                                         "stats": ["CvM0", "KS1"], "B": "29", "R": 50})
        assert (config.T, config.m, config.levels) == ((100,), (1, 2), (0.1, 0.05))
        assert (config.stats, config.B, config.R) == (("CvM0", "KS1"), 29, 50)
        assert self.resolve(tmp_path, {"T": [100, 200], "scenarios": "all"}).T == (100, 200)

    @pytest.mark.parametrize("conf", [
        {"B": 29.5}, {"ordered": "false"}, {"interactions": 1}, {"R": True}, {"link": "probitt"},
        {"threads": "abc"}, ["B", 29],
    ])
    def test_values_its_flag_would_reject(self, tmp_path, conf):
        with pytest.raises(ParseError):
            self.resolve(tmp_path, conf)

    def test_switches_take_json_booleans(self, tmp_path):
        assert self.resolve(tmp_path, {"ordered": True, "interactions": False}).ordered is True
        # a quoted "false" once fitted an ordered model
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=6)
        conf = tmp_path / "fit.json"
        conf.write_text(json.dumps({"input": str(data_path), "ordered": "false"}))
        assert main(["fit", "--config", str(conf), "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_bad_level_rejected(self, tmp_path):
        data_path = tmp_path / "data.csv"
        write_series_csv(data_path, seed=5)
        code = main(["test", "--input", str(data_path), "--levels", "1.5",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE


def test_import_loads_no_scipy_subpackage_but_special():
    # every dcgof start pays for the scipy subpackages it imports; measured
    # with `python -X importtime`, scipy.signal once added about 1.1 s and
    # scipy.linalg would add about 59 ms
    code = ("import sys, dcgof; print(*sorted(name for name, mod in sys.modules.items() "
            "if name.startswith('scipy.') and name.count('.') == 1 "
            "and not name.startswith('scipy._') and hasattr(mod, '__path__')))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["scipy.special"]
