"""Command-line surface: fit models, run adequacy tests, run the study.

Exit codes: 0 success, 1 input/parse error (usage errors included),
2 model fit failure, 3 unreliable bootstrap, 10 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .boot import (
    DEFAULT_LEVELS,
    BootstrapConfig,
    RejectionTable,
    UnreliableBootstrapError,
    bootstrap_test,
    rejection_tables_to_csv,
    run_scenario,
    scenario_registry,
)
from .estimate import NonConvergenceError, fit_mle
from .model import AssumptionViolationError, LinkKind, ModelSpec, Series
from .stats import StatKind, study_kinds

__all__ = ["RunConfig", "load_series", "cmd_fit", "cmd_test", "cmd_mc", "main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_FIT = 2
EXIT_BOOTSTRAP = 3
EXIT_INTERNAL = 10


class ParseError(ValueError):
    """Invalid input data or flags."""


@dataclass
class RunConfig:
    """Resolved settings of one CLI invocation."""

    command: str
    input: str | None = None
    out: str = "."
    model_file: str | None = None
    link: str = "probit"
    ylags: int = 0
    interactions: bool = False
    support_size: int = 1
    ordered: bool = False
    B: int = 199
    seed: int = 0
    levels: tuple[float, ...] = DEFAULT_LEVELS
    stats: tuple[str, ...] | None = None
    m: tuple[int, ...] = (1, 2, 25)
    scenarios: tuple[int, ...] = ()
    T: tuple[int, ...] = ()
    R: int = 0
    threads: int = 1

    def stat_kinds(self) -> tuple[StatKind, ...]:
        if self.stats:
            return tuple(StatKind.from_name(n) for n in self.stats)
        return study_kinds(self.m)

    def echo(self) -> dict:
        """Configuration echo for reports; worker count omitted on purpose
        so outputs are byte-identical across --threads settings."""
        out = {
            "command": self.command,
            "B": self.B,
            "seed": self.seed,
            "levels": list(self.levels),
            "m": list(self.m),
        }
        if self.command == "mc":
            out["scenarios"] = list(self.scenarios)
            out["T"] = list(self.T)
            out["R"] = self.R
        return out


def load_series(path: str, support_size: int = 1) -> Series:
    """Read a series from CSV: integer column ``y`` plus real ``x1..xk``.

    Raises :class:`ParseError` naming the offending row and column.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "y" not in header:
            raise ParseError(f"{path}: header must contain a column named 'y'")
        y_col = header.index("y")
        x_cols = []
        for k in range(1, len(header)):
            name = f"x{k}"
            if name in header:
                x_cols.append(header.index(name))
            else:
                break
        expected = {"y"} | {f"x{k+1}" for k in range(len(x_cols))}
        extra = set(header) - expected
        if extra:
            raise ParseError(f"{path}: unexpected columns {sorted(extra)}; use y, x1..xk")
        ys: list[int] = []
        xs: list[list[float]] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
            raw = row[y_col].strip()
            try:
                y_val = int(raw)
            except ValueError:
                raise ParseError(f"{path}: row {row_num}, column y: {raw!r} is not an integer") from None
            if not 0 <= y_val <= support_size:
                raise ParseError(
                    f"{path}: row {row_num}, column y: value {y_val} outside {{0..{support_size}}}"
                )
            ys.append(y_val)
            x_row = []
            for k, col in enumerate(x_cols, start=1):
                raw = row[col].strip()
                try:
                    x_row.append(float(raw))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_num}, column x{k}: {raw!r} is not a number"
                    ) from None
            xs.append(x_row)
        if not ys:
            raise ParseError(f"{path}: no data rows")
    return Series(y=np.array(ys), x=np.array(xs).reshape(len(ys), len(x_cols)))


def _load_input(config: RunConfig) -> tuple[Series, ModelSpec]:
    """The input series and its model: the model file's, or one built from
    the flags.  Outcomes are checked against the resolved model's ``J``."""
    if config.model_file:
        try:
            with open(config.model_file) as fh:
                spec = ModelSpec.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read model file {config.model_file}: {exc}") from exc
        except KeyError as exc:
            raise ParseError(f"model file {config.model_file} has no {exc} key") from exc
        series = load_series(config.input, spec.support_size)
        if spec.n_regressors != series.n_regressors:
            raise ParseError(
                f"model file declares {spec.n_regressors} regressors, data has {series.n_regressors}"
            )
        return series, spec
    series = load_series(config.input, config.support_size)
    link = {"logit": "logistic"}.get(config.link, config.link)
    return series, ModelSpec(
        link=LinkKind(link),
        support_size=config.support_size,
        q=config.ylags,
        n_regressors=series.n_regressors,
        interactions=config.interactions,
        ordered=config.ordered or config.support_size >= 2,
    )


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def cmd_fit(config: RunConfig) -> int:
    series, spec = _load_input(config)
    result = fit_mle(spec, series)
    try:
        stderr = result.stderr(spec).tolist()
    except np.linalg.LinAlgError:  # singular information: no standard errors
        stderr = None
    fit = {**result.to_json_dict(), "stderr": stderr}
    payload = {"config": config.echo(), "fit": fit, "model": spec.to_json_dict()}
    _write(os.path.join(config.out, "fit.json"), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    theta = result.theta_hat
    print(f"log-likelihood {result.loglik:.4g} after {result.iterations} iterations "
          f"(converged={result.converged})")
    for name, vals in (("pi0", [theta.pi0]), ("delta", theta.delta), ("alpha", theta.alpha),
                       ("beta", theta.beta), ("gamma", theta.gamma), ("mu", theta.mu)):
        if vals:
            print(f"  {name}: " + ", ".join(f"{v:.4g}" for v in vals))
    return EXIT_OK if result.converged else EXIT_FIT


def _report_text(report) -> str:
    lines = [f"{'statistic':<10} {'value':>12} {'p-value':>10}"]
    for s in report.statistics:
        lines.append(f"{s.name:<10} {s.value:>12.4g} {s.p_value:>10.4g}")
    lines.append(f"bootstrap replications: {report.B} (failed fits: {report.failed_fits})")
    return "\n".join(lines) + "\n"


def cmd_test(config: RunConfig) -> int:
    series, spec = _load_input(config)
    boot_config = BootstrapConfig(B=config.B, master_seed=config.seed, stats=config.stat_kinds())
    report = bootstrap_test(spec, series, boot_config, threads=config.threads)
    payload = {"config": config.echo(), "model": spec.to_json_dict(), "report": report.to_json_dict()}
    _write(os.path.join(config.out, "report.json"), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    text = _report_text(report)
    _write(os.path.join(config.out, "report.txt"), text)
    print(text, end="")
    return EXIT_OK


def cmd_mc(config: RunConfig) -> int:
    registry = {s.id: s for s in scenario_registry()}
    for sid in config.scenarios:
        if sid not in registry:
            raise ParseError(f"unknown scenario id {sid}; valid ids are 1..11")
    if not config.scenarios or not config.T or config.R <= 0:
        raise ParseError("mc requires --scenarios, --T and --R")
    tables: list[RejectionTable] = []
    for T in config.T:
        for sid in config.scenarios:
            start = time.perf_counter()
            tab = run_scenario(
                registry[sid],
                T=T,
                R=config.R,
                master_seed=config.seed,
                stats=config.stat_kinds(),
                levels=config.levels,
                threads=config.threads,
            )
            tables.append(tab)
            # progress only: wall time and failure causes stay out of the output files
            failed = ", ".join(f"{n} {cause}" for cause, n in tab.failures.items())
            failed = f" (failed: {failed})" if failed else ""
            print(f"scenario {sid} T={T}: {tab.R_effective} of {tab.R} replications{failed} "
                  f"[{time.perf_counter() - start:.1f}s]", file=sys.stderr, flush=True)
    csv_text = rejection_tables_to_csv(tables)
    _write(os.path.join(config.out, "rejections.csv"), csv_text)
    payload = {"config": config.echo(), "tables": [t.to_json_dict() for t in tables]}
    _write(os.path.join(config.out, "rejections.json"),
           json.dumps(payload, indent=2, sort_keys=True) + "\n")
    lines = []
    for tab in tables:
        lines.append(f"scenario {tab.scenario_id} ({tab.label}), T={tab.T}, "
                     f"R={tab.R} (effective {tab.R_effective})")
        for i, level in enumerate(tab.levels):
            cells = "  ".join(f"{name}={tab.rates[i, j]:.4g}" for j, name in enumerate(tab.stat_names))
            lines.append(f"  {100 * level:g}%: {cells}")
    summary = "\n".join(lines) + "\n"
    _write(os.path.join(config.out, "summary.txt"), summary)
    print(summary, end="")
    return EXIT_OK


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _scenario_ids(text: str) -> tuple[int, ...]:
    """``all`` (every registered scenario) or a comma list of scenario ids."""
    if text.strip() == "all":
        return tuple(s.id for s in scenario_registry())
    return _int_list(text)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# Options whose text is a comma list, and its conversion
_LISTS = {"levels": _float_list, "stats": _name_list, "m": _int_list, "scenarios": _scenario_ids,
          "T": _int_list}
_SWITCHES = ("interactions", "ordered")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ParseError` (exit 1), not by exit 2."""

    def error(self, message: str):
        raise ParseError(message)


def _option_parser() -> argparse.ArgumentParser:
    """The options of every command; a config file's keys go through it too."""
    p = _Parser(add_help=False)
    p.add_argument("--config", default=None, help="JSON config file; flags override its keys")
    p.add_argument("--input", default=None, help="CSV input with columns y, x1..xk")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--model-file", default=None, help="model JSON file instead of flags")
    p.add_argument("--link", default=None, choices=["probit", "logit", "chisq1"])
    p.add_argument("--ylags", type=int, default=None, help="number of outcome lags q")
    p.add_argument("--interactions", action="store_true", default=None)
    p.add_argument("--J", type=int, default=None, dest="support_size",
                   help="support size (outcomes in 0..J)")
    p.add_argument("--ordered", action="store_true", default=None)
    p.add_argument("--B", type=int, default=None, help="bootstrap replications")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--levels", type=str, default=None, help="comma list, e.g. 0.1,0.05,0.01")
    p.add_argument("--stats", type=str, default=None, help="comma list of statistic names")
    p.add_argument("--m", type=str, default=None, help="comma list of Box-Pierce lags")
    p.add_argument("--scenarios", type=str, default=None, help="comma list of scenario ids, or all")
    p.add_argument("--T", type=str, default=None, help="comma list of sample sizes")
    p.add_argument("--R", type=int, default=None, help="Monte Carlo replications")
    p.add_argument("--threads", type=int, default=None)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcgof",
        description="Adequacy tests for the conditional distribution of dynamic discrete choice models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = _option_parser()
    for name in ("fit", "test", "mc"):
        sub.add_parser(name, parents=[options])
    return parser


def _config_argv(conf) -> list[str]:
    """The flags a config file stands for: a key takes its flag's text, a
    list the comma list of its items, and a switch only true or false."""
    if not isinstance(conf, dict):
        raise ParseError("a config file holds one JSON object")
    argv = []
    for key, value in conf.items():
        if (key in _SWITCHES) != isinstance(value, bool):
            want = "true or false" if key in _SWITCHES else "the text of its flag"
            raise ParseError(f"key {key!r} takes {want}, got {json.dumps(value)}")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv += [flag] if value else []
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(str, value))}")
        else:
            argv.append(f"{flag}={value}")
    return argv


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    given = {name: value for name, value in vars(args).items() if value is not None}
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read config {args.config}: {exc}") from exc
        try:
            file_args = _option_parser().parse_args(_config_argv(file_conf))
        except ParseError as exc:
            raise ParseError(f"config {args.config}: {exc}") from None
        # flags override the file's keys
        given = {**{k: v for k, v in vars(file_args).items() if v is not None}, **given}
    given.pop("config", None)
    for name, convert in _LISTS.items():
        if name in given:
            given[name] = convert(given[name])
    config = RunConfig(**given)
    for level in config.levels:
        if not 0.0 < level < 1.0:
            raise ParseError(f"level {level} outside (0, 1)")
    if config.command in ("fit", "test") and not config.input:
        raise ParseError(f"{config.command} requires --input")
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        config = _resolve_config(_build_parser().parse_args(argv))
        if config.command == "fit":
            return cmd_fit(config)
        if config.command == "test":
            return cmd_test(config)
        return cmd_mc(config)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NonConvergenceError, AssumptionViolationError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except UnreliableBootstrapError as exc:
        print(f"bootstrap error: {exc}", file=sys.stderr)
        return EXIT_BOOTSTRAP
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
