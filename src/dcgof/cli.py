"""Command-line surface: fit models, run adequacy tests, run the study.

Exit codes: 0 success, 1 input/parse error (usage errors included),
2 model fit failure, 3 unreliable bootstrap, 10 internal error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

# for annotations only: the compute modules, and numpy, load once the arguments resolve
if TYPE_CHECKING:
    from .model import ModelSpec, Series
    from .stats import StatKind

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
    B: int = 199
    seed: int = 0
    levels: tuple[float, ...] | None = None
    stats: tuple[str, ...] | None = None
    scenarios: tuple[int, ...] = ()
    T: tuple[int, ...] = ()
    R: int = 0
    threads: int = 1

    def stat_kinds(self) -> tuple[StatKind, ...]:
        """The statistics ``--stats`` names, or the study's."""
        from .stats import DEFAULT_STUDY_KINDS, StatKind

        if self.stats is None:
            return DEFAULT_STUDY_KINDS
        return tuple(StatKind.from_name(n) for n in self.stats)


def load_series(path: str, support_size: int = 1) -> Series:
    """Read a series from CSV: integer column ``y`` plus real ``x1..xk``.

    Raises :class:`ParseError` naming the offending row and column.
    """
    import numpy as np

    from .model import Series

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
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise ParseError(f"{path}: header names column {repeated[0]!r} more than once")
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
        rows = list(reader)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    try:  # one conversion per column
        if set(map(len, rows)) != {len(header)}:
            raise ValueError("ragged rows")
        columns = list(zip(*rows))
        ys = list(map(int, columns[y_col]))
        xs = [list(map(float, columns[col])) for col in x_cols]
        if not 0 <= min(ys) <= max(ys) <= support_size:
            raise ValueError("outcome out of range")
    except ValueError:
        _check_rows(path, rows, len(header), y_col, x_cols, support_size)
        raise
    x = np.array(xs, dtype=float).reshape(len(x_cols), len(ys)).T.copy()
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        row, k = bad[0]
        raise ParseError(f"{path}: row {row + 1}, column x{k + 1}: value {x[row, k]} is not finite")
    return Series(y=np.array(ys), x=x)


def _check_rows(path: str, rows: list[list[str]], width: int, y_col: int,
                x_cols: list[int], support_size: int) -> None:
    """Raise :class:`ParseError` naming the first field, in row order, that
    fails its check."""
    for row_num, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"{path}: row {row_num} has {len(row)} fields, expected {width}")
        raw = row[y_col].strip()
        try:
            y_val = int(raw)
        except ValueError:
            raise ParseError(f"{path}: row {row_num}, column y: {raw!r} is not an integer") from None
        if not 0 <= y_val <= support_size:
            raise ParseError(
                f"{path}: row {row_num}, column y: value {y_val} outside {{0..{support_size}}}"
            )
        for k, col in enumerate(x_cols, start=1):
            raw = row[col].strip()
            try:
                float(raw)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_num}, column x{k}: {raw!r} is not a number"
                ) from None


def _load_input(config: RunConfig) -> tuple[Series, ModelSpec]:
    """The input series and its model: the model file's, or one built from
    the flags.  Outcomes are checked against the resolved model's ``J``."""
    from .model import LinkKind, ModelSpec

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
    )


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def cmd_fit(config: RunConfig) -> int:
    from numpy.linalg import LinAlgError

    from .estimate import fit_mle

    series, spec = _load_input(config)
    result = fit_mle(spec, series)
    try:
        stderr = result.stderr(spec).tolist()
    except LinAlgError:  # singular information: no standard errors
        stderr = None
    fit = {**result.to_json_dict(), "stderr": stderr}
    payload = {"fit": fit, "model": spec.to_json_dict()}
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
    from .boot import BootstrapConfig, bootstrap_test

    series, spec = _load_input(config)
    boot_config = BootstrapConfig(B=config.B, master_seed=config.seed, stats=config.stat_kinds())
    report = bootstrap_test(spec, series, boot_config, threads=config.threads)
    payload = {"model": spec.to_json_dict(), "report": report.to_json_dict()}
    _write(os.path.join(config.out, "report.json"), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    text = _report_text(report)
    _write(os.path.join(config.out, "report.txt"), text)
    print(text, end="")
    return EXIT_OK


def cmd_mc(config: RunConfig) -> int:
    from .boot import DEFAULT_LEVELS, rejection_tables_to_csv, run_scenario, scenario_registry
    from .stats import _check_stats

    registry = {s.id: s for s in scenario_registry()}
    for sid in config.scenarios:
        if sid not in registry:
            raise ParseError(f"unknown scenario id {sid}; valid ids are 1..11")
    if not config.scenarios or not config.T or config.R <= 0:
        raise ParseError("mc requires --scenarios, --T and --R")
    kinds = config.stat_kinds()
    for T in config.T:  # every sample size before the first cell runs
        _check_stats(kinds, T)
    tables = []
    for T in config.T:
        for sid in config.scenarios:
            start = time.perf_counter()
            tab = run_scenario(
                registry[sid],
                T=T,
                R=config.R,
                master_seed=config.seed,
                stats=kinds,
                levels=DEFAULT_LEVELS if config.levels is None else config.levels,
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
    payload = {"tables": [t.to_json_dict() for t in tables]}
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
        from .boot import scenario_registry

        return tuple(s.id for s in scenario_registry())
    return _int_list(text)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# Options whose text is a comma list, and its conversion
_LISTS = {"levels": _float_list, "stats": _name_list, "scenarios": _scenario_ids, "T": _int_list}
_SWITCHES = ("interactions",)


class _Parser(argparse.ArgumentParser):
    """Takes a flag by its full name only, and reports a usage error as a
    :class:`ParseError` (exit 1), not by exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ParseError(message)


# The options each command reads; any other is a usage error, not ignored
_MODEL_OPTIONS = ("input", "model-file", "link", "ylags", "interactions", "J")
_COMMAND_OPTIONS = {
    "fit": ("out", *_MODEL_OPTIONS),
    "test": ("out", *_MODEL_OPTIONS, "B", "seed", "stats", "threads"),
    "mc": ("out", "scenarios", "T", "R", "seed", "stats", "levels", "threads"),
}


def _option_parser(command: str) -> argparse.ArgumentParser:
    """The options ``command`` reads; a config file's keys go through it too."""
    p = _Parser(add_help=False)
    p.add_argument("--config", default=None, help="JSON config file; flags override its keys")

    def option(name: str, **kwargs) -> None:
        if name in _COMMAND_OPTIONS[command]:
            p.add_argument(f"--{name}", default=None, **kwargs)

    option("input", help="CSV input with columns y, x1..xk")
    option("out", help="output directory")
    option("model-file", help="model JSON file instead of flags")
    option("link", choices=["probit", "logit"], help="link function of the model")
    option("ylags", type=int, help="number of outcome lags q")
    option("interactions", action="store_true",
           help="add the terms y_{t-1} * x_t (needs --ylags 1 or more)")
    option("J", type=int, dest="support_size", help="support size (outcomes in 0..J)")
    option("B", type=int, help="bootstrap replications")
    option("seed", type=int, help="master seed of every random substream")
    option("levels", help="comma list, e.g. 0.1,0.05,0.01")
    option("stats", help="comma list of statistic names")
    option("scenarios", help="comma list of scenario ids, or all")
    option("T", help="comma list of sample sizes")
    option("R", type=int, help="Monte Carlo replications")
    option("threads", type=int,
           help=f"worker processes (default {RunConfig.threads}); outputs do not depend on it")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcgof",
        description="Adequacy tests for the conditional distribution of dynamic discrete choice models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMAND_OPTIONS:
        sub.add_parser(command, parents=[_option_parser(command)])
    return parser


def _config_args(conf, command: str) -> argparse.Namespace:
    """The options a config file stands for: a key names a flag of
    ``command`` other than --config in full and takes its text, a list the
    comma list of its items, and a switch only true or false."""
    if not isinstance(conf, dict):
        raise ParseError("a config file holds one JSON object")
    options = _option_parser(command)
    argv = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag == "--config" or flag not in options._option_string_actions:
            raise ParseError(f"unknown key {key!r}")
        if (key in _SWITCHES) != isinstance(value, bool):
            want = "true or false" if key in _SWITCHES else "the text of its flag"
            raise ParseError(f"key {key!r} takes {want}, got {json.dumps(value)}")
        if isinstance(value, bool):
            argv += [flag] if value else []
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(str, value))}")
        else:
            argv.append(f"{flag}={value}")
    return options.parse_args(argv)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    def where(name: str) -> str:
        # the flag, or the config key it came from when no flag overrides it
        return f"--{name}" if getattr(args, name) is not None else \
            f"config {args.config}: key {name!r}"

    given = {name: value for name, value in vars(args).items() if value is not None}
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read config {args.config}: {exc}") from exc
        try:
            file_args = _config_args(file_conf, args.command)
        except ParseError as exc:
            raise ParseError(f"config {args.config}: {exc}") from None
        # flags override the file's keys
        given = {**{k: v for k, v in vars(file_args).items() if v is not None}, **given}
    given.pop("config", None)
    for name, convert in _LISTS.items():
        if name in given:
            given[name] = values = convert(given[name])
            # a repeated entry would name one column, key or test twice
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ParseError(f"{where(name)} lists {repeated[0]} more than once")
    config = RunConfig(**given)
    if config.threads < 1:
        raise ParseError(f"{where('threads')} must be at least 1, got {config.threads}")
    if config.seed < 0:
        raise ParseError(f"{where('seed')} must be nonnegative, got {config.seed}")
    for level in config.levels or ():
        if not 0.0 < level < 1.0:
            raise ParseError(f"level {level} outside (0, 1)")
    if config.command in ("fit", "test") and not config.input:
        raise ParseError(f"{config.command} requires --input")
    return config


# mallopt(3) parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap() -> None:
    """Let freed memory stay in the heap for the next step of the run.

    Each bootstrap step (simulate, refit, statistics) allocates and frees
    arrays of a few hundred KB.  Under glibc's dynamic thresholds the freed
    top of the heap goes back to the kernel after each step, and the next
    step faults it in again: 7-11k page faults per ``dcgof test`` call on an
    ordered probit at T=2000.  With fixed thresholds, blocks under 4 MiB
    come from the heap and the heap keeps up to 64 MiB of free top.  Pool
    workers started by fork inherit the setting.  It changes no result.
    Without glibc's ``mallopt`` (musl, macOS, Windows) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    # parsed outside the `try` below: `--help` leaves by SystemExit, and its
    # exception tuples name classes that load only once the arguments resolve
    try:
        config = _resolve_config(_build_parser().parse_args(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    from . import AssumptionViolationError, NonConvergenceError, UnreliableBootstrapError

    _keep_heap()
    try:
        return {"fit": cmd_fit, "test": cmd_test, "mc": cmd_mc}[config.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NonConvergenceError, AssumptionViolationError) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except UnreliableBootstrapError as exc:
        print(f"bootstrap error: {exc}", file=sys.stderr)
        return EXIT_BOOTSTRAP
    except Exception as exc:  # a bug: its traceback, then a one-line summary
        import traceback

        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
