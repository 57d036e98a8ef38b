"""Benchmark of ``dcgof test`` and ``dcgof mc``, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload test-dyn-t300 --seed 1 --seconds 40 --trace 0

The program is driven only through ``dcgof.cli.main`` with CLI arguments,
called in a separate measured process (``workload.py``) that stays alive
for the whole run.  A run repeats whole rounds until its time is up; a
round is one timed call followed by ``SETUP_PER_ROUND`` fresh-interpreter
start-ups (``python3 -m dcgof --help``), so that start-up samples are spread
over the run.  Every metric is a median over the run.  After the timed
section the outputs are checked against the independent computations of
``oracles.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones,
from calls made with the tracer of ``tracer.py`` installed, plus the tracing
overhead against untraced calls of the same arguments.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the checkout holds no
dcgof sources.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS, make_input

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
SETUP_PER_ROUND = 1
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class Worker:
    """The measured process (workload.py), driven over a pipe."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the measured process ended early")
        return json.loads(line)

    def ask(self, **order) -> dict:
        self.proc.stdin.write(json.dumps(order) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_sample(env: dict) -> tuple[float, bool]:
    """Seconds for a fresh interpreter to import dcgof and print the CLI usage."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dcgof", "--help"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode == 0 and proc.stdout.startswith("usage: dcgof")


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import seconds of ``dcgof`` and of ``scipy.signal``,
    from ``python -X importtime``.

    scipy loads ``scipy.signal`` lazily and the log has no line for the
    package itself, so its time is the sum over the outermost
    ``scipy.signal.*`` lines.
    """
    dcgof_s, signal_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dcgof"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        signal: dict[int, float] = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|( *)(\S+)$", line)
            if not m:
                continue
            seconds, depth, name = int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)
            if name == "dcgof":
                dcgof_s.append(seconds)
            elif name == "scipy.signal" or name.startswith("scipy.signal."):
                signal[depth] = signal.get(depth, 0.0) + seconds
        signal_s.append(signal[min(signal)] if signal else 0.0)
    return statistics.median(dcgof_s), statistics.median(signal_s)


def output_file(workload) -> str:
    return "rejections.json" if workload.argv[0] == "mc" else "report.json"


def dcgof_argv(args: tuple[str, ...], seed: int, csv_path: str, out_dir: str,
               workload) -> list[str]:
    argv = [*args, "--seed", str(seed), "--out", out_dir]
    if workload.dgp is not None:
        argv += ["--input", csv_path]
    return argv


def workers_of(argv) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1


class Run:
    """Calls, start-up samples and outputs of one benchmark run."""

    def __init__(self, worker: Worker, out_dir: str, out_name: str):
        self.worker = worker
        self.out_path = os.path.join(out_dir, out_name)
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[tuple[str, ...], set[str]] = {}
        self.samples: dict[str, list] = {"calls": [], "setups": []}

    def call(self, argv: list[str]) -> dict | None:
        """One timed ``dcgof.cli.main`` call; its output text is kept by argv."""
        self.attempted += 1
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        reply = self.worker.ask(op="call", argv=argv)
        if reply["rc"] != 0 or not os.path.exists(self.out_path):
            self.failed += 1
            return None
        with open(self.out_path) as fh:
            self.outputs.setdefault(tuple(argv), set()).add(fh.read())
        return reply

    def setup(self, env: dict) -> float | None:
        self.attempted += 1
        elapsed, ok = setup_sample(env)
        if not ok:
            self.failed += 1
            return None
        return elapsed

    def output(self, argv: list[str]) -> str | None:
        texts = self.outputs.get(tuple(argv), set())
        return next(iter(texts)) if len(texts) == 1 else None


def repeat(seconds: float, round_fn) -> None:
    """Run whole rounds while the next one, at the median round time so far,
    still ends within ``seconds``; always at least one."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        round_fn()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def reps_of(workload, text: str) -> int:
    """Replications that produced statistics: bootstrap draws or MC replications."""
    payload = json.loads(text)
    if workload.argv[0] == "mc":
        return sum(t["R_effective"] for t in payload["tables"])
    return payload["report"]["statistics"][0]["n_replicates"]


def check(workload, seed: int, data, text: str, serial_text: str | None) -> list[str]:
    """Independent checks of a run's final output (see oracles.py)."""
    sys.path.insert(0, SRC)
    import oracles
    from dcgof.transform import NoiseStream

    if workload.argv[0] == "mc":
        if serial_text is None:
            return ["no --threads 1 output to compare with"]
        R = int(workload.argv[workload.argv.index("--R") + 1])
        return oracles.check_mc(text, serial_text, R)
    y, x = data
    z = NoiseStream.from_seed(workload.T, seed, "data").z
    return oracles.check_test_report(json.loads(text), y, x, workload.dgp.J,
                                     workload.dgp.truth(), z)


def measure(run: Run, workload, argv, serial_argv, seconds: float, env: dict) -> dict:
    """End-to-end metrics: rounds of one call and SETUP_PER_ROUND start-ups."""
    calls, setups = run.samples["calls"], run.samples["setups"]

    def one_round() -> None:
        calls.append(run.call(argv))
        setups.extend(run.setup(env) for _ in range(SETUP_PER_ROUND))

    repeat(seconds, one_round)
    peak = run.worker.ask(op="rusage")["peak_rss_mb"]
    if workload.argv[0] == "mc":  # the one-worker output the check compares with
        run.call(serial_argv)
    done = [c for c in calls if c is not None]
    wall = median_of(c["wall"] for c in done)
    text = run.output(argv)
    return {
        "setup_s": (median_of(setups), "s"),
        "wall_s": (wall, "s"),
        "reps_per_s": (reps_of(workload, text) / wall if text else float("nan"), "1/s"),
        "cpu_s": (median_of(c["cpu"] for c in done), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def measure_traced(run: Run, workload, argv, traced_argv, seconds: float, env: dict,
                   spans_path: str) -> dict:
    """Per-layer metrics: untraced reference calls, then traced calls."""
    start = time.perf_counter()
    parallel = run.call(argv)
    reference = run.call(traced_argv) if traced_argv != argv else parallel
    run.worker.ask(op="trace")
    traced = run.samples["calls"]
    left = seconds - (time.perf_counter() - start)
    repeat(max(left, 0.0), lambda: traced.append(run.call(traced_argv)))
    run.worker.ask(op="dump", path=spans_path)
    dcgof_import, signal_import = import_times(env)

    done = [c for c in traced if c is not None]
    keys = set().union(*(c["layers"] for c in done)) if done else set()
    L = {k: median_of(c["layers"].get(k, 0.0) for c in done) for k in keys}
    get = lambda k: L.get(k, 0.0)  # noqa: E731 - a layer a workload never enters reads 0
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    wall_traced = median_of(c["wall"] for c in done)
    efficiency = (parallel["cpu"] / (workers_of(argv) * parallel["wall"])
                  if parallel else float("nan"))
    overhead = wall_traced - reference["wall"] if reference else float("nan")
    metrics = {
        "dcgof.import_s": (dcgof_import, "s"),
        "model.scipy_signal_import_s": (signal_import, "s"),
        "cli.load_series_s": (get("cli.load_series_s"), "s"),
        "model.simulate_s": (get("model.simulate_s"), "s"),
        "model.simulate_calls": (get("model.simulate_calls"), "count"),
        "model.simulate_us_per_period": (
            1e6 * ratio(get("model.simulate_s"), get("simulated_periods")), "us"),
        "model.law_path_s": (get("model.law_path_s"), "s"),
        "model.law_path_calls": (get("model.law_path_calls"), "count"),
        "estimate.fit_s": (get("estimate.fit_s"), "s"),
        "estimate.fit_calls": (get("estimate.fit_calls"), "count"),
        "estimate.newton_iters": (get("newton_iters"), "count"),
        "estimate.score_s": (get("estimate.score_s"), "s"),
        "estimate.score_calls": (get("estimate.score_calls"), "count"),
        "estimate.loglik_s": (get("estimate.loglik_s"), "s"),
        "estimate.loglik_calls": (get("estimate.loglik_calls"), "count"),
        "estimate.score_calls_per_iter": (
            ratio(get("estimate.score_calls"), get("newton_iters")), "ratio"),
        "estimate.loglik_calls_per_iter": (
            ratio(get("estimate.loglik_calls"), get("newton_iters")), "ratio"),
        "estimate.converged_ratio": (
            ratio(get("converged_fits"), get("estimate.fit_calls")), "ratio"),
        "transform.pit_s": (get("transform.pit_s"), "s"),
        "transform.pit_calls": (get("transform.pit_calls"), "count"),
        "stats.cvm1d_s": (get("stats.cvm1d_s"), "s"),
        "stats.cvm2d_s": (get("stats.cvm2d_s"), "s"),
        "stats.ks1d_s": (get("stats.ks1d_s"), "s"),
        "stats.ks2d_s": (get("stats.ks2d_s"), "s"),
        "stats.bp_s": (get("stats.bp_s"), "s"),
        "stats.jb_s": (get("stats.jb_s"), "s"),
        "stats.resid_discrete_s": (get("stats.resid_discrete_s"), "s"),
        "stats.cvm2d_peak_mb": (get("stats.cvm2d_peak_mb"), "MB"),
        "stats.ks2d_peak_mb": (get("stats.ks2d_peak_mb"), "MB"),
        "boot.self_s": (get("boot_s"), "s"),
        "boot.failed_fits": (get("failed_fits"), "count"),
        "boot.parallel_efficiency": (efficiency, "ratio"),
        "rng.substream_s": (get("rng.substream_s"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcgof", "cli.py")):
        print(f"error: no dcgof sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    csv_path = os.path.join(run_dir, "input.csv")
    out_dir = os.path.join(run_dir, "out")
    data = make_input(workload, args.seed, csv_path)
    argv = dcgof_argv(workload.argv, args.seed, csv_path, out_dir, workload)
    serial_argv = dcgof_argv(workload.traced_argv, args.seed, csv_path, out_dir, workload)

    env = child_env()
    worker = Worker(env)
    try:
        if not worker.hello["dcgof"].startswith(SRC + os.sep):
            print(f"error: measured process imported {worker.hello['dcgof']}", file=sys.stderr)
            return 2
        run = Run(worker, out_dir, output_file(workload))
        if args.trace:
            metrics = measure_traced(run, workload, argv, serial_argv, args.seconds, env,
                                     os.path.join(run_dir, "spans.json"))
        else:
            metrics = measure(run, workload, argv, serial_argv, args.seconds, env)
    finally:
        worker.close()

    text = run.output(argv)
    serial = run.output(serial_argv)
    if text is None:
        errors = ["no call succeeded, or repeated calls wrote different outputs"]
    else:
        errors = check(workload, args.seed, data, text, serial)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        # a metric with no successful sample is null: there is nothing to report
        "metrics": {name: {"value": None if value != value else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({**result, "samples": run.samples}, fh, indent=1)
    print(json.dumps(result, allow_nan=False))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
