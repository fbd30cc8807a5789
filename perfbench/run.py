"""The depolcap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A run first times a few set-up-only
processes, then repeats whole rounds of the workload, each in a fresh
worker process, until S seconds have passed (at least one round). It
ends with a few more set-up-only processes, so that ``setup_s`` samples
both ends of the run. Every report is checked by the oracle, and against
the run's first round for determinism. Each check record is one
operation: attempted, and failed unless it passed.

The last line of standard output is one JSON object. With ``--trace 0`` its
metrics are the end-to-end ones: ``wall_s`` (median round time after
set-up), ``setup_s`` (median time to start Python and import numpy and
depolcap) and ``peak_rss_mb`` (median peak resident memory of a round's
process). With ``--trace 1`` each step is an untraced round and a traced
one, and the metrics are the per-layer ones plus ``trace.overhead_s``.
The host-speed probe goes to standard error.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread here and in every worker: the program's
# matrices are at most 36x36, and thread start-up only adds noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from oracle import check_report  # noqa: E402
from probe import host_probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
RUN_LIMIT_S = 175.0   # a run must end within 180 s, however its workers behave


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no source tree, or a worker broke."""


def worker_env() -> dict:
    """The caller's environment without what would change what a worker
    imports, where reports go, or whether bytecode is cached. Workers write
    and reuse ``__pycache__`` as an installed package would, so ``setup_s``
    is a warm import in every environment."""
    return {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "DEPOLCAP_OUT_DIR", "PYTHONDONTWRITEBYTECODE")}


def spawn(commands: list, trace: bool, cwd: Path, deadline: float) -> dict:
    """One worker process; returns its result with ``setup_s`` added."""
    spec = json.dumps({"src": str(SRC), "commands": commands, "trace": trace})
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), spec],
                              cwd=cwd, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"the run went past its {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(f"worker printed no result: {proc.stdout[-200:]!r}")
    result["setup_s"] = result["ready"] - start
    if any(code not in (0, 1) for code in result.get("exit_codes", ())):
        raise BenchmarkError(f"depolcap exit codes {result['exit_codes']}")
    return result


class Checker:
    """Oracle and determinism checks over every round's reports."""

    def __init__(self, commands) -> None:
        self.commands = commands
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, cwd: Path) -> None:
        for cmd in self.commands:
            try:
                report = json.loads((cwd / cmd.report).read_text())
            except (OSError, ValueError) as exc:
                self.problems.append(f"{cmd.name}: no readable report ({exc})")
                continue
            report.pop("timestamp", None)
            problems, failed = check_report(report, cmd.name, cmd.dims,
                                            cmd.lambdas, cmd.p_grid,
                                            cmd.trials, cmd.seed)
            self.problems += [f"{cmd.name}: {p}" for p in problems]
            self.attempted += len(report.get("records", ()))
            self.failed += failed
            if self.first.setdefault(cmd.report, report) != report:
                self.problems.append(f"{cmd.name}: report differs between rounds")


def median(values) -> float:
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "depolcap" / "cli.py").is_file():
        raise BenchmarkError(f"no depolcap source tree under {SRC}")
    commands = WORKLOADS[workload](seed)
    argv = [cmd.argv() for cmd in commands]
    cwd = OUT / f"{workload}-{seed}"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    limit = perf_counter() + RUN_LIMIT_S
    print(json.dumps(host_probe()), file=sys.stderr)

    setups = [spawn([], False, cwd, limit)["setup_s"] for _ in range(SETUP_PROBES)]
    checker = Checker(commands)
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(spawn(argv, False, cwd, limit))
        checker.check(cwd)
        if trace:
            traced.append(spawn(argv, True, cwd, limit))
            checker.check(cwd)
        if perf_counter() >= deadline:
            break
    setups += [spawn([], False, cwd, limit)["setup_s"] for _ in range(SETUP_PROBES)]
    setups += [r["setup_s"] for r in plain]
    print(json.dumps({"round_wall_s": [r["wall_s"] for r in plain],
                      "round_cpu_s": [r["cpu_s"] for r in plain],
                      "setup_s": setups}), file=sys.stderr)

    if trace:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name, (_, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            if unit in ("count", "B") and len(set(values)) > 1:
                checker.problems.append(f"count {name} differs between rounds")
            metrics[name] = {"value": median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": median(r["wall_s"] for r in traced)
            - median(r["wall_s"] for r in plain), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": median(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median(r["rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    for problem in checker.problems:
        print(f"oracle: {problem}", file=sys.stderr)
    return {"correct": not checker.problems, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
