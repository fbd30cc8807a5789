"""Run one set of benchmark runs and report the spread of each metric.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]
                                [--label NAME]

The workloads are interleaved within the set (seed 1 of every workload,
then seed 2, ...), so slow drift of the host spreads over all of them
instead of landing on one. For every end-to-end metric of every workload it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median: the figure a bound in
``BENCHMARK.json`` has to exceed. The host-speed probe is taken before and
after the set. Everything is also written to ``perfbench/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from probe import host_probe

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stderr"] = proc.stderr.strip().splitlines()
    return result


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--label", default="set")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    out = {"label": args.label, "seconds": seconds,
           "probe_before": host_probe(), "runs": []}
    for seed in args.seeds:
        for workload in workloads:
            result = one_run(workload, seed, seconds)
            out["runs"].append({"workload": workload, "seed": seed, **result})
            metrics = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload:18s} seed {seed:3d}  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{metrics}", flush=True)
    out["probe_after"] = host_probe()

    out["summary"] = {}
    print(f"probe before {out['probe_before']}\nprobe after  {out['probe_after']}")
    for workload in workloads:
        runs = [r for r in out["runs"] if r["workload"] == workload]
        rows = {}
        for metric in runs[0]["metrics"]:
            rows[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            s = rows[metric]
            print(f"{workload:18s} {metric:12s} median {s['median']:.4f} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}")
        rows["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
        out["summary"][workload] = rows
    path = HERE / "out" / f"spread-{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
