"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--workloads W ...] [--seeds N ...] [--baseline FILE]

Runs ``run.py`` once per workload and seed (with BENCHMARK.json's
run_seconds) and prints, for each end-to-end metric, the median over runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound. With ``--baseline`` it also makes one traced
run per workload and writes the medians, spreads, pooled per-sample tail
percentiles, the per-layer tables and the machine to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK, WORKLOADS, tail_percentile

RUN = Path(__file__).resolve().parent / "run.py"


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=200)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, detail


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(101, 111)))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        per_metric = {name: [] for name in bounds}
        pooled = {name: [] for name in bounds}
        failures = attempted = incorrect = 0
        for seed in args.seeds:
            line, detail = invoke(workload, seed, seconds, 0)
            failures += line["failed"]
            attempted += line["attempted"]
            incorrect += not line["correct"]
            for name in bounds:
                per_metric[name].append(line["metrics"][name]["value"])
                pooled[name] += [s[name] for s in detail["samples"]]
            baseline["machine"] = detail["machine"]
        row = {"error_rate": failures / attempted, "incorrect_invocations": incorrect,
               "metrics": {}}
        print(f"{workload}: {len(args.seeds)} invocations, {incorrect} incorrect; "
              f"error_rate {failures / attempted:.6g} failed/attempted ({failures} of {attempted} runs)")
        for name, values in per_metric.items():
            s = spread(values)
            tail = tail_percentile(pooled[name])
            row["metrics"][name] = {
                "median": statistics.median(values), "spread": s, "runs": values,
                "pooled_samples": len(pooled[name]),
                "pooled_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
            }
            flag = "ok" if s < bounds[name] / 3 or name == "setup_s" else "WIDE"
            steady = steady and flag == "ok"
            print(f"  {name:<12} median {statistics.median(values):.6g} {units[name]}  spread {s:.4f}  "
                  f"(bound/3 {bounds[name] / 3:.4f}) {flag}")
        if args.baseline:
            line, detail = invoke(workload, args.seeds[0], seconds, 1)
            row["traced"] = {"correct": line["correct"], "per_layer": detail["per_layer"]}
        baseline["workloads"][workload] = row
        steady = steady and not incorrect
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
