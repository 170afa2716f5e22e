"""Benchmark for scramble: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Run from anywhere inside a checkout; the program is imported from ``src/``.
Each sample is a fresh interpreter (``runner.py``) that imports
``scramble.cli``, loads the workload's generated configs and calls
``run_experiment`` on them, so every sample pays set-up and starts from an
empty resident set. Samples repeat for ``--seconds`` seconds and the
medians are reported.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics: calls, self time and computed bytes of each public
function of the six modules, plus the tracing overhead.

Every invocation also runs the workload once at DEFAULT_SEED and compares
its CSVs with ``perfbench/reference/``; every sample's CSVs are checked for
the identities in ``checks.py`` and must be byte-identical across samples.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Details of the run are written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_channels, compare_to_reference
from tracer import TRACED, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SAMPLE_TIMEOUT_S = 120
# Stop starting samples past this point so an invocation ends within 180 s.
WALL_LIMIT_S = 140
MIN_SAMPLES = 3

# Two realizations, so that the pooled workload keeps both workers busy.
SYK_SHAPE = {
    "kind": "syk",
    "partition": {"n_a": 1, "n_b": 4},
    "time_grid": {"start": 0.0, "stop": 20.0, "samples": 101},
    "syk": {"n_majorana": 10, "q": 4, "j_squared": 2.0, "realizations": 2},
}
RATES_SHAPE = {
    "kind": "bound8",
    "partition": {"n_a": 2, "n_b": 3},
    "time_grid": {"start": 0.0, "stop": 8.0, "samples": 5},
    "model": {"type": "random"},
    "delta": 1e-6,
}
FAST_PRESETS = ("bound8-2q", "bound8-3q", "fig2-circuit", "otoc-sweep-2q", "otoc-sweep-3q")


def _preset(name: str) -> dict:
    config = json.loads((SRC / "scramble" / "presets" / f"{name}.json").read_text())
    del config["seed"], config["output"]
    return config


WORKLOADS = {
    "syk-ensemble": lambda: [("syk-n10-r2", {**SYK_SHAPE, "workers": 1})],
    "syk-pool": lambda: [("syk-n10-r2", {**SYK_SHAPE, "workers": 2})],
    "rates-5q": lambda: [("rates-5q", RATES_SHAPE)],
    "presets-fast": lambda: [(name, _preset(name)) for name in FAST_PRESETS],
}

PARENT_OTOC = {"syk-ensemble", "rates-5q", "presets-fast"}
RATES = {"rates-5q", "presets-fast"}
# Workloads on which a traced (parent-side) run must see calls; on every
# other workload the count must be zero. On syk-pool the realizations run in
# pool workers, whose spans are not collected.
EXPECTED_CALLS = {
    "cli.load_config": set(WORKLOADS),
    "cli.run_experiment": set(WORKLOADS),
    "cli.write_csv": set(WORKLOADS),
    "models.syk_trajectory": {"syk-ensemble", "syk-pool"},
    "models.build_syk_hamiltonian": {"syk-ensemble"},
    "models.realize_circuit": {"presets-fast"},
    "scrambling.bound_report": PARENT_OTOC,
    "scrambling.averaged_otoc": PARENT_OTOC,
    "scrambling.modified_otoc": {"presets-fast"},
    "entropy.mutual_information": PARENT_OTOC,
    "entropy.renyi2_mutual_information": PARENT_OTOC,
    "qdense.check_density_matrix": PARENT_OTOC,
    "qdense.eigh": PARENT_OTOC,
    "liouville.entropy_production_rates": RATES,
    "liouville.build_liouvillian": RATES,
    "liouville.mutual_information_rate": RATES,
}


class Sample:
    """One runner process: its exit code, times, and the problems found."""

    def __init__(self, code: int, result: dict, problems: list[str]):
        self.code, self.result, self.problems = code, result, problems

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


class Runs:
    """Generated configs for one seed in their own directory, and samples of them."""

    def __init__(self, workload: str, seed: int, parent: Path, env: dict):
        self.dir = Path(tempfile.mkdtemp(prefix=f"seed{seed}-", dir=parent))
        self.env = env
        self.files = []  # (stem, config, config path, csv path)
        for stem, shape in WORKLOADS[workload]():
            # The program's seed streams take non-negative integers only.
            config = {**shape, "seed": seed % 2**63, "output": str(self.dir / stem)}
            path = self.dir / f"{stem}.json"
            path.write_text(json.dumps(config))
            self.files.append((stem, config, path, self.dir / f"{stem}.csv"))
        self.first_csv: dict[str, bytes] = {}

    def sample(self, trace: bool = False, machine: bool = False) -> Sample:
        result_path = self.dir / "result.json"
        cmd = [sys.executable, str(BENCH / "runner.py"), "--result", str(result_path)]
        cmd += ["--trace"] * trace + ["--machine"] * machine
        cmd += [str(path) for _, _, path, _ in self.files]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return Sample(-signal.SIGKILL, {}, [f"timed out after {SAMPLE_TIMEOUT_S} s"])
        if proc.returncode != 0 or not result_path.exists():
            tail = err.strip().splitlines()[-1:] or ["no output"]
            return Sample(proc.returncode or 1, {}, [f"exit code {proc.returncode}: {tail[0]}"])
        result = json.loads(result_path.read_text())
        result_path.unlink()
        problems = [f"traced name not wrapped: {m}" for m in result.get("missing_bindings", [])]
        for stem, config, _, csv_path in self.files:
            data = csv_path.read_bytes()
            problems += [f"{stem}: {p}" for p in check_channels(data.decode(), config)]
            if self.first_csv.setdefault(stem, data) != data:
                problems.append(f"{stem}: CSV bytes differ from the first sample's")
        return Sample(0, result, problems)

    def reference_problems(self) -> list[str]:
        problems = []
        for stem, _, _, csv_path in self.files:
            ref = REFERENCE / f"{stem}.csv"
            if not ref.exists():
                problems.append(f"{stem}: no reference CSV (run --record-reference)")
                continue
            found = compare_to_reference(csv_path.read_text(), ref.read_text())
            problems += [f"{stem}: {p}" for p in found[:5]]
        return problems


def sample_env() -> dict:
    env = dict(os.environ)
    env.pop("SCRAMBLE_WORKERS", None)  # it would override the config's workers
    env["PYTHONPATH"] = str(SRC)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def tail_percentile(values: list[float]):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(values) - 11
    return round(100.0 * (k + 1) / len(values), 1), ordered[k]


def per_layer(traced: list[Sample], untraced: list[Sample], workload: str):
    """Per-layer metric values and the tracer self-check's problems."""
    tables = [summarize(s.result["spans"]) for s in traced]
    problems = []
    values = {}
    for name in tables[0]:
        calls = {t[name]["calls"] for t in tables}
        nbytes = {t[name]["bytes"] for t in tables}
        if len(calls) > 1 or len(nbytes) > 1:
            problems.append(f"{name}: calls or bytes differ between traced samples")
        n_calls = tables[0][name]["calls"]
        if (n_calls > 0) != (workload in EXPECTED_CALLS[name]):
            want = "non-zero" if workload in EXPECTED_CALLS[name] else "zero"
            problems.append(f"{name}: {n_calls} calls, expected {want}")
        values[f"{name}.calls"] = n_calls
        values[f"{name}.bytes"] = tables[0][name]["bytes"]
        values[f"{name}.self_s"] = statistics.median(t[name]["self_s"] for t in tables)
        values[f"{name}.self_pct"] = statistics.median(
            100.0 * t[name]["self_s"] / sum(r["self_s"] for r in t.values()) for t in tables)
    traced_run = statistics.median(s.result["run_s"] for s in traced)
    values["trace.run_s"] = traced_run
    values["trace.overhead_s"] = traced_run - statistics.median(s.result["run_s"] for s in untraced)
    return values, problems


def print_layer_table(layer: dict, n_traced: int, untraced_run_s: float) -> None:
    print(f"  per layer, median of {n_traced} traced samples (parent process only); "
          "bytes are computed from array shapes:")
    print(f"  {'function':<36}{'calls':>8}{'self_s':>12}{'self_%':>8}{'bytes':>14}")
    for owner, names in TRACED.items():
        for fn in names:
            n = f"{owner}.{fn}"
            print(f"  {n:<36}{layer[n + '.calls']:>8}{layer[n + '.self_s']:>12.6f}"
                  f"{layer[n + '.self_pct']:>8.2f}{layer[n + '.bytes']:>14}")
    print(f"  tracing overhead: traced run_s {layer['trace.run_s']:.6g} s minus untraced "
          f"{untraced_run_s:.6g} s = {layer['trace.overhead_s']:.6g} s")


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, env: dict):
    started = time.perf_counter()
    ref_runs = Runs(workload, DEFAULT_SEED, work, env)
    ref = ref_runs.sample(machine=True)
    if ref.code == 0:
        ref.problems += ref_runs.reference_problems()
    runs = Runs(workload, seed, work, env)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(runs.sample())
        if trace:
            traced.append(runs.sample(trace=True))
        now = time.perf_counter()
        if now - started > WALL_LIMIT_S or (now >= deadline and len(untraced) >= MIN_SAMPLES):
            break
    return ref, untraced, traced, time.perf_counter() - started


def report(args, spec: dict) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ref, untraced, traced, wall = measure(
            args.workload, args.seed, args.seconds, args.trace == 1, work, sample_env())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = [ref] + untraced + traced
    failed = [s for s in samples if not s.ok]
    good = [s for s in untraced if s.ok]
    good_traced = [s for s in traced if s.ok]
    problems = [p for s in failed for p in s.problems]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    machine = ref.result.get("machine", {})

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds} s, trace {args.trace}): {why}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"samples: {len(untraced)} untraced, {len(traced)} traced, 1 reference "
          f"at seed {DEFAULT_SEED}; wall {wall:.1f} s")
    end_to_end = {}
    if good:
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            values = [s.result[name] for s in good]
            end_to_end[name] = statistics.median(values)
            tail = tail_percentile(values)
            tail_text = f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail else "tail needs >= 11 samples"
            print(f"  {name:<12} median {end_to_end[name]:.6g} {unit}  ({tail_text}, n={len(values)})")
    error_rate = len(failed) / len(samples)
    print(f"  error_rate   {error_rate:.6g} failed/attempted ({len(failed)} of {len(samples)} runs)")

    layer, layer_problems = {}, []
    traced_ok = args.trace == 0 or bool(good_traced and good)
    if args.trace == 1 and traced_ok:
        layer, layer_problems = per_layer(good_traced, good, args.workload)
        problems += layer_problems
        print_layer_table(layer, len(good_traced), end_to_end["run_s"])
    for p in problems[:20]:
        print(f"  check failed: {p}")

    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    source = layer if args.trace == 1 else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in source}
    correct = traced_ok and not failed and not layer_problems and len(metrics) == len(wanted)

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "why": why, "configs": WORKLOADS[args.workload](),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "wall_s": wall, "correct": correct, "problems": problems,
        "error_rate": error_rate,
        "samples": [{k: s.result.get(k) for k in ("run_s", "setup_s", "peak_rss_mb")}
                    for s in good],
        "traced_samples": [s.result["run_s"] for s in good_traced],
        "end_to_end": end_to_end, "per_layer": layer,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def record_reference() -> int:
    """Write each workload's CSVs at DEFAULT_SEED to perfbench/reference/."""
    WORK.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    recorded: dict[str, bytes] = {}
    try:
        for workload in WORKLOADS:
            runs = Runs(workload, DEFAULT_SEED, work, sample_env())
            sample = runs.sample()
            if not sample.ok:
                print(f"{workload}: {sample.problems}", file=sys.stderr)
                return 1
            for stem, _, _, csv_path in runs.files:
                data = csv_path.read_bytes()
                if recorded.setdefault(stem, data) != data:
                    print(f"{workload}: {stem}.csv differs from an earlier workload's", file=sys.stderr)
                    return 1
                (REFERENCE / f"{stem}.csv").write_bytes(data)
                print(f"recorded {REFERENCE / stem}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "scramble" / "__init__.py").is_file():
        print(f"scramble sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
