"""Experiment runner: reads JSON configs and gate-list files, runs, writes CSV+JSON.

Exit codes: 0 success, 2 config error, 3 numerical assertion violation.
CSV output is bitwise deterministic for a given config (including across
worker counts); wall-clock runtime lives only in the JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import __version__
from .liouville import DEFAULT_DELTA, bound8_report
from .models import (
    MODEL_FIELDS,
    CircuitSpec,
    Gate,
    SykConfig,
    bound8_hamiltonian,
    entangler2_preset,
    realize_circuit,
    scrambler_preset,
    syk_trajectory,
)
from .qdense import OBAR_T0_TOL, RANK_TOL, SLACK_TOL, Bipartition
from .scrambling import bound_report

# CSV columns in file order; a run writes those its channel table holds.
COLUMNS = ("t", "I", "I2", "Obar", "deltaO", "deltaMO", "Idot", "SdotA", "SdotB", "SdotE",
           "slack9", "slack8")
BUILTIN_CIRCUITS = {"scrambler3": scrambler_preset, "entangler2": entangler2_preset}
# Writing the CSV holds about 1.3 kB per row at its peak: some 1.3 GB at this
# many samples, which validate refuses before any allocation.
MAX_SAMPLES = 10**6
# Field tables, one per JSON object: each field's type, (type, default) for an
# optional field, or the table of a nested object. The model's own table is
# MODEL_FIELDS[type], read once its type is known.
COMMON_FIELDS = {"kind": str, "partition": {"n_a": int, "n_b": int}, "output": str, "seed": int,
                 "time_grid": {"start": float, "stop": float, "samples": int}}
KIND_FIELDS = {
    "syk": {"syk": {"n_majorana": int, "q": int, "j_squared": float, "realizations": (int, 300)},
            "workers": (int, 1)},
    "circuit": {"circuit": str, "modified_otoc": (bool, None)},  # None: true when n_a == 1
    "bound8": {"model": dict, "delta": (float, DEFAULT_DELTA)},
}
# The checks a run counts, in the order they are read: name -> (channel, mask
# of the failing samples given the channel and the Obar floor
# 1/min(d_A, d_B)^2, what the check requires, whether a failure stops the run
# with exit 3). A check applies where the run's table holds its channel.
# Given Obar(0) = 1, an Obar within [floor, 1] at every sample certifies the
# operator form of bound 9, Iop >= -2 ln Obar >= Obar(0) - Obar(t). The state
# form slack9 is no theorem (RZZ(pi t/2) at 1|1 keeps I = 0 while Obar falls
# to 0.5), so it is counted and never stops a run.
CHECKS = {
    "slack9": ("slack9", lambda x, floor: x < SLACK_TOL, f"below {SLACK_TOL}", False),
    "slack8": ("slack8", lambda x, floor: x < SLACK_TOL, f"below {SLACK_TOL}", True),
    "Obar(0)": ("Obar", lambda x, floor: np.abs(x[:1] - 1.0) > OBAR_T0_TOL,
                f"deviates from 1 beyond {OBAR_T0_TOL}", True),
    "Obar": ("Obar", lambda x, floor: (x > 1.0 + OBAR_T0_TOL) | (x < floor - OBAR_T0_TOL),
             f"outside [1/min(d_A, d_B)^2, 1] beyond {OBAR_T0_TOL}", True),
}
CIRCUIT_FIELDS = {"n_qubits": int, "gates": list}
GATE_FIELDS = {"name": str, "targets": list, "angle": (float, None), "matrix": (list, None)}
# A key's value where it repeats within one JSON object: json.loads would keep
# only its last value, which would hide the others.
_REPEATED = object()


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class AssertionViolation(RuntimeError):
    """A hard numerical assertion failed; the message names the first sample."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _real(value):
    """A JSON integer as a float, infinite past the float range; others unchanged."""
    if type(value) is int:
        return float(value) if abs(value) <= sys.float_info.max else math.inf
    return value


def _field(data: dict, name: str, kind: type, where: str = ""):
    """The required field ``name`` of ``data``, of type ``kind``; a float must be finite."""
    path = f"{where}.{name}" if where else name
    _expect(name in data, f"{path}: missing required field")
    _expect(data[name] is not _REPEATED, f"{path}: repeated field")
    value = _real(data[name]) if kind is float else data[name]
    _expect(type(value) is kind, f"{path}: expected {kind.__name__}")
    _expect(kind is not float or math.isfinite(value), f"{path}: expected a finite number")
    return value


def _read(data, table: dict, where: str = "") -> dict:
    """The fields of JSON object ``data`` as ``table`` types them; no key outside it."""
    _expect(data is not _REPEATED, f"{where}: repeated field")
    _expect(isinstance(data, dict), f"{where}: missing or not an object")
    prefix = f"{where}." if where else ""
    for key in data:
        _expect(key in table, f"{prefix}{key}: unknown field")
    values = {}
    for name, spec in table.items():
        if isinstance(spec, dict):
            values[name] = _read(data.get(name), spec, prefix + name)
        elif isinstance(spec, tuple):
            values[name] = _field(data, name, spec[0], where) if name in data else spec[1]
        else:
            values[name] = _field(data, name, spec, where)
    return values


def _unique(pairs: list) -> dict:
    """A JSON object whose repeated keys hold _REPEATED, which the field readers refuse."""
    obj = {}
    for key, value in pairs:
        obj[key] = _REPEATED if key in obj else value
    return obj


def _json_object(text: str) -> dict:
    """Decode a JSON document whose top level must be an object."""
    try:
        data = json.loads(text, object_pairs_hook=_unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError("top level: nested too deeply") from None
    _expect(isinstance(data, dict), "top level: expected an object")
    return data


def _read_text(path: str, what: str, shown: str) -> str:
    """The UTF-8 text of a file; errors read "{what} not found: {shown}" and the like."""
    _expect(os.path.isfile(path), f"{what} not found: {shown}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} not readable: {shown}: {exc}") from None


def _matrix(rows: list, path: str) -> np.ndarray:
    """A 4x4 complex matrix from nested [re, im] pairs of numbers read as by _field."""
    # A malformed row or cell is dropped here, so the count of parts falls short.
    rows = rows if len(rows) == 4 else []
    cells = [c for row in rows if type(row) is list and len(row) == 4 for c in row]
    parts = [_real(x) for c in cells if type(c) is list and len(c) == 2 for x in c]
    _expect(len(parts) == 32 and all(type(x) is float for x in parts),
            f"{path}: expected 4x4 nested [re, im] pairs")
    return np.array(parts).view(complex).reshape(4, 4)


def _gate_from_json(obj, where: str) -> Gate:
    gate = _read(obj, GATE_FIELDS, where)
    matrix = None if gate["matrix"] is None else _matrix(gate["matrix"], f"{where}.matrix")
    return Gate(gate["name"].upper(), tuple(gate["targets"]), gate["angle"], matrix)


def parse_circuit_json(text: str) -> CircuitSpec:
    """Parse {n_qubits, gates:[{name, targets, angle?, matrix?}]} and validate.

    Errors are ValueErrors that start with the offending field's path.
    """
    data = _read(_json_object(text), CIRCUIT_FIELDS)
    return CircuitSpec(data["n_qubits"],
                       [_gate_from_json(g, f"gates[{i}]") for i, g in enumerate(data["gates"])])


@dataclass
class ExperimentConfig:
    kind: str
    partition: Bipartition
    times: np.ndarray
    output: str
    seed: int
    raw: dict
    syk: SykConfig | None = None
    circuit: CircuitSpec | None = None
    workers: int = 1
    modified: bool = False
    model: dict = field(default_factory=dict)
    delta: float = DEFAULT_DELTA


def _gate_file(ref: str, config_path: str) -> str | None:
    """The gate-list file circuit ``ref`` names, relative to the config; None for a builtin."""
    return None if ref.startswith("builtin:") else os.path.join(
        os.path.dirname(os.path.abspath(config_path)), ref)


def _resolve_circuit(ref: str, config_path: str) -> CircuitSpec:
    path = _gate_file(ref, config_path)
    if path is None:
        name = ref.split(":", 1)[1]
        _expect(name in BUILTIN_CIRCUITS, f"circuit: unknown builtin {name!r}")
        return BUILTIN_CIRCUITS[name]()
    text = _read_text(path, "circuit: file", ref)
    try:
        return parse_circuit_json(text)
    except ValueError as exc:
        raise ConfigError(f"circuit ({ref}): {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    data = _json_object(_read_text(path, "config file", path))
    kind = _field(data, "kind", str)
    _expect(kind in KIND_FIELDS, f"kind: must be one of {list(KIND_FIELDS)}")
    fields = _read(data, {**COMMON_FIELDS, **KIND_FIELDS[kind]})
    try:
        partition = Bipartition(**fields["partition"])
    except ValueError as exc:
        raise ConfigError(f"partition.{exc}") from None
    # numpy counts an array's bytes in np.intp, which must hold one sample's
    # d^2 complex entries (d^4 for bound8's W).
    power = 4 if kind == "bound8" else 2
    limit = ((np.iinfo(np.intp).max // np.dtype(complex).itemsize).bit_length() - 1) // power
    _expect(partition.n_qubits <= limit,
            f"partition: n_a + n_b = {partition.n_qubits} exceeds {limit} qubits, past which "
            f"numpy cannot hold one sample's d^{power} complex entries")

    grid = fields["time_grid"]
    _expect(grid["start"] == 0.0, "time_grid.start: first sample must be at t = 0")
    _expect(2 <= grid["samples"] <= MAX_SAMPLES,
            f"time_grid.samples: need at least 2 samples and at most {MAX_SAMPLES}")
    _expect(grid["stop"] > grid["start"], "time_grid.stop: grid must be strictly increasing")
    _expect(fields["seed"] >= 0, "seed: must be a non-negative integer")
    _expect(os.path.basename(fields["output"]) not in ("", ".", ".."),
            "output: must be a path stem, not empty or ending in a path separator, . or ..")
    cfg = ExperimentConfig(
        kind=kind, partition=partition, output=fields["output"], seed=fields["seed"], raw=data,
        times=np.linspace(grid["start"], grid["stop"], grid["samples"]),
    )

    if kind == "syk":
        try:
            cfg.syk = SykConfig(**fields["syk"], seed=cfg.seed)
        except ValueError as exc:
            raise ConfigError(f"syk.{exc}") from None
        _expect(partition.n_qubits == cfg.syk.n_qubits,
                f"partition: n_a + n_b = {partition.n_qubits} does not match "
                f"the {cfg.syk.n_qubits}-qubit SYK register")
        cfg.workers = fields["workers"]
        _expect(cfg.workers >= 1, "workers: must be at least 1")
    elif kind == "circuit":
        cfg.circuit = _resolve_circuit(fields["circuit"], path)
        _expect(partition.n_qubits == cfg.circuit.n_qubits,
                f"partition: n_a + n_b = {partition.n_qubits} does not match "
                f"the {cfg.circuit.n_qubits}-qubit circuit")
        modified = fields["modified_otoc"]
        cfg.modified = partition.n_a == 1 if modified is None else modified
        _expect(not (cfg.modified and partition.n_a != 1),
                "modified_otoc: requires a single-qubit A subsystem")
    elif kind == "bound8":
        mtype = _field(fields["model"], "type", str, "model")
        _expect(mtype in MODEL_FIELDS, f"model.type: must be one of {list(MODEL_FIELDS)}")
        cfg.model = _read(fields["model"], {"type": str, **MODEL_FIELDS[mtype]}, "model")
        cfg.delta = fields["delta"]
        _expect(0.0 < cfg.delta < 1.0, "delta: must be in (0, 1)")
        # The regularized start's smallest marginal eigenvalue is delta / d_X, and eigh
        # may return it a few ulp lower: keep it twice RANK_TOL.
        floor = 2 * RANK_TOL * max(partition.dim_a, partition.dim_b)
        _expect(cfg.delta >= floor, f"delta: must be at least {floor!r} at this partition, "
                "or a marginal of the regularized start is rank deficient")
    return cfg


def _zero_state(n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError from writing ``path`` as a config error on ``output``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output: cannot write {path}: {exc.strerror or exc}") from None


def _rewrite(path: str, text: str) -> None:
    """Make ``path`` hold exactly ``text`` (UTF-8), overwriting the file in place.

    Truncating at open frees the file's blocks first, which stalled 40-80 ms
    per call on ext4 mounted with ``discard``; a rewrite of the same size frees
    nothing. Like ``open(path, "w")`` this keeps the inode, creates a missing
    file with mode 0o666 under the umask and follows symlinks.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def write_csv(path: str, table: dict[str, np.ndarray]) -> None:
    """One row per time sample; the COLUMNS present in ``table``, in order."""
    header = [c for c in COLUMNS if c in table]
    row = ",".join(["%.16e"] * len(header))
    columns = [np.asarray(table[c]).tolist() for c in header]
    lines = [",".join(header)] + [row % values for values in zip(*columns, strict=True)]
    _rewrite(path, "\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, str]:
    """Execute one experiment; returns (summary dict, csv path)."""
    started = time.perf_counter()
    out_dir = os.path.dirname(cfg.output)
    if out_dir:
        with _writing(out_dir):
            os.makedirs(out_dir, exist_ok=True)
    csv_path = cfg.output + ".csv"
    summary: dict = {
        "kind": cfg.kind,
        "config": cfg.raw,
        "version": __version__,
        "csv": csv_path,
        "seeds": {"base": cfg.seed},
        "violations": {},
    }

    initial = _zero_state(cfg.partition.n_qubits)
    floor = 1.0 / min(cfg.partition.dim_a, cfg.partition.dim_b) ** 2
    if cfg.kind == "syk":
        reports, table = syk_trajectory(cfg.syk, cfg.partition, initial, cfg.times,
                                        workers=cfg.workers)
        summary["seeds"]["disorder_streams"] = "(base, realization_index)"
        summary["workers"] = cfg.workers
        summary["violations"]["per_realization_slack9"] = int(sum(
            np.count_nonzero(CHECKS["slack9"][1](r["slack9"], floor)) for r in reports))
    elif cfg.kind == "circuit":
        table = bound_report(lambda t: realize_circuit(cfg.circuit, t), cfg.partition,
                             initial, cfg.times, include_modified=cfg.modified)
        summary["circuit"] = cfg.raw["circuit"]
        gap = np.abs(np.exp(-table["I2"]) - table["Obar"])
        summary["exp_neg_i2_vs_obar"] = {"max": float(gap.max()), "mean": float(gap.mean())}
    else:
        h = bound8_hamiltonian(cfg.model, cfg.partition.n_qubits, cfg.seed)
        table = bound8_report(h, cfg.partition, initial, cfg.times, cfg.delta)
        summary["model"] = cfg.model
        summary["delta"] = cfg.delta

    with _writing(csv_path):
        write_csv(csv_path, table)
    # inf and nan fail no comparison in CHECKS, so a non-finite cell stops the run first.
    for name in (c for c in COLUMNS if c in table):
        bad = np.flatnonzero(~np.isfinite(table[name]))
        if bad.size:
            value, t = float(table[name][bad[0]]), float(table["t"][bad[0]])
            raise AssertionViolation(f"{name} = {value} is not finite first at t = {t}")
    summary["first_violation_t"] = {}
    for name, (channel, fails, requirement, stops) in CHECKS.items():
        if channel not in table:
            continue
        bad = np.nonzero(fails(table[channel], floor))[0]
        summary["violations"][name] = int(bad.size)
        if bad.size:
            value, t = float(table[channel][bad[0]]), float(table["t"][bad[0]])
            summary["first_violation_t"][name] = t
            if stops:
                raise AssertionViolation(f"{name} = {value} {requirement} first at t = {t}")
    summary["runtime_seconds"] = time.perf_counter() - started
    return summary, csv_path


def preset_dir():
    return resources.files("scramble") / "presets"


def preset_names() -> list[str]:
    return sorted(p.name[: -len(".json")] for p in preset_dir().iterdir()
                  if p.name.endswith(".json"))


def resolve_config_path(ref: str) -> str:
    """A filesystem path, or the name of a shipped preset config."""
    if os.path.isfile(ref):
        return ref
    if ref in preset_names():
        return str(preset_dir() / f"{ref}.json")
    raise ConfigError(f"config file not found: {ref}")


def _load(ref: str) -> ExperimentConfig:
    """The config at path or preset ``ref``, whose CSV and summary overwrite no input file.

    Only cmd_run writes the summary: a caller of load_config and
    run_experiment, such as perfbench's runner, may keep the config there.
    """
    path = resolve_config_path(ref)
    cfg = load_config(path)
    inputs = [path, _gate_file(cfg.raw["circuit"], path) if cfg.kind == "circuit" else None]
    for written in (cfg.output + ".csv", cfg.output + ".json"):
        _expect(all(os.path.realpath(written) != os.path.realpath(f) for f in inputs if f),
                f"output: {written} would overwrite an input of this run")
    return cfg


def _config_error(exc: ConfigError) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return 2


def _remove_outputs(output: str, suffixes: tuple[str, ...]) -> None:
    """Remove outputs left by an earlier run, which would not describe this run."""
    for suffix in suffixes:
        with contextlib.suppress(FileNotFoundError):
            os.remove(output + suffix)


def cmd_run(ref: str) -> int:
    try:
        cfg = _load(ref)
    except ConfigError as exc:
        return _config_error(exc)
    json_path = cfg.output + ".json"
    try:
        # Every written column is checked for inf and nan, so numpy's float
        # warnings would only repeat that message with library source lines.
        with np.errstate(all="ignore"):
            summary, csv_path = run_experiment(cfg)
        with _writing(json_path):
            _rewrite(json_path, json.dumps(summary, indent=2) + "\n")
    except ConfigError as exc:  # the output paths are checked at run time
        return _config_error(exc)
    except (AssertionViolation, ValueError) as exc:
        # A ValueError here is a library check failing mid-run (an imaginary
        # residue, say), before any CSV is written; an AssertionViolation
        # comes after this run's CSV, which is kept for inspection.
        print(f"assertion violation: {exc}", file=sys.stderr)
        _remove_outputs(cfg.output, (".json",) if isinstance(exc, AssertionViolation)
                        else (".json", ".csv"))
        return 3
    except (OSError, MemoryError) as exc:
        # The OS lost the run before its CSV was complete: a worker killed, a fork or
        # pipe refused, an array too large. _writing made output-path OSErrors ConfigErrors.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        _remove_outputs(cfg.output, (".json", ".csv"))
        return 1
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_validate(ref: str) -> int:
    try:
        _load(ref)
    except ConfigError as exc:
        return _config_error(exc)
    print("ok")
    return 0


def cmd_presets_list() -> int:
    for name in preset_names():
        path = preset_dir() / f"{name}.json"
        kind = _json_object(path.read_text(encoding="utf-8")).get("kind", "?")
        print(f"{name:18s} {kind:10s} {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scramble",
        description="Scrambling diagnostics and entropy-production bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config (path or preset name)")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    p_pre = sub.add_parser("presets", help="shipped experiment configs")
    pre_sub = p_pre.add_subparsers(dest="presets_command", required=True)
    pre_sub.add_parser("list", help="list shipped configs")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "validate":
        return cmd_validate(args.config)
    return cmd_presets_list()


if __name__ == "__main__":
    sys.exit(main())
