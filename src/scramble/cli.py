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
from .liouville import DEFAULT_DELTA, bound8_report, regularize
from .models import (
    CircuitSpec,
    Gate,
    SykConfig,
    circuit_unitary_family,
    entangler2_preset,
    scrambler_preset,
    syk_trajectory,
)
from .qdense import (
    OBAR_T0_TOL,
    SIGMA_X,
    SIGMA_Z,
    SLACK_TOL,
    Bipartition,
    kron_all,
    random_hermitian,
    seeded_rng,
)
from .scrambling import OtocConfig, bound_report

KINDS = ("syk", "circuit", "bound8", "otoc-sweep")
# CSV columns in file order; a run writes those its channel table holds.
COLUMNS = ("t", "I", "I2", "Obar", "deltaO", "deltaMO", "Idot", "SdotA", "SdotB", "SdotE",
           "slack9", "slack8")
# The slack channel whose violation stops a run, per kind. On a generic
# Hamiltonian trajectory (bound8) slack9 is a diagnostic only.
ASSERTED_SLACK = {"syk": "slack9", "circuit": "slack9", "otoc-sweep": "slack9",
                  "bound8": "slack8"}
BUILTIN_CIRCUITS = {"scrambler3": scrambler_preset, "entangler2": entangler2_preset}
# bound8 model types and the defaults of their numeric fields.
MODEL_FIELDS = {"random": {}, "ising_chain": {"j": 1.0, "hx": 0.7}}
# Top-level config fields: those of every kind, then each kind's own.
COMMON_FIELDS = ("kind", "partition", "time_grid", "otoc", "output", "seed", "workers")
KIND_FIELDS = {"syk": ("syk",), "circuit": ("circuit", "modified_otoc"),
               "otoc-sweep": ("circuit", "modified_otoc"), "bound8": ("model", "delta")}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class AssertionViolation(RuntimeError):
    """A hard numerical assertion failed; the message names the first sample."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _known_fields(block: dict, allowed, where: str = "") -> None:
    for key in block:
        path = f"{where}.{key}" if where else key
        _expect(key in allowed, f"{path}: unknown field")


def _block(value, path: str, allowed=None) -> dict:
    """``value`` as a JSON object with no field outside ``allowed`` (None: unchecked)."""
    _expect(isinstance(value, dict), f"{path}: missing or not an object")
    if allowed is not None:
        _known_fields(value, allowed, path)
    return value


def _real(value):
    """A JSON integer as a float, infinite past the float range; others unchanged."""
    if type(value) is int:
        return float(value) if abs(value) <= sys.float_info.max else math.inf
    return value


def _field(data: dict, name: str, kind: type, where: str = "", required: bool = True, default=None):
    path = f"{where}.{name}" if where else name
    if name not in data:
        _expect(not required, f"{path}: missing required field")
        return default
    value = _real(data[name]) if kind is float else data[name]
    _expect(type(value) is kind, f"{path}: expected {kind.__name__}")
    _expect(kind is not float or math.isfinite(value), f"{path}: expected a finite number")
    return value


def _json_object(text: str) -> dict:
    """Decode a JSON document whose top level must be an object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    _expect(isinstance(data, dict), "top level: expected an object")
    return data


def _read_text(path: str, missing: str) -> str:
    _expect(os.path.isfile(path), missing)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _matrix(rows, path: str) -> np.ndarray:
    """A 4x4 complex matrix from nested [re, im] pairs of numbers read as by _field."""
    # A malformed row or cell is dropped here, so the count of parts falls short.
    rows = rows if type(rows) is list and len(rows) == 4 else []
    cells = [c for row in rows if type(row) is list and len(row) == 4 for c in row]
    parts = [_real(x) for c in cells if type(c) is list and len(c) == 2 for x in c]
    _expect(len(parts) == 32 and all(type(x) is float for x in parts),
            f"{path}: expected 4x4 nested [re, im] pairs")
    return np.array(parts).view(complex).reshape(4, 4)


def _gate_from_json(obj, where: str) -> Gate:
    _block(obj, where, ("name", "targets", "angle", "matrix"))
    name = _field(obj, "name", str, where)
    targets = _field(obj, "targets", list, where)
    _expect(all(type(t) is int for t in targets), f"{where}.targets: expected a list of qubit indices")
    angle = _field(obj, "angle", float, where, required=False)
    matrix = _matrix(obj["matrix"], f"{where}.matrix") if "matrix" in obj else None
    return Gate(name.upper(), tuple(targets), angle, matrix)


def parse_circuit_json(text: str) -> CircuitSpec:
    """Parse {n_qubits, gates:[{name, targets, angle?, matrix?}]} and validate.

    Errors are ValueErrors that start with the offending field's path.
    """
    data = _json_object(text)
    _known_fields(data, ("n_qubits", "gates"))
    n_qubits = _field(data, "n_qubits", int)
    gates = _field(data, "gates", list)
    return CircuitSpec(n_qubits, [_gate_from_json(g, f"gates[{i}]") for i, g in enumerate(gates)])


@dataclass
class ExperimentConfig:
    kind: str
    partition: Bipartition
    times: np.ndarray
    otoc: OtocConfig
    output: str
    seed: int
    workers: int
    raw: dict
    syk: SykConfig | None = None
    circuit: CircuitSpec | None = None
    circuit_ref: str = ""
    modified: bool = False
    model: dict = field(default_factory=dict)
    delta: float = DEFAULT_DELTA


def _parse_time_grid(data: dict) -> np.ndarray:
    grid = _block(data.get("time_grid"), "time_grid", ("start", "stop", "samples"))
    start = _field(grid, "start", float, "time_grid")
    stop = _field(grid, "stop", float, "time_grid")
    samples = _field(grid, "samples", int, "time_grid")
    _expect(start == 0.0, "time_grid.start: first sample must be at t = 0")
    _expect(samples >= 2, "time_grid.samples: need at least 2 samples")
    _expect(stop > start, "time_grid.stop: grid must be strictly increasing")
    return np.linspace(start, stop, samples)


def _parse_otoc(data: dict) -> OtocConfig:
    block = _block(data.get("otoc", {}), "otoc", ("expectation_state", "averaging"))
    kwargs = {key: _field(block, key, str, "otoc") for key in block}
    # The Pauli-group average is exact; configs may still name its one value.
    averaging = kwargs.pop("averaging", "exact_enumeration")
    _expect(averaging == "exact_enumeration", f"otoc.averaging: unknown value {averaging!r}; "
            "only 'exact_enumeration' is supported")
    try:
        return OtocConfig(**kwargs)
    except ValueError as exc:
        # OtocConfig messages start with the offending field's name.
        raise ConfigError(f"otoc.{exc}") from None


def _resolve_circuit(ref: str, base_dir: str) -> tuple[CircuitSpec, str]:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        _expect(name in BUILTIN_CIRCUITS, f"circuit: unknown builtin {name!r}")
        return BUILTIN_CIRCUITS[name](), ref
    path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
    text = _read_text(path, f"circuit: file not found: {ref}")
    try:
        return parse_circuit_json(text), ref
    except ValueError as exc:
        raise ConfigError(f"circuit ({ref}): {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    data = _json_object(_read_text(path, f"config file not found: {path}"))
    kind = _field(data, "kind", str)
    _expect(kind in KINDS, f"kind: must be one of {list(KINDS)}")
    _known_fields(data, COMMON_FIELDS + KIND_FIELDS[kind])
    part_block = _block(data.get("partition"), "partition", ("n_a", "n_b"))
    n_a = _field(part_block, "n_a", int, "partition")
    n_b = _field(part_block, "n_b", int, "partition")
    try:
        partition = Bipartition(n_a, n_b)
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from None

    times = _parse_time_grid(data)
    otoc = _parse_otoc(data)
    output = _field(data, "output", str)
    seed = _field(data, "seed", int)
    _expect(seed >= 0, "seed: must be a non-negative integer")
    workers = _field(data, "workers", int, required=False, default=1)
    _expect(workers >= 1, "workers: must be at least 1")

    cfg = ExperimentConfig(
        kind=kind, partition=partition, times=times, otoc=otoc,
        output=output, seed=seed, workers=workers, raw=data,
    )
    base_dir = os.path.dirname(os.path.abspath(path))

    if kind == "syk":
        block = _block(data.get("syk"), "syk", ("n_majorana", "q", "j_squared", "realizations"))
        n_majorana = _field(block, "n_majorana", int, "syk")
        q = _field(block, "q", int, "syk")
        j_squared = _field(block, "j_squared", float, "syk")
        realizations = _field(block, "realizations", int, "syk", required=False, default=300)
        try:
            cfg.syk = SykConfig(n_majorana=n_majorana, q=q, j_squared=j_squared,
                                seed=seed, realizations=realizations, time_grid=times)
        except ValueError as exc:
            raise ConfigError(f"syk: {exc}") from None
        _expect(partition.n_qubits == cfg.syk.n_qubits,
                f"partition: n_a + n_b = {partition.n_qubits} does not match "
                f"the {cfg.syk.n_qubits}-qubit SYK register")
    elif kind in ("circuit", "otoc-sweep"):
        cfg.circuit, cfg.circuit_ref = _resolve_circuit(_field(data, "circuit", str), base_dir)
        _expect(partition.n_qubits == cfg.circuit.n_qubits,
                f"partition: n_a + n_b = {partition.n_qubits} does not match "
                f"the {cfg.circuit.n_qubits}-qubit circuit")
        cfg.modified = _field(data, "modified_otoc", bool, required=False,
                              default=kind == "circuit" and partition.n_a == 1)
        _expect(not (cfg.modified and partition.n_a != 1),
                "modified_otoc: requires a single-qubit A subsystem")
    elif kind == "bound8":
        block = _block(data.get("model"), "model")  # its fields depend on its type
        mtype = _field(block, "type", str, "model")
        _expect(mtype in MODEL_FIELDS, "model.type: must be 'random' or 'ising_chain'")
        _known_fields(block, ("type", *MODEL_FIELDS[mtype]), "model")
        cfg.model = dict(block)
        for key, default in MODEL_FIELDS[mtype].items():
            cfg.model[key] = _field(block, key, float, "model", required=False, default=default)
        cfg.delta = _field(data, "delta", float, required=False, default=DEFAULT_DELTA)
        _expect(0.0 < cfg.delta < 1.0, "delta: must be in (0, 1)")
    return cfg


def _zero_state(n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _ising_chain(n_qubits: int, j: float, hx: float) -> np.ndarray:
    d = 2**n_qubits
    h = np.zeros((d, d), dtype=complex)
    for i in range(n_qubits - 1):
        factors = [np.eye(2)] * n_qubits
        factors[i] = SIGMA_Z
        factors[i + 1] = SIGMA_Z
        h += j * kron_all(*factors)
    for i in range(n_qubits):
        factors = [np.eye(2)] * n_qubits
        factors[i] = SIGMA_X
        h += hx * kron_all(*factors)
    return h


def _bound8_hamiltonian(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.model["type"] == "random":
        return random_hermitian(cfg.partition.dim, seeded_rng(cfg.seed, 8))
    return _ising_chain(cfg.partition.n_qubits, cfg.model["j"], cfg.model["hx"])


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
    row = ",".join(["{:.16e}"] * len(header))
    columns = [np.asarray(table[c]).tolist() for c in header]
    lines = [",".join(header)] + [row.format(*values) for values in zip(*columns, strict=True)]
    _rewrite(path, "\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, str]:
    """Execute one experiment; returns (summary dict, csv path)."""
    started = time.perf_counter()
    out_dir = os.path.dirname(cfg.output)
    if out_dir:
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

    if cfg.kind == "syk":
        workers = cfg.workers
        env = os.environ.get("SCRAMBLE_WORKERS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigError(f"SCRAMBLE_WORKERS: not an integer: {env!r}") from None
            _expect(workers >= 1, "SCRAMBLE_WORKERS: must be at least 1")
        initial = _zero_state(cfg.syk.n_qubits)
        reports, table = syk_trajectory(cfg.syk, cfg.partition, initial,
                                        otoc_cfg=cfg.otoc, workers=workers)
        summary["seeds"]["disorder_streams"] = "(base, realization_index)"
        summary["workers"] = workers
        summary["violations"]["per_realization_slack9"] = int(
            sum(np.count_nonzero(r["slack9"] < SLACK_TOL) for r in reports)
        )
    elif cfg.kind in ("circuit", "otoc-sweep"):
        initial = _zero_state(cfg.partition.n_qubits)
        family = circuit_unitary_family(cfg.circuit)
        table = bound_report(family, cfg.partition, initial, cfg.times,
                             cfg=cfg.otoc, include_modified=cfg.modified)
        summary["circuit"] = cfg.circuit_ref
        if cfg.kind == "otoc-sweep":
            gap = np.abs(np.exp(-table["I2"]) - table["Obar"])
            summary["exp_neg_i2_vs_obar"] = {"max": float(gap.max()), "mean": float(gap.mean())}
    else:
        # bound8: scrambling channels from the pure start, rate channels from
        # the delta-regularized twin of the same trajectory.
        h = _bound8_hamiltonian(cfg)
        initial = _zero_state(cfg.partition.n_qubits)
        table = {**bound_report(h, cfg.partition, initial, cfg.times, cfg=cfg.otoc),
                 **bound8_report(h, regularize(initial, cfg.delta), cfg.partition, cfg.times)}
        summary["model"] = cfg.model
        summary["delta"] = cfg.delta

    write_csv(csv_path, table)
    for name in ("slack9", "slack8"):
        if name in table:
            summary["violations"][name] = int(np.count_nonzero(table[name] < SLACK_TOL))
    summary["runtime_seconds"] = time.perf_counter() - started
    slack = ASSERTED_SLACK[cfg.kind]
    bad = np.nonzero(table[slack] < SLACK_TOL)[0]
    if bad.size:
        i = bad[0]
        raise AssertionViolation(
            f"{slack} = {table[slack][i]:.3e} below {SLACK_TOL} first at t = {table['t'][i]!r}"
        )
    if abs(table["Obar"][0] - 1.0) > OBAR_T0_TOL:
        raise AssertionViolation(
            f"Obar(0) = {table['Obar'][0]:.17g} deviates from 1 beyond {OBAR_T0_TOL}"
        )
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


def cmd_run(ref: str) -> int:
    try:
        cfg = load_config(resolve_config_path(ref))
        summary, csv_path = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssertionViolation as exc:
        print(f"assertion violation: {exc}", file=sys.stderr)
        # The CSV was written; a summary left by an earlier run would not describe it.
        with contextlib.suppress(FileNotFoundError):
            os.remove(cfg.output + ".json")
        return 3
    _rewrite(cfg.output + ".json", json.dumps(summary, indent=2) + "\n")
    print(f"wrote {csv_path} and {cfg.output}.json")
    return 0


def cmd_validate(ref: str) -> int:
    try:
        load_config(resolve_config_path(ref))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
