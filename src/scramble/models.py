"""Concrete scrambling dynamics: SYK Hamiltonians and circuit unitaries.

Majorana operators use the psi^2 = I/2 normalization; couplings are i.i.d.
Gaussians with variance J^2 (q-1)! / N^(q-1), drawn from a stream keyed by
(seed, realization_index) and consumed in lexicographic index-tuple order,
so disorder realizations are reproducible and mutually independent.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .qdense import (
    GATE_UNITARITY_TOL,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    kron_all,
    seeded_rng,
)
from .scrambling import OtocConfig, bound_report

# Entries beyond this are rebuilt per realization instead of cached stacked.
_TERM_STACK_LIMIT = 4_000_000


def jordan_wigner_majorana(i: int, n_qubits: int) -> ComplexMatrix:
    """Majorana operator psi_i on n_qubits, 1 <= i <= 2*n_qubits.

    psi_(2j-1) = (prod_{k<j} sigma_z^k) sigma_x^j / sqrt(2) and
    psi_(2j)   = (prod_{k<j} sigma_z^k) sigma_y^j / sqrt(2), so that
    {psi_i, psi_j} = delta_ij * I.
    """
    if not 1 <= i <= 2 * n_qubits:
        raise ValueError(f"Majorana index {i} out of range 1..{2 * n_qubits}")
    j = (i + 1) // 2
    head = SIGMA_X if i % 2 == 1 else SIGMA_Y
    factors = [SIGMA_Z] * (j - 1) + [head] + [ID2] * (n_qubits - j)
    return kron_all(*factors) / np.sqrt(2.0)


@lru_cache(maxsize=8)
def _majoranas(n_majorana: int) -> tuple[np.ndarray, ...]:
    n_qubits = n_majorana // 2
    return tuple(jordan_wigner_majorana(i, n_qubits) for i in range(1, n_majorana + 1))


@dataclass
class SykConfig:
    """Disorder ensemble: N Majoranas, q-body terms, coupling scale J^2."""

    n_majorana: int
    q: int
    j_squared: float
    seed: int
    realizations: int
    time_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 20.0, 101))

    def __post_init__(self):
        if self.n_majorana % 2 or self.n_majorana < 4:
            raise ValueError("n_majorana must be even and at least 4")
        if self.q % 2 or not 4 <= self.q <= self.n_majorana:
            raise ValueError("q must be even with 4 <= q <= n_majorana")
        if self.j_squared <= 0:
            raise ValueError("j_squared must be positive")
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")
        self.time_grid = np.asarray(self.time_grid, dtype=float)

    @property
    def n_qubits(self) -> int:
        return self.n_majorana // 2

    @property
    def term_count(self) -> int:
        return math.comb(self.n_majorana, self.q)

    @property
    def coupling_variance(self) -> float:
        return self.j_squared * math.factorial(self.q - 1) / self.n_majorana ** (self.q - 1)


def _term_matrix(psis: Sequence[np.ndarray], combo: tuple[int, ...], prefactor: complex) -> np.ndarray:
    out = psis[combo[0] - 1]
    for idx in combo[1:]:
        out = out @ psis[idx - 1]
    return prefactor * out


@lru_cache(maxsize=4)
def _term_stack(n_majorana: int, q: int) -> np.ndarray | None:
    d = 2 ** (n_majorana // 2)
    count = math.comb(n_majorana, q)
    if count * d * d > _TERM_STACK_LIMIT:
        return None
    psis = _majoranas(n_majorana)
    prefactor = 1j ** (q // 2)
    terms = [
        _term_matrix(psis, combo, prefactor)
        for combo in combinations(range(1, n_majorana + 1), q)
    ]
    return np.stack(terms)


def syk_couplings(cfg: SykConfig, realization_index: int) -> np.ndarray:
    """Gaussian couplings for one realization, lexicographic term order."""
    if realization_index < 0:
        raise ValueError("realization_index must be nonnegative")
    rng = seeded_rng(cfg.seed, realization_index)
    return rng.normal(0.0, math.sqrt(cfg.coupling_variance), cfg.term_count)


def build_syk_hamiltonian(cfg: SykConfig, realization_index: int) -> ComplexMatrix:
    """H = i^(q/2) sum_(i1<...<iq) J_(i1..iq) psi_i1 ... psi_iq."""
    couplings = syk_couplings(cfg, realization_index)
    stack = _term_stack(cfg.n_majorana, cfg.q)
    if stack is not None:
        return np.tensordot(couplings, stack, axes=1)
    psis = _majoranas(cfg.n_majorana)
    prefactor = 1j ** (cfg.q // 2)
    d = 2**cfg.n_qubits
    h = np.zeros((d, d), dtype=complex)
    for j, combo in zip(couplings, combinations(range(1, cfg.n_majorana + 1), cfg.q)):
        h += j * _term_matrix(psis, combo, prefactor)
    return h


# ---------------------------------------------------------------------------
# Circuit construction


_FIXED_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
    "S": np.diag([1.0, 1j]),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}
_ANGLED_GATES = {"RZZ": 2, "RX": 1}
_GATE_ARITY = {"H": 1, "X": 1, "Y": 1, "Z": 1, "S": 1, "RX": 1,
               "CZ": 2, "CNOT": 2, "RZZ": 2, "CUSTOM": 2}


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None

    def realized(self) -> np.ndarray:
        """The gate's own matrix (first listed target = leading tensor factor)."""
        if self.name == "RX":
            c, s = np.cos(self.angle / 2.0), np.sin(self.angle / 2.0)
            return np.array([[c, -1j * s], [-1j * s, c]])
        if self.name == "RZZ":
            e = np.exp(-0.5j * self.angle)
            return np.diag([e, e.conj(), e.conj(), e])
        if self.name == "CUSTOM":
            return self.matrix
        return _FIXED_GATES[self.name]


@dataclass
class CircuitSpec:
    """Ordered gate list; gates[0] is applied to the state first."""

    n_qubits: int
    gates: list[Gate]


def _validate_gate(gate: Gate, index: int, n_qubits: int) -> None:
    where = f"gates[{index}]"
    if gate.name not in _GATE_ARITY:
        raise ValueError(f"{where}.name: unknown gate {gate.name!r}")
    arity = _GATE_ARITY[gate.name]
    if len(gate.targets) != arity:
        raise ValueError(
            f"{where}.targets: {gate.name} takes {arity} target(s), got {len(gate.targets)}"
        )
    if len(set(gate.targets)) != len(gate.targets):
        raise ValueError(f"{where}.targets: repeated qubit index")
    for t in gate.targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"{where}.targets: qubit {t} out of range for {n_qubits} qubits")
    if gate.name in _ANGLED_GATES:
        if gate.angle is None:
            raise ValueError(f"{where}.angle: {gate.name} requires an angle")
    elif gate.angle is not None:
        raise ValueError(f"{where}.angle: {gate.name} takes no angle")
    if gate.name == "CUSTOM":
        if gate.matrix is None or np.shape(gate.matrix) != (4, 4):
            raise ValueError(f"{where}.matrix: CUSTOM requires a 4x4 matrix")
        dev = np.abs(gate.matrix @ gate.matrix.conj().T - np.eye(4)).max()
        if dev > GATE_UNITARITY_TOL:
            raise ValueError(f"{where}.matrix: not unitary (deviation {dev:.3e})")
    elif gate.matrix is not None:
        raise ValueError(f"{where}.matrix: only CUSTOM gates carry a matrix")


def validate_circuit(spec: CircuitSpec) -> None:
    if spec.n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    for i, gate in enumerate(spec.gates):
        _validate_gate(gate, i, spec.n_qubits)


def embed_gate(g: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Lift a 1- or 2-qubit gate to the full register."""
    m = len(targets)
    rest = [q for q in range(n_qubits) if q not in targets]
    order = list(targets) + rest
    full = np.kron(np.asarray(g, dtype=complex), np.eye(2 ** (n_qubits - m)))
    perm = [order.index(qubit) for qubit in range(n_qubits)]
    axes = perm + [n_qubits + p for p in perm]
    return full.reshape((2,) * (2 * n_qubits)).transpose(axes).reshape(2**n_qubits, 2**n_qubits)


def realize_circuit(spec: CircuitSpec, n_qubits: int | None = None) -> ComplexMatrix:
    """Full-register unitary; list order is application order on the state."""
    if n_qubits is not None and n_qubits != spec.n_qubits:
        raise ValueError(f"spec is for {spec.n_qubits} qubits, requested {n_qubits}")
    validate_circuit(spec)
    u = np.eye(2**spec.n_qubits, dtype=complex)
    for gate in spec.gates:
        u = embed_gate(gate.realized(), gate.targets, spec.n_qubits) @ u
    return u


def scaled_circuit(spec: CircuitSpec, factor: float) -> CircuitSpec:
    """Scale every angled gate's angle by ``factor``; fixed gates unchanged."""
    gates = [
        replace(g, angle=g.angle * factor) if g.angle is not None else g
        for g in spec.gates
    ]
    return CircuitSpec(n_qubits=spec.n_qubits, gates=gates)


def circuit_unitary_family(spec: CircuitSpec) -> Callable[[float], ComplexMatrix]:
    """t -> U(t) with all gate angles scaled linearly by t."""
    validate_circuit(spec)

    def u_of_t(t: float) -> ComplexMatrix:
        return realize_circuit(scaled_circuit(spec, t))

    return u_of_t


def scrambler_preset() -> CircuitSpec:
    """Built-in 3-qubit scrambler, A = qubit 0.

    A fixed Hadamard layer (local, so U(0) stays a product unitary) followed
    by ZZ couplings on all pairs and transverse fields on all qubits, every
    angle scaled linearly with t in [0, 1]. The coupling strings' B-register
    parts (Z1, Z2) are Hilbert-Schmidt orthogonal to the B-internal strings
    (Z1Z2, X1, X2), which makes the normalized decay of the state-transfer
    OTOC track the averaged-OTOC decay at leading order in t.
    """
    gates = [
        Gate("H", (0,)),
        Gate("H", (1,)),
        Gate("H", (2,)),
        Gate("RZZ", (0, 1), angle=np.pi / 2),
        Gate("RZZ", (0, 2), angle=np.pi / 2),
        Gate("RZZ", (1, 2), angle=1.1),
        Gate("RX", (0,), angle=0.9),
        Gate("RX", (1,), angle=0.8),
        Gate("RX", (2,), angle=0.7),
    ]
    return CircuitSpec(n_qubits=3, gates=gates)


def entangler2_preset() -> CircuitSpec:
    """Built-in 2-qubit entangler for one-qubit-per-side sweeps."""
    gates = [
        Gate("H", (0,)),
        Gate("H", (1,)),
        Gate("RZZ", (0, 1), angle=1.4),
        Gate("RX", (0,), angle=0.8),
        Gate("RX", (1,), angle=0.6),
    ]
    return CircuitSpec(n_qubits=2, gates=gates)


# ---------------------------------------------------------------------------
# Circuit JSON interchange


def _gate_from_json(obj, index: int) -> Gate:
    where = f"gates[{index}]"
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    name = obj.get("name")
    if not isinstance(name, str):
        raise ValueError(f"{where}.name: missing or not a string")
    targets = obj.get("targets")
    if not isinstance(targets, list) or not all(isinstance(t, int) for t in targets):
        raise ValueError(f"{where}.targets: expected a list of qubit indices")
    angle = obj.get("angle")
    if angle is not None and not isinstance(angle, (int, float)):
        raise ValueError(f"{where}.angle: expected a number")
    matrix = None
    if "matrix" in obj:
        raw = obj["matrix"]
        try:
            matrix = np.array(
                [[complex(cell[0], cell[1]) for cell in row] for row in raw]
            )
        except (TypeError, IndexError):
            raise ValueError(f"{where}.matrix: expected 4x4 nested [re, im] pairs") from None
    unknown = set(obj) - {"name", "targets", "angle", "matrix"}
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)}")
    return Gate(name.upper(), tuple(targets), None if angle is None else float(angle), matrix)


def parse_circuit_json(text: str) -> CircuitSpec:
    """Parse {n_qubits, gates:[{name, targets, angle?, matrix?}]} and validate."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ValueError("top level: expected an object")
    n_qubits = data.get("n_qubits")
    if not isinstance(n_qubits, int) or n_qubits < 1:
        raise ValueError("n_qubits: missing or not a positive integer")
    gates_raw = data.get("gates")
    if not isinstance(gates_raw, list):
        raise ValueError("gates: missing or not a list")
    unknown = set(data) - {"n_qubits", "gates"}
    if unknown:
        raise ValueError(f"top level: unknown field(s) {sorted(unknown)}")
    spec = CircuitSpec(n_qubits, [_gate_from_json(g, i) for i, g in enumerate(gates_raw)])
    validate_circuit(spec)
    return spec


# ---------------------------------------------------------------------------
# Disorder-averaged trajectories


def _syk_realization(args) -> dict[str, np.ndarray]:
    cfg, part, initial, otoc_cfg, k = args
    h = build_syk_hamiltonian(cfg, k)
    return bound_report(h, part, initial, cfg.time_grid, otoc_cfg)


def average_reports(reports: Sequence[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Pointwise channel mean, taken in list (realization-index) order."""
    avg = {k: np.mean([r[k] for r in reports], axis=0) for k in reports[0]}
    avg["t"] = reports[0]["t"]
    avg["slack9"] = avg["I"] - avg["deltaO"]
    return avg


def syk_trajectory(
    cfg: SykConfig,
    part: Bipartition,
    initial: DensityMatrix,
    otoc_cfg: OtocConfig | None = None,
    workers: int = 1,
) -> tuple[list[dict[str, np.ndarray]], dict[str, np.ndarray]]:
    """Per-realization channel tables plus their realization average.

    Realizations are independent work units; with workers > 1 they run in a
    process pool, and the reduction is always taken in realization-index
    order, so results are identical for every worker count.
    """
    if part.dim != 2**cfg.n_qubits:
        raise ValueError("partition does not match the SYK register size")
    otoc_cfg = otoc_cfg or OtocConfig()
    jobs = [(cfg, part, initial, otoc_cfg, k) for k in range(cfg.realizations)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_syk_realization, jobs, chunksize=1))
    else:
        reports = [_syk_realization(j) for j in jobs]
    return reports, average_reports(reports)
