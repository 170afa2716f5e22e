"""Concrete scrambling dynamics: SYK Hamiltonians and circuit unitaries.

Jordan-Wigner Majoranas (psi^2 = I/2) multiply to Pauli strings with a phase,
kept as bit masks, so the SYK Hamiltonian is filled entry by entry with no
dense term. Couplings are i.i.d. Gaussians with variance J^2 (q-1)! / N^(q-1),
drawn from a stream keyed by (seed, realization_index) and consumed in
lexicographic index-tuple order, so disorder realizations are reproducible
and mutually independent.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .qdense import (
    GATE_UNITARITY_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    seeded_rng,
)
from .scrambling import OtocConfig, bound_report


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


@lru_cache(maxsize=4)
def _term_masks(n_majorana: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, phase) per term, lexicographic order: i^(q/2) psi_i1...psi_iq = phase X^x Z^z.

    Majorana m = i - 1 is Z on every qubit before k = m // 2 and X (m even) or
    Y = iXZ (m odd) on qubit k, with qubit 0 the most significant bit.
    (X^x Z^z)(X^x' Z^z') = (-1)^|z & x'| X^(x ^ x') Z^(z ^ z'), and in ascending
    order that sign is +1: no factor has Z on the X qubit of a later factor.
    """
    n = n_majorana // 2
    m = np.array(list(combinations(range(n_majorana), q)))
    bit = np.uint64(1) << (n - 1 - m // 2).astype(np.uint64)
    z = np.uint64(2**n - 1) ^ (np.where(m % 2, bit, 2 * bit) - np.uint64(1))
    phase = np.array([1, 1j, -1, -1j])[(q // 2 + (m % 2).sum(axis=1)) % 4] / 2 ** (q // 2)
    return np.bitwise_xor.reduce(bit, axis=1), np.bitwise_xor.reduce(z, axis=1), phase


def syk_couplings(cfg: SykConfig, realization_index: int) -> np.ndarray:
    """Gaussian couplings for one realization, lexicographic term order."""
    if realization_index < 0:
        raise ValueError("realization_index must be nonnegative")
    rng = seeded_rng(cfg.seed, realization_index)
    return rng.normal(0.0, math.sqrt(cfg.coupling_variance), cfg.term_count)


# (term, basis index) entries per np.add.at call; bounds the per-entry
# temporaries to a few MiB whatever C(N, q) is.
_CHUNK_ENTRIES = 1 << 18


def build_syk_hamiltonian(cfg: SykConfig, realization_index: int) -> ComplexMatrix:
    """H = i^(q/2) sum_(i1<...<iq) J_(i1..iq) psi_i1 ... psi_iq.

    Term phase X^x Z^z maps |j> to phase (-1)^|j & z| |j ^ x>, so each term adds
    J phase (-1)^|j & z| to H[j ^ x, j] for every basis index j. The parity of
    |j & z| is taken by folding bits, as np.bitwise_count needs numpy 2. Terms
    are added in chunks, in term order, so H does not depend on the chunk size.
    """
    couplings = syk_couplings(cfg, realization_index)
    x, z, phase = _term_masks(cfg.n_majorana, cfg.q)
    values = couplings * phase
    j = np.arange(2**cfg.n_qubits, dtype=np.uint64)
    h = np.zeros((j.size, j.size), dtype=complex)
    step = max(1, _CHUNK_ENTRIES // j.size)
    for lo in range(0, values.size, step):
        terms = slice(lo, lo + step)
        v = j & z[terms, None]
        for shift in (32, 16, 8, 4, 2, 1):
            v ^= v >> np.uint64(shift)
        signs = 1.0 - 2.0 * (v & np.uint64(1))  # float before subtracting: uint64 would wrap
        np.add.at(h, (j ^ x[terms, None], j), values[terms, None] * signs)
    return h


# ---------------------------------------------------------------------------
# Circuit construction


# An angled gate takes a float angle, giving a matrix, or a 1-D array of
# angles, giving the (T, k, k) stack of its matrices.


def _rx(angle) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.moveaxis(np.array([[c, -1j * s], [-1j * s, c]]), (0, 1), (-2, -1))


def _rzz(angle) -> np.ndarray:
    e = np.exp(-0.5j * np.asarray(angle))
    m = np.zeros(e.shape + (4, 4), dtype=complex)
    m[..., range(4), range(4)] = np.stack([e, e.conj(), e.conj(), e], axis=-1)
    return m


# name -> (arity, matrix): a fixed matrix, a function of the angle for the
# angled gates, or None for CUSTOM, whose Gate carries its own matrix.
_GATES = {
    "H": (1, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)),
    "X": (1, SIGMA_X),
    "Y": (1, SIGMA_Y),
    "Z": (1, SIGMA_Z),
    "S": (1, np.diag([1.0, 1j])),
    "RX": (1, _rx),
    "CZ": (2, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)),
    "CNOT": (2, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)),
    "RZZ": (2, _rzz),
    "CUSTOM": (2, None),
}


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None

    def realized(self, t=1.0) -> np.ndarray:
        """The gate's matrix with its angle scaled by t (first target = leading factor).

        For an angled gate a 1-D array of times gives a (T, k, k) stack.
        """
        fixed = _GATES[self.name][1]
        if callable(fixed):
            return fixed(self.angle * t)
        return self.matrix if fixed is None else fixed


def _validate_gate(gate: Gate, index: int, n_qubits: int) -> None:
    where = f"gates[{index}]"
    if gate.name not in _GATES:
        raise ValueError(f"{where}.name: unknown gate {gate.name!r}")
    arity, fixed = _GATES[gate.name]
    if len(gate.targets) != arity:
        raise ValueError(
            f"{where}.targets: {gate.name} takes {arity} target(s), got {len(gate.targets)}"
        )
    if len(set(gate.targets)) != len(gate.targets):
        raise ValueError(f"{where}.targets: repeated qubit index")
    for t in gate.targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"{where}.targets: qubit {t} out of range for {n_qubits} qubits")
    if callable(fixed):
        if gate.angle is None:
            raise ValueError(f"{where}.angle: {gate.name} requires an angle")
        if not math.isfinite(gate.angle):
            raise ValueError(f"{where}.angle: not a finite number")
    elif gate.angle is not None:
        raise ValueError(f"{where}.angle: {gate.name} takes no angle")
    if fixed is None:
        if gate.matrix is None or np.shape(gate.matrix) != (4, 4):
            raise ValueError(f"{where}.matrix: CUSTOM requires a 4x4 matrix")
        if not np.isfinite(gate.matrix).all():
            raise ValueError(f"{where}.matrix: non-finite entry")
        dev = np.abs(gate.matrix @ gate.matrix.conj().T - np.eye(4)).max()
        if dev > GATE_UNITARITY_TOL:
            raise ValueError(f"{where}.matrix: not unitary (deviation {dev:.3e})")
    elif gate.matrix is not None:
        raise ValueError(f"{where}.matrix: only CUSTOM gates carry a matrix")


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate list, checked on construction; gates[0] acts on the state first."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits: must be at least 1")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, gate in enumerate(self.gates):
            _validate_gate(gate, i, self.n_qubits)


def realize_circuit(spec: CircuitSpec, t=1.0) -> ComplexMatrix:
    """Full-register unitary with every angle scaled by t; list order is application order.

    A float t gives one (d, d) matrix, a 1-D array of T times a (T, d, d) stack.
    U is held as a lead + (2,)*n + (d,) tensor; each gate moves its target
    axes to the front, acts on them as one (2^k, 2^k) matrix (a stack of them
    for an angled gate) and moves them back.
    """
    n, d = spec.n_qubits, 2**spec.n_qubits
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"t must be a float or a 1-D array of times, got ndim={t.ndim}")
    lead = t.shape
    u = np.broadcast_to(np.eye(d, dtype=complex), lead + (d, d)).reshape(lead + (2,) * n + (d,))
    for gate in spec.gates:
        m = len(gate.targets)
        front = range(t.ndim, t.ndim + m)
        axes = [t.ndim + q for q in gate.targets]
        moved = np.moveaxis(u, axes, front)
        acted = gate.realized(t) @ moved.reshape(lead + (2**m, -1))
        u = np.moveaxis(acted.reshape(moved.shape), front, axes)
    return u.reshape(lead + (d, d))


def circuit_unitary_family(spec: CircuitSpec) -> Callable[[np.ndarray], ComplexMatrix]:
    """Times -> U(t) with all gate angles scaled linearly by t.

    A 1-D array of T times maps to the (T, d, d) stack (see realize_circuit).
    """
    return lambda t: realize_circuit(spec, t)


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
    process pool of at most one process per realization, and the reduction is
    always taken in realization-index order, so results are identical for
    every worker count.
    """
    if part.dim != 2**cfg.n_qubits:
        raise ValueError("partition does not match the SYK register size")
    otoc_cfg = otoc_cfg or OtocConfig()
    jobs = [(cfg, part, initial, otoc_cfg, k) for k in range(cfg.realizations)]
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_syk_realization, jobs, chunksize=1))
    else:
        reports = [_syk_realization(j) for j in jobs]
    return reports, average_reports(reports)
