"""Concrete scrambling dynamics: SYK and Ising-chain Hamiltonians, circuit unitaries.

The SYK and Ising-chain Hamiltonians are sums of Pauli strings kept as bit
masks, filled entry by entry with no dense term. Jordan-Wigner Majoranas
(psi^2 = I/2) multiply to such strings with a phase. SYK couplings are i.i.d.
Gaussians with variance J^2 (q-1)! / N^(q-1), drawn from a stream keyed by
(seed, realization_index) and consumed in lexicographic index-tuple order, so
disorder realizations are reproducible and mutually independent. On Linux a
trajectory's realizations can run in forked worker processes, which send their
channel tables back pickled through pipes; the average is the same either way.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .qdense import (
    GATE_UNITARITY_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    random_hermitian,
    seeded_rng,
    time_chunks,
)
from .scrambling import bound_report


@dataclass
class SykConfig:
    """Disorder ensemble: N Majoranas, q-body terms, coupling scale J^2."""

    n_majorana: int
    q: int
    j_squared: float
    seed: int
    realizations: int

    def __post_init__(self):
        if self.n_majorana % 2 or self.n_majorana < 4:
            raise ValueError("n_majorana: must be even and at least 4")
        if self.q % 2 or not 4 <= self.q <= self.n_majorana:
            raise ValueError("q: must be even with 4 <= q <= n_majorana")
        if self.j_squared <= 0:
            raise ValueError("j_squared: must be positive")
        if self.realizations < 1:
            raise ValueError("realizations: must be at least 1")
        try:
            finite = math.isfinite(self.coupling_variance)
        except OverflowError:  # (q-1)! or N^(q-1) alone is past the float range
            finite = False
        if not finite:
            raise ValueError("j_squared: the coupling variance J^2 (q-1)!/N^(q-1) "
                             "overflows a float")

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


def _pauli_sum(n_qubits: int, x: np.ndarray, z: np.ndarray, values: np.ndarray) -> ComplexMatrix:
    """H = sum_k values[k] X^x[k] Z^z[k], qubit 0 the most significant mask bit.

    X^x Z^z maps |j> to (-1)^|j & z| |j ^ x>, so term k adds values[k]
    (-1)^|j & z[k]| to H[j ^ x[k], j] for every basis index j. The parity of
    |j & z| is taken by folding bits, as np.bitwise_count needs numpy 2. Terms
    are added in time_chunks (d entries per term), in term order, so H does
    not depend on the chunk size.
    """
    j = np.arange(2**n_qubits, dtype=np.uint64)
    h = np.zeros((j.size, j.size), dtype=complex)
    for terms in time_chunks(values.size, j.size):
        v = j & z[terms, None]
        for shift in (32, 16, 8, 4, 2, 1):
            v ^= v >> np.uint64(shift)
        signs = 1.0 - 2.0 * (v & np.uint64(1))  # float before subtracting: uint64 would wrap
        np.add.at(h, (j ^ x[terms, None], j), values[terms, None] * signs)
    return h


def build_syk_hamiltonian(cfg: SykConfig, realization_index: int) -> ComplexMatrix:
    """H = i^(q/2) sum_(i1<...<iq) J_(i1..iq) psi_i1 ... psi_iq."""
    x, z, phase = _term_masks(cfg.n_majorana, cfg.q)
    return _pauli_sum(cfg.n_qubits, x, z, syk_couplings(cfg, realization_index) * phase)


def ising_chain(n_qubits: int, j: float, hx: float) -> ComplexMatrix:
    """H = j sum_i Z_i Z_(i+1) + hx sum_i X_i on an open chain, ZZ terms first."""
    bit = np.uint64(1) << np.arange(n_qubits - 1, -1, -1, dtype=np.uint64)
    empty = np.zeros(n_qubits, dtype=np.uint64)
    x = np.concatenate([empty[1:], bit])
    z = np.concatenate([bit[:-1] | bit[1:], empty])
    values = np.repeat([complex(j), complex(hx)], [n_qubits - 1, n_qubits])
    return _pauli_sum(n_qubits, x, z, values)


# bound8 model types and the (type, default) of each of their fields.
MODEL_FIELDS = {"random": {}, "ising_chain": {"j": (float, 1.0), "hx": (float, 0.7)}}


def bound8_hamiltonian(model: dict, n_qubits: int, seed: int) -> ComplexMatrix:
    """The H of a bound8 model: ``model`` holds its type and every field of MODEL_FIELDS."""
    if model["type"] == "random":
        return random_hermitian(2**n_qubits, seeded_rng(seed, 8))
    return ising_chain(n_qubits, model["j"], model["hx"])


# ---------------------------------------------------------------------------
# Circuit construction


# name -> (arity, matrix, angled). An angled gate's matrix is its Pauli
# generator P, realized at angle theta as exp(-i theta P/2); CUSTOM's matrix
# is None, as its Gate carries its own.
_GATES = {
    "H": (1, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0), False),
    "X": (1, SIGMA_X, False),
    "Y": (1, SIGMA_Y, False),
    "Z": (1, SIGMA_Z, False),
    "S": (1, np.diag([1.0, 1j]), False),
    "RX": (1, SIGMA_X, True),
    "CZ": (2, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), False),
    "CNOT": (2, np.eye(4, dtype=complex)[[0, 1, 3, 2]], False),
    "RZZ": (2, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex), True),
    "CUSTOM": (2, None, False),
}


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None

    def realized(self, t=1.0) -> np.ndarray:
        """The gate's matrix with its angle scaled by t (first target = leading factor).

        An angled gate is cos(theta/2) I - i sin(theta/2) P at theta = angle * t;
        a 1-D array of times gives a (T, k, k) stack.
        """
        _, fixed, angled = _GATES[self.name]
        if not angled:
            return np.asarray(self.matrix, dtype=complex) if fixed is None else fixed
        half = np.asarray(self.angle * t / 2.0)[..., None, None]
        return np.cos(half) * np.eye(len(fixed)) - 1j * np.sin(half) * fixed


def _is_a(value, kinds: tuple) -> bool:
    """Whether ``value`` is an instance of the number ``kinds``, a bool excluded."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _validate_gate(gate: Gate, index: int, n_qubits: int) -> None:
    where = f"gates[{index}]"
    if not (np.iterable(gate.targets) and all(_is_a(t, (int, np.integer)) for t in gate.targets)):
        raise ValueError(f"{where}.targets: expected a list of qubit indices")
    if gate.name not in _GATES:
        raise ValueError(f"{where}.name: unknown gate {gate.name!r}")
    arity, fixed, angled = _GATES[gate.name]
    if len(gate.targets) != arity:
        raise ValueError(
            f"{where}.targets: {gate.name} takes {arity} target(s), got {len(gate.targets)}"
        )
    if len(set(gate.targets)) != len(gate.targets):
        raise ValueError(f"{where}.targets: repeated qubit index")
    for t in gate.targets:
        if not 0 <= t < n_qubits:
            raise ValueError(f"{where}.targets: qubit {t} out of range for {n_qubits} qubits")
    if angled:
        if gate.angle is None:
            raise ValueError(f"{where}.angle: {gate.name} requires an angle")
        if not (_is_a(gate.angle, (int, float, np.integer, np.floating))
                and math.isfinite(gate.angle)):
            raise ValueError(f"{where}.angle: not a finite number")
    elif gate.angle is not None:
        raise ValueError(f"{where}.angle: {gate.name} takes no angle")
    if fixed is None:
        try:
            matrix = np.asarray(gate.matrix, dtype=complex)
        except (TypeError, ValueError):
            matrix = None
        if np.shape(matrix) != (4, 4):
            raise ValueError(f"{where}.matrix: CUSTOM requires a 4x4 matrix")
        if not np.isfinite(matrix).all():
            raise ValueError(f"{where}.matrix: non-finite entry")
        dev = np.abs(matrix @ matrix.conj().T - np.eye(4)).max()
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
        if not _is_a(self.n_qubits, (int, np.integer)):
            raise ValueError("n_qubits: expected an integer")
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


def scrambler_preset() -> CircuitSpec:
    """Built-in 3-qubit scrambler, A = qubit 0.

    A fixed Hadamard layer (local, so U(0) stays a product unitary) followed
    by ZZ couplings on all pairs and transverse fields on all qubits, every
    angle scaled linearly with t in [0, 1]. A is one qubit, so the
    state-transfer OTOC's normalized decay equals the averaged OTOC's at
    every t (scrambling.modified_otoc).
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


def average_reports(reports: Sequence[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Pointwise channel mean, taken in list (realization-index) order."""
    avg = {k: np.mean([r[k] for r in reports], axis=0) for k in reports[0]}
    avg["t"] = reports[0]["t"]
    avg["slack9"] = avg["I"] - avg["deltaO"]
    return avg


def _forked_map(fn, jobs: Sequence, workers: int) -> list:
    """[fn(job) for job in jobs], computed in ``workers`` forked children.

    Child w maps jobs[w::workers] and writes ("ok", results) or ("error", exc),
    pickled, to its own pipe, then leaves through os._exit, so it never returns
    into the caller's frames or flushes the buffers it inherited. The parent
    unpickles the pipes in worker order and re-raises a child's exception; an
    empty or cut-short pipe means the child died without reporting (a signal,
    the OOM killer). Every read end is closed before any child is waited for:
    a child blocked writing more than a pipe buffer gets EPIPE instead of
    deadlocking a parent that is raising.
    """
    pids: list[int] = []
    reads: list[int] = []
    results: list = [None] * len(jobs)
    try:
        for w in range(workers):
            r, wr = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
            except BaseException:
                os.close(wr)
                raise
            if pid == 0:
                status = 1
                try:
                    # A worker's write fails with EPIPE only once no process holds its read end.
                    for fd in reads:
                        os.close(fd)
                    try:
                        data = pickle.dumps(("ok", [fn(job) for job in jobs[w::workers]]))
                    except Exception as exc:
                        data = pickle.dumps(("error", exc))
                    with open(wr, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(wr)
        for w, (pid, r) in enumerate(zip(pids, reads)):
            try:
                with open(r, "rb", closefd=False) as pipe:
                    kind, payload = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker process {pid} exited without a result")
            if kind == "error":
                raise payload
            results[w::workers] = payload
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def syk_trajectory(
    cfg: SykConfig,
    part: Bipartition,
    initial: DensityMatrix,
    times: Sequence[float],
    workers: int = 1,
) -> tuple[list[dict[str, np.ndarray]], dict[str, np.ndarray]]:
    """Per-realization channel tables on the grid ``times``, plus their average.

    Realizations are independent work units, one per index k. On Linux, with
    workers > 1 they run in at most one forked process per realization, which
    inherits its inputs; other platforms run them serially. The reduction is
    always taken in realization-index order, so results are identical for
    every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if part.dim != 2**cfg.n_qubits:
        raise ValueError("partition does not match the SYK register size")

    def realization(k: int) -> dict[str, np.ndarray]:
        return bound_report(build_syk_hamiltonian(cfg, k), part, initial, times)

    workers = min(workers, cfg.realizations)
    if workers > 1 and sys.platform == "linux":
        reports = _forked_map(realization, range(cfg.realizations), workers)
    else:
        reports = [realization(k) for k in range(cfg.realizations)]
    return reports, average_reports(reports)
