"""Dense complex linear algebra for small multi-qubit systems.

Everything downstream (entropies, correlators, superoperators) runs on plain
complex128 numpy arrays; this module owns the conventions: qubit 0 is the
first tensor factor, hbar = 1, eigenvector phases are deterministic, and all
randomness flows through explicitly seeded PCG64 generators. A public entry
point validates each caller-supplied state once; a function never re-validates
a state it derived itself.

A time grid is evaluated as a leading stack axis: the validators, eigh,
partial_trace and the unitaries take (..., d, d) arrays and act slice by
slice. time_chunks cuts every chunked loop of the package (the U(t) and
rho(t) chunks of a grid, W's sub-stacks, the terms of a Pauli sum) so that its
largest stacked array stays within one budget of _STACK_ENTRIES complex
entries. unitary_family forms a chunk's (T, d, d) stack of U(t) as one
(T d, d) @ (d, d) product. A ket trajectory psi(t), d entries per sample, is
held for the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

ComplexMatrix = np.ndarray
DensityMatrix = np.ndarray

# Every numerical tolerance of the package; other modules import from here.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10  # spectrum entries in [floor, 0) are round-off
ENTROPY_FLOOR = -1e-9  # entropies in [floor, 0) are clamped to 0
PURITY_TOL = 1e-8  # tr(rho^2) >= 1 - tol counts as pure
IMAG_TOL = 1e-9  # largest imaginary residue of I_dot dropped, per unit of max(1, max|H|)
RANK_TOL = 1e-9  # smallest marginal eigenvalue the rate channels accept
PAIR_CUTOFF = 1e-12  # Liouville entries at or below this are skipped in pair sums
GATE_UNITARITY_TOL = 1e-12
SLACK_TOL = -1e-9  # a bound slack below this is a violation
OBAR_T0_TOL = 1e-12  # allowed |Obar(0) - 1| and Obar(t) outside [1/min(d_A, d_B)^2, 1]

_STACK_ENTRIES = 1 << 14  # 256 KiB; a larger sample gets a chunk of its own

# Single-qubit Pauli matrices.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Bipartition:
    """A|B split of a qubit register; A occupies the first n_a tensor factors."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if min(self.n_a, self.n_b) < 1:
            raise ValueError(f"{'n_a' if self.n_a < 1 else 'n_b'}: needs at least one qubit")

    @property
    def dim_a(self) -> int:
        return 2**self.n_a

    @property
    def dim_b(self) -> int:
        return 2**self.n_b

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def n_qubits(self) -> int:
        return self.n_a + self.n_b


def as_complex_stack(a) -> ComplexMatrix:
    """Coerce to a complex128 matrix or (..., n, m) stack of them, rejecting NaN/Inf."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_complex_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = as_complex_stack(a)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a (..., n, m) stack."""
    return m.conj().swapaxes(-1, -2)


def check_hermitian(m: ComplexMatrix, name: str = "matrix") -> ComplexMatrix:
    """Coerce to a square complex matrix, or a stack of them, Hermitian to tolerance."""
    m = as_complex_stack(m)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    dev = np.abs(m - dagger(m)).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{name} not Hermitian: max deviation {dev:.3e}")
    return m


def check_density_matrix(rho: DensityMatrix, name: str = "rho") -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity (to tolerance).

    A (..., d, d) stack passes only if every slice does; the error then names
    the first failing slice by its flat index over the leading axes.
    """
    rho = check_hermitian(rho, name)
    where = "" if rho.ndim == 2 else "[{}]"
    tr = np.trace(rho, axis1=-2, axis2=-1).reshape(-1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise ValueError(f"{name}{where.format(bad[0])} trace {tr[bad[0]]} differs from 1")
    lowest = np.linalg.eigvalsh(rho)[..., 0].reshape(-1)
    bad = np.flatnonzero(lowest < EIGENVALUE_FLOOR)
    if bad.size:
        raise ValueError(f"{name}{where.format(bad[0])} not positive semidefinite: "
                         f"min eigenvalue {lowest[bad[0]]:.3e}")
    return rho


def float_or_array(values: np.ndarray):
    """A 0-d result (from one matrix) as a float; a result over a stack as an array."""
    return float(values) if np.ndim(values) == 0 else values


def frobenius_sq(m: np.ndarray) -> np.ndarray:
    """|M|_F^2 of each matrix in a (..., n, k) stack.

    One (1, nk) @ (nk, 1) product per slice: the same BLAS dot as np.vdot,
    so the value is bitwise that of a single-matrix vdot.
    """
    row = m.reshape(m.shape[:-2] + (1, -1))
    return (row.conj() @ row.swapaxes(-1, -2))[..., 0, 0].real


def check_time_grid(times) -> np.ndarray:
    """Coerce a time grid to a non-empty 1-D array of finite floats."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"time grid must be a non-empty 1-D array, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("time grid has non-finite entries")
    return times


def time_chunks(n: int, entries_per_sample: int) -> list[slice]:
    """Consecutive slices of range(n), each stacking at most _STACK_ENTRIES entries."""
    step = max(1, _STACK_ENTRIES // entries_per_sample)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def partial_trace(rho: DensityMatrix, part: Bipartition, keep: str) -> DensityMatrix:
    """Reduced state of subsystem ``keep`` ("A" or "B"), slice by slice on a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (part.dim, part.dim):
        raise ValueError(f"state dimension {rho.shape} does not match partition dim {part.dim}")
    blocks = rho.reshape(rho.shape[:-2] + (part.dim_a, part.dim_b, part.dim_a, part.dim_b))
    if keep == "A":
        return np.einsum("...ibjb->...ij", blocks)
    if keep == "B":
        return np.einsum("...aiaj->...ij", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real positive.

    Ties resolve to the lowest index (np.argmax behavior), giving a
    deterministic basis for fixed input bits even in degenerate subspaces.
    """
    idx = np.argmax(np.abs(vecs), axis=-2)
    pivots = np.take_along_axis(vecs, idx[..., np.newaxis, :], axis=-2)
    return vecs / (pivots / np.abs(pivots))


def eigh(h: ComplexMatrix) -> tuple[np.ndarray, ComplexMatrix]:
    """Hermitian eigendecomposition, ascending eigenvalues, fixed phases."""
    h = check_hermitian(h)
    evals, vecs = np.linalg.eigh(h)
    return evals, _fix_phases(vecs)


def unitary_family(evals: np.ndarray, vecs: ComplexMatrix) -> Callable[..., ComplexMatrix]:
    """t -> V exp(-i E t) V^dag from one eigensystem (E, V) of H.

    A float t gives one (d, d) matrix, a 1-D array of T times a (T, d, d) stack.
    """
    vecs_h = dagger(vecs)

    def u_of_t(t) -> ComplexMatrix:
        phases = np.exp(-1j * evals * np.asarray(t, dtype=float)[..., np.newaxis])
        scaled = vecs * phases[..., np.newaxis, :]
        # One BLAS product on the (T d, d) reshape, not T slice products.
        return (scaled.reshape(-1, vecs.shape[-1]) @ vecs_h).reshape(scaled.shape)

    return u_of_t


def seeded_rng(seed: int, *branch: int) -> Generator:
    """Deterministic PCG64 generator; extra ints select disjoint substreams."""
    return Generator(PCG64(SeedSequence((seed, *branch))))


def random_hermitian(d: int, rng: Generator) -> ComplexMatrix:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0
