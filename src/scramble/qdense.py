"""Dense complex linear algebra for small multi-qubit systems.

Everything downstream (entropies, correlators, superoperators) runs on plain
complex128 numpy arrays; this module owns the conventions: qubit 0 is the
first tensor factor, hbar = 1, eigenvector phases are deterministic, and all
randomness flows through explicitly seeded PCG64 generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ComplexMatrix = np.ndarray
DensityMatrix = np.ndarray

# Every numerical tolerance of the package; other modules import from here.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10  # spectrum entries in [floor, 0) are round-off
ENTROPY_FLOOR = -1e-9  # entropies in [floor, 0) are clamped to 0
PURITY_TOL = 1e-8  # tr(rho^2) >= 1 - tol counts as pure
IMAG_TOL = 1e-9  # largest imaginary residue dropped from a real quantity
RANK_TOL = 1e-9  # smallest marginal eigenvalue the rate channels accept
PAIR_CUTOFF = 1e-12  # Liouville entries at or below this are skipped in pair sums
GATE_UNITARITY_TOL = 1e-12
SLACK_TOL = -1e-9  # a bound slack below this is a violation
OBAR_T0_TOL = 1e-12  # allowed |Obar(0) - 1|

# Single-qubit operator basis, reused across modules.
ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Bipartition:
    """A|B split of a qubit register; A occupies the first n_a tensor factors."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError("both subsystems need at least one qubit")

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


def as_complex_matrix(a) -> ComplexMatrix:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def check_density_matrix(rho: DensityMatrix, name: str = "rho") -> DensityMatrix:
    """Validate Hermiticity, unit trace and positivity (to tolerance)."""
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{name} not Hermitian: max deviation {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} trace {tr} differs from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} not positive semidefinite: min eigenvalue {evals.min():.3e}")
    return rho


def clamp_spectrum(evals: np.ndarray) -> np.ndarray:
    """Zero out round-off negatives in [EIGENVALUE_FLOOR, 0)."""
    out = np.array(evals, dtype=float)
    out[(out >= EIGENVALUE_FLOOR) & (out < 0.0)] = 0.0
    return out


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(*factors: ComplexMatrix) -> ComplexMatrix:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def partial_trace(rho: DensityMatrix, part: Bipartition, keep: str) -> DensityMatrix:
    """Reduced state of subsystem ``keep`` ("A" or "B")."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (part.dim, part.dim):
        raise ValueError(f"state dimension {rho.shape} does not match partition dim {part.dim}")
    blocks = rho.reshape(part.dim_a, part.dim_b, part.dim_a, part.dim_b)
    if keep == "A":
        return np.einsum("ibjb->ij", blocks)
    if keep == "B":
        return np.einsum("aiaj->ij", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real positive.

    Ties resolve to the lowest index (np.argmax behavior), giving a
    deterministic basis for fixed input bits even in degenerate subspaces.
    """
    idx = np.argmax(np.abs(vecs), axis=0)
    pivots = vecs[idx, np.arange(vecs.shape[1])]
    phases = pivots / np.abs(pivots)
    return vecs / phases[np.newaxis, :]


def eigh(h: ComplexMatrix) -> tuple[np.ndarray, ComplexMatrix]:
    """Hermitian eigendecomposition, ascending eigenvalues, fixed phases."""
    h = as_complex_matrix(h)
    dev = np.abs(h - h.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix not Hermitian: max deviation {dev:.3e}")
    evals, vecs = np.linalg.eigh(h)
    return evals, _fix_phases(vecs)


def evolve_unitary(h: ComplexMatrix, t: float) -> ComplexMatrix:
    """U(t) = exp(-i h t) via eigendecomposition (hbar = 1)."""
    evals, vecs = eigh(h)
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def seeded_rng(seed: int, *branch: int) -> np.random.Generator:
    """Deterministic PCG64 generator; extra ints select disjoint substreams."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *branch))))


def haar_unitary(d: int, rng: np.random.Generator) -> ComplexMatrix:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))[np.newaxis, :]


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Random mixed state: normalized Wishart of the given rank (default full)."""
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_hermitian(d: int, rng: np.random.Generator) -> ComplexMatrix:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0
