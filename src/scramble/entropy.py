"""Entropy and mutual-information functionals on density matrices and kets.

All values are in nats. Spectra are clamped per qdense before logs, and
round-off negatives above ENTROPY_FLOOR are clamped to +0.0 on output.

The two mutual informations also accept a pure global state as a ket: a 1-D
array is a ket, a 2-D array a density matrix. For a pure state S_S = 0 and
S_A = S_B (Page, PRL 71, 1291 (1993)), so I = 2 S_A and I2 = 2 S2_A. Reshape
the ket into M (d_A x d_B); then rho_A = M M^dag and rho_B = (M^dag M)^T
share their nonzero spectrum, and the entropies come from whichever Gram
matrix is smaller, without ever forming the d x d state.
"""

from __future__ import annotations

import numpy as np

from .qdense import (
    ENTROPY_FLOOR,
    PURITY_TOL,
    TRACE_TOL,
    Bipartition,
    DensityMatrix,
    as_complex_matrix,
    check_density_matrix,
    clamp_spectrum,
    partial_trace,
)


def _clamp_entropy(value: float, name: str) -> float:
    if value < ENTROPY_FLOOR:
        raise ValueError(f"{name} evaluated to {value:.3e}, below round-off tolerance")
    return value if value > 0.0 else 0.0


def _check_state(rho: DensityMatrix, name: str) -> DensityMatrix:
    """check_density_matrix on exactly one state: these functionals take no stack."""
    return check_density_matrix(as_complex_matrix(rho), name)


def _von_neumann(rho: DensityMatrix) -> float:
    evals = clamp_spectrum(np.linalg.eigvalsh(rho))
    pos = evals[evals > 0.0]
    return _clamp_entropy(float(-np.sum(pos * np.log(pos))), "von Neumann entropy")


def _renyi2(rho: DensityMatrix) -> float:
    return _clamp_entropy(float(-np.log(purity(rho))), "Renyi-2 entropy")


def von_neumann(rho: DensityMatrix) -> float:
    """-sum(p ln p) over the spectrum, with 0 ln 0 = 0."""
    return _von_neumann(_check_state(rho, "rho"))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), computed as the squared Frobenius norm (exactly real)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.vdot(rho, rho).real)


def renyi2(rho: DensityMatrix) -> float:
    """-ln tr(rho^2)."""
    return _renyi2(_check_state(rho, "rho"))


def _ket_gram(psi: np.ndarray, part: Bipartition) -> np.ndarray:
    """Validate a ket and return the reduced state of its smaller block."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (part.dim,):
        raise ValueError(f"ket length {psi.size} does not match partition dim {part.dim}")
    if not np.isfinite(psi).all():
        raise ValueError("ket has non-finite entries")
    norm2 = float(np.vdot(psi, psi).real)
    if abs(norm2 - 1.0) > TRACE_TOL:
        raise ValueError(f"ket squared norm {norm2} differs from 1")
    m = psi.reshape(part.dim_a, part.dim_b)
    return m @ m.conj().T if part.dim_a <= part.dim_b else m.T @ m.conj()


def mutual_information(state: np.ndarray, part: Bipartition) -> float:
    """S_A + S_B - S_S between the two partition blocks; 2 S_A for a ket."""
    if np.ndim(state) == 1:
        return 2.0 * _von_neumann(_ket_gram(state, part))
    rho_s = _check_state(state, "rho_S")
    s_a = _von_neumann(partial_trace(rho_s, part, "A"))
    s_b = _von_neumann(partial_trace(rho_s, part, "B"))
    s_s = _von_neumann(rho_s)
    return _clamp_entropy(s_a + s_b - s_s, "mutual information")


def renyi2_mutual_information(state: np.ndarray, part: Bipartition) -> float:
    """Sum of subsystem Renyi-2 entropies; defined here only for pure states."""
    if np.ndim(state) == 1:
        return 2.0 * _renyi2(_ket_gram(state, part))
    rho_s = _check_state(state, "rho_S")
    rho_a, rho_b = partial_trace(rho_s, part, "A"), partial_trace(rho_s, part, "B")
    p = purity(rho_s)
    if p < 1.0 - PURITY_TOL:
        raise ValueError(
            f"global state is not pure (tr rho^2 = {p:.10f}); "
            "the Renyi-2 mutual information is only supported for pure states"
        )
    return _renyi2(rho_a) + _renyi2(rho_b)
