"""Entropy and mutual-information functionals on density matrices and kets.

All values are in nats. Spectrum entries <= 0 add nothing (0 ln 0 = 0), and
round-off negatives above ENTROPY_FLOOR are clamped to +0.0 on output.

The two mutual informations also accept a pure global state as a ket. For a
pure state S_S = 0 and S_A = S_B (Page, PRL 71, 1291 (1993)), so I = 2 S_A
and I2 = 2 S2_A. Reshape the ket into M (d_A x d_B); then rho_A = M M^dag and
rho_B = (M^dag M)^T share their nonzero spectrum, and the entropies are
norms of the smaller, qdense.gram(M), without ever forming the d x d state.

A 2-D array is a density matrix. A 1-D array is one ket; a (..., d_A, d_B)
array of at least three dimensions is a stack of kets, each given as its
row-major coefficient matrix M, and gives an array over the leading axes.
A 2-D ket stack is not accepted: (T, d) could not be told from a d x d
density matrix at T = d, nor a lone (d_A, d_B) matrix from a marginal.
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
    as_complex_stack,
    check_density_matrix,
    float_or_array,
    frobenius_sq,
    gram,
    partial_trace,
)


def _clamp_entropy(values, name: str):
    """Clamp entropies element by element: +0.0 for round-off negatives."""
    values = np.asarray(values)
    flat = values.reshape(-1)
    bad = np.flatnonzero(flat < ENTROPY_FLOOR)
    if bad.size:
        raise ValueError(f"{name} evaluated to {flat[bad[0]]:.3e}, below round-off tolerance")
    return float_or_array(np.where(values > 0.0, values, 0.0))


def _check_state(rho: DensityMatrix, name: str) -> DensityMatrix:
    """check_density_matrix on exactly one state: these functionals take no stack."""
    return check_density_matrix(as_complex_matrix(rho, name), name)


def _von_neumann(rho: DensityMatrix):
    # Eigenvalues <= 0 (round-off negatives too) become 1, whose p ln p is exactly 0.
    evals = np.linalg.eigvalsh(rho)
    p = np.where(evals > 0.0, evals, 1.0)
    return _clamp_entropy(-np.sum(p * np.log(p), axis=-1), "von Neumann entropy")


def _renyi2(rho: DensityMatrix):
    return _clamp_entropy(-np.log(frobenius_sq(rho)), "Renyi-2 entropy")


def von_neumann(rho: DensityMatrix) -> float:
    """-sum(p ln p) over the spectrum, with 0 ln 0 = 0."""
    return _von_neumann(_check_state(rho, "rho"))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), computed as the squared Frobenius norm (exactly real)."""
    return float(frobenius_sq(np.asarray(rho, dtype=complex)))


def renyi2(rho: DensityMatrix) -> float:
    """-ln tr(rho^2)."""
    return _renyi2(_check_state(rho, "rho"))


def _ket_gram(psi: np.ndarray, part: Bipartition) -> np.ndarray:
    """Validate a ket or a ket stack; return gram(M) of each: rho_A, or rho_B^T if d_A > d_B.

    A 1-D ket is the zero-dimensional stack. An error names a stack's first
    bad slice by its flat index over the leading axes.
    """
    psi = np.asarray(psi, dtype=complex)
    blocks = (part.dim_a, part.dim_b)
    if psi.ndim == 1:
        if psi.shape != (part.dim,):
            raise ValueError(f"ket length {psi.size} does not match partition dim {part.dim}")
        psi = psi.reshape(blocks)
    elif psi.shape[-2:] != blocks:
        raise ValueError(f"ket stack shape {psi.shape} does not match partition blocks {blocks}")
    psi = as_complex_stack(psi, "ket")
    norm2 = frobenius_sq(psi).reshape(-1)
    bad = np.flatnonzero(np.abs(norm2 - 1.0) > TRACE_TOL)
    if bad.size:
        where = "" if psi.ndim == 2 else f"[{bad[0]}]"
        raise ValueError(f"ket{where} squared norm {norm2[bad[0]]} differs from 1")
    return gram(psi)


def mutual_information(state: np.ndarray, part: Bipartition):
    """S_A + S_B - S_S between the two partition blocks; 2 S_A for each ket."""
    if np.ndim(state) != 2:
        return 2.0 * _von_neumann(_ket_gram(state, part))
    rho_s = _check_state(state, "rho_S")
    s_a = _von_neumann(partial_trace(rho_s, part, "A"))
    s_b = _von_neumann(partial_trace(rho_s, part, "B"))
    s_s = _von_neumann(rho_s)
    return _clamp_entropy(s_a + s_b - s_s, "mutual information")


def renyi2_mutual_information(state: np.ndarray, part: Bipartition):
    """Sum of subsystem Renyi-2 entropies; defined here only for pure states."""
    if np.ndim(state) != 2:
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
