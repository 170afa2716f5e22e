"""Entropy and mutual-information functionals on density matrices.

All values are in nats. Spectra are clamped per qdense before logs, and
round-off negatives above ENTROPY_FLOOR are clamped to +0.0 on output.
"""

from __future__ import annotations

import numpy as np

from .qdense import (
    ENTROPY_FLOOR,
    PURITY_TOL,
    Bipartition,
    DensityMatrix,
    check_density_matrix,
    clamp_spectrum,
    partial_trace,
)


def _clamp_entropy(value: float, name: str) -> float:
    if value < ENTROPY_FLOOR:
        raise ValueError(f"{name} evaluated to {value:.3e}, below round-off tolerance")
    return value if value > 0.0 else 0.0


def _von_neumann(rho: DensityMatrix) -> float:
    evals = clamp_spectrum(np.linalg.eigvalsh(rho))
    pos = evals[evals > 0.0]
    return _clamp_entropy(float(-np.sum(pos * np.log(pos))), "von Neumann entropy")


def _renyi2(rho: DensityMatrix) -> float:
    return _clamp_entropy(float(-np.log(purity(rho))), "Renyi-2 entropy")


def von_neumann(rho: DensityMatrix) -> float:
    """-sum(p ln p) over the spectrum, with 0 ln 0 = 0."""
    return _von_neumann(check_density_matrix(rho))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), computed as the squared Frobenius norm (exactly real)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.vdot(rho, rho).real)


def renyi2(rho: DensityMatrix) -> float:
    """-ln tr(rho^2)."""
    return _renyi2(check_density_matrix(rho))


def mutual_information(rho_s: DensityMatrix, part: Bipartition) -> float:
    """S_A + S_B - S_S between the two partition blocks."""
    rho_s = check_density_matrix(rho_s, "rho_S")
    s_a = _von_neumann(partial_trace(rho_s, part, "A"))
    s_b = _von_neumann(partial_trace(rho_s, part, "B"))
    s_s = _von_neumann(rho_s)
    return _clamp_entropy(s_a + s_b - s_s, "mutual information")


def renyi2_mutual_information(rho_s: DensityMatrix, part: Bipartition) -> float:
    """Sum of subsystem Renyi-2 entropies; defined here only for pure rho_S."""
    rho_s = check_density_matrix(rho_s, "rho_S")
    rho_a, rho_b = partial_trace(rho_s, part, "A"), partial_trace(rho_s, part, "B")
    p = purity(rho_s)
    if p < 1.0 - PURITY_TOL:
        raise ValueError(
            f"global state is not pure (tr rho^2 = {p:.10f}); "
            "the Renyi-2 mutual information is only supported for pure states"
        )
    return _renyi2(rho_a) + _renyi2(rho_b)
