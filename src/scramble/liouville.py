"""Vectorized (Fock-Liouville) dynamics and entropy-production rates.

Conventions: row-major vec, |rho>_(r,c) = rho[r, c], so the von Neumann
generator is W = -i (H x I - I x H^T) and vec(rho_dot) = W vec(rho). All
rate channels are evaluated in the instantaneous product eigenbasis of the
marginals, with eigenvalues sorted descending; the marginal eigenvalue
attached to Liouville index m = (r, c) is read off the row part r.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .qdense import (
    IMAG_TOL,
    PAIR_CUTOFF,
    RANK_TOL,
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    as_complex_matrix,
    check_density_matrix,
    check_hermitian,
    eigh,
    kron,
    partial_trace,
)

DEFAULT_DELTA = 1e-6


def regularize(rho: DensityMatrix, delta: float = DEFAULT_DELTA) -> DensityMatrix:
    """Mix in delta of the maximally mixed state to lift rank deficiency."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    return (1.0 - delta) * rho + delta * np.eye(d) / d


def _marginal_eigensystems(rho_s: DensityMatrix, part: Bipartition):
    """Descending-eigenvalue eigensystems of both marginals, fixed phases."""
    rho_a = partial_trace(rho_s, part, "A")
    rho_b = partial_trace(rho_s, part, "B")
    wa, va = eigh(rho_a)
    wb, vb = eigh(rho_b)
    return wa[::-1], va[:, ::-1], wb[::-1], vb[:, ::-1]


def _full_rank_marginals(rho_s: DensityMatrix, part: Bipartition):
    """The marginal eigensystems; refuses a marginal below RANK_TOL."""
    wa, va, wb, vb = _marginal_eigensystems(rho_s, part)
    for evals, label in ((wa, "A"), (wb, "B")):
        if evals.min() < RANK_TOL:
            raise ValueError(
                f"marginal {label} is rank deficient (min eigenvalue {evals.min():.3e}); "
                "regularize the state first (see regularize())"
            )
    return wa, va, wb, vb


def instantaneous_basis(rho_s: DensityMatrix, part: Bipartition) -> ComplexMatrix:
    """V = V_A x V_B diagonalizing both marginals, eigenvalues descending."""
    rho_s = check_density_matrix(rho_s, "rho_S")
    _, va, _, vb = _marginal_eigensystems(rho_s, part)
    return kron(va, vb)


def build_liouvillian(h: ComplexMatrix, basis: ComplexMatrix | None = None) -> ComplexMatrix:
    """W = -i (H x I - I x H^T) with H first rotated into ``basis``."""
    h = check_hermitian(h, "Hamiltonian")
    d = h.shape[0]
    if basis is None:
        basis = np.eye(d, dtype=complex)
    h_rot = basis.conj().T @ h @ basis
    # w[r, c, r', c'] = -i (H'[r, r'] delta_cc' - delta_rr' H'[c', c]), filled
    # on its 2 d^3 support instead of through two d^4 krons.
    i = np.arange(d)
    w = np.zeros((d, d, d, d), dtype=complex)
    w[:, i, :, i] = -1j * h_rot
    w[i, :, i, :] += 1j * h_rot.T
    return w.reshape(d * d, d * d)


def _log_marginal(evals: np.ndarray, vecs: ComplexMatrix) -> ComplexMatrix:
    return (vecs * np.log(evals)) @ vecs.conj().T


def mutual_information_rate(h: ComplexMatrix, rho_s: DensityMatrix, part: Bipartition) -> float:
    """Analytic d/dt of the mutual information under unitary dynamics.

    I_dot = i tr([H, rho] (ln rho_A x I)) + i tr([H, rho] (I x ln rho_B)),
    from S_dot_X = -tr(rho_dot_X ln rho_X) with the global entropy constant.
    """
    h = as_complex_matrix(h)
    rho_s = check_density_matrix(rho_s, "rho_S")
    if rho_s.shape != (part.dim, part.dim) or h.shape != rho_s.shape:
        raise ValueError("dimension mismatch between H, state, and partition")
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    comm = h @ rho_s - rho_s @ h
    ln_terms = kron(_log_marginal(wa, va), np.eye(part.dim_b)) + kron(
        np.eye(part.dim_a), _log_marginal(wb, vb)
    )
    val = 1j * np.trace(comm @ ln_terms)
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"mutual-information rate imaginary residue {val.imag:.3e}")
    return float(val.real)


def _support_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|W| and log(W/W^T) on one (d, d, d) support block of W.

    ``block[m, m', k]`` pairs with ``block[m', m, k]`` in W^T. Both arrays are
    zero where either |W| entry is below the cutoff; logs are principal-branch.
    """
    mag = np.abs(block)
    mask = (mag > PAIR_CUTOFF) & (mag.transpose(1, 0, 2) > PAIR_CUTOFF)
    ratio = np.where(mask, block, 1.0) / np.where(mask, block.transpose(1, 0, 2), 1.0)
    return np.where(mask, mag, 0.0), np.log(ratio)


def entropy_production_rates(
    h: ComplexMatrix, rho_s: DensityMatrix, part: Bipartition
) -> dict[str, float]:
    """Local entropy-production sums, exchange term, and geometry coefficients.

    All sums run over ordered Liouville index pairs (m, m'), skipping pairs
    where either |W| entry is below the cutoff; logs are principal-branch.
    W is nonzero only where m = (r, c) and m' = (r', c') share c or share r,
    so the sums run over those two d^3 blocks: every other pair has W = 0.
    The exchange channel is reported as SdotE = S_E^A + S_E^B with coeffC
    the matching weighted ratio, preserving the weighted product exactly.
    Keys are the channel names: Idot, SdotA, SdotB, SdotE, coeffA, coeffB,
    coeffC, bound_rhs = coeffA SdotA + coeffB SdotB + coeffC SdotE, and
    slack8 = bound_rhs - Idot.
    """
    i_dot = mutual_information_rate(h, rho_s, part)  # validates h, rho_s and part
    d = part.dim
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    basis = kron(va, vb)
    w = build_liouvillian(h, basis).reshape(d, d, d, d)
    rho_rot = basis.conj().T @ rho_s @ basis

    # Same column, [r, r', c]: the weights w(r') enter as the prefactor and as
    # the real shift log(w(r')/w(r)), which keeps the principal branch.
    mag_c, log_c = _support_block(w.diagonal(axis1=1, axis2=3))
    # Same row, [c, c', r]: the weight ratio is 1. Pairs with r = r' and c = c'
    # lie in both blocks and contribute log 1 = 0.
    mag_r, log_r = _support_block(w.diagonal(axis1=0, axis2=2))
    exchange_c = (mag_c * np.abs(log_c)).sum(axis=(0, 2))
    exchange_r = (mag_r * np.abs(log_r)).sum(axis=(0, 1))

    def local_sums(weights: np.ndarray) -> tuple[float, float]:
        """(S_dot, S_E) for the marginal weight of each row index r."""
        shift = np.log(weights[np.newaxis, :] / weights[:, np.newaxis])[:, :, np.newaxis]
        s_dot_c = (mag_c * np.abs(log_c + shift)).sum(axis=(0, 2))
        same_r = weights @ exchange_r
        return float(weights @ s_dot_c + same_r), float(weights @ exchange_c + same_r)

    a_rows = np.repeat(wa, part.dim_b)
    b_rows = np.tile(wb, part.dim_a)
    s_dot_a, s_e_a = local_sums(a_rows)
    s_dot_b, s_e_b = local_sums(b_rows)

    abs_rho = np.abs(rho_rot)
    coeff_a = d * d * float(np.sum(abs_rho / a_rows[:, np.newaxis]))
    coeff_b = d * d * float(np.sum(abs_rho / b_rows[:, np.newaxis]))
    s_dot_e = s_e_a + s_e_b
    coeff_c = (coeff_a * s_e_a + coeff_b * s_e_b) / s_dot_e if s_dot_e > 0.0 else 0.0

    bound_rhs = coeff_a * s_dot_a + coeff_b * s_dot_b + coeff_c * s_dot_e
    return {"Idot": i_dot, "SdotA": s_dot_a, "SdotB": s_dot_b, "SdotE": s_dot_e,
            "coeffA": coeff_a, "coeffB": coeff_b, "coeffC": coeff_c,
            "bound_rhs": bound_rhs, "slack8": bound_rhs - i_dot}


def bound8_report(
    h: ComplexMatrix,
    initial: DensityMatrix,
    part: Bipartition,
    times: Sequence[float],
) -> dict[str, np.ndarray]:
    """Sample the entropy-production bound along exp(-iHt) evolution.

    ``initial`` must already be full-rank on both marginals (regularize a
    pure start first); every sample evaluates the rates in that instant's
    marginal eigenbasis. Returns ``t`` and each entropy_production_rates
    channel as an array over the grid.
    """
    h = as_complex_matrix(h)
    initial = check_density_matrix(initial, "initial")
    times = np.asarray(times, dtype=float)
    _full_rank_marginals(initial, part)
    evals, vecs = eigh(h)
    vecs_h = vecs.conj().T
    samples = []
    for t in times:
        u = (vecs * np.exp(-1j * evals * t)) @ vecs_h
        samples.append(entropy_production_rates(h, u @ initial @ u.conj().T, part))
    return {"t": times, **{k: np.array([r[k] for r in samples]) for k in samples[0]}}
