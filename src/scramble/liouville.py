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
    check_time_grid,
    dagger,
    eigh,
    float_or_array,
    partial_trace,
    time_chunks,
    unitary_family,
)

DEFAULT_DELTA = 1e-6


def regularize(rho: DensityMatrix, delta: float = DEFAULT_DELTA) -> DensityMatrix:
    """Mix in delta of the maximally mixed state to lift rank deficiency."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    return (1.0 - delta) * rho + delta * np.eye(d) / d


def _full_rank_marginals(rho_s: DensityMatrix, part: Bipartition):
    """Descending-eigenvalue eigensystems of both marginals, fixed phases.

    Refuses a marginal with an eigenvalue below RANK_TOL.
    """
    wa, va = eigh(partial_trace(rho_s, part, "A"))
    wb, vb = eigh(partial_trace(rho_s, part, "B"))
    wa, va, wb, vb = wa[..., ::-1], va[..., ::-1], wb[..., ::-1], vb[..., ::-1]
    for evals, label in ((wa, "A"), (wb, "B")):
        if evals.min() < RANK_TOL:
            raise ValueError(
                f"marginal {label} is rank deficient (min eigenvalue {evals.min():.3e}); "
                "regularize the state first (see regularize())"
            )
    return wa, va, wb, vb


def _product_basis(va: ComplexMatrix, vb: ComplexMatrix) -> ComplexMatrix:
    """V_A x V_B for each slice of two (..., d_A, d_A) and (..., d_B, d_B) stacks."""
    lead = va.shape[:-2]
    d = va.shape[-1] * vb.shape[-1]
    outer = va[..., :, np.newaxis, :, np.newaxis] * vb[..., np.newaxis, :, np.newaxis, :]
    return outer.reshape(lead + (d, d))


def build_liouvillian(h: ComplexMatrix, basis: ComplexMatrix | None = None) -> ComplexMatrix:
    """W = -i (H x I - I x H^T) with H first rotated into ``basis``.

    A (..., d, d) stack of bases gives the (..., d^2, d^2) stack of W.
    """
    h = check_hermitian(h, "Hamiltonian")
    d = h.shape[-1]
    h_rot = h if basis is None else dagger(basis) @ h @ basis
    # w[r, c, r', c'] = -i (H'[r, r'] delta_cc' - delta_rr' H'[c', c]), filled
    # on its 2 d^3 support instead of through two d^4 krons. The index arrays
    # are split by a slice, so numpy puts their axis first: values broadcast
    # against (d, ..., d, d).
    i = np.arange(d)
    w = np.zeros(h_rot.shape[:-2] + (d, d, d, d), dtype=complex)
    w[..., :, i, :, i] = -1j * h_rot
    w[..., i, :, i, :] += 1j * h_rot.swapaxes(-1, -2)
    return w.reshape(h_rot.shape[:-2] + (d * d, d * d))


def _log_marginal(evals: np.ndarray, vecs: ComplexMatrix) -> ComplexMatrix:
    return (vecs * np.log(evals)[..., np.newaxis, :]) @ dagger(vecs)


def _trace_product(a: ComplexMatrix, b: ComplexMatrix) -> np.ndarray:
    """tr(a b) of each slice, without forming the product."""
    return np.einsum("...ij,...ji->...", a, b)


def mutual_information_rate(h: ComplexMatrix, rho_s: DensityMatrix, part: Bipartition):
    """Analytic d/dt of the mutual information under unitary dynamics.

    I_dot = i tr(tr_B(C) ln rho_A) + i tr(tr_A(C) ln rho_B) with C = [H, rho],
    from S_dot_X = -tr(rho_dot_X ln rho_X) with the global entropy constant.
    ``rho_s`` is one state, giving a float, or a (..., d, d) stack, giving an
    array over the leading axes.
    """
    h = as_complex_matrix(h)
    rho_s = check_density_matrix(rho_s, "rho_S")
    if rho_s.shape[-2:] != (part.dim, part.dim) or h.shape != rho_s.shape[-2:]:
        raise ValueError("dimension mismatch between H, state, and partition")
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    comm = h @ rho_s - rho_s @ h
    val = 1j * (_trace_product(partial_trace(comm, part, "A"), _log_marginal(wa, va))
                + _trace_product(partial_trace(comm, part, "B"), _log_marginal(wb, vb)))
    residue = np.abs(val.imag).max()
    if residue > IMAG_TOL:
        raise ValueError(f"mutual-information rate imaginary residue {residue:.3e}")
    return float_or_array(val.real)


def _swap_difference(a: np.ndarray) -> np.ndarray:
    """a[..., m, m', k] - a[..., m', m, k]."""
    return a - a.swapaxes(-3, -2)


def _support_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|W|, Re log(W/W^T) and |Im log(W/W^T)| on a (..., d, d, d) support block.

    ``block[..., m, m', k]`` pairs with ``block[..., m', m, k]`` in W^T. Every
    channel uses only |log(W/W^T) + real shift|, so the log is taken in real
    arithmetic: Re = ln|W| - ln|W^T|, and the principal branch enters through
    |Im| = min(|dphi|, 2 pi - |dphi|) with dphi = arg W - arg W^T, which gives
    pi from either side of the cut at W/W^T = -1. All three arrays are zero
    where either |W| entry is below the cutoff, and on the m = m' diagonal,
    where the ratio is exactly 1.
    """
    mag = np.abs(block)
    off_diagonal = ~np.eye(block.shape[-2], dtype=bool)[:, :, np.newaxis]
    mask = (mag > PAIR_CUTOFF) & (mag.swapaxes(-3, -2) > PAIR_CUTOFF) & off_diagonal
    re = _swap_difference(np.log(np.where(mask, mag, 1.0)))
    dphi = np.abs(_swap_difference(np.angle(block)))
    skipped = ~mask
    mag[skipped] = 0.0
    dphi[skipped] = 0.0
    return mag, re, np.minimum(dphi, 2.0 * np.pi - dphi, out=dphi)


def entropy_production_rates(h: ComplexMatrix, rho_s: DensityMatrix, part: Bipartition):
    """Local entropy-production sums, exchange term, and geometry coefficients.

    All sums run over ordered Liouville index pairs (m, m'), skipping pairs
    where either |W| entry is below the cutoff and the pairs m = m', whose
    log(W/W^T) is exactly 0. Each term is |W| |log(W/W^T) + s| with a real
    shift s (0 for the exchange sums), evaluated as |W| hypot(Re + s, |Im|)
    from _support_block's real parts; logs are principal-branch.
    W is nonzero only where m = (r, c) and m' = (r', c') share c or share r,
    so the sums run over those two d^3 blocks: every other pair has W = 0.
    The exchange channel is reported as SdotE = S_E^A + S_E^B with coeffC
    the matching weighted ratio, preserving the weighted product exactly.
    Keys are the channel names: Idot, SdotA, SdotB, SdotE, coeffA, coeffB,
    coeffC, bound_rhs = coeffA SdotA + coeffB SdotB + coeffC SdotE, and
    slack8 = bound_rhs - Idot. ``rho_s`` is one state, giving floats, or a
    (..., d, d) stack, giving arrays over the leading axes.
    """
    i_dot = mutual_information_rate(h, rho_s, part)  # validates h, rho_s and part
    rho_s = np.asarray(rho_s, dtype=complex)
    d = part.dim
    lead = rho_s.shape[:-2]
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    basis = _product_basis(va, vb)
    w = build_liouvillian(h, basis).reshape(lead + (d, d, d, d))
    rho_rot = dagger(basis) @ rho_s @ basis

    # Same column, [r, r', c]: the weights w(r') enter as the prefactor and as
    # the real shift log(w(r')/w(r)), which keeps the principal branch.
    mag_c, re_c, im_c = _support_block(w.diagonal(axis1=-3, axis2=-1))
    # Same row, [c, c', r]: the weight ratio is 1. Pairs with r = r' and c = c'
    # lie in both blocks; log 1 = 0, so both leave them out.
    mag_r, re_r, im_r = _support_block(w.diagonal(axis1=-4, axis2=-2))
    exchange_c = (mag_c * np.hypot(re_c, im_c)).sum(axis=(-3, -1))
    exchange_r = (mag_r * np.hypot(re_r, im_r)).sum(axis=(-3, -2))

    def local_sums(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S_dot, S_E) for the marginal weight of each row index r."""
        shift = np.log(weights[..., np.newaxis, :] / weights[..., :, np.newaxis])
        s_dot_c = (mag_c * np.hypot(re_c + shift[..., np.newaxis], im_c)).sum(axis=(-3, -1))
        same_r = (weights * exchange_r).sum(axis=-1)
        return ((weights * s_dot_c).sum(axis=-1) + same_r,
                (weights * exchange_c).sum(axis=-1) + same_r)

    a_rows = np.repeat(wa, part.dim_b, axis=-1)
    b_rows = np.tile(wb, part.dim_a)
    s_dot_a, s_e_a = local_sums(a_rows)
    s_dot_b, s_e_b = local_sums(b_rows)

    abs_rho = np.abs(rho_rot)
    coeff_a = d * d * (abs_rho / a_rows[..., np.newaxis]).sum(axis=(-2, -1))
    coeff_b = d * d * (abs_rho / b_rows[..., np.newaxis]).sum(axis=(-2, -1))
    s_dot_e = s_e_a + s_e_b
    exchange = s_dot_e > 0.0
    coeff_c = np.where(exchange, coeff_a * s_e_a + coeff_b * s_e_b, 0.0) / np.where(
        exchange, s_dot_e, 1.0)

    bound_rhs = coeff_a * s_dot_a + coeff_b * s_dot_b + coeff_c * s_dot_e
    table = {"Idot": i_dot, "SdotA": s_dot_a, "SdotB": s_dot_b, "SdotE": s_dot_e,
             "coeffA": coeff_a, "coeffB": coeff_b, "coeffC": coeff_c,
             "bound_rhs": bound_rhs, "slack8": bound_rhs - i_dot}
    return {k: float_or_array(v) for k, v in table.items()}


def bound8_report(
    h: ComplexMatrix,
    initial: DensityMatrix,
    part: Bipartition,
    times: Sequence[float],
) -> dict[str, np.ndarray]:
    """Sample the entropy-production bound along exp(-iHt) evolution.

    ``initial`` must already be full-rank on both marginals (regularize a
    pure start first); every sample evaluates the rates in that instant's
    marginal eigenbasis. The grid is evaluated in chunks of times, each one
    stack of rho(t) (qdense.time_chunks, sized by W's d^4 entries per
    sample). Returns ``t`` and each entropy_production_rates channel as an
    array over the grid.
    """
    h = as_complex_matrix(h)
    initial = check_density_matrix(as_complex_matrix(initial), "initial")
    times = check_time_grid(times)
    _full_rank_marginals(initial, part)
    u_of_t = unitary_family(*eigh(h))
    chunks = []
    for chunk in time_chunks(times.size, part.dim**4):
        u = u_of_t(times[chunk])
        chunks.append(entropy_production_rates(h, u @ initial @ dagger(u), part))
    return {"t": times, **{k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}}
