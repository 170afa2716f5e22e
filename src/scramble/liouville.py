"""Vectorized (Fock-Liouville) dynamics and entropy-production rates.

Conventions: row-major vec, |rho>_(r,c) = rho[r, c], so the von Neumann
generator is W = -i (H x I - I x H^T) and vec(rho_dot) = W vec(rho). All
rate channels are evaluated in the instantaneous product eigenbasis of the
marginals, with eigenvalues in eigh's ascending order; the marginal eigenvalue
attached to Liouville index m = (r, c) is read off the row part r. The rate
sums read one d x d table of W per sample.
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
    dagger,
    eigh,
    float_or_array,
    partial_trace,
    time_chunks,
    unitary_family,
)
from .scrambling import bound_report

DEFAULT_DELTA = 1e-6


def regularize(rho: DensityMatrix, delta: float = DEFAULT_DELTA) -> DensityMatrix:
    """Mix in delta, in (0, 1), of the maximally mixed state to lift rank deficiency."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    return (1.0 - delta) * rho + delta * np.eye(d) / d


def _full_rank_marginals(rho_s: DensityMatrix, part: Bipartition):
    """Eigensystems of both marginals as eigh gives them: ascending, fixed phases.

    Refuses a marginal with an eigenvalue below RANK_TOL.
    """
    wa, va = eigh(partial_trace(rho_s, part, "A"))
    wb, vb = eigh(partial_trace(rho_s, part, "B"))
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
    w = np.zeros(h_rot.shape[:-2] + (d, d, d, d), dtype=complex)
    _fill_liouvillian(w, h_rot)
    return w.reshape(h_rot.shape[:-2] + (d * d, d * d))


def _fill_liouvillian(w: np.ndarray, h_rot: ComplexMatrix) -> None:
    """Write W of each H' in a (..., d, d) stack onto a (..., d, d, d, d) buffer.

    w[r, c, r', c'] = -i (H'[r, r'] delta_cc' - delta_rr' H'[c', c]), filled
    on its 2 d^3 support instead of through two d^4 krons. Entries off that
    support must be zero already, as they are for any earlier W of the same
    d: the same-row block is cleared first, so a buffer that held another
    H's W ends bitwise equal to a fresh one.
    """
    same_c = np.einsum("...rcsc->...rsc", w)  # writeable views: w[r, c, r', c]
    same_r = np.einsum("...rcrk->...rck", w)  # and w[r, c, r, c']
    same_r[...] = 0.0
    same_c[...] = (-1j * h_rot)[..., np.newaxis]
    same_r += (1j * h_rot.swapaxes(-1, -2))[..., np.newaxis, :, :]


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
    array over the leading axes. I_dot scales with H, and so does the
    imaginary residue it may carry: the residue is refused past IMAG_TOL
    times max(1, max|H|), so a run and its copy with H and 1/t rescaled pass
    or fail together.
    """
    h = check_hermitian(h, "Hamiltonian")
    rho_s = check_density_matrix(rho_s, "rho_S")
    if rho_s.shape[-2:] != (part.dim, part.dim) or h.shape != rho_s.shape[-2:]:
        raise ValueError("dimension mismatch between H, state, and partition")
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    comm = h @ rho_s - rho_s @ h
    val = 1j * (_trace_product(partial_trace(comm, part, "A"), _log_marginal(wa, va))
                + _trace_product(partial_trace(comm, part, "B"), _log_marginal(wb, vb)))
    residue = np.abs(val.imag).max()
    if residue > IMAG_TOL * max(1.0, np.abs(h).max()):
        raise ValueError(f"mutual-information rate imaginary residue {residue:.3e}")
    return float_or_array(val.real)


def _pair_phases(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|W| and |log(W/W^T)| on a (..., d, d) table of W's support.

    ``table[..., m, m']`` pairs with ``table[..., m', m]`` in W^T. W is
    skew-Hermitian, so W^T = -conj(W) entrywise and W/W^T = -W^2/|W|^2 is a
    pure phase: log(W/W^T) = i arg(-W^2) on the principal branch. As
    arg(-W^2) = 2 arg W + pi (mod 2 pi), |arg(-W^2)| = |2 |arg W| - pi|, one
    angle per entry and exactly pi at the cut W/W^T = -1 (W real). Both
    arrays are zero where either |W| entry is at or below the cutoff, and on
    the m = m' diagonal, where the ratio is exactly 1.
    """
    mag = np.abs(table)
    skipped = np.minimum(mag, mag.swapaxes(-2, -1)) <= PAIR_CUTOFF
    skipped |= np.eye(table.shape[-1], dtype=bool)
    phase = np.abs(2.0 * np.abs(np.angle(table)) - np.pi)
    mag[skipped] = 0.0
    phase[skipped] = 0.0
    return mag, phase


def entropy_production_rates(h: ComplexMatrix, rho_s: DensityMatrix, part: Bipartition):
    """Local entropy-production sums, exchange term, and geometry coefficients.

    All sums run over ordered Liouville index pairs (m, m'), skipping pairs
    where either |W| entry is at or below the cutoff and the pairs m = m',
    whose log(W/W^T) is exactly 0. Each term is |W| |log(W/W^T) + s| with a
    real shift s (0 for the exchange sums). W is skew-Hermitian, so
    log(W/W^T) is the pure phase i arg(-W^2) on the principal branch
    (_pair_phases) and a term is |W| hypot(s, |arg(-W^2)|). W is nonzero
    only where m = (r, c) and m' = (r', c') share c or share r, and those
    entries repeat one d x d table. With the pair phase phi of that table,
    S_dot_X = d sum_{r,r'} w(r') |W| hypot(ln(w(r')/w(r)), phi) + X sum_r w(r)
    and S_E^X = d sum w(r') |W| phi + X sum_r w(r), with X = sum |W| phi over
    the whole table.
    The exchange channel is reported as SdotE = S_E^A + S_E^B with coeffC
    the matching weighted ratio, preserving the weighted product exactly.
    Keys are the channel names: Idot, SdotA, SdotB, SdotE, coeffA, coeffB,
    coeffC, bound_rhs = coeffA SdotA + coeffB SdotB + coeffC SdotE, and
    slack8 = bound_rhs - Idot. ``rho_s`` is one state, giving floats, or a
    (..., d, d) stack, giving arrays over the leading axes.
    Validation, Idot, the marginal eigensystems, the pair sums and the
    coefficients are taken once over the whole stack.
    """
    i_dot = mutual_information_rate(h, rho_s, part)  # validates h, rho_s and part
    h = np.asarray(h, dtype=complex)
    rho_s = np.asarray(rho_s, dtype=complex)
    d = part.dim
    lead = rho_s.shape[:-2]
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    basis = _product_basis(va, vb)
    a_rows = np.repeat(wa, part.dim_b, axis=-1)
    b_rows = np.tile(wb, part.dim_a)

    # W holds d^4 entries per state, and its support pattern depends only on
    # d: one W for the first sub-stack of the flattened leading axes, whose
    # support each later (no larger) sub-stack overwrites on a leading slice.
    # Off its masked diagonals r = r' and c = c', W's support is two (d, d, d)
    # blocks of d copies of one d x d table each: same column,
    # W[(r, c), (r', c)] = -i H'[r, r'], and same row, W[(r, c), (r, c')] =
    # i H'[c', c], minus the transpose of the first. The sums read the c = 0
    # same-column table of each sample alone.
    bases = basis.reshape(-1, d, d)
    chunks = time_chunks(len(bases), d**4)
    w = build_liouvillian(h, bases[chunks[0]]).reshape(-1, d, d, d, d)
    same_c = np.empty(bases.shape, dtype=complex)
    for c in chunks:
        sub = w[: c.stop - c.start]
        if c.start:
            _fill_liouvillian(sub, dagger(bases[c]) @ h @ bases[c])
        same_c[c] = sub[:, :, 0, :, 0]
    del w, sub  # W is the peak: free it before the sums' temporaries

    # Same column, [r, r']: the weights w(r') enter as the prefactor and as
    # the real shift log(w(r')/w(r)), which keeps the principal branch; the
    # d columns give d equal copies. Same row, [c, c']: the weight ratio is 1,
    # so every row r adds w(r) times the sum over the same-column terms, as
    # |W| and the pair phase are even in W. Pairs with r = r' and c = c' lie
    # in both blocks; log 1 = 0, so both leave them out.
    mag, phase = _pair_phases(same_c.reshape(lead + (d, d)))
    exchange_c = (mag * phase).sum(axis=-2)
    exchange_r = exchange_c.sum(axis=-1)
    sums = []
    for rows in (a_rows, b_rows):
        shift = np.log(rows[..., np.newaxis, :] / rows[..., :, np.newaxis])
        same_r = rows.sum(axis=-1) * exchange_r
        sums += [d * (rows * (mag * np.hypot(shift, phase)).sum(axis=-2)).sum(axis=-1) + same_r,
                 d * (rows * exchange_c).sum(axis=-1) + same_r]
    s_dot_a, s_e_a, s_dot_b, s_e_b = sums

    abs_rho = np.abs(dagger(basis) @ rho_s @ basis)
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
    part: Bipartition,
    initial: DensityMatrix,
    times: Sequence[float],
    delta: float = DEFAULT_DELTA,
) -> dict[str, np.ndarray]:
    """Both bounds along exp(-iHt), from one eigensystem of H.

    bound_report validates the pure product start ``initial`` and the grid and
    gives the bound-9 channels. The rate channels follow the same U(t) from
    regularize(initial, delta): each chunk of times that bound_report requests
    forms its U(t) once, and one entropy_production_rates call takes that
    chunk's rho(t) before bound_report reads U. A delta too small for the
    partition is refused at t = 0. Returns both channel tables as one.
    """
    h = as_complex_matrix(h, "Hamiltonian")
    family = unitary_family(*eigh(h))
    rho_0 = regularize(as_complex_matrix(initial, "initial"), delta)
    rates = []

    def u_of_t(t: np.ndarray) -> ComplexMatrix:
        u = family(t)
        rates.append(entropy_production_rates(h, u @ rho_0 @ dagger(u), part))
        return u

    table = bound_report(u_of_t, part, initial, times)
    return {**table, **{k: np.concatenate([r[k] for r in rates]) for k in rates[0]}}
