"""Averaged and state-transfer OTOCs, and the mutual-information bound report.

The averaged OTOC treats the Pauli group as the operator-averaging surrogate
for the Haar measure. The 4^n strings on n qubits satisfy the twirl identity

    sum_P P (x) P = 2^n SWAP,

which turns each string average into a contraction of U(t) with itself, and
the average into a norm of one Gram matrix. Realign U[(a',b'),(a,b)] into
Y[(a',a),(b',b)] and take G = qdense.gram(Y), which is Y Y^dag, on A's side,
when d_A <= d_B; G / d is then the marginal of U's Choi state on A's output
and input (Hosur, Qi, Roberts & Yoshida, JHEP 02 (2016) 004). In the
maximally mixed state the average is the operator purity of U across the A|B
cut (Zanardi, PRA 63, 040304 (2001); Styliaris, Anand & Zanardi, PRL 126,
030601 (2021)),

    Obar = |G|_F^2 / d^2,

one minus the linear operator entanglement of U. For a single-qubit A and
unitary U, the state-transfer OTOC M is exactly half of it (modified_otoc),
so a bound_report run that samples it reads Obar as 2 M, one Gram per chunk
of U(t). No string is ever enumerated; the literal double sum over every
(A-string, B-string) pair stays in tests/_oracles.py as the independent
oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .entropy import mutual_information, purity, renyi2_mutual_information
from .qdense import (
    PURITY_TOL,
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    as_complex_matrix,
    as_complex_stack,
    check_density_matrix,
    check_time_grid,
    eigh,
    float_or_array,
    frobenius_sq,
    gram,
    partial_trace,
    time_chunks,
    unitary_family,
)


def averaged_otoc(part: Bipartition, u_t: ComplexMatrix):
    """Pauli-group average of <O_A O_B(t) O_A O_B(t)>; equals 1 at t = 0.

    The expectation state is the maximally mixed one. ``u_t`` is one (d, d)
    unitary, giving a float, or a (T, d, d) stack, giving a (T,) array.
    """
    u_t = as_complex_stack(u_t, "unitary")
    if u_t.ndim > 3 or u_t.shape[-2:] != (part.dim, part.dim):
        raise ValueError(f"unitary shape {u_t.shape} does not match partition dim {part.dim}")
    d_a, d_b = part.dim_a, part.dim_b
    lead = u_t.shape[:-2]
    y = u_t.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -2)
    g = gram(y.reshape(lead + (d_a * d_a, d_b * d_b)))
    return float_or_array(frobenius_sq(g) / part.dim**2)


def modified_otoc(part: Bipartition, u_t: ComplexMatrix):
    """State-transfer OTOC with O_1 = |0><phi| on the first qubit; averaged_otoc / 2.

    Averages over the six single-qubit stabilizer states phi and the
    B-register Pauli strings, in the maximally mixed expectation state. The
    six phi resolve the identity (sum_phi phi phi^dag = 3 I), so with
    Phi(X) = tr_B(U (X x I_B) U^dag) the average is
    sum_j |Phi(|0><j|)|_F^2 / (2 d d_B). For unitary U that is exactly
    Obar / 2, because the rows a = 0 and 1 carry equal weight (d^2 Obar
    together): Phi preserves Hermiticity, so Phi^dag Phi is real symmetric in
    the Pauli basis, with I an eigenvector since Phi(I) = Phi^dag(I) = d_B I;
    the two weights differ by the trace of Phi^dag Phi against X -> Z X,
    which pairs only I with Z, and X with Y antisymmetrically, so it
    vanishes. ``u_t`` is one (d, d) unitary, giving a float, or a (T, d, d)
    stack, giving a (T,) array.
    """
    if part.n_a != 1:
        raise ValueError("the state-transfer OTOC requires a single-qubit A subsystem")
    return averaged_otoc(part, u_t) / 2


def _unitary_supplier(h_or_unitary) -> Callable[[np.ndarray], ComplexMatrix]:
    """A map from a 1-D array of times to the (T, d, d) stack of U(t)."""
    if callable(h_or_unitary):
        return h_or_unitary
    return unitary_family(*eigh(as_complex_matrix(h_or_unitary, "Hamiltonian")))


def bound_report(
    h_or_unitary,
    part: Bipartition,
    initial: DensityMatrix,
    times: Sequence[float],
    include_modified: bool = False,
) -> dict[str, np.ndarray]:
    """Evolve a pure product state as a ket and sample every bound-9 channel.

    ``h_or_unitary`` is either a Hermitian generator (U(t) = exp(-iHt)) or a
    callable that maps a 1-D array of T times to the (T, d, d) stack of U(t).
    U(t) and the OTOCs are evaluated in chunks of times (qdense.time_chunks);
    the kets psi(t) = U(t) psi_0 of the whole grid are kept, and each entropy
    takes them in one call, so a bad ket is named by its grid index. The grid
    must start at t = 0, so the averaged-OTOC baseline is its own first sample.
    Returns the channels keyed by their CSV column names: t, I, I2, Obar,
    deltaO, slack9 = I - deltaO, and deltaMO when ``include_modified`` is set;
    deltaMO = 1 - M(t)/M(0) with M = modified_otoc (O_1 = |0><phi| on the
    first qubit, averaged over the six stabilizer phi), so deltaMO(0) = 0.
    Such a run takes Obar as 2 M, one Gram per chunk: halving and doubling
    are exact, so Obar keeps its bits and deltaMO is 1 - Obar(t)/Obar(0).
    """
    times = check_time_grid(times)
    if times[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    initial = check_density_matrix(as_complex_matrix(initial, "initial"), "initial")
    rho_a = partial_trace(initial, part, "A")
    if purity(initial) < 1.0 - PURITY_TOL:
        raise ValueError("initial state must be pure")
    if purity(rho_a) < 1.0 - PURITY_TOL:
        raise ValueError("initial state must be a product across the A|B cut")

    # The pure start's column at its largest diagonal entry is its ket, up to
    # a global phase; the entropies then only need psi(t) = U(t) psi_0.
    col = initial[:, int(np.argmax(initial.diagonal().real))]
    psi_0 = col / np.linalg.norm(col)
    u_of_t = _unitary_supplier(h_or_unitary)
    n, d = times.size, part.dim
    kets = np.empty((n, part.dim_a, part.dim_b), dtype=complex)
    obar = np.empty(n)
    for chunk in time_chunks(n, d * d):
        u = u_of_t(times[chunk])
        want = (chunk.stop - chunk.start, d, d)
        if np.shape(u) != want:
            raise ValueError(f"U(t) of {want[0]} times has shape {np.shape(u)}, expected {want}")
        kets[chunk] = (np.reshape(u, (-1, d)) @ psi_0).reshape(-1, part.dim_a, part.dim_b)
        obar[chunk] = 2 * modified_otoc(part, u) if include_modified else averaged_otoc(part, u)
    mi = mutual_information(kets, part)
    mi2 = renyi2_mutual_information(kets, part)
    delta_obar = obar[0] - obar
    table = {"t": times, "I": mi, "I2": mi2, "Obar": obar, "deltaO": delta_obar,
             "slack9": mi - delta_obar}
    if include_modified:
        table["deltaMO"] = 1.0 - obar / obar[0]
    return table
