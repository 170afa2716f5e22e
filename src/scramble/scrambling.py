"""Averaged and state-transfer OTOCs, and the mutual-information bound report.

The averaged OTOC treats the Pauli group as the operator-averaging surrogate
for the Haar measure. The 4^n strings on n qubits satisfy the twirl identity

    sum_P P (x) P = 2^n SWAP,

which turns each string average into a contraction of U(t) with itself. In
the maximally mixed state the average is the operator purity of U across the
A|B cut (Zanardi, PRA 63, 040304 (2001); Styliaris, Anand & Zanardi, PRL 126,
030601 (2021)): realign U[(a',b'),(a,b)] into Y[(a',a),(b',b)], then

    Obar = |Y Y^dag|_F^2 / d^2,

one minus the linear operator entanglement of U. The initial-state
expectation and the modified OTOC follow from the same identity. No string
is ever enumerated; the literal double sum over every (A-string, B-string)
pair stays in tests/_oracles.py as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entropy import mutual_information, purity, renyi2_mutual_information
from .qdense import (
    IMAG_TOL,
    PURITY_TOL,
    TRACE_TOL,
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    as_complex_matrix,
    as_complex_stack,
    check_density_matrix,
    check_time_grid,
    dagger,
    eigh,
    float_or_array,
    frobenius_sq,
    partial_trace,
    time_chunks,
    unitary_family,
)


@dataclass(frozen=True)
class OtocConfig:
    """Expectation-state choice for operator-averaged OTOCs."""

    expectation_state: str = "maximally_mixed"

    def __post_init__(self):
        if self.expectation_state not in ("maximally_mixed", "initial_state"):
            raise ValueError(f"expectation_state: unknown value {self.expectation_state!r}")


def averaged_otoc(
    part: Bipartition,
    u_t: ComplexMatrix,
    cfg: OtocConfig,
    state: DensityMatrix | None = None,
):
    """Pauli-group average of <O_A O_B(t) O_A O_B(t)>; equals 1 at t = 0.

    ``u_t`` is one (d, d) unitary, giving a float, or a (T, d, d) stack,
    giving a (T,) array. ``state`` is the expectation state and is only
    consulted when cfg.expectation_state == "initial_state".
    """
    u_t = _unitary_stack(part, u_t)
    d_a, d_b = part.dim_a, part.dim_b
    if cfg.expectation_state == "maximally_mixed":
        lead = u_t.shape[:-2]
        y = u_t.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -2)
        y = y.reshape(lead + (d_a * d_a, d_b * d_b))
        # |Y Y^dag|_F = |Y^dag Y|_F: form the Gram matrix on the smaller side.
        gram = y @ dagger(y) if d_a <= d_b else dagger(y) @ y
        return float_or_array(frobenius_sq(gram) / part.dim**2)
    if state is None:
        raise ValueError("initial_state expectation requires a state")
    state = check_density_matrix(state)
    if state.shape != (part.dim, part.dim):
        raise ValueError("expectation state dimension does not match partition")
    return _initial_state_otoc(part, u_t, state)


def _unitary_stack(part: Bipartition, u_t) -> ComplexMatrix:
    u_t = as_complex_stack(u_t)
    if u_t.ndim > 3 or u_t.shape[-2:] != (part.dim, part.dim):
        raise ValueError(f"unitary shape {u_t.shape} does not match partition dim {part.dim}")
    return u_t


def _initial_state_otoc(part: Bipartition, u_t: ComplexMatrix, state: DensityMatrix):
    d_a, d_b = part.dim_a, part.dim_b
    # The identity applied to both string sums: two contractions of U with U^dag.
    shape = u_t.shape[:-2] + (d_a, d_b, d_a, d_b)
    v = u_t.reshape(shape)
    r = (u_t @ state).reshape(shape)
    s1 = np.einsum("...xyab,...zycb->...xazc", r, v.conj())
    s2 = np.einsum("...xyab,...zycb->...xazc", v, v.conj())
    mean = np.einsum("...xazc,...zcxa->...", s1, s2) / part.dim
    residue = np.abs(mean.imag).max()
    if residue > IMAG_TOL:
        raise ValueError(f"averaged OTOC imaginary residue {residue:.3e} exceeds tolerance")
    return float_or_array(mean.real)


def stabilizer_states() -> list[np.ndarray]:
    """The six single-qubit stabilizer states (Z, X, Y eigenstates)."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([s, s], dtype=complex),
        np.array([s, -s], dtype=complex),
        np.array([s, 1j * s], dtype=complex),
        np.array([s, -1j * s], dtype=complex),
    ]


def modified_otoc(
    part: Bipartition,
    u_t: ComplexMatrix,
    phi_set: Sequence[np.ndarray] | None = None,
    psi: np.ndarray | None = None,
):
    """State-transfer OTOC with O_1 = |psi><phi| on the first qubit.

    Averages over the supplied phi set (default: six stabilizer states) and
    the B-register Pauli strings, in the maximally mixed expectation state.
    The string average is exact: sum_P tr(X Q_P Y Q_P) with Q_P = U^dag P U
    equals d_B tr(tr_B(U X U^dag) tr_B(U Y U^dag)), and with X = O_1^dag,
    Y = O_1 that is d_B |K_phi|_F^2, K_phi = tr_B(U O_1 U^dag). Its t = 0 value
    is exactly 1/2. K_phi is linear in conj(phi): with K_j = tr_B(U (|psi><j|
    x I_B) U^dag), sum_phi |K_phi|_F^2 = sum_jk M_jk <K_j, K_k> where
    M = sum_phi phi phi^dag, so two partial traces serve every phi.

    ``u_t`` is one (d, d) unitary, giving a float, or a (T, d, d) stack,
    giving a (T,) array. ``psi`` and every ``phi_set`` state must be finite
    single-qubit kets of unit norm (within TRACE_TOL).
    """
    if part.n_a != 1:
        raise ValueError("the state-transfer OTOC requires a single-qubit A subsystem")
    u_t = _unitary_stack(part, u_t)
    if phi_set is None:
        phi_set = stabilizer_states()
    psi = np.asarray([1.0, 0.0] if psi is None else psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"psi must be a single-qubit state, got shape {psi.shape}")
    phis = np.asarray(phi_set, dtype=complex)
    if phis.ndim != 2 or phis.shape[1] != 2:
        raise ValueError(f"phi_set must hold single-qubit states, got shape {phis.shape}")
    norm2 = np.sum(np.abs(np.vstack([psi, phis])) ** 2, axis=-1)
    bad = np.flatnonzero(~(np.abs(norm2 - 1.0) <= TRACE_TOL))  # NaN and inf fail too
    if bad.size:
        label = "psi" if bad[0] == 0 else f"phi_set[{bad[0] - 1}]"
        raise ValueError(f"{label} must be a finite state of unit norm, "
                         f"got squared norm {norm2[bad[0]]}")
    moment = phis.T @ phis.conj()
    v = u_t.reshape(u_t.shape[:-2] + (2, part.dim_b, 2, part.dim_b))
    u_psi = np.einsum("...xyab,a->...xyb", v, psi)
    k = np.einsum("...xyb,...zyjb->...jxz", u_psi, v.conj())
    gram = np.einsum("...jxz,...kxz->...jk", k.conj(), k)
    total = np.einsum("jk,...jk->...", moment, gram).real
    return float_or_array(total / (len(phis) * part.dim * part.dim_b))


def _unitary_supplier(h_or_unitary) -> Callable[[np.ndarray], ComplexMatrix]:
    """A map from a 1-D array of times to the (T, d, d) stack of U(t)."""
    if callable(h_or_unitary):
        return h_or_unitary
    return unitary_family(*eigh(as_complex_matrix(h_or_unitary)))


def bound_report(
    h_or_unitary,
    part: Bipartition,
    initial: DensityMatrix,
    times: Sequence[float],
    cfg: OtocConfig | None = None,
    include_modified: bool = False,
    psi: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Evolve a pure product state as a ket and sample every bound-9 channel.

    ``h_or_unitary`` is either a Hermitian generator (U(t) = exp(-iHt)) or a
    callable that maps a 1-D array of T times to the (T, d, d) stack of U(t).
    The grid is evaluated in chunks of times (qdense.time_chunks) and must
    start at t = 0, so the averaged-OTOC baseline is its own first sample.
    Returns the channels keyed by their CSV column names: t, I, I2, Obar,
    deltaO, slack9 = I - deltaO, and deltaMO when ``include_modified`` is set.
    """
    cfg = cfg or OtocConfig()
    times = check_time_grid(times)
    if times[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    initial = check_density_matrix(as_complex_matrix(initial), "initial")
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
    mi = np.empty(n)
    mi2 = np.empty(n)
    obar = np.empty(n)
    mo = np.empty(n) if include_modified else None
    for chunk in time_chunks(n, d * d):
        u = u_of_t(times[chunk])
        want = (chunk.stop - chunk.start, d, d)
        if np.shape(u) != want:
            raise ValueError(f"U(t) of {want[0]} times has shape {np.shape(u)}, expected {want}")
        kets = (u @ psi_0).reshape(-1, part.dim_a, part.dim_b)
        mi[chunk] = mutual_information(kets, part)
        mi2[chunk] = renyi2_mutual_information(kets, part)
        if cfg.expectation_state == "initial_state":
            obar[chunk] = _initial_state_otoc(part, u, initial)
        else:
            obar[chunk] = averaged_otoc(part, u, cfg)
        if mo is not None:
            mo[chunk] = modified_otoc(part, u, psi=psi)
    delta_obar = obar[0] - obar
    table = {"t": times, "I": mi, "I2": mi2, "Obar": obar, "deltaO": delta_obar,
             "slack9": mi - delta_obar}
    if mo is not None:
        table["deltaMO"] = 1.0 - mo / mo[0]
    return table
