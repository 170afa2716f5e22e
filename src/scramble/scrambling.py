"""OTOCs, Pauli-group averaged OTOCs, and the mutual-information bound report.

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
    Bipartition,
    ComplexMatrix,
    DensityMatrix,
    as_complex_matrix,
    check_density_matrix,
    eigh,
    kron,
    partial_trace,
)


@dataclass(frozen=True)
class OtocConfig:
    """Expectation-state choice for operator-averaged OTOCs.

    ``averaging`` accepts only "exact_enumeration": the exact Pauli-group
    average, evaluated in closed form.
    """

    expectation_state: str = "maximally_mixed"
    averaging: str = "exact_enumeration"

    def __post_init__(self):
        if self.expectation_state not in ("maximally_mixed", "initial_state"):
            raise ValueError(f"expectation_state: unknown value {self.expectation_state!r}")
        if self.averaging != "exact_enumeration":
            raise ValueError(
                f"averaging: unknown value {self.averaging!r}; "
                "only 'exact_enumeration' is supported"
            )


def otoc(
    o_a: ComplexMatrix,
    o_b: ComplexMatrix,
    u_t: ComplexMatrix,
    state: DensityMatrix,
) -> complex:
    """<O_A^dag O_B(t)^dag O_A O_B(t)> with O_B(t) = U^dag O_B U.

    o_a acts on the leading tensor factor (embedded as o_a x I_B), o_b on the
    trailing one (I_A x o_b); subsystem sizes are read off the operator dims.
    """
    o_a = as_complex_matrix(o_a)
    o_b = as_complex_matrix(o_b)
    u_t = as_complex_matrix(u_t)
    state = as_complex_matrix(state)
    d = o_a.shape[0] * o_b.shape[0]
    if u_t.shape != (d, d) or state.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: o_a {o_a.shape}, o_b {o_b.shape}, "
            f"U {u_t.shape}, state {state.shape}"
        )
    big_a = kron(o_a, np.eye(o_b.shape[0]))
    big_b_t = u_t.conj().T @ kron(np.eye(o_a.shape[0]), o_b) @ u_t
    return complex(np.trace(state @ big_a.conj().T @ big_b_t.conj().T @ big_a @ big_b_t))


def averaged_otoc(
    part: Bipartition,
    u_t: ComplexMatrix,
    cfg: OtocConfig,
    state: DensityMatrix | None = None,
) -> float:
    """Pauli-group average of <O_A O_B(t) O_A O_B(t)>; equals 1 at t = 0.

    ``state`` is the expectation state and is only consulted when
    cfg.expectation_state == "initial_state".
    """
    u_t = as_complex_matrix(u_t)
    if u_t.shape != (part.dim, part.dim):
        raise ValueError(f"unitary shape {u_t.shape} does not match partition dim {part.dim}")
    d_a, d_b = part.dim_a, part.dim_b
    if cfg.expectation_state == "maximally_mixed":
        y = u_t.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
        # |Y Y^dag|_F = |Y^dag Y|_F: form the Gram matrix on the smaller side.
        gram = y @ y.conj().T if d_a <= d_b else y.conj().T @ y
        return float(np.vdot(gram, gram).real) / part.dim**2
    if state is None:
        raise ValueError("initial_state expectation requires a state")
    state = check_density_matrix(state)
    if state.shape != (part.dim, part.dim):
        raise ValueError("expectation state dimension does not match partition")
    # The identity applied to both string sums: two contractions of U with U^dag.
    v = u_t.reshape(d_a, d_b, d_a, d_b)
    r = (u_t @ state).reshape(d_a, d_b, d_a, d_b)
    s1 = np.einsum("xyab,zycb->xazc", r, v.conj())
    s2 = np.einsum("xyab,zycb->xazc", v, v.conj())
    mean = complex(np.einsum("xazc,zcxa->", s1, s2)) / part.dim
    if abs(mean.imag) > IMAG_TOL:
        raise ValueError(f"averaged OTOC imaginary residue {mean.imag:.3e} exceeds tolerance")
    return float(mean.real)


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
) -> float:
    """State-transfer OTOC with O_1 = |psi><phi| on the first qubit.

    Averages over the supplied phi set (default: six stabilizer states) and
    the B-register Pauli strings, in the maximally mixed expectation state.
    The string average is exact: sum_P tr(X Q_P Y Q_P) with Q_P = U^dag P U
    equals d_B tr(tr_B(U X U^dag) tr_B(U Y U^dag)), and with X = O_1^dag,
    Y = O_1 that is d_B |tr_B(U O_1 U^dag)|_F^2. Its t = 0 value is exactly 1/2.
    """
    if part.n_a != 1:
        raise ValueError("the state-transfer OTOC requires a single-qubit A subsystem")
    u_t = as_complex_matrix(u_t)
    if u_t.shape != (part.dim, part.dim):
        raise ValueError(f"unitary shape {u_t.shape} does not match partition dim {part.dim}")
    if phi_set is None:
        phi_set = stabilizer_states()
    if psi is None:
        psi = np.array([1.0, 0.0], dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    eye_b = np.eye(part.dim_b, dtype=complex)
    total = 0.0
    for phi in phi_set:
        omega = np.outer(psi, np.asarray(phi, dtype=complex).conj())
        k = partial_trace(u_t @ np.kron(omega, eye_b) @ u_t.conj().T, part, "A")
        total += np.vdot(k, k).real
    return float(total) / (len(phi_set) * part.dim * part.dim_b)


def _unitary_supplier(h_or_unitary) -> Callable[[float], ComplexMatrix]:
    if callable(h_or_unitary):
        return h_or_unitary
    h = as_complex_matrix(h_or_unitary)
    evals, vecs = eigh(h)
    vecs_h = vecs.conj().T

    def u_of_t(t: float) -> ComplexMatrix:
        return (vecs * np.exp(-1j * evals * t)) @ vecs_h

    return u_of_t


def bound_report(
    h_or_unitary,
    part: Bipartition,
    initial: DensityMatrix,
    times: Sequence[float],
    cfg: OtocConfig | None = None,
    include_modified: bool = False,
    psi: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Evolve a pure product state and sample every bound-9 channel.

    ``h_or_unitary`` is either a Hermitian generator (U(t) = exp(-iHt)) or a
    callable t -> U(t). The grid must start at t = 0 so the averaged-OTOC
    baseline is its own first sample. Returns the channels keyed by their CSV
    column names: t, I, I2, Obar, deltaO, slack9 = I - deltaO, and deltaMO
    when ``include_modified`` is set.
    """
    cfg = cfg or OtocConfig()
    times = np.asarray(times, dtype=float)
    if times.size < 1 or times[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    initial = check_density_matrix(initial, "initial")
    if initial.shape != (part.dim, part.dim):
        raise ValueError("initial state dimension does not match partition")
    if purity(initial) < 1.0 - PURITY_TOL:
        raise ValueError("initial state must be pure")
    rho_a = np.asarray(initial, dtype=complex).reshape(
        part.dim_a, part.dim_b, part.dim_a, part.dim_b
    )
    if purity(np.einsum("ibjb->ij", rho_a)) < 1.0 - PURITY_TOL:
        raise ValueError("initial state must be a product across the A|B cut")

    u_of_t = _unitary_supplier(h_or_unitary)
    n = times.size
    mi = np.empty(n)
    mi2 = np.empty(n)
    obar = np.empty(n)
    mo = np.empty(n) if include_modified else None
    for i, t in enumerate(times):
        u = u_of_t(float(t))
        rho_t = u @ initial @ u.conj().T
        mi[i] = mutual_information(rho_t, part)
        mi2[i] = renyi2_mutual_information(rho_t, part)
        expect = initial if cfg.expectation_state == "initial_state" else None
        obar[i] = averaged_otoc(part, u, cfg, expect)
        if mo is not None:
            mo[i] = modified_otoc(part, u, psi=psi)
    delta_obar = obar[0] - obar
    table = {"t": times, "I": mi, "I2": mi2, "Obar": obar, "deltaO": delta_obar,
             "slack9": mi - delta_obar}
    if mo is not None:
        table["deltaMO"] = 1.0 - mo / mo[0]
    return table
