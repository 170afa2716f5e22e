"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the definitions with plain
loops and np.kron, sharing no code paths with the package internals. The
exceptions are instantaneous_basis and entropy_production_rates_literal: the
rate channels depend on the eigenvectors chosen inside degenerate marginal
eigenspaces, so both take the package's marginal eigensystems as given, and
the rate oracle also takes the package's mutual-information rate. The random
samplers the tests draw from (Haar unitaries and kets, Wishart densities) and
the |0...0> start live here too; no program code uses them.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

from scramble.liouville import _full_rank_marginals, mutual_information_rate
from scramble.qdense import PAIR_CUTOFF

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the R-diagonal phase fix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))[np.newaxis, :]


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state: normalized Wishart of the given rank (default full)."""
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def zero_state(n: int) -> np.ndarray:
    """The pure product start |0...0><0...0| on n qubits."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def kron_chain(labels: str) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for c in labels:
        out = np.kron(out, PAULIS[c])
    return out


def jordan_wigner_majorana(i: int, n_qubits: int) -> np.ndarray:
    """Majorana operator psi_i on n_qubits, 1 <= i <= 2*n_qubits.

    psi_(2j-1) = (prod_{k<j} sigma_z^k) sigma_x^j / sqrt(2) and
    psi_(2j)   = (prod_{k<j} sigma_z^k) sigma_y^j / sqrt(2), so that
    {psi_i, psi_j} = delta_ij * I.
    """
    if not 1 <= i <= 2 * n_qubits:
        raise ValueError(f"Majorana index {i} out of range 1..{2 * n_qubits}")
    j = (i + 1) // 2
    head = "X" if i % 2 == 1 else "Y"
    return kron_chain("Z" * (j - 1) + head + "I" * (n_qubits - j)) / np.sqrt(2.0)


def syk_hamiltonian_literal(n_majorana: int, q: int, couplings: np.ndarray) -> np.ndarray:
    """i^(q/2) sum_(i1<...<iq) J psi_i1 ... psi_iq as dense products, lexicographic J order."""
    n_qubits = n_majorana // 2
    psis = [jordan_wigner_majorana(i, n_qubits) for i in range(1, n_majorana + 1)]
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    combos = list(itertools.combinations(range(n_majorana), q))
    assert len(combos) == len(couplings)
    for coupling, combo in zip(couplings, combos):
        term = psis[combo[0]]
        for i in combo[1:]:
            term = term @ psis[i]
        h += coupling * term
    return 1j ** (q // 2) * h


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * t * np.asarray(h, dtype=complex))


def schmidt_marginals(psi: np.ndarray, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced density matrices of a pure state via the Schmidt decomposition."""
    mat = np.asarray(psi, dtype=complex).reshape(d_a, d_b)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rho_a = (u * s**2) @ u.conj().T
    # rho_B[b, b'] = sum_a M[a, b] conj(M[a, b']) = (M^dag M)^T
    rho_b = (vh.T * s**2) @ vh.conj()
    return rho_a, rho_b


def entropy_from_probs(p: np.ndarray) -> float:
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def otoc(o_a: np.ndarray, o_b: np.ndarray, u_t: np.ndarray, state: np.ndarray) -> complex:
    """<O_A^dag O_B(t)^dag O_A O_B(t)> with O_B(t) = U^dag O_B U.

    o_a acts on the leading tensor factor (embedded as o_a x I_B), o_b on the
    trailing one (I_A x o_b); subsystem sizes are read off the operator dims.
    """
    d = o_a.shape[0] * o_b.shape[0]
    if np.shape(u_t) != (d, d) or np.shape(state) != (d, d):
        raise ValueError(
            f"dimension mismatch: o_a {o_a.shape}, o_b {o_b.shape}, "
            f"U {np.shape(u_t)}, state {np.shape(state)}"
        )
    big_a = kron(o_a, np.eye(o_b.shape[0]))
    big_b_t = u_t.conj().T @ kron(np.eye(o_a.shape[0]), o_b) @ u_t
    return complex(np.trace(state @ big_a.conj().T @ big_b_t.conj().T @ big_a @ big_b_t))


def averaged_otoc_literal(n_a: int, n_b: int, u_t: np.ndarray, state=None) -> complex:
    """Plain double sum over every (A-string, B-string) Pauli pair."""
    d_a, d_b = 2**n_a, 2**n_b
    d = d_a * d_b
    rho = np.eye(d, dtype=complex) / d if state is None else np.asarray(state, dtype=complex)
    udag = np.asarray(u_t, dtype=complex).conj().T
    total = 0.0 + 0.0j
    count = 0
    for la in itertools.product("IXYZ", repeat=n_a):
        big_a = np.kron(kron_chain("".join(la)), np.eye(d_b))
        for lb in itertools.product("IXYZ", repeat=n_b):
            big_b = udag @ np.kron(np.eye(d_a), kron_chain("".join(lb))) @ np.asarray(u_t)
            total += np.trace(rho @ big_a.conj().T @ big_b.conj().T @ big_a @ big_b)
            count += 1
    return total / count


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


def modified_otoc_literal(n_b: int, u_t: np.ndarray, phi_set, psi: np.ndarray) -> float:
    """State-transfer OTOC averaged over phi and B-register Pauli strings."""
    d_b = 2**n_b
    d = 2 * d_b
    u_t = np.asarray(u_t, dtype=complex)
    udag = u_t.conj().T
    total = 0.0 + 0.0j
    count = 0
    for phi in phi_set:
        o1 = np.kron(np.outer(psi, np.conj(phi)), np.eye(d_b))
        for lb in itertools.product("IXYZ", repeat=n_b):
            q = udag @ np.kron(np.eye(2), kron_chain("".join(lb))) @ u_t
            total += np.trace(o1.conj().T @ q.conj().T @ o1 @ q) / d
            count += 1
    return float((total / count).real)


def apply_gate_to_state(gate: np.ndarray, targets, psi: np.ndarray, n_qubits: int) -> np.ndarray:
    """Apply a 1- or 2-qubit gate to a state vector by tensor contraction."""
    tensor = psi.reshape((2,) * n_qubits)
    k = len(targets)
    g = gate.reshape((2,) * (2 * k))
    moved = np.tensordot(g, tensor, axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(moved, list(range(k)), list(targets)).reshape(-1)


def central_difference(f, t: float, h: float) -> float:
    return (f(t + h) - f(t - h)) / (2 * h)


def richardson_derivative(f, t: float, h: float) -> float:
    """Five-point stencil; equals Richardson extrapolation of the h, 2h central differences."""
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


def two_qubit_zz_otoc(t: float) -> float:
    """<X1 X2(t) X1 X2(t)> under H = Z x Z in the maximally mixed state.

    X2 anticommutes with ZZ, so U^dag (I x X) U = exp(2iZZt)(I x X) and the
    four-operator product collapses to exp(-4iZZt); its normalized trace is
    cos(4t).
    """
    return float(np.cos(4.0 * t))


def two_qubit_zz_averaged_otoc(t: float) -> float:
    """Pauli-averaged OTOC under H = Z x Z on a 1|1 split.

    I and Z strings on B commute with U; X and Y strings each contribute
    cos^2(2t) after the A-trace, giving (1 + cos^2(2t))/2.
    """
    return float((1.0 + np.cos(2.0 * t) ** 2) / 2.0)


def instantaneous_basis(rho_s: np.ndarray, part) -> np.ndarray:
    """V = V_A x V_B diagonalizing both marginals."""
    _, va, _, vb = _full_rank_marginals(np.asarray(rho_s, dtype=complex), part)
    return np.kron(va, vb)


def entropy_production_rates_literal(h: np.ndarray, rho_s: np.ndarray, part) -> dict[str, float]:
    """The rate channels as sums over every one of the d^4 ordered pairs of a kron W."""
    i_dot = mutual_information_rate(h, rho_s, part)
    d, d_b = part.dim, part.dim_b
    wa, va, wb, vb = _full_rank_marginals(rho_s, part)
    basis = np.kron(va, vb)
    h_rot = basis.conj().T @ np.asarray(h, dtype=complex) @ basis
    eye = np.eye(d, dtype=complex)
    w = -1j * (np.kron(h_rot, eye) - np.kron(eye, h_rot.T))
    wt = w.T
    rho_vec = (basis.conj().T @ rho_s @ basis).reshape(-1)

    rows = np.arange(d * d) // d
    a_liou = wa[rows // d_b]
    b_liou = wb[rows % d_b]

    # A diagonal pair m = m' has W/W^T = 1 exactly, so it is left out rather
    # than summed as the round-off of log(x/x).
    mask = (np.abs(w) > PAIR_CUTOFF) & (np.abs(wt) > PAIR_CUTOFF) & ~np.eye(d * d, dtype=bool)
    w_safe = np.where(mask, w, 1.0)
    wt_safe = np.where(mask, wt, 1.0)

    def pair_sum(weights: np.ndarray, with_weights_in_log: bool) -> float:
        col = weights[np.newaxis, :]
        if with_weights_in_log:
            arg = (w_safe * col) / (wt_safe * weights[:, np.newaxis])
        else:
            arg = w_safe / wt_safe
        terms = np.abs(col * w_safe * np.log(arg))
        return float(np.where(mask, terms, 0.0).sum())

    s_dot_a = pair_sum(a_liou, True)
    s_dot_b = pair_sum(b_liou, True)
    s_e_a = pair_sum(a_liou, False)
    s_e_b = pair_sum(b_liou, False)

    coeff_a = d * d * float(np.sum(np.abs(rho_vec) / a_liou))
    coeff_b = d * d * float(np.sum(np.abs(rho_vec) / b_liou))
    s_dot_e = s_e_a + s_e_b
    coeff_c = (coeff_a * s_e_a + coeff_b * s_e_b) / s_dot_e if s_dot_e > 0.0 else 0.0

    bound_rhs = coeff_a * s_dot_a + coeff_b * s_dot_b + coeff_c * s_dot_e
    return {"Idot": i_dot, "SdotA": s_dot_a, "SdotB": s_dot_b, "SdotE": s_dot_e,
            "coeffA": coeff_a, "coeffB": coeff_b, "coeffC": coeff_c,
            "bound_rhs": bound_rhs, "slack8": bound_rhs - i_dot}
