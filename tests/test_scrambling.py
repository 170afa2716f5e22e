"""Operator-averaged OTOCs and the mutual-information bound channels."""

import numpy as np
import pytest

from _oracles import (
    averaged_otoc_literal,
    haar_unitary,
    modified_otoc_literal,
    otoc,
    stabilizer_states,
    two_qubit_zz_averaged_otoc,
    two_qubit_zz_otoc,
)
from scramble.qdense import (
    SLACK_TOL,
    Bipartition,
    eigh,
    random_hermitian,
    seeded_rng,
    unitary_family,
)
from scramble.scrambling import averaged_otoc, bound_report, modified_otoc

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.mark.parametrize("t", [0.0, 0.15, 0.3, 0.8, 1.7])
def test_otoc_analytic_ising_case(t):
    # H = Z x Z, O_A = X on qubit 0, O_B = X on qubit 1: OTOC = cos(4t).
    u = unitary_family(*eigh(ZZ))(t)
    val = otoc(SIGMA_X, SIGMA_X, u, np.eye(4, dtype=complex) / 4)
    assert val.real == pytest.approx(two_qubit_zz_otoc(t), abs=1e-12)
    assert abs(val.imag) < 1e-12


def test_otoc_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        otoc(SIGMA_X, SIGMA_X, np.eye(8), np.eye(8) / 8)


@pytest.mark.parametrize("shape", [(3, 3), (2, 2, 4, 4)], ids=["3x3", "2x2x4x4"])
@pytest.mark.parametrize("otoc_of", [averaged_otoc, modified_otoc])
def test_otocs_refuse_a_unitary_of_the_wrong_shape(otoc_of, shape):
    # 1|1 takes a (4, 4) unitary or a (T, 4, 4) stack of them.
    u = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape)
    with pytest.raises(ValueError, match=rf"unitary shape \({shape[0]}, .* partition dim 4"):
        otoc_of(Bipartition(1, 1), u)


@pytest.mark.parametrize(
    "n_a,n_b,seed", [(1, 1, 0), (1, 2, 1), (2, 1, 2), (2, 2, 3), (1, 3, 4), (3, 1, 5)]
)
def test_averaged_otoc_matches_literal_double_sum(n_a, n_b, seed):
    part = Bipartition(n_a, n_b)
    u = haar_unitary(part.dim, seeded_rng(100, seed))
    fast = averaged_otoc(part, u)
    literal = averaged_otoc_literal(n_a, n_b, u)
    assert abs(literal.imag) < 1e-12
    assert fast == pytest.approx(literal.real, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.2, 0.7, 1.3])
def test_averaged_otoc_analytic_ising_case(t):
    part = Bipartition(1, 1)
    u = unitary_family(*eigh(ZZ))(t)
    val = averaged_otoc(part, u)
    assert val == pytest.approx(two_qubit_zz_averaged_otoc(t), abs=1e-12)


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 2)])
def test_averaged_otoc_is_one_at_time_zero(n_a, n_b):
    # U(0) built the same way trajectories build it, as V exp(0) V^dag.
    part = Bipartition(n_a, n_b)
    h = random_hermitian(part.dim, seeded_rng(200, n_a, n_b))
    u0 = unitary_family(*eigh(h))(0.0)
    assert abs(averaged_otoc(part, u0) - 1.0) < 1e-12


def test_averaged_otoc_in_a_pure_state_is_complex():
    # Why the maximally mixed state is the only expectation state: in |00><00|
    # the Pauli average under H = Z x Z is genuinely complex, while its real
    # part is the maximally mixed average.
    part = Bipartition(1, 1)
    u = unitary_family(*eigh(ZZ))(0.3)
    pure = averaged_otoc_literal(1, 1, u, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert abs(pure.imag) > 0.1
    assert pure.real == pytest.approx(two_qubit_zz_averaged_otoc(0.3), abs=1e-12)
    assert averaged_otoc(part, u) == pytest.approx(pure.real, abs=1e-12)


@pytest.mark.parametrize("n_a,n_b", [(1, 9), (5, 5)])
def test_averaged_otoc_ten_qubit_product_unitary(n_a, n_b):
    # A product unitary creates no operator entanglement across the cut, so
    # every string pair commutes back and the average is exactly 1.
    part = Bipartition(n_a, n_b)
    rng = seeded_rng(302, n_a)
    u = np.kron(haar_unitary(part.dim_a, rng), haar_unitary(part.dim_b, rng))
    assert abs(averaged_otoc(part, u) - 1.0) < 1e-12


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_averaged_otoc_haar_mean(n_a, n_b):
    # An oracle outside _oracles.py: over Haar U the operator purity averages
    # to E[Obar] = (d_A^2 + d_B^2 - 2) / (d^2 - 1), one minus Zanardi's mean
    # operator entanglement (PRA 63, 040304 (2001)).
    part = Bipartition(n_a, n_b)
    rng = seeded_rng(700, n_a, n_b)
    samples = np.array([averaged_otoc(part, haar_unitary(part.dim, rng))
                        for _ in range(400)])
    expected = (part.dim_a**2 + part.dim_b**2 - 2) / (part.dim**2 - 1)
    std_err = samples.std(ddof=1) / np.sqrt(samples.size)
    print(f"{n_a}|{n_b}: mean {samples.mean():.5f}, Haar {expected:.5f}, "
          f"{abs(samples.mean() - expected) / std_err:.2f} standard errors (tol 5)")
    assert abs(samples.mean() - expected) <= 5 * std_err


def test_stabilizer_states_form_a_2_design():
    states = stabilizer_states()
    assert len(states) == 6
    acc = np.zeros((2, 2), dtype=complex)
    for s in states:
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        acc += np.outer(s, s.conj())
    np.testing.assert_allclose(acc, 3 * np.eye(2), atol=1e-12)


def test_modified_otoc_half_at_time_zero():
    part = Bipartition(1, 2)
    h = random_hermitian(part.dim, seeded_rng(400))
    assert modified_otoc(part, unitary_family(*eigh(h))(0.0)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n_b,seed", [(1, 0), (2, 1), (3, 2)])
def test_modified_otoc_matches_literal(n_b, seed):
    part = Bipartition(1, n_b)
    u = haar_unitary(part.dim, seeded_rng(500, seed))
    psi = np.array([1.0, 0.0], dtype=complex)
    expected = modified_otoc_literal(n_b, u, stabilizer_states(), psi)
    assert modified_otoc(part, u) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_b", [1, 2])
@pytest.mark.parametrize("custom", [False, True], ids=["stabilizer", "custom"])
def test_modified_otoc_moment_form_matches_phi_loop(n_b, custom):
    # The closed form reads the phi set only through sum_phi phi phi^dag = 3I,
    # so a rotated copy of the six stabilizer states ("custom") must give the
    # same value; the oracle loops over every phi and B-register Pauli string.
    part = Bipartition(1, n_b)
    rng = seeded_rng(502, n_b)
    u = haar_unitary(part.dim, rng)
    rotation = haar_unitary(2, rng) if custom else np.eye(2)
    phis = [rotation @ phi for phi in stabilizer_states()]
    expected = modified_otoc_literal(n_b, u, phis, np.array([1.0, 0.0], dtype=complex))
    assert abs(modified_otoc(part, u) - expected) <= 1e-13


def test_modified_otoc_needs_single_qubit_a():
    with pytest.raises(ValueError, match="single-qubit"):
        modified_otoc(Bipartition(2, 1), np.eye(8))


def zero_state(n: int) -> np.ndarray:
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_bound_report_grid_must_start_at_zero():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(600))
    with pytest.raises(ValueError, match="t = 0"):
        bound_report(h, part, zero_state(2), [0.5, 1.0])


def test_bound_report_requires_pure_product_start():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(601))
    with pytest.raises(ValueError, match="pure"):
        bound_report(h, part, np.eye(4, dtype=complex) / 4, [0.0, 1.0])
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError, match="product"):
        bound_report(h, part, np.outer(bell, bell.conj()), [0.0, 1.0])


def test_bound_report_generator_and_callable_agree():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(602))
    times = np.linspace(0.0, 1.0, 5)
    rep_h = bound_report(h, part, zero_state(2), times)
    rep_f = bound_report(lambda t: unitary_family(*eigh(h))(t), part, zero_state(2), times)
    assert set(rep_h) == set(rep_f) == {"t", "I", "I2", "Obar", "deltaO", "slack9"}
    for name in rep_h:
        np.testing.assert_allclose(rep_h[name], rep_f[name], atol=1e-12)


def test_bound_report_names_a_bad_ket_by_its_grid_index():
    # 600 samples at 1|2 span three U(t) chunks; grid sample 300 is the 44th
    # of the second. A supplier that breaks unitarity there must be reported
    # at the sample's place on the whole grid.
    part = Bipartition(1, 2)
    times = np.linspace(0.0, 2.0, 600)
    family = unitary_family(*eigh(random_hermitian(part.dim, seeded_rng(604))))

    def broken(t):
        u = family(t)
        u[t == times[300]] *= 1.1
        return u

    with pytest.raises(ValueError, match=r"ket\[300\] squared norm 1\.21\d* differs from 1"):
        bound_report(broken, part, zero_state(3), times)


def test_bound_report_channel_consistency():
    part = Bipartition(1, 2)
    h = random_hermitian(8, seeded_rng(603))
    times = np.linspace(0.0, 2.0, 9)
    rep = bound_report(h, part, zero_state(3), times, include_modified=True)
    assert abs(rep["Obar"][0] - 1.0) < 1e-12
    assert rep["deltaO"][0] == 0.0
    assert abs(rep["I"][0]) < 1e-10
    np.testing.assert_allclose(rep["slack9"], rep["I"] - rep["deltaO"], atol=1e-15)
    np.testing.assert_array_equal(rep["t"], times)
    assert "deltaMO" in rep
    assert rep["deltaMO"][0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(rep["deltaMO"]))


def test_bound_report_slack_nonnegative_on_designed_scrambler():
    # Regression pin: the built-in scrambler satisfies the bound on this
    # window; catches sign or normalization slips in the slack channel.
    from scramble.models import realize_circuit, scrambler_preset

    part = Bipartition(1, 2)
    spec = scrambler_preset()
    rep = bound_report(lambda t: realize_circuit(spec, t), part, zero_state(3), np.linspace(0.0, 1.0, 11))
    assert rep["slack9"].min() >= SLACK_TOL
