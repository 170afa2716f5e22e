"""Operator-averaged OTOCs and the mutual-information bound channels."""

import numpy as np
import pytest

from _oracles import (
    averaged_otoc_literal,
    modified_otoc_literal,
    two_qubit_zz_averaged_otoc,
    two_qubit_zz_otoc,
)
from scramble.qdense import (
    SLACK_TOL,
    Bipartition,
    evolve_unitary,
    haar_state,
    haar_unitary,
    random_hermitian,
    seeded_rng,
)
from scramble.scrambling import (
    OtocConfig,
    averaged_otoc,
    bound_report,
    modified_otoc,
    otoc,
    stabilizer_states,
)

ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_otoc_config_validation():
    with pytest.raises(ValueError):
        OtocConfig(expectation_state="thermal")
    with pytest.raises(ValueError):
        OtocConfig(averaging="quadrature")
    with pytest.raises(ValueError, match="averaging"):
        OtocConfig(averaging="monte_carlo")


@pytest.mark.parametrize("t", [0.0, 0.15, 0.3, 0.8, 1.7])
def test_otoc_analytic_ising_case(t):
    # H = Z x Z, O_A = X on qubit 0, O_B = X on qubit 1: OTOC = cos(4t).
    u = evolve_unitary(ZZ, t)
    val = otoc(SIGMA_X, SIGMA_X, u, np.eye(4, dtype=complex) / 4)
    assert val.real == pytest.approx(two_qubit_zz_otoc(t), abs=1e-12)
    assert abs(val.imag) < 1e-12


def test_otoc_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        otoc(SIGMA_X, SIGMA_X, np.eye(8), np.eye(8) / 8)


@pytest.mark.parametrize(
    "n_a,n_b,seed", [(1, 1, 0), (1, 2, 1), (2, 1, 2), (2, 2, 3), (1, 3, 4), (3, 1, 5)]
)
def test_averaged_otoc_matches_literal_double_sum(n_a, n_b, seed):
    part = Bipartition(n_a, n_b)
    u = haar_unitary(part.dim, seeded_rng(100, seed))
    fast = averaged_otoc(part, u, OtocConfig())
    literal = averaged_otoc_literal(n_a, n_b, u)
    assert abs(literal.imag) < 1e-12
    assert fast == pytest.approx(literal.real, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.2, 0.7, 1.3])
def test_averaged_otoc_analytic_ising_case(t):
    part = Bipartition(1, 1)
    u = evolve_unitary(ZZ, t)
    val = averaged_otoc(part, u, OtocConfig())
    assert val == pytest.approx(two_qubit_zz_averaged_otoc(t), abs=1e-12)


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 2)])
def test_averaged_otoc_is_one_at_time_zero(n_a, n_b):
    # U(0) built the same way trajectories build it, as V exp(0) V^dag.
    part = Bipartition(n_a, n_b)
    h = random_hermitian(part.dim, seeded_rng(200, n_a, n_b))
    u0 = evolve_unitary(h, 0.0)
    assert abs(averaged_otoc(part, u0, OtocConfig()) - 1.0) < 1e-12


def test_averaged_otoc_initial_state_diagonal_case():
    # A diagonal expectation state with <ZZ> = 0 keeps the average real; the
    # twirled fast path must then agree with the literal double sum.
    part = Bipartition(1, 1)
    rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    cfg = OtocConfig(expectation_state="initial_state")
    for t in (0.0, 0.3, 0.9):
        u = evolve_unitary(ZZ, t)
        literal = averaged_otoc_literal(1, 1, u, rho0)
        assert abs(literal.imag) < 1e-12
        assert averaged_otoc(part, u, cfg, state=rho0) == pytest.approx(
            literal.real, abs=1e-12
        )


def test_averaged_otoc_initial_state_raises_on_complex_residue():
    # Generic states leave a genuinely complex average; the contract is a
    # loud error rather than a silently dropped imaginary part.
    part = Bipartition(1, 1)
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    u = evolve_unitary(ZZ, 0.3)
    with pytest.raises(ValueError, match="imaginary residue"):
        averaged_otoc(part, u, OtocConfig(expectation_state="initial_state"), state=rho0)


def test_averaged_otoc_initial_state_requires_state():
    part = Bipartition(1, 1)
    with pytest.raises(ValueError, match="state"):
        averaged_otoc(part, np.eye(4), OtocConfig(expectation_state="initial_state"))


@pytest.mark.parametrize("n_a,n_b", [(1, 9), (5, 5)])
def test_averaged_otoc_ten_qubit_product_unitary(n_a, n_b):
    # A product unitary creates no operator entanglement across the cut, so
    # every string pair commutes back and the average is exactly 1.
    part = Bipartition(n_a, n_b)
    rng = seeded_rng(302, n_a)
    u = np.kron(haar_unitary(part.dim_a, rng), haar_unitary(part.dim_b, rng))
    assert abs(averaged_otoc(part, u, OtocConfig()) - 1.0) < 1e-12


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
    assert modified_otoc(part, evolve_unitary(h, 0.0)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n_b,seed", [(1, 0), (2, 1), (3, 2)])
def test_modified_otoc_matches_literal(n_b, seed):
    part = Bipartition(1, n_b)
    u = haar_unitary(part.dim, seeded_rng(500, seed))
    psi = np.array([1.0, 0.0], dtype=complex)
    expected = modified_otoc_literal(n_b, u, stabilizer_states(), psi)
    assert modified_otoc(part, u) == pytest.approx(expected, abs=1e-12)


def test_modified_otoc_custom_source_and_targets():
    part = Bipartition(1, 1)
    u = haar_unitary(4, seeded_rng(501))
    psi = np.array([0.0, 1.0], dtype=complex)
    phis = stabilizer_states()[:2]
    expected = modified_otoc_literal(1, u, phis, psi)
    assert modified_otoc(part, u, phi_set=phis, psi=psi) == pytest.approx(expected, abs=1e-12)


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
    rep_f = bound_report(lambda t: evolve_unitary(h, t), part, zero_state(2), times)
    assert set(rep_h) == set(rep_f) == {"t", "I", "I2", "Obar", "deltaO", "slack9"}
    for name in rep_h:
        np.testing.assert_allclose(rep_h[name], rep_f[name], atol=1e-12)


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
    from scramble.models import circuit_unitary_family, scrambler_preset

    part = Bipartition(1, 2)
    family = circuit_unitary_family(scrambler_preset())
    rep = bound_report(family, part, zero_state(3), np.linspace(0.0, 1.0, 11))
    assert rep["slack9"].min() >= SLACK_TOL
