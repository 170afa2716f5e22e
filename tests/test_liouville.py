"""Liouville-space generator, information rates, and the rate bound."""

import numpy as np
import pytest

from _oracles import expm_unitary, richardson_derivative
from scramble.entropy import mutual_information
from scramble.liouville import (
    bound8_report,
    build_liouvillian,
    entropy_production_rates,
    instantaneous_basis,
    mutual_information_rate,
    regularize,
)
from scramble.qdense import (
    Bipartition,
    evolve_unitary,
    kron,
    partial_trace,
    random_density,
    random_hermitian,
    seeded_rng,
)


def zero_state(n: int) -> np.ndarray:
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_regularize_mixes_toward_identity():
    rho = zero_state(2)
    out = regularize(rho, 1e-3)
    np.testing.assert_allclose(out, 0.999 * rho + 1e-3 * np.eye(4) / 4, atol=1e-15)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out).min() > 0


def test_instantaneous_basis_diagonalizes_marginals_descending():
    part = Bipartition(1, 2)
    rho = random_density(8, seeded_rng(900))
    basis = instantaneous_basis(rho, part)
    np.testing.assert_allclose(basis @ basis.conj().T, np.eye(8), atol=1e-12)
    rho_a = partial_trace(rho, part, "A")
    rho_b = partial_trace(rho, part, "B")
    prod = kron(rho_a, rho_b)
    rotated = basis.conj().T @ prod @ basis
    diag = np.diag(rotated).real
    np.testing.assert_allclose(rotated, np.diag(diag), atol=1e-12)
    wa = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
    wb = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
    np.testing.assert_allclose(diag, np.outer(wa, wb).reshape(-1), atol=1e-12)


def test_liouvillian_action_is_the_commutator():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(901))
    rho = random_density(4, seeded_rng(902))
    w = build_liouvillian(h)
    lhs = (w @ rho.reshape(-1)).reshape(4, 4)
    rhs = -1j * (h @ rho - rho @ h)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_liouvillian_is_skew_hermitian_and_traceless_in_sum():
    h = random_hermitian(8, seeded_rng(903))
    w = build_liouvillian(h)
    assert np.abs(w + w.conj().T).max() < 1e-12
    assert abs(w.sum()) < 1e-10


def test_liouvillian_respects_supplied_basis():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(904))
    rho = random_density(4, seeded_rng(905))
    basis = instantaneous_basis(rho, part)
    w = build_liouvillian(h, basis)
    rho_rot = basis.conj().T @ rho @ basis
    h_rot = basis.conj().T @ h @ basis
    lhs = (w @ rho_rot.reshape(-1)).reshape(4, 4)
    rhs = -1j * (h_rot @ rho_rot - rho_rot @ h_rot)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutual_information_rate_matches_finite_difference(seed):
    part = Bipartition(1, 1)
    rng = seeded_rng(906, seed)
    rho0 = random_density(4, rng)
    h = random_hermitian(4, rng)

    def mi_at(t: float) -> float:
        u = expm_unitary(h, t)
        return mutual_information(u @ rho0 @ u.conj().T, part)

    t0 = 0.35
    u0 = evolve_unitary(h, t0)
    rho_t = u0 @ rho0 @ u0.conj().T
    analytic = mutual_information_rate(h, rho_t, part)
    numeric = richardson_derivative(mi_at, t0, 1e-5)
    assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_mutual_information_rate_zero_for_noninteracting_generator():
    part = Bipartition(1, 2)
    rng = seeded_rng(907)
    h = kron(random_hermitian(2, rng), np.eye(4)) + kron(np.eye(2), random_hermitian(4, rng))
    rho = random_density(8, rng)
    assert abs(mutual_information_rate(h, rho, part)) < 1e-9


def test_mutual_information_rate_zero_at_product_states():
    # A full-rank product state minimizes mutual information, so the smooth
    # rate must vanish there regardless of the generator.
    part = Bipartition(1, 1)
    rng = seeded_rng(908)
    rho = kron(random_density(2, rng), random_density(2, rng))
    h = random_hermitian(4, rng)
    assert abs(mutual_information_rate(h, rho, part)) < 1e-12


def test_rank_deficient_marginals_are_rejected_with_hint():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(909))
    with pytest.raises(ValueError, match="regularize"):
        mutual_information_rate(h, zero_state(2), part)
    with pytest.raises(ValueError, match="regularize"):
        entropy_production_rates(h, zero_state(2), part)


def test_entropy_rates_structure():
    part = Bipartition(1, 1)
    rng = seeded_rng(910)
    rho = regularize(random_density(4, rng, rank=2))
    h = random_hermitian(4, rng)
    rates = entropy_production_rates(h, rho, part)
    assert rates["SdotA"] >= 0.0
    assert rates["SdotB"] >= 0.0
    assert rates["SdotE"] >= 0.0
    assert rates["coeffA"] > 0.0 and rates["coeffB"] > 0.0 and rates["coeffC"] >= 0.0
    assert rates["bound_rhs"] == pytest.approx(
        rates["coeffA"] * rates["SdotA"] + rates["coeffB"] * rates["SdotB"]
        + rates["coeffC"] * rates["SdotE"],
        rel=1e-12,
    )
    assert rates["slack8"] == pytest.approx(rates["bound_rhs"] - rates["Idot"], rel=1e-12)
    assert rates["Idot"] == pytest.approx(mutual_information_rate(h, rho, part), abs=1e-12)


def test_exchange_split_preserves_weighted_product():
    # coeffC is defined so coeffC * SdotE reproduces the sum of the two
    # coefficient-weighted exchange pieces.
    part = Bipartition(1, 2)
    rng = seeded_rng(911)
    rho = regularize(zero_state(3))
    h = random_hermitian(8, rng)
    r = entropy_production_rates(h, rho, part)
    assert r["coeffC"] <= max(r["coeffA"], r["coeffB"]) + 1e-9
    assert r["coeffC"] >= min(r["coeffA"], r["coeffB"]) - 1e-9 or r["SdotE"] == 0.0


def test_bound8_report_matches_pointwise_rates():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(912))
    initial = regularize(zero_state(2))
    times = np.linspace(0.0, 2.0, 7)
    rep = bound8_report(h, initial, part, times)
    np.testing.assert_array_equal(rep["t"], times)
    k = 3
    u = evolve_unitary(h, times[k])
    rates = entropy_production_rates(h, u @ initial @ u.conj().T, part)
    assert set(rep) == {"t"} | set(rates)
    assert rep["Idot"][k] == pytest.approx(rates["Idot"], abs=1e-10)
    assert rep["SdotA"][k] == pytest.approx(rates["SdotA"], rel=1e-9)
    assert rep["SdotB"][k] == pytest.approx(rates["SdotB"], rel=1e-9)
    assert rep["SdotE"][k] == pytest.approx(rates["SdotE"], rel=1e-9)
    assert rep["slack8"][k] == pytest.approx(rates["slack8"], rel=1e-9)


def test_bound8_report_requires_full_rank_start():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(913))
    with pytest.raises(ValueError, match="regularize"):
        bound8_report(h, zero_state(2), part, np.linspace(0.0, 1.0, 3))


def test_bound8_report_no_violations_on_frozen_instance():
    part = Bipartition(1, 2)
    h = random_hermitian(8, seeded_rng(914))
    rep = bound8_report(h, regularize(zero_state(3)), part, np.linspace(0.0, 4.0, 21))
    assert np.all(rep["slack8"] > 0.0)
