"""Entropies and mutual-information functionals."""

import math

import numpy as np
import pytest

from _oracles import entropy_from_probs, kron, schmidt_marginals
from scramble.entropy import (
    mutual_information,
    purity,
    renyi2,
    renyi2_mutual_information,
    von_neumann,
)
from scramble.qdense import (
    Bipartition,
    haar_state,
    haar_unitary,
    random_density,
    seeded_rng,
)


def bell_density() -> np.ndarray:
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def test_von_neumann_pure_state_is_zero():
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    assert von_neumann(rho) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_maximally_mixed():
    d = 8
    assert von_neumann(np.eye(d) / d) == pytest.approx(np.log(d), abs=1e-12)


def test_von_neumann_matches_spectrum_formula():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    u = haar_unitary(4, seeded_rng(1))
    rho = (u * p) @ u.conj().T
    assert von_neumann(rho) == pytest.approx(entropy_from_probs(p), abs=1e-12)


def test_von_neumann_is_basis_invariant():
    rho = random_density(6, seeded_rng(2))
    u = haar_unitary(6, seeded_rng(3))
    rotated = u @ rho @ u.conj().T
    assert von_neumann(rotated) == pytest.approx(von_neumann(rho), abs=1e-10)


def test_purity_and_renyi2_are_consistent():
    rho = random_density(5, seeded_rng(4))
    assert renyi2(rho) == pytest.approx(-np.log(purity(rho)), abs=1e-12)
    assert purity(bell_density()) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_of_product_state_is_zero():
    part = Bipartition(1, 2)
    rng = seeded_rng(5)
    rho = kron(random_density(2, rng), random_density(4, rng))
    assert mutual_information(rho, part) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_of_bell_pair():
    part = Bipartition(1, 1)
    assert mutual_information(bell_density(), part) == pytest.approx(2 * np.log(2), abs=1e-10)


def test_mutual_information_invariant_under_local_unitaries():
    part = Bipartition(1, 2)
    psi = haar_state(part.dim, seeded_rng(6))
    rho = np.outer(psi, psi.conj())
    u_loc = kron(haar_unitary(2, seeded_rng(7)), haar_unitary(4, seeded_rng(8)))
    rotated = u_loc @ rho @ u_loc.conj().T
    assert mutual_information(rotated, part) == pytest.approx(
        mutual_information(rho, part), abs=1e-10
    )


def test_mutual_information_from_schmidt_spectrum():
    part = Bipartition(2, 2)
    psi = haar_state(part.dim, seeded_rng(9))
    rho = np.outer(psi, psi.conj())
    rho_a, _ = schmidt_marginals(psi, 4, 4)
    expected = 2 * entropy_from_probs(np.linalg.eigvalsh(rho_a))
    assert mutual_information(rho, part) == pytest.approx(expected, abs=1e-10)


def test_renyi2_mutual_information_bell_pair():
    part = Bipartition(1, 1)
    assert renyi2_mutual_information(bell_density(), part) == pytest.approx(
        2 * np.log(2), abs=1e-10
    )


def test_renyi2_mutual_information_requires_pure_global_state():
    part = Bipartition(1, 1)
    with pytest.raises(ValueError, match="pure"):
        renyi2_mutual_information(np.eye(4) / 4, part)


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 4), (2, 3), (3, 1)])
def test_ket_entropies_match_density_matrix(n_a, n_b):
    # 3|1 has d_A > d_B, so the ket path takes the B-side Gram matrix there.
    part = Bipartition(n_a, n_b)
    for seed in range(3):
        psi = haar_state(part.dim, seeded_rng(13, seed, n_a, n_b))
        rho = np.outer(psi, psi.conj())
        assert abs(mutual_information(psi, part) - mutual_information(rho, part)) < 1e-13
        assert abs(renyi2_mutual_information(psi, part)
                   - renyi2_mutual_information(rho, part)) < 1e-13
    product = np.zeros(part.dim, dtype=complex)
    product[part.dim_b + 1] = 1.0  # |1>_A |1>_B in the computational basis
    for fn in (mutual_information, renyi2_mutual_information):
        value = fn(product, part)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("seed", [10, 11, 12])
def test_inequality_chain_on_random_pure_states(n_a, n_b, seed):
    # I2 <= I <= 2 ln min(dA, dB) for pure global states.
    part = Bipartition(n_a, n_b)
    psi = haar_state(part.dim, seeded_rng(seed, n_a, n_b))
    rho = np.outer(psi, psi.conj())
    mi = mutual_information(rho, part)
    mi2 = renyi2_mutual_information(rho, part)
    cap = 2 * np.log(min(part.dim_a, part.dim_b))
    assert 0.0 <= mi2 <= mi + 1e-10
    assert mi <= cap + 1e-9
