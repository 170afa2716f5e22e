"""Entropies and mutual-information functionals."""

import math

import numpy as np
import pytest

from _oracles import entropy_from_probs, kron, schmidt_marginals
from scramble import entropy, scrambling
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
    random_hermitian,
    seeded_rng,
    time_chunks,
)
from scramble.scrambling import bound_report


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


def _ket_stack(part, lead, seed):
    """Haar kets as a (*lead, d_A, d_B) stack of row-major coefficient matrices."""
    rng = seeded_rng(14, seed, part.n_a, part.n_b)
    kets = [haar_state(part.dim, rng) for _ in range(int(np.prod(lead)))]
    return np.reshape(kets, lead + (part.dim_a, part.dim_b))


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 4), (2, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize("fn", [mutual_information, renyi2_mutual_information])
def test_ket_stack_matches_per_ket_values(fn, n_a, n_b):
    # 3|1 has d_A > d_B, so the stack takes the B-side Gram matrices there.
    part = Bipartition(n_a, n_b)
    stack = _ket_stack(part, (2, 3), seed=0)
    values = fn(stack, part)
    assert values.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = fn(stack[idx].reshape(-1), part)
        assert isinstance(single, float)
        assert abs(values[idx] - single) < 1e-14


@pytest.mark.parametrize("fn", [mutual_information, renyi2_mutual_information])
def test_ket_stack_names_its_first_bad_slice(fn):
    part = Bipartition(1, 2)
    stack = _ket_stack(part, (4,), seed=1)
    stack[2] *= 2.0
    with pytest.raises(ValueError, match=r"ket\[2\] squared norm 4\.\d+ differs from 1"):
        fn(stack, part)
    stack = _ket_stack(part, (4,), seed=1)
    stack[3, 1, 0] = np.inf
    with pytest.raises(ValueError, match=r"ket\[3\] has non-finite entries"):
        fn(stack, part)
    with pytest.raises(ValueError, match="does not match partition blocks"):
        fn(stack.swapaxes(-1, -2), part)


@pytest.mark.parametrize("fn", [mutual_information, renyi2_mutual_information])
def test_two_dimensional_input_is_never_a_ket(fn):
    # A pure product's coefficient matrix at 1|1 is also a valid 2x2 density
    # matrix: it is read as one, and its dimension does not fit the partition.
    coeffs = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="does not match partition"):
        fn(coeffs, Bipartition(1, 1))


@pytest.mark.parametrize("fn", [mutual_information, renyi2_mutual_information])
def test_product_ket_stack_is_positive_zero(fn):
    part = Bipartition(2, 1)
    stack = np.zeros((3, part.dim_a, part.dim_b), dtype=complex)
    stack[0, 0, 0] = stack[1, 3, 1] = 1.0
    stack[2] = np.outer([0.5, 0.5j, -0.5, 0.5], [0.6, 0.8])
    values = fn(stack, part)
    assert np.all(values == 0.0) and np.all(np.copysign(1.0, values) == 1.0)


def test_bound_report_calls_each_entropy_once_per_chunk(monkeypatch):
    part = Bipartition(1, 3)
    times = np.linspace(0.0, 2.0, 600)
    n_chunks = len(time_chunks(times.size, part.dim**2))
    assert n_chunks > 1
    calls = []
    for name in ("mutual_information", "renyi2_mutual_information"):
        def counted(state, p, fn=getattr(entropy, name), name=name):
            calls.append((name, np.shape(state)[0]))
            return fn(state, p)
        monkeypatch.setattr(scrambling, name, counted)
    initial = np.zeros((part.dim, part.dim), dtype=complex)
    initial[0, 0] = 1.0
    bound_report(random_hermitian(part.dim, seeded_rng(15)), part, initial, times)
    for name in ("mutual_information", "renyi2_mutual_information"):
        sizes = [size for fn, size in calls if fn == name]
        assert len(sizes) == n_chunks and sum(sizes) == times.size


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
