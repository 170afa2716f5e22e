"""Dense linear-algebra kernel: partitions, traces, eigensystems, propagators."""

import numpy as np
import pytest

from _oracles import expm_unitary, haar_state, haar_unitary, random_density, schmidt_marginals
from scramble.qdense import (
    Bipartition,
    as_complex_matrix,
    check_density_matrix,
    dagger,
    eigh,
    frobenius_sq,
    gram,
    partial_trace,
    random_hermitian,
    seeded_rng,
    unitary_family,
)


def test_bipartition_properties():
    part = Bipartition(2, 3)
    assert part.dim_a == 4
    assert part.dim_b == 8
    assert part.dim == 32
    assert part.n_qubits == 5


@pytest.mark.parametrize("n_a,n_b", [(0, 1), (1, 0), (-1, 2)])
def test_bipartition_rejects_empty_sides(n_a, n_b):
    with pytest.raises(ValueError):
        Bipartition(n_a, n_b)


def test_as_complex_matrix_rejects_vectors_and_nonfinite():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_check_density_matrix_accepts_valid():
    rho = random_density(4, seeded_rng(0))
    out = check_density_matrix(rho)
    assert out is rho or np.allclose(out, rho)


def test_check_density_matrix_rejects_nonhermitian():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = 0.1
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        check_density_matrix(rho)


def test_check_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2, dtype=complex))


def test_check_density_matrix_rejects_negative_eigenvalue():
    rho = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(rho)


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_partial_trace_matches_schmidt_marginals(n_a, n_b):
    part = Bipartition(n_a, n_b)
    psi = haar_state(part.dim, seeded_rng(42, n_a, n_b))
    rho = np.outer(psi, psi.conj())
    ref_a, ref_b = schmidt_marginals(psi, part.dim_a, part.dim_b)
    np.testing.assert_allclose(partial_trace(rho, part, "A"), ref_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, part, "B"), ref_b, atol=1e-12)


def test_partial_trace_of_product_state():
    part = Bipartition(1, 2)
    rng = seeded_rng(3)
    rho_a = random_density(2, rng)
    rho_b = random_density(4, rng)
    rho = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(rho, part, "A"), rho_a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(rho, part, "B"), rho_b, atol=1e-13)


def test_partial_trace_preserves_trace_and_rejects_bad_keep():
    part = Bipartition(2, 2)
    rho = random_density(16, seeded_rng(5))
    assert np.trace(partial_trace(rho, part, "B")) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        partial_trace(rho, part, "c")


@pytest.mark.parametrize("shape", [(3, 2, 5), (3, 4, 4), (3, 6, 3)], ids=["r<c", "r=c", "r>c"])
def test_gram_is_the_smaller_side(shape):
    rng = seeded_rng(12, *shape)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m /= np.linalg.norm(m, axis=(-2, -1), keepdims=True)
    r, c = shape[-2:]
    rows, cols = m @ dagger(m), dagger(m) @ m
    g = gram(m)
    assert g.shape == (shape[0], min(r, c), min(r, c))
    np.testing.assert_array_equal(g, rows if r <= c else cols)
    # Both sides share the Frobenius norm and the nonzero spectrum.
    np.testing.assert_allclose(frobenius_sq(rows), frobenius_sq(cols), rtol=0, atol=1e-14)
    k = min(r, c)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rows)[..., -k:], np.linalg.eigvalsh(cols)[..., -k:], rtol=0, atol=1e-14
    )


def test_eigh_reconstructs_and_sorts():
    h = random_hermitian(6, seeded_rng(11))
    evals, vecs = eigh(h)
    assert np.all(np.diff(evals) >= 0)
    np.testing.assert_allclose((vecs * evals) @ vecs.conj().T, h, atol=1e-12)
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)


def test_eigh_phase_convention_is_deterministic():
    h = random_hermitian(5, seeded_rng(13))
    _, vecs = eigh(h)
    for col in vecs.T:
        pivot = col[np.argmax(np.abs(col))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0
    _, again = eigh(h.copy())
    np.testing.assert_array_equal(vecs, again)


@pytest.mark.parametrize("t", [0.0, 0.3, 2.7, -1.1])
def test_evolve_unitary_matches_expm(t):
    h = random_hermitian(8, seeded_rng(17))
    u = unitary_family(*eigh(h))(t)
    np.testing.assert_allclose(u, expm_unitary(h, t), atol=1e-11)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_evolve_unitary_at_zero_is_identity():
    h = random_hermitian(8, seeded_rng(19))
    np.testing.assert_allclose(unitary_family(*eigh(h))(0.0), np.eye(8), atol=1e-13)


def test_evolve_unitary_group_property():
    h = random_hermitian(4, seeded_rng(23))
    u_of_t = unitary_family(*eigh(h))
    np.testing.assert_allclose(u_of_t(0.4) @ u_of_t(0.9), u_of_t(1.3), atol=1e-12)


def test_seeded_rng_branches_are_independent_and_reproducible():
    a = seeded_rng(7, 1).standard_normal(5)
    b = seeded_rng(7, 1).standard_normal(5)
    c = seeded_rng(7, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_haar_unitary_is_unitary_and_deterministic():
    u = haar_unitary(6, seeded_rng(29))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
    np.testing.assert_array_equal(u, haar_unitary(6, seeded_rng(29)))


def test_haar_state_normalized():
    psi = haar_state(8, seeded_rng(31))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_random_density_rank_control():
    rho = random_density(8, seeded_rng(37), rank=2)
    check_density_matrix(rho)
    evals = np.linalg.eigvalsh(rho)
    assert (evals > 1e-10).sum() == 2


def test_random_hermitian_is_hermitian():
    h = random_hermitian(5, seeded_rng(41))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
