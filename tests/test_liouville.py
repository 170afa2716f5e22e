"""Liouville-space generator, information rates, and the rate bound."""

import tracemalloc

import numpy as np
import pytest

from _oracles import (
    entropy_production_rates_literal,
    expm_unitary,
    haar_unitary,
    instantaneous_basis,
    kron,
    random_density,
    richardson_derivative,
    zero_state,
)
from scramble import liouville
from scramble.entropy import mutual_information
from scramble.liouville import (
    _pair_phases,
    bound8_report,
    build_liouvillian,
    entropy_production_rates,
    mutual_information_rate,
    regularize,
)
from scramble.qdense import (
    RANK_TOL,
    Bipartition,
    dagger,
    eigh,
    partial_trace,
    random_hermitian,
    seeded_rng,
    time_chunks,
    unitary_family,
)


def test_regularize_mixes_toward_identity():
    rho = zero_state(2)
    out = regularize(rho, 1e-3)
    np.testing.assert_allclose(out, 0.999 * rho + 1e-3 * np.eye(4) / 4, atol=1e-15)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out).min() > 0


@pytest.mark.parametrize("delta", [0.0, 1.0, -1e-3, np.nan])
def test_regularize_refuses_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
        regularize(zero_state(2), delta)


def test_instantaneous_basis_diagonalizes_marginals():
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
    wa, wb = np.linalg.eigvalsh(rho_a), np.linalg.eigvalsh(rho_b)
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


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_liouvillian_equals_kron_form(dim):
    rng = seeded_rng(915, dim)
    h = random_hermitian(dim, rng)
    eye = np.eye(dim, dtype=complex)
    for basis in (None, haar_unitary(dim, rng)):
        h_rot = h if basis is None else basis.conj().T @ h @ basis
        kron_form = -1j * (np.kron(h_rot, eye) - np.kron(eye, h_rot.T))
        assert np.array_equal(build_liouvillian(h, basis), kron_form)


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
    u0 = unitary_family(*eigh(h))(t0)
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


@pytest.mark.parametrize("c", [1.0, 1e6, 1e8])
def test_mutual_information_rate_refuses_an_imaginary_residue_relative_to_h(monkeypatch, c):
    # I_dot = i (tr_A + tr_B), so a real part of either trace is an imaginary
    # residue of I_dot. One of 1e-6 max|H| is refused at every scale of H.
    part = Bipartition(1, 2)
    h = c * random_hermitian(8, seeded_rng(910))
    rho = random_density(8, seeded_rng(911))
    scale = np.abs(h).max()
    assert abs(mutual_information_rate(h, rho, part)) > 0.0
    trace_product = liouville._trace_product
    monkeypatch.setattr(liouville, "_trace_product",
                        lambda a, b: trace_product(a, b) + 0.5e-6 * scale)
    with pytest.raises(ValueError, match="imaginary residue"):
        mutual_information_rate(h, rho, part)


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


def _assert_rates_match_oracle(h, rho, part):
    got = entropy_production_rates(h, rho, part)
    want = entropy_production_rates_literal(h, rho, part)
    assert set(got) == set(want)
    for key, ref in want.items():
        assert abs(got[key] - ref) <= 1e-13 * max(1.0, abs(ref)), key


def _one_hop(diagonal, hop):
    h = np.diag(diagonal).astype(complex)
    h[0, -1] = hop
    h[-1, 0] = np.conj(hop)
    return h


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_entropy_production_rates_matches_dense_oracle(n_a, n_b):
    part = Bipartition(n_a, n_b)
    d = part.dim
    rng = seeded_rng(916, n_a, n_b)
    # Diagonal in the product basis plus one hopping term: in the product
    # start's eigenbasis most of W's support falls below the pair cutoff.
    # With a purely imaginary hop, W/W^T = -1 on the hop's pairs there: the
    # principal log sits on the branch cut, and |Im log| = pi either side.
    diagonal = rng.normal(size=d)
    states = (random_density(d, rng), regularize(zero_state(n_a + n_b)))
    for h in (random_hermitian(d, rng), _one_hop(diagonal, 0.3 + 0.2j), _one_hop(diagonal, 0.5j)):
        for rho in states:
            _assert_rates_match_oracle(h, rho, part)


def test_entropy_production_rates_matches_dense_oracle_at_2_3():
    # One case at d = 32, where the oracle's d^4 sums take about 0.5 s.
    part = Bipartition(2, 3)
    rng = seeded_rng(916, 2, 3)
    _assert_rates_match_oracle(random_hermitian(part.dim, rng), regularize(zero_state(5)), part)


def _support_tables(h):
    """W's same-column and same-row (d, d) tables, as entropy_production_rates reads them."""
    d = h.shape[0]
    w = build_liouvillian(h).reshape(d, d, d, d)
    return w[:, 0, :, 0], w[0, :, 0, :]


def test_liouvillian_support_blocks_repeat_one_table():
    # The rate sums read only the c = 0 table of W's same-column block
    # [r, r', c]. Off the r = r' (c = c') diagonal, every slice of that block
    # and of the same-row block [c, c', r] must be the block's 0-slice bit for
    # bit, and the same-row table exactly minus the same-column one's transpose.
    rng = seeded_rng(919)
    d = 8
    h = random_hermitian(d, rng)
    bases = np.stack([np.kron(haar_unitary(2, rng), haar_unitary(4, rng)),
                      np.kron(haar_unitary(4, rng), haar_unitary(2, rng))])
    w = build_liouvillian(h, bases).reshape(2, d, d, d, d)
    off = ~np.eye(d, dtype=bool)
    same_c = w.diagonal(axis1=-3, axis2=-1)
    same_r = w.diagonal(axis1=-4, axis2=-2)
    for k in range(d):
        assert np.array_equal(same_c[:, off, k], same_c[:, off, 0]), k
        assert np.array_equal(same_r[:, off, k], same_r[:, off, 0]), k
    same_c_table, same_r_table = same_c[..., 0], same_r[..., 0]
    assert np.array_equal(same_r_table[:, off], -same_c_table.swapaxes(-1, -2)[:, off])


def test_refilled_liouvillian_equals_a_fresh_one():
    # entropy_production_rates refills one W buffer per sub-stack. Over a
    # buffer holding another basis's W, the refill must give W bit for bit,
    # also on the same-row block and the r = r', c = c' overlap, which the
    # rate sums never read.
    rng = seeded_rng(920)
    d = 8
    h = random_hermitian(d, rng)
    bases = np.stack([np.kron(haar_unitary(2, rng), haar_unitary(4, rng)),
                      np.kron(haar_unitary(4, rng), haar_unitary(2, rng))])
    buffer = build_liouvillian(h, bases[::-1]).reshape(2, d, d, d, d)
    liouville._fill_liouvillian(buffer, dagger(bases) @ h @ bases)
    assert np.array_equal(buffer.reshape(2, d * d, d * d), build_liouvillian(h, bases))


def test_pair_phases_are_the_principal_log_of_w_pairs():
    # W is skew-Hermitian, so W/W^T is a pure phase: the kernel's |arg(-W^2)|
    # must be |log(W/W^T)| on the principal branch, whose real part is
    # round-off. H' = B^dag H B is made exactly Hermitian, so the kernel and
    # the ratio see the same pair; B^dag H B alone is Hermitian only to
    # round-off, which moves the two sides apart by ~1e-15 (3e-15 at d = 16).
    part = Bipartition(1, 2)
    rng = seeded_rng(918)
    basis = np.kron(haar_unitary(2, rng), haar_unitary(4, rng))
    h_rot = basis.conj().T @ random_hermitian(part.dim, rng) @ basis
    keep = ~np.eye(part.dim, dtype=bool)
    for table in _support_tables((h_rot + h_rot.conj().T) / 2):
        mag, phase = _pair_phases(table)
        safe = np.where(keep, table, 1.0)  # the m = m' diagonal may hold 0/0
        ref = np.log(safe / safe.swapaxes(0, 1))
        np.testing.assert_array_equal(mag, np.where(keep, np.abs(table), 0.0))
        np.testing.assert_allclose(ref.real[keep], 0.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(phase, np.where(keep, np.abs(ref.imag), 0.0),
                                   rtol=0, atol=1e-15)


def test_pair_phases_give_pi_at_the_cut_and_skip_sub_cutoff_pairs():
    # A purely imaginary H' hop makes its W pair real: W/W^T = -1, the cut of
    # the principal log, where both entries must give pi. A pair with one
    # entry at or below the cutoff is left out in both orders, also when the
    # other entry, Hermitian only to within tolerance, lies above it.
    h = np.diag([0.3, -0.1, 0.7, 0.2]).astype(complex)
    h[0, 2], h[2, 0] = 0.5j, -0.5j
    h[1, 3], h[3, 1] = 1e-13, 2e-12
    same_c, same_r = _support_tables(h)
    mag, phase = _pair_phases(same_c)
    assert (phase[0, 2] == np.pi).all() and (phase[2, 0] == np.pi).all()
    assert (mag[0, 2] == 0.5).all() and (mag[2, 0] == 0.5).all()
    assert not mag[1, 3].any() and not mag[3, 1].any()
    assert not phase[1, 3].any() and not phase[3, 1].any()
    mag, phase = _pair_phases(same_r)
    assert (phase[0, 2] == np.pi).all() and (phase[2, 0] == np.pi).all()
    assert not mag[1, 3].any() and not mag[3, 1].any()


def test_entropy_production_rates_builds_one_w_per_call(monkeypatch):
    # At 2|3 W holds one state per sub-stack: five states give five
    # sub-stacks, and only the first builds W; the rest refill it in place.
    part = Bipartition(2, 3)
    rng = seeded_rng(921)
    h = random_hermitian(part.dim, rng)
    stack = np.stack([random_density(part.dim, rng) for _ in range(5)])
    calls = []

    def counted(*args):
        calls.append(args)
        return build_liouvillian(*args)

    monkeypatch.setattr(liouville, "build_liouvillian", counted)
    entropy_production_rates(h, stack, part)
    assert len(calls) == 1


@pytest.mark.parametrize("n_a, n_b, states, sub_stacks", [(2, 3, 5, 5), (1, 2, 100, 25)])
def test_entropy_production_rates_takes_pair_sums_once_per_call(
        monkeypatch, n_a, n_b, states, sub_stacks):
    # W's sub-stacks only gather their same-column tables; the pair phases
    # and sums run once over the whole stack of them.
    part = Bipartition(n_a, n_b)
    assert len(time_chunks(states, part.dim**4)) == sub_stacks
    rng = seeded_rng(923)
    h = random_hermitian(part.dim, rng)
    stack = np.stack([random_density(part.dim, rng) for _ in range(states)])
    shapes = []

    def counted(table):
        shapes.append(table.shape)
        return _pair_phases(table)

    monkeypatch.setattr(liouville, "_pair_phases", counted)
    entropy_production_rates(h, stack, part)
    assert shapes == [(states, part.dim, part.dim)]


def test_entropy_production_rates_peak_memory_stays_near_w():
    # W at 2|3 is (32^2)^2 complex entries, 16 MiB; the rate sums need only
    # its d^3 support blocks on top of it. A stack reuses one W, refilled in
    # place for each state, so five states peak like one.
    part = Bipartition(2, 3)
    rng = seeded_rng(917)
    h = random_hermitian(part.dim, rng)
    one = random_density(part.dim, rng)
    stack = np.stack([one] + [random_density(part.dim, rng) for _ in range(4)])
    w_bytes = part.dim**4 * 16
    for rho in (one, stack):
        tracemalloc.start()
        try:
            entropy_production_rates(h, rho, part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w_bytes, f"{rho.shape}: peak {peak / 2**20:.1f} MiB"


def test_exchange_channel_is_exactly_zero_for_a_real_generator():
    # H is diagonal plus one real hop, so it stays real in the product
    # eigenbasis of the regularized |000>: every pair has W/W^T = 1 and the
    # exchange term vanishes. The m = m' pairs once left log(x/x) ~ 1e-16
    # behind, which made SdotE ~ 1e-15 and coeffC a ratio of round-off (177).
    part = Bipartition(2, 1)
    h = np.diag(0.37 * np.arange(part.dim)).astype(complex)
    h[1, 2] = h[2, 1] = 0.5
    rho = regularize(zero_state(3))
    rates = entropy_production_rates(h, rho, part)
    assert rates["SdotE"] == 0.0
    assert rates["coeffC"] == 0.0
    want = entropy_production_rates_literal(h, rho, part)
    for key, ref in want.items():
        assert abs(rates[key] - ref) <= 1e-13 * max(1.0, abs(ref)), key


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
    rep = bound8_report(h, part, zero_state(2), times)
    np.testing.assert_array_equal(rep["t"], times)
    k = 3
    u = unitary_family(*eigh(h))(times[k])
    rates = entropy_production_rates(h, u @ initial @ u.conj().T, part)
    assert set(rep) == {"t", "I", "I2", "Obar", "deltaO", "slack9"} | set(rates)
    assert rep["Idot"][k] == pytest.approx(rates["Idot"], abs=1e-10)
    assert rep["SdotA"][k] == pytest.approx(rates["SdotA"], rel=1e-9)
    assert rep["SdotB"][k] == pytest.approx(rates["SdotB"], rel=1e-9)
    assert rep["SdotE"][k] == pytest.approx(rates["SdotE"], rel=1e-9)
    assert rep["slack8"][k] == pytest.approx(rates["slack8"], rel=1e-9)


def test_bound8_report_forms_each_u_chunk_once(monkeypatch):
    # Both channel sets read one U(t) per chunk of the grid: d = 16 cuts 150
    # times into chunks of 64.
    family = liouville.unitary_family
    sizes = []

    def recorded(evals, vecs):
        u_of_t = family(evals, vecs)

        def chunk(t):
            sizes.append(len(t))
            return u_of_t(t)

        return chunk

    monkeypatch.setattr(liouville, "unitary_family", recorded)
    part = Bipartition(1, 3)
    h = random_hermitian(part.dim, seeded_rng(915))
    bound8_report(h, part, zero_state(4), np.linspace(0.0, 4.0, 150))
    assert sizes == [64, 64, 22]


def test_bound8_report_requires_full_rank_start():
    part = Bipartition(1, 1)
    h = random_hermitian(4, seeded_rng(913))
    # The regularized start's marginals have smallest eigenvalue delta / 2.
    with pytest.raises(ValueError, match="regularize"):
        bound8_report(h, part, zero_state(2), np.linspace(0.0, 1.0, 3), RANK_TOL)


def test_bound8_report_no_violations_on_frozen_instance():
    part = Bipartition(1, 2)
    h = random_hermitian(8, seeded_rng(914))
    rep = bound8_report(h, part, zero_state(3), np.linspace(0.0, 4.0, 21))
    assert np.all(rep["slack8"] > 0.0)


def _rates_with_phased_eigenvectors(n_a, n_b):
    """The channels before and after multiplying the columns of V_A and V_B by random phases."""
    part = Bipartition(n_a, n_b)
    rng = seeded_rng(5)
    rho = random_density(part.dim, rng)
    h = random_hermitian(part.dim, rng)
    phase_a = np.exp(2j * np.pi * rng.random(part.dim_a))
    phase_b = np.exp(2j * np.pi * rng.random(part.dim_b))
    marginals = liouville._full_rank_marginals

    def phased(rho_s, part):
        wa, va, wb, vb = marginals(rho_s, part)
        return wa, va * phase_a, wb, vb * phase_b

    before = entropy_production_rates(h, rho, part)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liouville, "_full_rank_marginals", phased)
        return before, entropy_production_rates(h, rho, part)


def test_rate_channels_without_pair_phases_ignore_eigenvector_phases():
    for n_a, n_b in ((1, 1), (1, 2)):
        before, after = _rates_with_phased_eigenvectors(n_a, n_b)
        for key in ("Idot", "coeffA", "coeffB"):
            assert after[key] == pytest.approx(before[key], rel=1e-12, abs=1e-12), key


def test_rate_channels_ignore_the_order_of_the_marginal_eigenpairs():
    # Every rate sum runs over all ordered pairs of marginal eigenstates, so
    # numbering them differently moves only the order of summation.
    for n_a, n_b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        part = Bipartition(n_a, n_b)
        rng = seeded_rng(16)  # a seed at which no permutation is the identity
        rho = random_density(part.dim, rng)
        h = random_hermitian(part.dim, rng)
        perm_a = rng.permutation(part.dim_a)
        perm_b = rng.permutation(part.dim_b)
        assert (perm_a != np.arange(part.dim_a)).any() and (perm_b != np.arange(part.dim_b)).any()
        marginals = liouville._full_rank_marginals

        def permuted(rho_s, part):
            wa, va, wb, vb = marginals(rho_s, part)
            return wa[..., perm_a], va[..., perm_a], wb[..., perm_b], vb[..., perm_b]

        before = entropy_production_rates(h, rho, part)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(liouville, "_full_rank_marginals", permuted)
            after = entropy_production_rates(h, rho, part)
        assert after.keys() == before.keys() and len(before) == 9
        for key in before:
            assert after[key] == pytest.approx(before[key], rel=1e-12), (n_a, n_b, key)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the pair phase |arg(-W^2)| = |arg H'[r, r']^2| depends on the phases of the "
    "marginal eigenvectors, so SdotA, SdotB, SdotE and slack8 move with them"))
def test_rate_channels_ignore_eigenvector_phases():
    # At seed 5, 1|1: SdotA 79.5 -> 54.5, SdotE 155 -> 98, slack8 2.07e4 -> 1.34e4.
    for n_a, n_b in ((1, 1), (1, 2)):
        before, after = _rates_with_phased_eigenvectors(n_a, n_b)
        for key in ("SdotA", "SdotB", "SdotE", "bound_rhs", "slack8"):
            assert after[key] == pytest.approx(before[key], rel=1e-9), (n_a, n_b, key)
