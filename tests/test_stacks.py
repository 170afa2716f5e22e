"""A time grid as a leading stack axis: every stacked call agrees with per-slice calls."""

import numpy as np
import pytest

from _oracles import haar_unitary, instantaneous_basis, random_density, zero_state
from scramble import qdense
from scramble.liouville import (
    bound8_report,
    build_liouvillian,
    entropy_production_rates,
    mutual_information_rate,
    regularize,
)
from scramble.models import CircuitSpec, Gate, realize_circuit, scrambler_preset
from scramble.qdense import (
    Bipartition,
    check_density_matrix,
    check_hermitian,
    eigh,
    partial_trace,
    random_hermitian,
    seeded_rng,
    unitary_family,
)
from scramble.scrambling import averaged_otoc, bound_report, modified_otoc

TOL = 1e-14
TIMES = np.linspace(0.0, 1.3, 6)


def _close(stacked, slices):
    np.testing.assert_allclose(stacked, np.stack(slices), rtol=0, atol=TOL)


def test_qdense_stacks_match_slices():
    part = Bipartition(1, 2)
    rng = seeded_rng(1300)
    rhos = np.stack([random_density(part.dim, rng) for _ in range(4)])
    hs = np.stack([random_hermitian(part.dim, rng) for _ in range(4)])
    np.testing.assert_array_equal(check_density_matrix(rhos), rhos)
    np.testing.assert_array_equal(check_hermitian(hs), hs)
    for keep in ("A", "B"):
        _close(partial_trace(rhos, part, keep), [partial_trace(r, part, keep) for r in rhos])
    evals, vecs = eigh(hs)
    _close(evals, [eigh(h)[0] for h in hs])
    _close(vecs, [eigh(h)[1] for h in hs])


def test_unitary_family_broadcasts_over_times():
    h = random_hermitian(8, seeded_rng(1301))
    u_of_t = unitary_family(*eigh(h))
    stack = u_of_t(TIMES)
    assert stack.shape == (TIMES.size, 8, 8)
    _close(stack, [u_of_t(t) for t in TIMES])


def test_realize_circuit_broadcasts_over_times():
    rng = seeded_rng(1302)
    mixed = CircuitSpec(3, [
        Gate("RX", (2,), angle=0.4),
        Gate("CNOT", (2, 0)),
        Gate("RZZ", (1, 2), angle=-1.3),
        Gate("CUSTOM", (0, 2), matrix=haar_unitary(4, rng)),
        Gate("S", (1,)),
    ])
    for spec in (scrambler_preset(), mixed):
        stack = realize_circuit(spec, TIMES)
        assert stack.shape == (TIMES.size, 8, 8)
        _close(stack, [realize_circuit(spec, t) for t in TIMES])
    with pytest.raises(ValueError, match="1-D array"):
        realize_circuit(mixed, np.zeros((2, 2)))


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 1)])
def test_otoc_stacks_match_slices(n_a, n_b):
    part = Bipartition(n_a, n_b)
    rng = seeded_rng(1303, n_a, n_b)
    us = np.stack([haar_unitary(part.dim, rng) for _ in range(4)])
    stacked = averaged_otoc(part, us)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (4,)
    assert all(isinstance(averaged_otoc(part, u), float) for u in us)
    _close(stacked, [averaged_otoc(part, u) for u in us])
    if n_a == 1:
        stacked = modified_otoc(part, us)
        assert isinstance(modified_otoc(part, us[0]), float)
        _close(stacked, [modified_otoc(part, u) for u in us])


def test_rate_stacks_match_slices():
    part = Bipartition(1, 2)
    rng = seeded_rng(1304)
    h = random_hermitian(part.dim, rng)
    rhos = np.stack([random_density(part.dim, rng) for _ in range(3)]
                    + [regularize(zero_state(3))])
    _close(mutual_information_rate(h, rhos, part),
           [mutual_information_rate(h, r, part) for r in rhos])
    bases = np.stack([instantaneous_basis(r, part) for r in rhos])
    _close(build_liouvillian(h, bases), [build_liouvillian(h, b) for b in bases])
    assert all(isinstance(v, float) for v in entropy_production_rates(h, rhos[0], part).values())
    _assert_rates_match_slices(h, rhos, part)


def _assert_rates_match_slices(h, rhos, part):
    stacked = entropy_production_rates(h, rhos, part)
    flat = rhos.reshape((-1, part.dim, part.dim))
    slices = [entropy_production_rates(h, r, part) for r in flat]
    for key, values in stacked.items():
        assert values.shape == rhos.shape[:-2]
        want = np.reshape([s[key] for s in slices], values.shape)
        scale = max(1.0, np.abs(values).max())
        np.testing.assert_allclose(values / scale, want / scale, rtol=0, atol=TOL, err_msg=key)


@pytest.mark.parametrize("n_a,n_b,shape", [(1, 2, (10,)), (2, 2, (2, 3))],
                         ids=["1|2-three-sub-chunks", "2|2-one-state-per-sub-chunk"])
def test_rate_stacks_spanning_several_w_sub_chunks_match_slices(n_a, n_b, shape):
    # W holds d^4 entries per state: 4096 at 1|2, so the default budget of
    # 2^14 entries takes 4 states per sub-chunk; 65536 at 2|2, so one.
    part = Bipartition(n_a, n_b)
    rng = seeded_rng(1306, n_a, n_b)
    h = random_hermitian(part.dim, rng)
    rhos = np.stack([random_density(part.dim, rng) for _ in range(int(np.prod(shape)))])
    _assert_rates_match_slices(h, rhos.reshape(shape + (part.dim, part.dim)), part)


def _non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.1
    return rho


@pytest.mark.parametrize("bad,needle", [
    (_non_hermitian(), "not Hermitian"),
    (np.eye(4, dtype=complex) / 2, r"rho\[2\] trace"),
    (np.diag([0.6, 0.6, 0.1, -0.3]).astype(complex), r"rho\[2\] not positive semidefinite"),
], ids=["non_hermitian", "trace_2", "negative_eigenvalue"])
def test_check_density_matrix_rejects_one_bad_slice(bad, needle):
    stack = np.stack([np.eye(4, dtype=complex) / 4] * 4)
    stack[2] = bad
    with pytest.raises(ValueError, match=needle):
        check_density_matrix(stack)


def test_bound_report_refuses_a_callable_without_a_stack():
    part = Bipartition(1, 1)
    with pytest.raises(ValueError, match=r"expected \(3, 4, 4\)"):
        bound_report(lambda t: np.eye(4), part, zero_state(2), np.linspace(0.0, 1.0, 3))


def _tables(part):
    rng = seeded_rng(1305)
    h = random_hermitian(part.dim, rng)
    times = np.linspace(0.0, 3.0, 23)
    start = zero_state(part.n_qubits)
    spec = scrambler_preset()
    return {
        "hamiltonian": bound_report(h, part, start, times, include_modified=True),
        "circuit": bound_report(lambda t: realize_circuit(spec, t), part, start, np.linspace(0.0, 1.0, 23)),
        "bound8": bound8_report(h, part, start, times),
    }


RATE_CHANNELS = ("Idot", "SdotA", "SdotB", "SdotE", "coeffA", "coeffB", "coeffC",
                 "bound_rhs", "slack8")


@pytest.mark.parametrize("entries", [1, 1 << 40], ids=["one-sample", "whole-grid"])
def test_chunk_size_leaves_tables_unchanged(monkeypatch, entries):
    # The bound8 rate channels are per-sample arithmetic on the same rho(t)
    # whatever the chunking, so they must agree bit for bit.
    part = Bipartition(1, 2)
    default = _tables(part)
    monkeypatch.setattr(qdense, "_STACK_ENTRIES", entries)
    for name, table in _tables(part).items():
        for key, values in table.items():
            want = default[name][key]
            if name == "bound8" and key in RATE_CHANNELS:
                assert np.array_equal(values, want), f"{name}.{key}"
            scale = max(1.0, np.abs(want).max())
            np.testing.assert_allclose(values / scale, want / scale, rtol=0, atol=TOL,
                                       err_msg=f"{name}.{key}")
