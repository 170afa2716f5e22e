"""Disorder models, the Ising chain and circuit construction."""

import errno
import json
import math
import os
import signal
import sys
from functools import reduce

import numpy as np
import pytest

from _oracles import (
    apply_gate_to_state,
    expm_unitary,
    haar_state,
    jordan_wigner_majorana,
    kron_chain,
    syk_hamiltonian_literal,
    zero_state,
)
from scramble import models, qdense
from scramble.cli import parse_circuit_json
from scramble.models import (
    CircuitSpec,
    Gate,
    SykConfig,
    average_reports,
    build_syk_hamiltonian,
    entangler2_preset,
    ising_chain,
    realize_circuit,
    scrambler_preset,
    syk_couplings,
    syk_trajectory,
)
from scramble.qdense import Bipartition, partial_trace, seeded_rng


# --- Jordan-Wigner Majoranas (the oracle the SYK build is checked against) ---


def test_majorana_normalization_and_hermiticity():
    n_qubits = 3
    for i in range(1, 7):
        psi = jordan_wigner_majorana(i, n_qubits)
        np.testing.assert_allclose(psi, psi.conj().T, atol=1e-14)
        np.testing.assert_allclose(psi @ psi, np.eye(8) / 2, atol=1e-14)


def test_majorana_anticommutation_exhaustive_small():
    n_qubits = 3
    psis = [jordan_wigner_majorana(i, n_qubits) for i in range(1, 7)]
    for a in range(6):
        for b in range(a + 1, 6):
            anti = psis[a] @ psis[b] + psis[b] @ psis[a]
            assert np.abs(anti).max() < 1e-14


def test_majorana_index_out_of_range():
    with pytest.raises(ValueError, match="range"):
        jordan_wigner_majorana(0, 2)
    with pytest.raises(ValueError, match="range"):
        jordan_wigner_majorana(5, 2)


def test_majorana_explicit_strings():
    np.testing.assert_allclose(
        jordan_wigner_majorana(1, 2), kron_chain("XI") / np.sqrt(2), atol=1e-14
    )
    np.testing.assert_allclose(
        jordan_wigner_majorana(4, 2), kron_chain("ZY") / np.sqrt(2), atol=1e-14
    )


# --- SYK ensemble ------------------------------------------------------------


SYK_TIMES = np.linspace(0.0, 1.0, 5)


def syk_config(**overrides):
    base = dict(n_majorana=6, q=4, j_squared=2.0, seed=3, realizations=2)
    base.update(overrides)
    return SykConfig(**base)


@pytest.mark.parametrize(
    "overrides,match",
    [
        (dict(n_majorana=9), "even"),
        (dict(n_majorana=2), "even"),
        (dict(q=3), "q: must be even"),
        (dict(q=8), "q: must be even"),
        (dict(j_squared=0.0), "positive"),
        (dict(realizations=0), "realizations"),
        (dict(j_squared=1.7e308), "j_squared: the coupling variance"),
        (dict(n_majorana=400, q=200), "j_squared: the coupling variance"),
    ],
)
def test_syk_config_validation(overrides, match):
    with pytest.raises(ValueError, match=match):
        syk_config(**overrides)


def test_syk_config_derived_quantities():
    cfg = SykConfig(n_majorana=10, q=4, j_squared=2.0, seed=0, realizations=1)
    assert cfg.n_qubits == 5
    assert cfg.term_count == math.comb(10, 4) == 210
    assert cfg.coupling_variance == pytest.approx(2.0 * 6 / 10**3)


def test_syk_couplings_deterministic_per_realization():
    cfg = syk_config()
    a = syk_couplings(cfg, 0)
    assert a.shape == (cfg.term_count,)
    np.testing.assert_array_equal(a, syk_couplings(cfg, 0))
    assert not np.allclose(a, syk_couplings(cfg, 1))
    with pytest.raises(ValueError):
        syk_couplings(cfg, -1)


def test_syk_couplings_variance_sanity():
    cfg = syk_config(n_majorana=10)
    draws = np.concatenate([syk_couplings(cfg, k) for k in range(48)])
    var = draws.var()
    se = cfg.coupling_variance * math.sqrt(2.0 / (draws.size - 1))
    assert abs(var - cfg.coupling_variance) < 5 * se


def test_syk_hamiltonian_structure():
    cfg = syk_config()
    h = build_syk_hamiltonian(cfg, 0)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    assert abs(np.trace(h)) < 1e-12
    parity = reduce(np.kron, [np.diag([1.0, -1.0]).astype(complex)] * cfg.n_qubits)
    np.testing.assert_allclose(h @ parity, parity @ h, atol=1e-12)
    np.testing.assert_array_equal(h, build_syk_hamiltonian(cfg, 0))


@pytest.mark.parametrize(
    "n_majorana,q", [(n, q) for n in range(4, 16, 2) for q in (4, 6) if q <= n]
)
def test_syk_hamiltonian_matches_majorana_oracle(n_majorana, q):
    cfg = syk_config(n_majorana=n_majorana, q=q)
    literal = syk_hamiltonian_literal(n_majorana, q, syk_couplings(cfg, 1))
    np.testing.assert_allclose(build_syk_hamiltonian(cfg, 1), literal, rtol=0, atol=1e-14)


def test_syk_hamiltonian_structure_at_n20():
    # 10 qubits and 4845 terms: too many dense products for the oracle, so check structure.
    cfg = syk_config(n_majorana=20)
    h = build_syk_hamiltonian(cfg, 0)
    assert np.array_equal(h, h.conj().T)
    assert abs(np.trace(h)) < 1e-12
    parity = (-1.0) ** np.array([bin(j).count("1") for j in range(2**cfg.n_qubits)])
    assert np.array_equal(h * parity, parity[:, None] * h)
    assert np.array_equal(h, build_syk_hamiltonian(cfg, 0))


@pytest.mark.parametrize("chunk_entries", [1, 7 * 32, 100 * 32])
def test_syk_hamiltonian_is_bitwise_independent_of_chunking(monkeypatch, chunk_entries):
    # N = 10 is 32 basis states and 210 terms: one chunk by default, and 210,
    # 30 (7 terms each) or 3 (the last one short) chunks here.
    cfg = syk_config(n_majorana=10)
    whole = build_syk_hamiltonian(cfg, 2)
    monkeypatch.setattr(qdense, "_STACK_ENTRIES", chunk_entries)
    assert build_syk_hamiltonian(cfg, 2).tobytes() == whole.tobytes()


def test_syk_hamiltonian_in_two_default_chunks_equals_one_chunk(monkeypatch):
    # N = 12 is 64 basis states and 495 terms: two chunks (256 and 239 terms)
    # at the default budget, one chunk here.
    cfg = syk_config(n_majorana=12)
    assert len(qdense.time_chunks(cfg.term_count, 2**cfg.n_qubits)) == 2
    chunked = build_syk_hamiltonian(cfg, 2)
    monkeypatch.setattr(qdense, "_STACK_ENTRIES", cfg.term_count * 2**cfg.n_qubits)
    assert build_syk_hamiltonian(cfg, 2).tobytes() == chunked.tobytes()


# --- Transverse-field Ising chain ---


def _ising_kron_form(n_qubits, j, hx):
    """Sum of dense Pauli-string products: the ZZ bonds in chain order, then the X fields."""
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for i in range(n_qubits - 1):
        h += j * kron_chain("I" * i + "ZZ" + "I" * (n_qubits - i - 2))
    for i in range(n_qubits):
        h += hx * kron_chain("I" * i + "X" + "I" * (n_qubits - i - 1))
    return h


@pytest.mark.parametrize("n_qubits", range(2, 9))
@pytest.mark.parametrize("j,hx", [(1.0, 0.7), (0.9, 0.6)])
def test_ising_chain_matches_kron_form(n_qubits, j, hx):
    assert ising_chain(n_qubits, j, hx).tobytes() == _ising_kron_form(n_qubits, j, hx).tobytes()


def test_ising_chain_is_bitwise_independent_of_chunking(monkeypatch):
    # 5 qubits: 9 terms in one chunk by default, one term per chunk here.
    whole = ising_chain(5, 0.9, 0.6)
    monkeypatch.setattr(qdense, "_STACK_ENTRIES", 1)
    assert ising_chain(5, 0.9, 0.6).tobytes() == whole.tobytes()


def test_syk_term_monomials_are_orthogonal():
    # Distinct Majorana monomials are distinct Pauli strings up to phase.
    psis = [jordan_wigner_majorana(i, 3) for i in range(1, 7)]

    def term(combo):
        out = psis[combo[0]]
        for c in combo[1:]:
            out = out @ psis[c]
        return out

    t1, t2 = term((0, 1, 2, 3)), term((0, 1, 2, 4))
    assert abs(np.trace(t1.conj().T @ t2)) < 1e-13
    assert abs(np.trace(t1.conj().T @ t1)) > 0.1


# --- Gates and circuits ------------------------------------------------------


def test_gate_realized_matches_exponentials():
    # Every angled row, at one angle and over a stack of times whose angles
    # are 0, negative and beyond 2 pi.
    generators = {"RX": "X", "RZZ": "ZZ"}
    assert {name for name, row in models._GATES.items() if row[2]} == set(generators)
    theta, times = 0.83, np.array([0.0, -1.5, 1.0, 9.0])
    for name, pauli in generators.items():
        gate = Gate(name, tuple(range(len(pauli))), angle=theta)
        np.testing.assert_allclose(gate.realized(), expm_unitary(kron_chain(pauli) / 2, theta),
                                   atol=1e-12)
        stack = gate.realized(times)
        assert stack.shape == (times.size,) + (2 ** len(pauli),) * 2
        for t, m in zip(times, stack):
            np.testing.assert_allclose(m, expm_unitary(kron_chain(pauli) / 2, theta * t),
                                       atol=1e-12)
    h = Gate("H", (0,)).realized()
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-14)


@pytest.mark.parametrize(
    "gate,match",
    [
        (Gate("Q", (0,)), "unknown gate"),
        (Gate("H", (0, 1)), "takes 1 target"),
        (Gate("RZZ", (1, 1), angle=0.3), "repeated"),
        (Gate("RX", (5,), angle=0.3), "out of range"),
        (Gate("RZZ", (0, 1)), "requires an angle"),
        (Gate("H", (0,), angle=0.3), "takes no angle"),
        (Gate("CUSTOM", (0, 1)), "4x4"),
        (Gate("CUSTOM", (0, 1), matrix=np.eye(4) * 2), "unitary"),
        (Gate("H", (0,), matrix=np.eye(2)), "only CUSTOM"),
        (Gate("RX", (0,), angle=math.nan), r"gates\[0\].angle: not a finite"),
        (Gate("CUSTOM", (0, 1), matrix=np.full((4, 4), np.inf)), r"gates\[0\].matrix: non-finite"),
        # A library caller meets the checks a gate-list file does: a float
        # target reached numpy's TypeError in realize_circuit, and True
        # acted on qubit 1.
        pytest.param(Gate("H", (0.0,)), r"^gates\[0\]\.targets: expected a list of qubit indices$",
                     id="float-target"),
        pytest.param(Gate("X", (True,)), r"^gates\[0\]\.targets: expected a list of qubit indices$",
                     id="bool-target"),
        pytest.param(Gate("H", 0), r"^gates\[0\]\.targets: expected a list of qubit indices$",
                     id="scalar-targets"),
        pytest.param(Gate("RX", (0,), angle="1"), r"^gates\[0\]\.angle: not a finite number$",
                     id="string-angle"),
        pytest.param(Gate("RX", (0,), angle=True), r"^gates\[0\]\.angle: not a finite number$",
                     id="bool-angle"),
        pytest.param(Gate("CUSTOM", (0, 1), matrix=[[1, 0], [0]]), r"^gates\[0\]\.matrix: CUSTOM",
                     id="ragged-matrix"),
    ],
)
def test_gate_validation_errors(gate, match):
    with pytest.raises(ValueError, match=match):
        CircuitSpec(3, [gate])


@pytest.mark.parametrize("n_qubits,match", [
    (2.0, r"^n_qubits: expected an integer$"),  # validated, then failed in realize_circuit
    (True, r"^n_qubits: expected an integer$"),  # was a one-qubit register
], ids=["float", "bool"])
def test_circuit_register_size_errors(n_qubits, match):
    with pytest.raises(ValueError, match=match):
        CircuitSpec(n_qubits, [])


def test_gates_take_numpy_integers_and_nested_list_matrices():
    # Python and numpy integers are both qubit indices, and a CUSTOM matrix
    # given as nested lists realizes bitwise as the array it lists.
    u = np.linalg.qr(haar_state(16, np.random.default_rng(4)).reshape(4, 4))[0]
    times = np.array([0.0, 0.3, 1.0])
    as_array = CircuitSpec(3, [Gate("RX", (2,), angle=0.4), Gate("CUSTOM", (0, 2), matrix=u)])
    as_lists = CircuitSpec(3, [Gate("RX", (np.int64(2),), angle=np.float64(0.4)),
                               Gate("CUSTOM", (np.int32(0), 2), matrix=u.tolist())])
    assert realize_circuit(as_lists, times).tobytes() == realize_circuit(as_array, times).tobytes()


def test_circuit_spec_is_frozen_with_tuple_gates():
    spec = CircuitSpec(2, [Gate("H", (0,))])
    assert spec.gates == (Gate("H", (0,)),)
    with pytest.raises(AttributeError):
        spec.n_qubits = 3


def test_embed_gate_single_qubit_positions():
    g = Gate("RX", (0,), angle=0.7).realized()
    for pos in range(3):
        factors = [np.eye(2, dtype=complex)] * 3
        factors[pos] = g
        u = realize_circuit(CircuitSpec(3, [Gate("RX", (pos,), angle=0.7)]))
        np.testing.assert_allclose(u, reduce(np.kron, factors), atol=1e-13)


def cnot_oracle(control: int, target: int, n: int) -> np.ndarray:
    d = 2**n
    u = np.zeros((d, d), dtype=complex)
    for col in range(d):
        bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control]:
            bits[target] ^= 1
        row = sum(b << (n - 1 - k) for k, b in enumerate(bits))
        u[row, col] = 1.0
    return u


@pytest.mark.parametrize("targets", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2)])
def test_embed_gate_two_qubit_ordering(targets):
    np.testing.assert_allclose(
        realize_circuit(CircuitSpec(3, [Gate("CNOT", targets)])),
        cnot_oracle(targets[0], targets[1], 3),
        atol=1e-13,
    )


def test_realize_circuit_bell_state():
    spec = CircuitSpec(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))])
    u = realize_circuit(spec)
    psi = u @ np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-13)


def test_realize_circuit_matches_statevector_oracle():
    spec = scrambler_preset()
    psi0 = haar_state(8, seeded_rng(700))
    via_unitary = realize_circuit(spec) @ psi0
    state = psi0
    for gate in spec.gates:
        state = apply_gate_to_state(gate.realized(), gate.targets, state, 3)
    np.testing.assert_allclose(via_unitary, state, atol=1e-12)


def test_scaled_circuit_scales_angles_only():
    spec = scrambler_preset()
    halved = CircuitSpec(3, [
        Gate(g.name, g.targets, None if g.angle is None else g.angle * 0.5) for g in spec.gates
    ])
    assert realize_circuit(spec, 0.5).tobytes() == realize_circuit(halved).tobytes()
    assert spec.gates[3].angle == pytest.approx(np.pi / 2)


def test_circuit_family_endpoints():
    spec = scrambler_preset()
    np.testing.assert_allclose(realize_circuit(spec, 1.0), realize_circuit(spec), atol=1e-13)
    u = realize_circuit(spec, 0.37)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_preset_circuits_start_unentangled():
    # At t = 0 only the fixed local layer remains, so a product input stays
    # product across every cut.
    for spec, n_a in ((scrambler_preset(), 1), (entangler2_preset(), 1)):
        part = Bipartition(n_a, spec.n_qubits - n_a)
        u0 = realize_circuit(spec, 0.0)
        psi = u0 @ np.eye(2**spec.n_qubits, dtype=complex)[:, 0]
        rho_a = partial_trace(np.outer(psi, psi.conj()), part, "A")
        assert np.trace(rho_a @ rho_a).real == pytest.approx(1.0, abs=1e-12)


def circuit_to_json(spec: CircuitSpec) -> str:
    gates = []
    for g in spec.gates:
        entry = {"name": g.name, "targets": list(g.targets)}
        if g.angle is not None:
            entry["angle"] = g.angle
        if g.matrix is not None:
            entry["matrix"] = [[[c.real, c.imag] for c in row] for row in g.matrix]
        gates.append(entry)
    return json.dumps({"n_qubits": spec.n_qubits, "gates": gates})


def test_parse_circuit_json_roundtrip():
    spec = scrambler_preset()
    parsed = parse_circuit_json(circuit_to_json(spec))
    np.testing.assert_allclose(realize_circuit(parsed), realize_circuit(spec), atol=1e-13)


def test_parse_circuit_json_custom_matrix_roundtrip():
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    spec = CircuitSpec(2, [Gate("CUSTOM", (0, 1), matrix=swap)])
    parsed = parse_circuit_json(circuit_to_json(spec))
    np.testing.assert_allclose(parsed.gates[0].matrix, swap, atol=1e-14)


@pytest.mark.parametrize(
    "text,match",
    [
        ("{", "line 1 column"),
        ("[1]", "top level"),
        ('{"gates": []}', "n_qubits"),
        ('{"n_qubits": 2}', "gates"),
        ('{"n_qubits": 2, "gates": [], "extra": 1}', "unknown field"),
        ('{"n_qubits": 2, "gates": [{"targets": [0]}]}', r"gates\[0\].name"),
        ('{"n_qubits": 2, "gates": [{"name": "H"}]}', r"gates\[0\].targets"),
        (
            '{"n_qubits": 2, "gates": [{"name": "RX", "targets": [0], "angle": "x"}]}',
            r"gates\[0\].angle",
        ),
        (
            '{"n_qubits": 2, "gates": [{"name": "H", "targets": [0], "spin": 1}]}',
            "unknown field",
        ),
        pytest.param(
            '{"n_qubits": 2, "gates": [{"name": "H", "targets": [0], "spin": 1}]}',
            r"^gates\[0\]\.spin: unknown field$",
            id="gate-unknown-field-path",
        ),
        pytest.param(
            '{"n_qubits": 2, "gates": [], "extra": 1}',
            r"^extra: unknown field$",
            id="top-level-unknown-field-path",
        ),
        pytest.param('{"n_qubits": 0, "gates": []}', r"^n_qubits: must be at least 1$",
                     id="no-qubits"),
        pytest.param(
            '{"n_qubits": 2, "gates": [{"name": "RX", "targets": [0], "angle": null}]}',
            r"^gates\[0\]\.angle: expected float$",
            id="angle-null",
        ),
        (
            '{"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": [1]}]}',
            r"gates\[0\].matrix",
        ),
        ('{"n_qubits": 2, "gates": [{"name": "H", "targets": [true]}]}', r"gates\[0\].targets"),
        pytest.param('{"n_qubits": 2, "gates": [{"name": "H", "targets": [0.0]}]}',
                     r"^gates\[0\]\.targets: expected a list of qubit indices$", id="float-target"),
        (
            '{"n_qubits": 2, "gates": [{"name": "RX", "targets": [0], "angle": true}]}',
            r"gates\[0\].angle",
        ),
        (
            '{"n_qubits": 2, "gates": [{"name": "RX", "targets": [0], "angle": NaN}]}',
            r"gates\[0\].angle",
        ),
        (
            '{"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": '
            + json.dumps([[[float(i == j), 0] for j in range(4)] for i in range(3)]
                         + [[[0, 0]] * 3 + [[math.nan, 0]]]) + "}]}",
            r"gates\[0\].matrix: non-finite",
        ),
        (
            '{"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": '
            + json.dumps([[[1, 0]] * 4] * 3 + [[[1, 0]] * 3]) + "}]}",
            r"gates\[0\].matrix: expected 4x4",
        ),
        pytest.param(
            '{"n_qubits": 2, "gates": [{"name": "RX", "targets": [0], "angle": 1'
            + "0" * 400 + "}]}",
            r"gates\[0\].angle: expected a finite number",
            id="angle-beyond-float",
        ),
        pytest.param(
            '{"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": '
            + json.dumps([[[float(i == j), 0, 99] for j in range(4)] for i in range(4)]) + "}]}",
            r"gates\[0\].matrix: expected 4x4 nested \[re, im\] pairs",
            id="matrix-cell-of-three",
        ),
        pytest.param(
            '{"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": '
            + json.dumps([[[i == j, 0] for j in range(4)] for i in range(4)]) + "}]}",
            r"gates\[0\].matrix: expected 4x4 nested \[re, im\] pairs",
            id="matrix-cell-of-booleans",
        ),
        pytest.param(
            '{"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": '
            + json.dumps([[[int(i == j), 0] for j in range(4)] for i in range(3)]
                         + [[[0, 0]] * 3 + [[1, 10**400]]]) + "}]}",
            r"gates\[0\].matrix",
            id="matrix-cell-beyond-float",
        ),
    ],
)
def test_parse_circuit_json_diagnostics(text, match):
    with pytest.raises(ValueError, match=match):
        parse_circuit_json(text)


# --- Trajectories ------------------------------------------------------------


def make_report(mi, delta):
    mi = np.asarray(mi, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return {
        "t": np.arange(mi.size, dtype=float),
        "I": mi,
        "I2": mi / 2,
        "Obar": 1.0 - delta,
        "deltaO": delta,
        "slack9": mi - delta,
    }


def test_average_reports_pointwise_mean():
    avg = average_reports([make_report([0.0, 0.4], [0.0, 0.1]),
                           make_report([0.0, 0.8], [0.0, 0.3])])
    np.testing.assert_allclose(avg["I"], [0.0, 0.6])
    np.testing.assert_allclose(avg["deltaO"], [0.0, 0.2])
    np.testing.assert_allclose(avg["slack9"], avg["I"] - avg["deltaO"])
    np.testing.assert_array_equal(avg["t"], [0.0, 1.0])


def test_syk_trajectory_reports_and_average():
    cfg = syk_config()
    part = Bipartition(1, 2)
    reports, avg = syk_trajectory(cfg, part, zero_state(3), SYK_TIMES)
    assert len(reports) == cfg.realizations
    ref = average_reports(reports)
    np.testing.assert_array_equal(avg["I"], ref["I"])
    np.testing.assert_array_equal(avg["slack9"], ref["slack9"])
    assert abs(avg["Obar"][0] - 1.0) < 1e-12


def test_syk_trajectory_worker_count_invariance():
    cfg = syk_config(realizations=3)
    part = Bipartition(1, 2)
    _, serial = syk_trajectory(cfg, part, zero_state(3), SYK_TIMES, workers=1)
    _, pooled = syk_trajectory(cfg, part, zero_state(3), SYK_TIMES, workers=2)
    assert set(serial) == set(pooled) == {"t", "I", "I2", "Obar", "deltaO", "slack9"}
    for name in serial:
        np.testing.assert_array_equal(serial[name], pooled[name])


# syk_trajectory forks its workers on Linux only; elsewhere it runs serially.
forked = pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux only")


@forked
@pytest.mark.parametrize("workers, realizations, pools",
                         [(1000, 2, [2]), (3, 5, [3]), (1000, 1, []), (1, 3, [])])
def test_syk_trajectory_caps_pool_workers_at_realizations(monkeypatch, workers,
                                                          realizations, pools):
    requested = []

    def recording_map(fn, jobs, workers):
        """Stands in for the forked workers: records their count, maps serially."""
        requested.append(workers)
        return [fn(job) for job in jobs]

    monkeypatch.setattr(models, "_forked_map", recording_map)
    reports, _ = syk_trajectory(syk_config(realizations=realizations), Bipartition(1, 2),
                                zero_state(3), SYK_TIMES, workers=workers)
    assert requested == pools
    assert len(reports) == realizations


def fail_realization(monkeypatch, realization, action):
    """Make building realization ``realization`` call ``action`` first; forks inherit it."""
    build = models.build_syk_hamiltonian

    def failing(cfg, k):
        if k == realization:
            action()
        return build(cfg, k)

    monkeypatch.setattr(models, "build_syk_hamiltonian", failing)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def boom():
    raise ValueError("boom")


@forked
def test_forked_worker_error_is_reraised(monkeypatch):
    fail_realization(monkeypatch, 1, boom)
    with pytest.raises(ValueError, match="^boom$"):
        syk_trajectory(syk_config(realizations=3), Bipartition(1, 2), zero_state(3),
                       SYK_TIMES, workers=2)
    assert_no_child_left()


@forked
def test_forked_worker_error_with_a_full_pipe_does_not_hang(monkeypatch):
    # Realization 0 fails at once while worker 1 has 20 reports of 2001
    # samples to send, far more than a pipe buffer holds: the parent must
    # close that pipe before it waits for the worker, or both block forever.
    fail_realization(monkeypatch, 0, boom)

    def hung(signum, frame):
        raise TimeoutError("syk_trajectory hung after a worker error")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError, match="^boom$"):
            syk_trajectory(syk_config(realizations=40), Bipartition(1, 2), zero_state(3),
                           np.linspace(0.0, 1.0, 2001), workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()


@forked
def test_failed_fork_leaves_no_child_and_no_open_pipe(monkeypatch):
    # The second fork fails once the first worker runs: the error reaches the
    # caller, the first worker is reaped, and both pipes are closed.
    fork = os.fork
    forks = []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(OSError) as raised:
        models._forked_map(abs, [-1, -2, -3], 2)
    assert raised.value.errno == errno.EAGAIN and len(forks) == 2
    assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == open_fds


@forked
def test_killed_forked_worker_raises_child_process_error(monkeypatch):
    parent = os.getpid()

    def die():
        if os.getpid() != parent:  # never the test process itself
            os.kill(os.getpid(), signal.SIGKILL)

    fail_realization(monkeypatch, 1, die)
    with pytest.raises(ChildProcessError, match="worker process"):
        syk_trajectory(syk_config(realizations=3), Bipartition(1, 2), zero_state(3),
                       SYK_TIMES, workers=2)
    assert_no_child_left()


@forked
def test_cut_short_worker_result_raises_child_process_error(monkeypatch):
    # A result pipe that ends before its pickle does is a lost worker, as an
    # empty one is.
    dumps = models.pickle.dumps
    monkeypatch.setattr(models.pickle, "dumps", lambda obj: dumps(obj)[:-10])
    with pytest.raises(ChildProcessError, match="exited without a result"):
        models._forked_map(abs, [-1, -2, -3], 2)
    assert_no_child_left()


def test_syk_trajectory_partition_mismatch():
    cfg = syk_config()
    with pytest.raises(ValueError):
        syk_trajectory(cfg, Bipartition(1, 1), zero_state(2), SYK_TIMES)


@pytest.mark.parametrize("workers", [0, -1])
def test_syk_trajectory_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        syk_trajectory(syk_config(), Bipartition(1, 2), zero_state(3), SYK_TIMES,
                       workers=workers)

