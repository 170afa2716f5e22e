"""Disorder models and circuit construction."""

import json
import math

import numpy as np
import pytest

from _oracles import (
    apply_gate_to_state,
    expm_unitary,
    jordan_wigner_majorana,
    kron_chain,
    syk_hamiltonian_literal,
)
from scramble import models
from scramble.cli import parse_circuit_json
from scramble.models import (
    CircuitSpec,
    Gate,
    SykConfig,
    average_reports,
    build_syk_hamiltonian,
    circuit_unitary_family,
    entangler2_preset,
    realize_circuit,
    scrambler_preset,
    syk_couplings,
    syk_trajectory,
)
from scramble.qdense import Bipartition, haar_state, kron_all, partial_trace, seeded_rng
from scramble.scrambling import OtocConfig


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


def syk_config(**overrides):
    base = dict(n_majorana=6, q=4, j_squared=2.0, seed=3, realizations=2,
                time_grid=np.linspace(0.0, 1.0, 5))
    base.update(overrides)
    return SykConfig(**base)


@pytest.mark.parametrize(
    "overrides,match",
    [
        (dict(n_majorana=9), "even"),
        (dict(n_majorana=2), "even"),
        (dict(q=3), "q must be even"),
        (dict(q=8), "q must be even"),
        (dict(j_squared=0.0), "positive"),
        (dict(realizations=0), "realizations"),
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
    parity = kron_all(*([np.diag([1.0, -1.0]).astype(complex)] * cfg.n_qubits))
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
    monkeypatch.setattr(models, "_CHUNK_ENTRIES", chunk_entries)
    assert build_syk_hamiltonian(cfg, 2).tobytes() == whole.tobytes()


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
    theta = 0.83
    rx = Gate("RX", (0,), angle=theta).realized()
    np.testing.assert_allclose(rx, expm_unitary(kron_chain("X") / 2, theta), atol=1e-12)
    rzz = Gate("RZZ", (0, 1), angle=theta).realized()
    np.testing.assert_allclose(rzz, expm_unitary(kron_chain("ZZ") / 2, theta), atol=1e-12)
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
    ],
)
def test_gate_validation_errors(gate, match):
    with pytest.raises(ValueError, match=match):
        CircuitSpec(3, [gate])


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
        np.testing.assert_allclose(u, kron_all(*factors), atol=1e-13)


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
    family = circuit_unitary_family(spec)
    np.testing.assert_allclose(family(1.0), realize_circuit(spec), atol=1e-13)
    u = family(0.37)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


def test_preset_circuits_start_unentangled():
    # At t = 0 only the fixed local layer remains, so a product input stays
    # product across every cut.
    for spec, n_a in ((scrambler_preset(), 1), (entangler2_preset(), 1)):
        part = Bipartition(n_a, spec.n_qubits - n_a)
        u0 = circuit_unitary_family(spec)(0.0)
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


def zero_state(n: int) -> np.ndarray:
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_syk_trajectory_reports_and_average():
    cfg = syk_config()
    part = Bipartition(1, 2)
    reports, avg = syk_trajectory(cfg, part, zero_state(3))
    assert len(reports) == cfg.realizations
    ref = average_reports(reports)
    np.testing.assert_array_equal(avg["I"], ref["I"])
    np.testing.assert_array_equal(avg["slack9"], ref["slack9"])
    assert abs(avg["Obar"][0] - 1.0) < 1e-12


def test_syk_trajectory_worker_count_invariance():
    cfg = syk_config(realizations=3)
    part = Bipartition(1, 2)
    _, serial = syk_trajectory(cfg, part, zero_state(3), workers=1)
    _, pooled = syk_trajectory(cfg, part, zero_state(3), workers=2)
    assert set(serial) == set(pooled) == {"t", "I", "I2", "Obar", "deltaO", "slack9"}
    for name in serial:
        np.testing.assert_array_equal(serial[name], pooled[name])


@pytest.mark.parametrize("workers, realizations, pools",
                         [(1000, 2, [2]), (3, 5, [3]), (1000, 1, []), (1, 3, [])])
def test_syk_trajectory_caps_pool_workers_at_realizations(monkeypatch, workers,
                                                          realizations, pools):
    requested = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps serially."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(models, "ProcessPoolExecutor", RecordingPool)
    reports, _ = syk_trajectory(syk_config(realizations=realizations), Bipartition(1, 2),
                                zero_state(3), workers=workers)
    assert requested == pools
    assert len(reports) == realizations


def test_syk_trajectory_partition_mismatch():
    cfg = syk_config()
    with pytest.raises(ValueError):
        syk_trajectory(cfg, Bipartition(1, 1), zero_state(2))


def test_syk_trajectory_honors_otoc_config():
    # The default expectation state averages cleanly; the initial-state
    # expectation on SYK dynamics leaves a complex average, so the error can
    # only come from the otoc_cfg reaching the realizations.
    cfg = syk_config(realizations=1)
    part = Bipartition(1, 2)
    syk_trajectory(cfg, part, zero_state(3))
    with pytest.raises(ValueError, match="imaginary residue"):
        syk_trajectory(
            cfg, part, zero_state(3), otoc_cfg=OtocConfig(expectation_state="initial_state")
        )
