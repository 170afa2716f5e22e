"""Validation at the public boundary: bad input is refused, good input checked once."""

import math

import numpy as np
import pytest

from _oracles import random_density
from scramble import entropy, liouville, qdense, scrambling
from scramble.entropy import (
    mutual_information,
    renyi2,
    renyi2_mutual_information,
    von_neumann,
)
from scramble.liouville import (
    bound8_report,
    build_liouvillian,
    entropy_production_rates,
    mutual_information_rate,
)
from scramble.qdense import (
    Bipartition,
    check_density_matrix,
    eigh,
    random_hermitian,
    seeded_rng,
)
from scramble.scrambling import bound_report

PART = Bipartition(1, 1)
H = random_hermitian(PART.dim, seeded_rng(3))


def _non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.1
    return rho


BAD_STATES = {
    "non_hermitian": (_non_hermitian(), "not Hermitian"),
    "trace_2": (np.eye(4, dtype=complex) / 2, "trace"),
    "negative_eigenvalue": (np.diag([0.6, 0.6, 0.1, -0.3]).astype(complex),
                            "positive semidefinite"),
}

ENTRY_POINTS = {
    "von_neumann": lambda rho: von_neumann(rho),
    "renyi2": lambda rho: renyi2(rho),
    "mutual_information": lambda rho: mutual_information(rho, PART),
    "renyi2_mutual_information": lambda rho: renyi2_mutual_information(rho, PART),
    "entropy_production_rates": lambda rho: entropy_production_rates(H, rho, PART),
}
PARTITIONED = {"mutual_information", "renyi2_mutual_information", "entropy_production_rates"}


# (entry point, bad input): every entry point with every bad state and with a
# state of the wrong dimension; a stack of states to the entropies of one.
BAD_INPUTS = [(entry, bad) for entry in ENTRY_POINTS for bad in [*BAD_STATES, "wrong_dimension"]]
BAD_INPUTS += [("von_neumann", "stack"), ("renyi2", "stack")]


@pytest.mark.parametrize("entry,bad", BAD_INPUTS, ids=[f"{e}-{b}" for e, b in BAD_INPUTS])
def test_entry_points_reject_bad_input(entry, bad):
    if bad in BAD_STATES:
        rho, needle = BAD_STATES[bad]
    elif bad == "stack":
        rho, needle = np.stack([np.eye(4, dtype=complex) / 4] * 2), "expected a matrix, got ndim=3"
    elif entry in PARTITIONED:
        # A valid state, but of 3 qubits against a 1|1 partition.
        rho, needle = np.eye(8, dtype=complex) / 8, "does not match partition|dimension mismatch"
    else:
        rho, needle = np.full((4, 2), 0.25, dtype=complex), "must be square"
    with pytest.raises(ValueError, match=needle):
        ENTRY_POINTS[entry](rho)


def _nan_ket():
    psi = np.full(PART.dim, 0.5, dtype=complex)
    psi[2] = np.nan
    return psi


BAD_KETS = {
    "wrong_length": (np.full(8, 8**-0.5, dtype=complex), "does not match partition"),
    "norm_squared_2": (np.full(PART.dim, 2**-0.5, dtype=complex), "squared norm"),
    "nan_entry": (_nan_ket(), "non-finite"),
}


@pytest.mark.parametrize("bad", BAD_KETS)
@pytest.mark.parametrize("entry", ["mutual_information", "renyi2_mutual_information"])
def test_ket_entry_points_reject_bad_input(entry, bad):
    psi, needle = BAD_KETS[bad]
    with pytest.raises(ValueError, match=needle):
        ENTRY_POINTS[entry](psi)


PURE_START = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
REPORTS = {
    "bound_report": lambda times: bound_report(H, PART, PURE_START, times),
    "bound8_report": lambda times: bound8_report(H, PART, PURE_START, times),
}


@pytest.mark.parametrize("times", [[], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf]],
                         ids=["empty", "two_dimensional", "nan", "inf"])
@pytest.mark.parametrize("report", REPORTS)
def test_reports_reject_bad_time_grids(report, times):
    with pytest.raises(ValueError, match="time grid"):
        REPORTS[report](times)


@pytest.mark.parametrize("check", [check_density_matrix, eigh, build_liouvillian])
def test_hermiticity_is_checked_by_one_helper(check):
    with pytest.raises(ValueError, match="not Hermitian: max deviation 1.000e-01"):
        check(_non_hermitian())


NON_HERMITIAN_H = {
    "imaginary_shift": H + 0.3j * np.eye(PART.dim),
    "real_antisymmetric": H + 0.2 * (np.eye(PART.dim, k=1) - np.eye(PART.dim, k=-1)),
}


@pytest.mark.parametrize("h", NON_HERMITIAN_H)
@pytest.mark.parametrize("rate", [mutual_information_rate, entropy_production_rates])
def test_rate_entry_points_refuse_a_non_hermitian_hamiltonian(rate, h):
    # i c I commutes with every state, so without the check the rate would
    # silently equal that of H; a real antisymmetric part would surface only
    # as an imaginary residue.
    rho = random_density(PART.dim, seeded_rng(12))
    with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
        rate(NON_HERMITIAN_H[h], rho, PART)


def _states_with_slice_1(rho_1):
    """Three maximally mixed 1|1 states, the middle one replaced by ``rho_1``."""
    rho = np.stack([np.eye(PART.dim, dtype=complex) / PART.dim] * 3)
    rho[1] = rho_1
    return rho


NAN_MATRIX = np.full((PART.dim, PART.dim), np.nan)
NAMED_ERRORS = {
    "initial_non_finite": (lambda: check_density_matrix(NAN_MATRIX, "initial"),
                           r"initial has non-finite entries"),
    "bound_report_initial_non_finite": (lambda: bound_report(H, PART, NAN_MATRIX, [0.0, 1.0]),
                                        r"initial has non-finite entries"),
    "rho_S_slice_non_finite": (
        lambda: entropy_production_rates(H, _states_with_slice_1(NAN_MATRIX), PART),
        r"rho_S\[1\] has non-finite entries"),
    "rho_S_slice_non_hermitian": (
        lambda: entropy_production_rates(H, _states_with_slice_1(_non_hermitian()), PART),
        r"rho_S\[1\] not Hermitian: max deviation 1\.000e-01"),
    "hamiltonian_non_finite": (lambda: entropy_production_rates(NAN_MATRIX, PURE_START, PART),
                               r"Hamiltonian has non-finite entries"),
    "bound8_report_hamiltonian_non_finite": (
        lambda: bound8_report(NAN_MATRIX, PART, PURE_START, [0.0, 1.0]),
        r"Hamiltonian has non-finite entries"),
}


@pytest.mark.parametrize("case", NAMED_ERRORS)
def test_errors_name_the_argument_and_its_first_bad_slice(case):
    call, message = NAMED_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.fixture
def density_checks(monkeypatch):
    """The states passed to check_density_matrix through every module that imports it.

    One entry per state: a (T, d, d) stack adds its name T times.
    """
    states = []

    def counted(*args, **kwargs):
        name = args[1] if len(args) > 1 else kwargs.get("name", "rho")
        states.extend([name] * (np.size(args[0]) // np.shape(args[0])[-1] ** 2))
        return qdense.check_density_matrix(*args, **kwargs)

    for module in (entropy, scrambling, liouville):
        monkeypatch.setattr(module, "check_density_matrix", counted)
    return states


def test_each_state_is_validated_once(density_checks):
    part = Bipartition(2, 1)
    h = random_hermitian(part.dim, seeded_rng(11))
    initial = np.zeros((part.dim, part.dim), dtype=complex)
    initial[0, 0] = 1.0
    times = np.linspace(0.0, 2.0, 5)

    # Only the start is a density matrix: each sample's ket is checked by the
    # entropy functions themselves, outside check_density_matrix.
    bound_report(h, part, initial, times)
    assert len(density_checks) == 1
    density_checks.clear()

    # The start, then each rho(t) once, in stacks of a few samples.
    bound8_report(h, part, initial, times)
    assert density_checks == ["initial"] + ["rho_S"] * times.size


@pytest.mark.parametrize("fn", [renyi2, von_neumann])
def test_pure_state_entropy_is_positive_zero(fn):
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    value = fn(rho)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
