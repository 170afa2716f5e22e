"""Checks on the CSV a run writes.

``check_channels`` holds at every seed: column layout, the time grid, and
identities and bounds the channels satisfy by construction. ``compare_to_reference``
holds at the default seed against CSVs recorded by ``run.py --record-reference``.
"""

from __future__ import annotations

import math

EQUAL_TOL = 1e-13  # relative to max(1, |ref|): the ROADMAP's equality tolerance
GRID_TOL = 1e-13
IDENTITY_TOL = 1e-15  # deltaO and slack9 are differences of printed columns
SLACK_TOL = -1e-9
OBAR_T0_TOL = 1e-12
ENTROPY_TOL = 1e-12
# Rate channels at t = 0 depend on the eigenvector basis picked inside the
# degenerate spectrum of the regularized start's marginals, so they are
# excluded from the reference comparison on the first row.
BASIS_DEPENDENT_T0 = {"SdotA", "SdotB", "SdotE", "slack8"}

SCRAMBLING = ["t", "I", "I2", "Obar", "deltaO"]


def expected_header(config: dict) -> list[str]:
    kind = config["kind"]
    if kind == "bound8":
        return SCRAMBLING + ["Idot", "SdotA", "SdotB", "SdotE", "slack9", "slack8"]
    modified = kind == "circuit" and config.get(
        "modified_otoc", config["partition"]["n_a"] == 1)
    return SCRAMBLING + (["deltaMO"] if modified else []) + ["slack9"]


def parse_csv(text: str) -> tuple[list[str], dict[str, list[float]]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, {name: [r[i] for r in rows] for i, name in enumerate(header)}


def check_channels(text: str, config: dict) -> list[str]:
    """Problems found in one CSV; empty when it is well formed and consistent."""
    header, col = parse_csv(text)
    want = expected_header(config)
    if header != want:
        return [f"header {header} != {want}"]
    grid = config["time_grid"]
    n, stop = grid["samples"], grid["stop"]
    problems = []
    if len(col["t"]) != n:
        return [f"{len(col['t'])} rows, expected {n}"]
    if any(abs(t - stop * i / (n - 1)) > GRID_TOL * max(1.0, stop) for i, t in enumerate(col["t"])):
        problems.append("t column does not match the configured grid")
    if not all(math.isfinite(v) for values in col.values() for v in values):
        problems.append("non-finite value")
    obar, i_mi, i2 = col["Obar"], col["I"], col["I2"]
    if abs(obar[0] - 1.0) > OBAR_T0_TOL:
        problems.append(f"Obar(0) = {obar[0]!r}")
    if any(abs(o) > 1.0 + OBAR_T0_TOL for o in obar):
        problems.append("|Obar| exceeds 1")
    if any(abs(d - (obar[0] - o)) > IDENTITY_TOL for d, o in zip(col["deltaO"], obar)):
        problems.append("deltaO != Obar(0) - Obar")
    if any(abs(s - (i - d)) > IDENTITY_TOL * max(1.0, abs(i))
           for s, i, d in zip(col["slack9"], i_mi, col["deltaO"])):
        problems.append("slack9 != I - deltaO")
    if min(i_mi) < 0.0 or min(i2) < 0.0:
        problems.append("negative mutual information")
    if i_mi[0] > ENTROPY_TOL:
        problems.append(f"I(0) = {i_mi[0]!r} on a product start")
    # Pure start: I = 2 S_A >= 2 S2_A = I2 pointwise (and so for averages).
    if any(b > a + ENTROPY_TOL for a, b in zip(i_mi, i2)):
        problems.append("I2 exceeds I")
    if config["kind"] == "bound8":
        if min(col["slack8"]) < SLACK_TOL:
            problems.append("slack8 violated")
    elif min(col["slack9"]) < SLACK_TOL:
        problems.append("slack9 violated")
    if "deltaMO" in col and col["deltaMO"][0] != 0.0:
        problems.append("deltaMO(0) != 0")
    return problems


def compare_to_reference(text: str, ref_text: str) -> list[str]:
    """Cells that differ from the reference by more than EQUAL_TOL."""
    header, col = parse_csv(text)
    ref_header, ref = parse_csv(ref_text)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(col["t"]) != len(ref["t"]):
        return [f"{len(col['t'])} rows, reference has {len(ref['t'])}"]
    problems = []
    for name in header:
        for row, (v, r) in enumerate(zip(col[name], ref[name])):
            if row == 0 and name in BASIS_DEPENDENT_T0:
                continue
            if not abs(v - r) <= EQUAL_TOL * max(1.0, abs(r)):
                problems.append(f"{name}[{row}] = {v!r}, reference {r!r}")
    return problems
