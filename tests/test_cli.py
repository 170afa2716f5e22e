"""Experiment-runner CLI: config validation, outputs, determinism, exit codes."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from scramble import cli
from scramble.scrambling import OtocConfig

CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def base_circuit_config(tmp_path, **overrides):
    cfg = {
        "kind": "circuit",
        "partition": {"n_a": 1, "n_b": 1},
        "time_grid": {"start": 0.0, "stop": 0.4, "samples": 5},
        "circuit": "builtin:entangler2",
        "seed": 3,
        "output": str(tmp_path / "out" / "run"),
    }
    cfg.update(overrides)
    return cfg


def base_syk_config(tmp_path, **overrides):
    cfg = {
        "kind": "syk",
        "partition": {"n_a": 1, "n_b": 2},
        "time_grid": {"start": 0.0, "stop": 0.5, "samples": 6},
        "syk": {"n_majorana": 6, "q": 4, "j_squared": 2.0, "realizations": 2},
        "seed": 5,
        "output": str(tmp_path / "out" / "syk"),
    }
    cfg.update(overrides)
    return cfg


def test_write_csv_cells_are_exact(tmp_path):
    path = tmp_path / "table.csv"
    cli.write_csv(str(path), {
        "I": np.array([1.0, -1.0 / 3.0]),
        "t": np.array([-0.0, 5e-324]),
        "Obar": np.array([1e308, 1.0]),
    })
    assert path.read_text(encoding="utf-8") == (
        "t,I,Obar\n"
        "-0.0000000000000000e+00,1.0000000000000000e+00,1.0000000000000000e+308\n"
        "4.9406564584124654e-324,-3.3333333333333331e-01,1.0000000000000000e+00\n"
    )


TABLE = {"t": np.array([0.0, 0.5]), "I": np.array([0.0, 0.25])}
TABLE_CSV = ("t,I\n0.0000000000000000e+00,0.0000000000000000e+00\n"
             "5.0000000000000000e-01,2.5000000000000000e-01\n")


def test_write_csv_over_longer_file_leaves_exactly_new_bytes(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("stale row\n" * 100)
    inode = path.stat().st_ino
    cli.write_csv(str(path), TABLE)
    assert path.read_bytes() == TABLE_CSV.encode()
    assert path.stat().st_ino == inode  # rewritten in place, not replaced


def test_write_csv_new_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        cli.write_csv(str(tmp_path / "new.csv"), TABLE)
    finally:
        os.umask(old)
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640


def test_write_csv_through_symlink_updates_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("stale row\n" * 100)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    cli.write_csv(str(link), TABLE)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == TABLE_CSV.encode()


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(header)}
    return header, data


# --- run: happy paths ----------------------------------------------------------


def test_run_circuit_end_to_end(tmp_path, capsys):
    cfg = base_circuit_config(tmp_path, modified_otoc=True)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    header, data = read_csv(cfg["output"] + ".csv")
    assert header == ["t", "I", "I2", "Obar", "deltaO", "deltaMO", "slack9"]
    assert len(data["t"]) == 5
    np.testing.assert_allclose(data["slack9"], data["I"] - data["deltaO"], atol=1e-12)
    assert abs(data["Obar"][0] - 1.0) < 1e-12
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    assert summary["kind"] == "circuit"
    assert summary["circuit"] == "builtin:entangler2"
    assert summary["violations"]["slack9"] == 0
    assert summary["config"]["seed"] == 3
    assert summary["runtime_seconds"] > 0
    assert "wrote" in capsys.readouterr().out


def test_run_circuit_without_modified_column(tmp_path):
    cfg = base_circuit_config(tmp_path, modified_otoc=False)
    cli.main(["run", write_config(tmp_path, cfg)])
    header, _ = read_csv(cfg["output"] + ".csv")
    assert header == ["t", "I", "I2", "Obar", "deltaO", "slack9"]


def test_run_syk_end_to_end(tmp_path):
    cfg = base_syk_config(tmp_path)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    header, data = read_csv(cfg["output"] + ".csv")
    assert header == ["t", "I", "I2", "Obar", "deltaO", "slack9"]
    assert len(data["t"]) == 6
    assert np.all(data["slack9"] >= -1e-9)
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    assert summary["violations"] == {"per_realization_slack9": 0, "slack9": 0}
    assert summary["workers"] == 1
    assert summary["seeds"]["disorder_streams"] == "(base, realization_index)"


def test_run_bound8_end_to_end(tmp_path):
    cfg = {
        "kind": "bound8",
        "partition": {"n_a": 1, "n_b": 1},
        "time_grid": {"start": 0.0, "stop": 3.0, "samples": 16},
        "model": {"type": "random"},
        "seed": 11,
        "output": str(tmp_path / "b8"),
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    header, data = read_csv(cfg["output"] + ".csv")
    assert header == ["t", "I", "I2", "Obar", "deltaO", "Idot", "SdotA", "SdotB",
                      "SdotE", "slack9", "slack8"]
    assert np.all(data["slack8"] >= -1e-9)
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    assert summary["violations"]["slack8"] == 0
    # The mutual-information slack is diagnostic for this kind and may dip
    # negative on a generic trajectory without failing the run.
    assert summary["violations"]["slack9"] >= 0
    assert summary["delta"] == pytest.approx(1e-6)


def test_run_bound8_ising_model(tmp_path):
    cfg = {
        "kind": "bound8",
        "partition": {"n_a": 1, "n_b": 2},
        "time_grid": {"start": 0.0, "stop": 1.0, "samples": 4},
        "model": {"type": "ising_chain", "j": 0.9, "hx": 0.6},
        "seed": 1,
        "output": str(tmp_path / "ising"),
    }
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    assert summary["model"]["type"] == "ising_chain"
    assert summary["violations"]["slack8"] == 0


def test_run_otoc_sweep_records_identity_gap(tmp_path):
    cfg = base_circuit_config(tmp_path, kind="otoc-sweep")
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    header, _ = read_csv(cfg["output"] + ".csv")
    assert "deltaMO" not in header
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    gap = summary["exp_neg_i2_vs_obar"]
    assert 0.0 <= gap["mean"] <= gap["max"]


def test_csv_cells_are_full_precision(tmp_path):
    cfg = base_circuit_config(tmp_path)
    cli.main(["run", write_config(tmp_path, cfg)])
    lines = Path(cfg["output"] + ".csv").read_text().splitlines()
    for line in lines[1:]:
        for cell in line.split(","):
            assert CELL.match(cell), cell


def test_run_circuit_file_reference_relative_to_config(tmp_path):
    # Hadamards on both qubits: a one-sided layer would leave B in a Z
    # eigenstate and the ZZ coupling would never entangle the product start.
    circuit = {
        "n_qubits": 2,
        "gates": [
            {"name": "H", "targets": [0]},
            {"name": "H", "targets": [1]},
            {"name": "RZZ", "targets": [0, 1], "angle": 1.1},
        ],
    }
    (tmp_path / "circ.json").write_text(json.dumps(circuit))
    cfg = base_circuit_config(tmp_path, circuit="circ.json")
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0


# --- determinism ----------------------------------------------------------------


def test_csv_bitwise_determinism_across_runs_and_workers(tmp_path, monkeypatch):
    cfg = base_syk_config(tmp_path)
    path = write_config(tmp_path, cfg)
    cli.main(["run", path])
    first = Path(cfg["output"] + ".csv").read_bytes()
    cli.main(["run", path])
    assert Path(cfg["output"] + ".csv").read_bytes() == first
    monkeypatch.setenv("SCRAMBLE_WORKERS", "2")
    cli.main(["run", path])
    assert Path(cfg["output"] + ".csv").read_bytes() == first
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    assert summary["workers"] == 2


def test_rerun_rewrites_summary_in_place(tmp_path):
    cfg = base_circuit_config(tmp_path)
    summary = tmp_path / "out" / "run.json"
    summary.parent.mkdir()
    summary.write_text("stale line\n" * 1000)  # longer than any summary
    inode = summary.stat().st_ino
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    text = summary.read_text()
    assert json.loads(text)["kind"] == "circuit" and text.endswith("}\n")
    assert summary.stat().st_ino == inode


def test_scramble_workers_env_must_be_integer(tmp_path, monkeypatch, capsys):
    cfg = base_syk_config(tmp_path)
    monkeypatch.setenv("SCRAMBLE_WORKERS", "many")
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    assert "SCRAMBLE_WORKERS" in capsys.readouterr().err


# --- validation and exit code 2 --------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    cfg = base_circuit_config(tmp_path, workers=2)  # workers is a field of every kind
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_json_syntax_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "syk",\n "oops"}')
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "line 2" in err


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.pop("kind"), "kind"),
        (lambda c: c.update(kind="quench"), "kind"),
        (lambda c: c.pop("partition"), "partition"),
        (lambda c: c["partition"].pop("n_b"), "partition.n_b"),
        (lambda c: c["partition"].update(n_a=2), "partition"),
        (lambda c: c.pop("time_grid"), "time_grid"),
        (lambda c: c["time_grid"].update(start=0.1), "time_grid.start"),
        (lambda c: c["time_grid"].update(samples=1), "time_grid.samples"),
        (lambda c: c["time_grid"].update(stop=0.0), "time_grid.stop"),
        (lambda c: c.pop("seed"), "seed"),
        (lambda c: c.update(seed=1.5), "seed"),
        (lambda c: c.update(seed=-1), "seed: must be a non-negative integer"),
        (lambda c: c.pop("output"), "output"),
        (lambda c: c.update(workers=0), "workers"),
        (lambda c: c.update(otoc={"averaging": "quadrature"}), "otoc"),
        (lambda c: c.update(otoc={"samples": "many"}), "otoc.samples"),
        (lambda c: c.update(otoc={"averagign": "exact_enumeration"}), "otoc.averagign"),
        (lambda c: c.update(otoc={"averaging": "monte_carlo"}), "otoc.averaging"),
        (lambda c: c.update(modified_otoc="yes"), "modified_otoc"),
        (lambda c: c.pop("circuit"), "circuit"),
        (lambda c: c.update(circuit="builtin:teleporter"), "builtin"),
        (lambda c: c.update(circuit="missing.json"), "not found"),
        (lambda c: c.update(delat=0.5), "delat: unknown field"),
        (lambda c: c.update(delta=0.5), "delta: unknown field"),
        (lambda c: c.update(syk={}), "syk: unknown field"),
        (lambda c: c["partition"].update(n_c=1), "partition.n_c: unknown field"),
        (lambda c: c["time_grid"].update(step=0.1), "time_grid.step: unknown field"),
        (lambda c: c.update(partition=[1, 4]), "partition: missing or not an object"),
        (lambda c: c.update(otoc="x"), "otoc: missing or not an object"),
    ],
)
def test_circuit_config_validation_errors(tmp_path, capsys, mutate, needle):
    cfg = base_circuit_config(tmp_path)
    mutate(cfg)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert needle in capsys.readouterr().err


def test_otoc_averaging_accepts_only_exact_enumeration(tmp_path):
    # OtocConfig has no averaging field; a config file may still name its one value.
    for block in ({"averaging": "exact_enumeration"},
                  {"averaging": "exact_enumeration", "expectation_state": "initial_state"}):
        cfg = cli.load_config(write_config(tmp_path, base_circuit_config(tmp_path, otoc=block)))
        assert cfg.otoc == OtocConfig(block.get("expectation_state", "maximally_mixed"))
    for value in ("quadrature", "monte_carlo", "Exact_Enumeration"):
        path = write_config(tmp_path, base_circuit_config(tmp_path, otoc={"averaging": value}))
        with pytest.raises(cli.ConfigError, match=r"^otoc\.averaging: unknown value"):
            cli.load_config(path)


def test_modified_otoc_needs_single_qubit_side(tmp_path, capsys):
    cfg = base_circuit_config(
        tmp_path,
        circuit="builtin:scrambler3",
        partition={"n_a": 2, "n_b": 1},
        modified_otoc=True,
    )
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "modified_otoc" in capsys.readouterr().err


def test_malformed_circuit_file_is_wrapped(tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"n_qubits": 2, "gates": [{"name": "Q", "targets": [0]}]}')
    cfg = base_circuit_config(tmp_path, circuit="bad.json")
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "circuit (bad.json)" in err and "unknown gate" in err


def test_huge_integer_gate_angle_is_a_field_error(tmp_path, capsys):
    # 10**400 is a valid JSON integer that no float can hold.
    gates = [{"name": "RX", "targets": [0], "angle": 10**400}]
    (tmp_path / "big.json").write_text(json.dumps({"n_qubits": 2, "gates": gates}))
    cfg = base_circuit_config(tmp_path, circuit="big.json")
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "circuit (big.json): gates[0].angle: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.pop("syk"), "syk"),
        (lambda c: c["syk"].update(n_majorana=7), "syk"),
        (lambda c: c["syk"].update(q=8), "syk"),
        (lambda c: c["partition"].update(n_b=4), "partition"),
        (lambda c: c["syk"].update(j_squared=float("nan")), "syk.j_squared: expected a finite"),
        (lambda c: c["syk"].update(j_squared=10**400), "syk.j_squared: expected a finite number"),
        (lambda c: c["syk"].update(realisations=3), "syk.realisations: unknown field"),
        (lambda c: c.update(modified_otoc=True), "modified_otoc: unknown field"),
        (lambda c: c.update(model={"type": "random"}), "model: unknown field"),
    ],
)
def test_syk_config_validation_errors(tmp_path, capsys, mutate, needle):
    cfg = base_syk_config(tmp_path)
    mutate(cfg)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert needle in capsys.readouterr().err


def test_bound8_config_validation_errors(tmp_path, capsys):
    cfg = {
        "kind": "bound8",
        "partition": {"n_a": 1, "n_b": 1},
        "time_grid": {"start": 0.0, "stop": 1.0, "samples": 3},
        "seed": 1,
        "output": str(tmp_path / "x"),
    }
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert "model" in capsys.readouterr().err
    cfg["model"] = {"type": "heisenberg"}
    assert cli.main(["validate", write_config(tmp_path, cfg, "c2.json")]) == 2
    assert "model.type" in capsys.readouterr().err
    for model, needle in (
        ({"type": "ising_chain", "j": "abc"}, "model.j: expected float"),
        ({"type": "ising_chain", "hx": float("inf")}, "model.hx: expected a finite"),
        ({"type": "ising_chain", "hz": 0.5}, "model.hz: unknown field"),
        ({"type": "random", "j": 1.0}, "model.j: unknown field"),
    ):
        cfg["model"] = model
        assert cli.main(["validate", write_config(tmp_path, cfg, "c3.json")]) == 2
        assert needle in capsys.readouterr().err
    cfg["model"] = {"type": "random"}
    cfg["delta"] = 2.0
    assert cli.main(["validate", write_config(tmp_path, cfg, "c4.json")]) == 2
    assert "delta" in capsys.readouterr().err
    # The random model and SYK draw from the seed; numpy refuses a negative one.
    cfg["delta"], cfg["seed"] = 1e-6, -3
    assert cli.main(["validate", write_config(tmp_path, cfg, "c5.json")]) == 2
    assert "seed: must be a non-negative integer" in capsys.readouterr().err
    cfg["seed"], cfg["modified_otoc"] = 1, False
    assert cli.main(["validate", write_config(tmp_path, cfg, "c6.json")]) == 2
    assert "modified_otoc: unknown field" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert cli.main(["validate", "no-such-config"]) == 2
    assert "not found" in capsys.readouterr().err


# --- presets ---------------------------------------------------------------------


def test_presets_list_names_all_shipped_configs(capsys):
    assert cli.main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3-syk", "fig3-syk-ci", "fig2-circuit", "bound8-2q",
                 "bound8-3q", "otoc-sweep-2q", "otoc-sweep-3q"):
        assert name in out


def test_validate_accepts_preset_names():
    for name in cli.preset_names():
        assert cli.main(["validate", name]) == 0


# --- exit code 3 -------------------------------------------------------------------


def test_obar_origin_violation_exits_3(tmp_path, capsys):
    # A good run first leaves a summary at the same output.
    assert cli.main(["run", write_config(tmp_path, base_circuit_config(tmp_path))]) == 0
    assert (tmp_path / "out").joinpath("run.json").exists()
    # A fixed SWAP is not removed at t = 0, so the averaged OTOC baseline
    # sits at its scrambled floor instead of 1.
    swap = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in [0, 2, 1, 3]]
    circuit = {"n_qubits": 2, "gates": [{"name": "CUSTOM", "targets": [0, 1], "matrix": swap}]}
    (tmp_path / "swap.json").write_text(json.dumps(circuit))
    cfg = base_circuit_config(tmp_path, circuit="swap.json")
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "assertion violation" in err and "Obar(0)" in err
    # The CSV is still written for inspection; no summary, not even the
    # earlier run's, sits beside it.
    _, data = read_csv(tmp_path / "out" / "run.csv")
    assert abs(data["Obar"][0] - 1.0) > 1e-3
    assert not (tmp_path / "out").joinpath("run.json").exists()


def test_slack_violation_exits_3_naming_first_sample(tmp_path, capsys, monkeypatch):
    times = np.array([0.0, 0.2, 0.4])
    fake = {
        "t": times,
        "I": np.zeros(3),
        "I2": np.zeros(3),
        "Obar": np.array([1.0, 0.4, 0.3]),
        "deltaO": np.array([0.0, 0.6, 0.7]),
        "slack9": np.array([0.0, -0.6, -0.7]),
    }
    monkeypatch.setattr(cli, "bound_report", lambda *a, **k: fake)
    cfg = base_circuit_config(tmp_path, modified_otoc=False)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "slack9" in err and "0.2" in err


def bound8_config(tmp_path):
    return {
        "kind": "bound8",
        "partition": {"n_a": 1, "n_b": 1},
        "time_grid": {"start": 0.0, "stop": 1.0, "samples": 3},
        "model": {"type": "random"},
        "seed": 11,
        "output": str(tmp_path / "b8"),
    }


def test_bound8_slack8_violation_exits_3(tmp_path, capsys, monkeypatch):
    fake = {name: np.ones(3) for name in ("Idot", "SdotA", "SdotB", "SdotE")}
    fake["t"] = np.array([0.0, 0.5, 1.0])
    fake["slack8"] = np.array([1.0, -0.5, -1.0])
    monkeypatch.setattr(cli, "bound8_report", lambda *a, **k: fake)
    cfg = bound8_config(tmp_path)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "slack8" in err and "0.5" in err
    assert (tmp_path / "b8.csv").exists()
    assert not (tmp_path / "b8.json").exists()


def test_bound8_slack9_is_diagnostic_only(tmp_path, monkeypatch):
    fake = {
        "t": np.array([0.0, 0.5, 1.0]),
        "I": np.zeros(3),
        "I2": np.zeros(3),
        "Obar": np.array([1.0, 0.4, 0.3]),
        "deltaO": np.array([0.0, 0.6, 0.7]),
        "slack9": np.array([0.0, -0.6, -0.7]),
    }
    monkeypatch.setattr(cli, "bound_report", lambda *a, **k: fake)
    cfg = bound8_config(tmp_path)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "b8.json").read_text())
    assert summary["violations"]["slack9"] == 2
    assert summary["violations"]["slack8"] == 0
