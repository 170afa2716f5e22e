"""Experiment-runner CLI: config validation, outputs, determinism, exit codes."""

import csv
import json
import os
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from _fresh import fresh_python
from scramble import cli, entropy, liouville, models, qdense, scrambling
from scramble.qdense import RANK_TOL

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
    assert summary["violations"] == {"per_realization_slack9": 0, "slack9": 0, "Obar(0)": 0,
                                     "Obar": 0}
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


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 3)])
def test_rescaled_ising_run_rescales_idot(tmp_path, n_a, n_b):
    # c H on the grid t / c is the same dynamics, with Idot scaled by c. The
    # imaginary residue of Idot scales with H as well: a bound on it that
    # ignored that scale stopped the c = 1e6 run with exit 3.
    idot = {}
    for c in (1.0, 1e6, 1e8):
        cfg = {"kind": "bound8", "partition": {"n_a": n_a, "n_b": n_b},
               "time_grid": {"start": 0.0, "stop": 8.0 / c, "samples": 21},
               "model": {"type": "ising_chain", "j": c, "hx": 0.7 * c}, "seed": 1,
               "output": str(tmp_path / "ising")}
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        idot[c] = read_csv(cfg["output"] + ".csv")[1]["Idot"] / c
    for c in (1e6, 1e8):
        assert np.abs(idot[c] - idot[1.0]).max() <= 1e-12 * np.abs(idot[1.0]).max()


def test_run_circuit_records_identity_gap(tmp_path):
    cfg = base_circuit_config(tmp_path, modified_otoc=False)
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
    path = write_config(tmp_path, base_circuit_config(tmp_path, circuit="circ.json"))
    assert cli.main(["validate", path]) == 0
    assert cli.main(["run", path]) == 0


# --- determinism ----------------------------------------------------------------


def test_csv_bitwise_determinism_across_runs_and_workers(tmp_path):
    cfg = base_syk_config(tmp_path)
    path = write_config(tmp_path, cfg)
    cli.main(["run", path])
    first = Path(cfg["output"] + ".csv").read_bytes()
    cli.main(["run", path])
    assert Path(cfg["output"] + ".csv").read_bytes() == first
    assert json.loads(Path(cfg["output"] + ".json").read_text())["workers"] == 1
    cli.main(["run", write_config(tmp_path, {**cfg, "workers": 2}, "pooled.json")])
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


def test_output_under_a_regular_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # validate does not touch the output path; run reports it as a field error.
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    cfg = base_circuit_config(tmp_path, output=str(tmp_path / "blocker" / "run"))
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", path]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "bound_report", lambda *args, **kwargs: calls.append(args))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: output: cannot write {tmp_path / 'blocker'}: File exists\n"
    assert calls == []


def test_directory_at_the_csv_path_exits_2(tmp_path, capsys):
    cfg = base_circuit_config(tmp_path)
    csv_path = cfg["output"] + ".csv"
    os.makedirs(csv_path)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: output: cannot write {csv_path}: Is a directory\n"
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("output", ["gates", "config", "link/gates"])
def test_output_over_an_input_file_exits_2_leaving_it_unchanged(
        tmp_path, capsys, monkeypatch, command, output):
    # Run from the config's directory, where the relative gate-list reference
    # and the relative output stem name the same files; link/ is that
    # directory through a symlink.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path)
    gates = tmp_path / "gates.json"
    gates.write_text(json.dumps({"n_qubits": 2, "gates": [{"name": "H", "targets": [0]}]}))
    path = Path(write_config(tmp_path, base_circuit_config(tmp_path, circuit="gates.json",
                                                           output=output)))
    before = {f: f.read_bytes() for f in (gates, path)}
    cli.load_config(str(path))  # a library caller writes no summary, so it may keep these paths
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: output: {output}.json would overwrite an input of this run\n")
    assert {f: f.read_bytes() for f in before} == before
    assert not (tmp_path / f"{output}.csv").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("output", ["", "o/", "{tmp}/", ".", "o/.."])
def test_output_without_a_file_stem_exits_2(tmp_path, capsys, monkeypatch, command, output):
    # "o/" would write the hidden files o/.csv and o/.json, "." ..csv and ..json.
    monkeypatch.chdir(tmp_path)
    cfg = base_circuit_config(tmp_path, output=output.format(tmp=tmp_path))
    assert cli.main([command, write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: output: must be a path stem")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


# --- validation and exit code 2 --------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    cfg = base_syk_config(tmp_path, workers=2)  # only SYK runs have worker processes
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
        (lambda c: c.update(kind="otoc-sweep"), "kind: must be one of"),
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
        (lambda c: c.update(workers=2), "workers: unknown field"),
        (lambda c: c.update(otoc={"expectation_state": "maximally_mixed"}),
         "otoc: unknown field"),
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
    ],
)
def test_circuit_config_validation_errors(tmp_path, capsys, mutate, needle):
    cfg = base_circuit_config(tmp_path)
    mutate(cfg)
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("where,needle", [
    ("top_level", "delta: repeated field"),
    ("block", "syk.q: repeated field"),
    ("gate_list", "circuit (gates.json): gates[1].angle: repeated field"),
], ids=["top_level", "block", "gate_list"])
def test_repeated_key_is_a_config_error(tmp_path, capsys, command, where, needle):
    # json.loads keeps a repeated key's last value: "delta": 0.5, "delta": 1e-6
    # ran at 1e-6, and the summary's config showed only that one.
    if where == "top_level":
        text = json.dumps({**bound8_config(tmp_path), "delta": 0.5})[:-1] + ', "delta": 1e-6}'
    elif where == "block":
        text = json.dumps(base_syk_config(tmp_path)).replace('"q": 4', '"q": 4, "q": 6')
    else:
        gates = [{"name": "H", "targets": [0]}, {"name": "RX", "targets": [1], "angle": 0.5}]
        gates_text = json.dumps({"n_qubits": 2, "gates": gates})
        (tmp_path / "gates.json").write_text(gates_text.replace('0.5', '0.5, "angle": 1.5'))
        text = json.dumps(base_circuit_config(tmp_path, circuit="gates.json"))
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {needle}\n"
    assert not list(tmp_path.glob("**/*.csv"))


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


@pytest.mark.parametrize("block,name,value", [
    ("syk", "n_majorana", 7), ("syk", "q", 8), ("syk", "j_squared", 0.0),
    ("syk", "realizations", 0), ("partition", "n_a", 0), ("partition", "n_b", 0),
])
def test_out_of_range_value_names_its_field(tmp_path, capsys, block, name, value):
    cfg = base_syk_config(tmp_path)
    cfg[block][name] = value
    assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {block}.{name}: ")


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
        (lambda c: c.update(workers=0), "workers: must be at least 1"),
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
    # At 1|1 the regularized start's smallest marginal eigenvalue is delta / 2,
    # which must stay twice RANK_TOL.
    cfg["delta"] = 1e-12
    assert cli.main(["validate", write_config(tmp_path, cfg, "c4.json")]) == 2
    assert "delta: must be at least 4e-09" in capsys.readouterr().err
    # The random model and SYK draw from the seed; numpy refuses a negative one.
    cfg["delta"], cfg["seed"] = 1e-6, -3
    assert cli.main(["validate", write_config(tmp_path, cfg, "c5.json")]) == 2
    assert "seed: must be a non-negative integer" in capsys.readouterr().err
    cfg["seed"], cfg["modified_otoc"] = 1, False
    assert cli.main(["validate", write_config(tmp_path, cfg, "c6.json")]) == 2
    assert "modified_otoc: unknown field" in capsys.readouterr().err
    del cfg["modified_otoc"]
    cfg["workers"] = 2
    assert cli.main(["validate", write_config(tmp_path, cfg, "c7.json")]) == 2
    assert "workers: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 1), (2, 3)])
@pytest.mark.parametrize("model", ["random", "ising_chain"])
def test_bound8_delta_floor_is_twice_the_rank_tolerance(tmp_path, capsys, n_a, n_b, model):
    # At delta = RANK_TOL * d_X the smallest marginal eigenvalue sits at
    # RANK_TOL and eigh can return it a few ulp lower, which stopped the run
    # with exit 3; validate refuses that delta, and the floor it names runs.
    cfg = {
        "kind": "bound8",
        "partition": {"n_a": n_a, "n_b": n_b},
        "time_grid": {"start": 0.0, "stop": 4.0, "samples": 5},
        "model": {"type": model},
        "seed": 1,
        "output": str(tmp_path / "b8"),
    }
    floor = 2 * RANK_TOL * 2 ** max(n_a, n_b)
    cfg["delta"] = floor / 2
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == 2
        assert f"delta: must be at least {floor!r}" in capsys.readouterr().err
    cfg["delta"] = floor
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("samples", [10**12, 10**400], ids=["1e12", "1e400"])
def test_huge_time_grid_is_a_field_error(tmp_path, capsys, command, samples):
    # No machine holds either grid: the field is refused before np.linspace
    # is asked to allocate it.
    cfg = base_circuit_config(tmp_path, time_grid={"start": 0.0, "stop": 1.0, "samples": samples})
    assert cli.main([command, write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: time_grid.samples: ")


def oversized_config(tmp_path, case):
    """A config whose one-sample array numpy cannot represent."""
    if case == "circuit":
        (tmp_path / "gates.json").write_text(json.dumps({"n_qubits": 2000, "gates": []}))
        return base_circuit_config(tmp_path, partition={"n_a": 1, "n_b": 1999},
                                   circuit="gates.json")
    if case == "syk":
        return base_syk_config(tmp_path, partition={"n_a": 1, "n_b": 999},
                               syk={"n_majorana": 2000, "q": 4, "j_squared": 1.0,
                                    "realizations": 1})
    n_a, n_b = (15, 15) if case == "bound8" else (2000, 1)
    return {**bound8_config(tmp_path), "partition": {"n_a": n_a, "n_b": n_b}, "delta": 0.5}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", ["circuit", "syk", "bound8", "bound8-2000|1"])
def test_oversized_register_is_a_partition_error(tmp_path, capsys, command, case):
    # The first three ran into a numpy ValueError mid-run, reported as exit 3.
    # At 2000|1 bound8's delta floor is past the float range as well; the
    # register is refused before that floor is taken.
    cfg = oversized_config(tmp_path, case)
    assert cli.main([command, write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: partition: ")
    assert not (tmp_path / "out").exists() and not (tmp_path / "b8.csv").exists()


@pytest.mark.parametrize("kind,limit", [("syk", 29), ("bound8", 14)])
def test_register_limit_is_numpys_array_size(tmp_path, capsys, kind, limit):
    # With a 64-bit np.intp an array holds at most 2**59 - 1 complex entries:
    # d**2 of them at 29 qubits, and bound8's d**4 at 14.
    cfg = base_syk_config(tmp_path) if kind == "syk" else {**bound8_config(tmp_path), "delta": 0.5}
    for n, code in ((limit, 0), (limit + 1, 2)):
        cfg["partition"] = {"n_a": 1, "n_b": n - 1}
        if kind == "syk":
            cfg["syk"] = {**cfg["syk"], "n_majorana": 2 * n}
        assert cli.main(["validate", write_config(tmp_path, cfg)]) == code
    assert f"exceeds {limit} qubits" in capsys.readouterr().err


def test_model_fields_are_typed_with_defaults(tmp_path, capsys, monkeypatch):
    # A model row may type a field int, as a trapped-ion chain's ion count would.
    fields = {**models.MODEL_FIELDS, "toy": {"ions": (int, 5), "hx": (float, 0.7)}}
    for module in (models, cli):
        monkeypatch.setattr(module, "MODEL_FIELDS", fields)
    cfg = bound8_config(tmp_path)
    cfg["model"] = {"type": "toy", "hx": 1}
    loaded = cli.load_config(write_config(tmp_path, cfg))
    assert loaded.model == {"type": "toy", "ions": 5, "hx": 1.0}
    assert type(loaded.model["hx"]) is float
    for model, needle in (({"type": "toy", "ions": 2.0}, "model.ions: expected int"),
                          ({"type": "toy", "j": 1.0}, "model.j: unknown field")):
        cfg["model"] = model
        assert cli.main(["validate", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {needle}\n"


def test_missing_config_file(capsys):
    assert cli.main(["validate", "no-such-config"]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("bad_file", ["config", "gate_list"])
def test_file_that_is_not_utf8_is_a_config_error(tmp_path, command, bad_file):
    path = tmp_path / "c.json"
    if bad_file == "config":
        needle = "config error: config file not readable: "
        path.write_bytes(b"\xff\xfe" + json.dumps(base_circuit_config(tmp_path)).encode())
    else:
        needle = "config error: circuit: file not readable: gates.json: "
        (tmp_path / "gates.json").write_bytes(b"\xff")
        path.write_text(json.dumps(base_circuit_config(tmp_path, circuit="gates.json")))
    proc = fresh_python("-m", "scramble.cli", command, str(path))
    assert proc.returncode == 2
    assert needle in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_slack_violation_exits_3_naming_first_sample(tmp_path, capsys, monkeypatch):
    times = np.array([0.0, 0.2, 0.4])
    fake = {name: np.ones(3) for name in ("Idot", "SdotA", "SdotB", "SdotE")}
    fake.update(t=times, Obar=np.ones(3), slack9=np.array([0.0, -0.6, -0.7]),
                slack8=np.array([0.0, -0.6, -0.7]))
    monkeypatch.setattr(cli, "bound8_report", lambda *a, **k: fake)
    assert cli.main(["run", write_config(tmp_path, bound8_config(tmp_path))]) == 3
    err = capsys.readouterr().err
    # Values print as Python floats on every numpy, not as np.float64(0.2).
    assert "slack8 = -0.6 below -1e-09 first at t = 0.2\n" in err


def fake_run(tmp_path, monkeypatch, kind, table):
    """Run a config of ``kind`` whose channel table is ``table``: the exit code."""
    if kind == "circuit":
        monkeypatch.setattr(cli, "bound_report", lambda *a, **k: table)
        cfg = base_circuit_config(tmp_path, modified_otoc=False)
    elif kind == "syk":
        monkeypatch.setattr(cli, "syk_trajectory", lambda *a, **k: ([table], table))
        cfg = base_syk_config(tmp_path, partition={"n_a": 2, "n_b": 1})
    else:
        monkeypatch.setattr(cli, "bound8_report", lambda *a, **k: table)
        cfg = {**bound8_config(tmp_path), "partition": {"n_a": 1, "n_b": 2}}
    return cli.main(["run", write_config(tmp_path, cfg)]), cfg["output"]


@pytest.mark.parametrize("kind", ["circuit", "syk", "bound8"])
@pytest.mark.parametrize("obar, exit_code", [
    ([1.0, 1.0 + 5e-13, 0.25 - 5e-13], 0),  # within OBAR_T0_TOL of [1/4, 1]
    ([1.0, 1.0 + 2e-12, 1.5], 3),
    ([1.0, 0.25 - 2e-12, 0.1], 3),  # 2|1 for SYK: below 1/min(d_A, d_B)^2, not 1/d_A^2
])
def test_obar_outside_its_range_exits_3_naming_first_sample(
        tmp_path, capsys, monkeypatch, kind, obar, exit_code):
    # Every split here has min(d_A, d_B) = 2, so Obar(t) must lie in [1/4, 1].
    # Given Obar(0) = 1 that range certifies the operator form of bound 9.
    fake = {"t": np.array([0.0, 0.2, 0.4]), "Obar": np.array(obar)}
    fake.update({name: np.zeros(3) for name in ("I2", "slack9", "slack8")})
    code, output = fake_run(tmp_path, monkeypatch, kind, fake)
    assert code == exit_code
    assert os.path.exists(output + ".csv")
    assert os.path.exists(output + ".json") == (exit_code == 0)
    if exit_code:
        err = capsys.readouterr().err
        assert f"Obar = {obar[1]!r} outside [1/min(d_A, d_B)^2, 1]" in err
        assert err.endswith("first at t = 0.2\n")


def test_state_form_violation_is_counted_not_asserted(tmp_path, capsys):
    # |00> is an eigenstate of Z x Z, so RZZ(pi/2 t) keeps I = 0 while the
    # averaged OTOC falls to 0.5 at t = 1: slack9 < 0 at every t > 0. The state
    # form of bound 9 is no theorem, so the run succeeds and counts it.
    gates = {"n_qubits": 2, "gates": [{"name": "RZZ", "targets": [0, 1], "angle": np.pi / 2}]}
    (tmp_path / "rzz.json").write_text(json.dumps(gates))
    cfg = base_circuit_config(tmp_path, circuit=str(tmp_path / "rzz.json"),
                              time_grid={"start": 0.0, "stop": 1.0, "samples": 11})
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    _, data = read_csv(cfg["output"] + ".csv")
    assert np.abs(data["I"]).max() < 1e-12
    assert data["Obar"][-1] == pytest.approx(0.5)
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    assert summary["violations"] == {"slack9": 10, "Obar(0)": 0, "Obar": 0}
    assert summary["first_violation_t"] == {"slack9": 0.1}


@pytest.mark.parametrize("kind,checks", [
    ("circuit", {"slack9", "Obar(0)", "Obar"}),
    ("syk", {"slack9", "Obar(0)", "Obar"}),
    ("bound8", {"slack9", "slack8", "Obar(0)", "Obar"}),
])
def test_violations_count_every_check_whose_channel_the_run_holds(tmp_path, kind, checks):
    cfg = {"circuit": base_circuit_config, "syk": base_syk_config,
           "bound8": bound8_config}[kind](tmp_path)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    header, _ = read_csv(cfg["output"] + ".csv")
    assert checks == {name for name, row in cli.CHECKS.items() if row[0] in header}
    summary = json.loads(Path(cfg["output"] + ".json").read_text())
    extra = {"per_realization_slack9"} if kind == "syk" else set()
    assert summary["violations"] == dict.fromkeys(checks | extra, 0)


def test_bound8_slack9_is_diagnostic_only(tmp_path, monkeypatch):
    fake = {
        "t": np.array([0.0, 0.5, 1.0]),
        "I": np.zeros(3),
        "I2": np.zeros(3),
        "Obar": np.array([1.0, 0.4, 0.3]),
        "deltaO": np.array([0.0, 0.6, 0.7]),
        "slack9": np.array([0.0, -0.6, -0.7]),
    }

    def fake_report(u_of_t, part, initial, times, cfg=None):
        u_of_t(times)  # the rate rows come from the chunks bound_report requests
        return fake

    monkeypatch.setattr(liouville, "bound_report", fake_report)
    cfg = bound8_config(tmp_path)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "b8.json").read_text())
    assert summary["violations"]["slack9"] == 2
    assert summary["violations"]["slack8"] == 0


def test_bound8_run_diagonalizes_h_once(tmp_path, monkeypatch):
    original = qdense.eigh
    shapes = []

    def counted(h):
        shapes.append(np.shape(h))
        return original(h)

    for module in (qdense, entropy, scrambling, liouville, models, cli):
        if getattr(module, "eigh", None) is original:
            monkeypatch.setattr(module, "eigh", counted)
    cfg = cli.load_config(write_config(tmp_path, bound8_config(tmp_path)))
    cli.run_experiment(cfg)
    d = cfg.partition.dim
    # The marginals are diagonalized as (T, d_X, d_X) stacks.
    assert shapes.count((d, d)) == 1


def test_library_value_error_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # A good run first leaves a CSV and a summary at the same output.
    assert cli.main(["run", write_config(tmp_path, base_syk_config(tmp_path))]) == 0
    assert (tmp_path / "out" / "syk.csv").exists()
    # A library ValueError mid-run: neither output of the earlier run may
    # stay behind to pass for this run's.
    def refuse(part, u_t):
        raise ValueError("averaged OTOC refused mid-run")

    monkeypatch.setattr(scrambling, "averaged_otoc", refuse)
    cfg = base_syk_config(tmp_path, seed=1)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "assertion violation" in err and "refused mid-run" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "syk.csv").exists()
    assert not (tmp_path / "out" / "syk.json").exists()


def test_pooled_library_value_error_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # The same mid-run ValueError raised inside forked workers reaches cmd_run
    # as itself: exit 3, no traceback, and no stale outputs.
    cfg = base_syk_config(tmp_path, workers=2)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
    assert json.loads((tmp_path / "out" / "syk.json").read_text())["workers"] == 2
    parent = os.getpid()

    def refuse(part, u_t):
        raise ValueError(f"averaged OTOC refused mid-run in a worker: {os.getpid() != parent}")

    monkeypatch.setattr(scrambling, "averaged_otoc", refuse)
    cfg = base_syk_config(tmp_path, seed=1, workers=2)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "assertion violation" in err and "refused mid-run in a worker: True" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "syk.csv").exists()
    assert not (tmp_path / "out" / "syk.json").exists()


def test_killed_worker_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    # A good run first leaves a CSV and a summary at the same output.
    assert cli.main(["run", write_config(tmp_path, base_syk_config(tmp_path))]) == 0
    assert (tmp_path / "out" / "syk.csv").exists()
    # A forked worker killed mid-run leaves no result: exit 1, one error line,
    # and neither output of the earlier run stays behind.
    parent = os.getpid()
    build = models.build_syk_hamiltonian

    def killed(cfg, k):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return build(cfg, k)

    monkeypatch.setattr(models, "build_syk_hamiltonian", killed)
    cfg = base_syk_config(tmp_path, seed=1, workers=2)
    assert cli.main(["run", write_config(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exited without a result" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "syk.csv").exists()
    assert not (tmp_path / "out" / "syk.json").exists()


def test_memory_error_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    # A good run first leaves a CSV and a summary at the same output.
    path = write_config(tmp_path, bound8_config(tmp_path))
    assert cli.main(["run", path]) == 0
    assert (tmp_path / "b8.csv").exists()

    def unallocatable(h, basis):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(liouville, "build_liouvillian", unallocatable)
    assert cli.main(["run", path]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 64.0 GiB for an array\n"
    assert not (tmp_path / "b8.csv").exists()
    assert not (tmp_path / "b8.json").exists()


def test_import_loads_numpy_random():
    # numpy loads numpy.random lazily; importing it with the package keeps
    # that cost in start-up rather than in the first seeded run.
    code = "import sys, scramble.cli; sys.exit('numpy.random' not in sys.modules)"
    assert fresh_python("-c", code).returncode == 0


def test_import_loads_no_process_pool_machinery():
    # SYK workers are forked directly, so no run pays for importing
    # concurrent.futures or multiprocessing at start-up.
    code = ("import sys, scramble.cli; "
            "sys.exit(' '.join(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules) or None)")
    run = fresh_python("-c", code)
    assert run.returncode == 0, f"imported: {run.stderr.strip()}"
