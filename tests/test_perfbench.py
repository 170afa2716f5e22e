"""The benchmark's reference CSVs still hold for the program in this tree.

Each workload of ``perfbench/run.py`` runs in-process at the benchmark's
reference seed; its CSVs must pass the channel checks of ``perfbench/checks.py``
and match ``perfbench/reference/`` within the benchmark's equality tolerance.
The benchmark's own files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scramble import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))  # run.py imports checks and tracer as top-level modules
_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

from checks import check_channels, compare_to_reference  # noqa: E402


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_matches_its_reference(workload, tmp_path):
    for stem, shape in bench.WORKLOADS[workload]():
        config = {**shape, "seed": bench.DEFAULT_SEED, "output": str(tmp_path / stem)}
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(config))
        cli.run_experiment(cli.load_config(str(path)))
        text = (tmp_path / f"{stem}.csv").read_text()
        assert check_channels(text, config) == [], stem
        assert compare_to_reference(text, (bench.REFERENCE / f"{stem}.csv").read_text()) == [], stem
