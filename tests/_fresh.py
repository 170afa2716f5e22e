"""Run Python in a fresh interpreter that imports scramble from this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import scramble

SRC = str(Path(scramble.__file__).resolve().parent.parent)
# CSV bytes differ across BLAS thread counts, so every child runs one thread.
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def fresh_python(*args: str, cwd=None, hash_seed: int | None = None):
    """``python *args`` in a new interpreter, output captured; the CompletedProcess.

    ``hash_seed`` sets the child's PYTHONHASHSEED, its string-hash order.
    """
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": SRC}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
