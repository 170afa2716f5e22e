"""Span tracer that wraps scramble's public functions from outside the package.

A module that does ``from .qdense import eigh`` holds its own binding of the
name, so the tracer replaces every binding of a traced function in every
scramble module; a call through any namespace records a span. Spans (name,
start, end, parent span, computed bytes) stay in memory until the sample ends.

Worker processes forked by a pool inherit the wrappers but their spans are
never sent back: on a pooled run only the parent side is traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# Public functions per layer; the layers are scramble's six modules.
TRACED = {
    "cli": ("load_config", "run_experiment", "write_csv"),
    "models": ("syk_trajectory", "build_syk_hamiltonian", "realize_circuit"),
    "scrambling": ("bound_report", "averaged_otoc", "modified_otoc"),
    "entropy": ("mutual_information", "renyi2_mutual_information"),
    "qdense": ("check_density_matrix", "eigh"),
    "liouville": ("entropy_production_rates", "build_liouvillian", "mutual_information_rate"),
}

# Names re-bound in other modules; a missing wrapper here would hide calls.
REQUIRED_BINDINGS = {
    "qdense.check_density_matrix": {"qdense", "entropy", "scrambling", "liouville"},
    "qdense.eigh": {"qdense", "scrambling", "liouville"},
    "scrambling.bound_report": {"scrambling", "models", "cli"},
}

COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conjugated_stack_bytes(args, kwargs, result):
    part = _arg(args, kwargs, 0, "part")
    return 4**part.n_b * part.dim**2 * COMPLEX_BYTES


def _superoperator_bytes(args, kwargs, result):
    d = len(_arg(args, kwargs, 0, "h"))
    return d**4 * COMPLEX_BYTES


def _csv_file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Bytes computed from array shapes (or the written file), never measured.
BYTES = {
    "scrambling.averaged_otoc": _conjugated_stack_bytes,
    "liouville.build_liouvillian": _superoperator_bytes,
    "cli.write_csv": _csv_file_bytes,
}


class Tracer:
    """Wraps every binding of the TRACED functions; ``spans`` holds the record."""

    def __init__(self):
        self.spans: list[list] = []
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"scramble.{m}") for m in TRACED}
        for owner, names in TRACED.items():
            for fn_name in names:
                span_name = f"{owner}.{fn_name}"
                original = getattr(modules[owner], fn_name)
                wrapper = self._wrap(span_name, original, BYTES.get(span_name))
                bound_in = [m for m, mod in modules.items()
                            if getattr(mod, fn_name, None) is original]
                for m in bound_in:
                    setattr(modules[m], fn_name, wrapper)
                    self._patched.append((modules[m], fn_name, original))
                self.bindings[span_name] = bound_in

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def missing_bindings(self) -> list[str]:
        """Required namespaces in which a traced name was not wrapped."""
        return [f"{name} in {sorted(need - set(self.bindings.get(name, ())))}"
                for name, need in REQUIRED_BINDINGS.items()
                if not need <= set(self.bindings.get(name, ()))]

    def _wrap(self, name, fn, bytes_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if bytes_of is not None:
                span[4] = bytes_of(args, kwargs, result)
            return result

        return traced


def summarize(spans) -> dict[str, dict]:
    """Per-function calls, self time (span minus child spans) and bytes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = {f"{owner}.{fn}": {"calls": 0, "self_s": 0.0, "bytes": 0}
             for owner, names in TRACED.items() for fn in names}
    for (name, start, end, _, nbytes), children in zip(spans, child_time):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - children
        row["bytes"] += nbytes
    return table
