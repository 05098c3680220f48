"""Spans around the public entry points of every `xxchain` module.

`install` wraps each public function, and each public method of a public
class, defined in the layer modules.  Modules import functions by name
(`from .spectral import eigendecompose`), so the wrapper replaces the original
in every loaded `xxchain` module that holds it, not only where it is defined.
Each call records one span (name, layer, start, end, parent) plus the work
counts computed from its arguments; spans stay in memory until the pass ends.

`cli.emit_csv` and `cli.emit_json` form their own layer, `emit`, so that the
self time of `cli` is argument parsing and row assembly only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("chain", "spectral", "dynamics", "measures", "protocols", "oracle", "cli")
EMIT = frozenset({"cli.emit_csv", "cli.emit_json"})


def _phase_evals(n_times, dec):
    return {"phase_evals": n_times * dec.n_sites}


def _emit(rows, out_path):
    return {
        "emit_rows": len(rows) if isinstance(rows, list) else 1,
        "emit_bytes": os.path.getsize(out_path) if out_path else 0,
    }


# Work counts per span, from (args, kwargs, result); computed, not measured.
COUNTERS = {
    "spectral.eigendecompose": lambda a, k, r: {"sites": r.n_sites, "vector_bytes": 8 * r.n_sites ** 2},
    "dynamics.transfer_amplitude": lambda a, k, r: _phase_evals(getattr(r, "size", 1), a[0]),
    "dynamics.Propagator.amplitudes": lambda a, k, r: _phase_evals(1, a[0].dec),
    "dynamics.Propagator.amplitude_matrix": lambda a, k, r: _phase_evals(len(r), a[0].dec),
    "measures.wootters_concurrence": lambda a, k, r: {"wootters_calls": 1},
    "protocols.optimize_alpha": lambda a, k, r: {"alpha_points": len(r.per_alpha)},
    "protocols.fidelity_landscape": lambda a, k, r: {"alpha_points": r.alphas.size},
    "oracle.full_hamiltonian": lambda a, k, r: {"max_dim": r.shape[0]},
    "oracle.ancilla_evolve": lambda a, k, r: {"max_dim": r.amps.size},
    "cli.emit_csv": lambda a, k, r: _emit(a[0], a[2] if len(a) > 2 else k.get("out_path")),
    "cli.emit_json": lambda a, k, r: _emit(a[0], a[1] if len(a) > 1 else k.get("out_path")),
}


class Tracer:
    """Records nested spans; `spans` holds [name, layer, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn):
        layer = "emit" if name in EMIT else name.split(".", 1)[0]
        count = COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the module's entry points."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", obj, attr, member


def install(tracer: Tracer) -> int:
    """Wrap every layer's entry points; returns how many were wrapped."""
    modules = [importlib.import_module(f"xxchain.{layer}") for layer in LAYERS]
    loaded = [m for key, m in sorted(sys.modules.items())
              if key == "xxchain" or key.startswith("xxchain.")]
    originals = {}
    for layer, module in zip(LAYERS, modules):
        for qualname, owner, attr, fn in list(_public_callables(module)):
            wrapped = tracer.wrap(f"{layer}.{qualname}", fn)
            setattr(owner, attr, wrapped)
            originals[id(fn)] = (fn, wrapped)
    for module in loaded:
        for attr, value in list(vars(module).items()):
            if id(value) in originals and originals[id(value)][0] is value:
                setattr(module, attr, originals[id(value)][1])
    return len(originals)
