"""Per-layer spans for the qsc benchmark, recorded from outside the program.

The tracer replaces, for the length of one traced workload run, the names a
calling module has bound to another layer's public functions (for example
``qsc.presets.evolve`` and ``qsc.classifier.evolve`` separately) with timing
wrappers, and restores them afterwards.  Nothing under ``src/`` changes.  A
span is ``[name, start, end, parent index, run id, info]``; the prefix of its
name before the first dot is its layer.  A span's self time is its duration
minus the durations of its child spans, which never overlap because the
benchmark runs serially.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

# (calling module, name bound there, span name).  A name a later version of
# the program no longer binds is skipped, and its counts read zero.
TARGETS = (
    ("qsc.cli", "run_preset", "presets.run_preset"),
    ("qsc.cli", "evolve", "collision.evolve"),
    ("qsc.cli", "steady_state_oracle", "collision.oracle"),
    ("qsc.presets", "evolve", "collision.evolve"),
    ("qsc.presets", "steady_state_oracle", "collision.oracle"),
    ("qsc.presets", "sweep_couplings", "classifier.sweep"),
    ("qsc.presets", "sweep_thetas", "classifier.sweep"),
    ("qsc.presets", "generate_theta_dataset", "classifier.dataset"),
    ("qsc.presets", "check_linear_separability", "classifier.separability"),
    ("qsc.classifier", "evolve", "collision.evolve"),
    ("qsc.collision", "step", "collision.step"),
    ("qsc.collision", "expm_skew_hermitian", "linalg.expm"),
    ("qsc.collision", "validate_density_matrix", "states.validate"),
    ("qsc.writers", "write_trajectory", "writers.write"),
    ("qsc.writers", "write_sweep", "writers.write"),
    ("qsc.writers", "write_dataset", "writers.write"),
    ("qsc.writers", "write_separability", "writers.write"),
    ("qsc.writers", "write_json", "writers.write"),
)


def _evolve_info(fn, args, kwargs, result) -> dict:
    steady = result[1]
    return {"collisions": steady.n_used, "budget_exhausted": not steady.converged}


def _separability_info(fn, args, kwargs, result) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    cap = call.arguments.get("max_iterations")
    return {"epochs": result.iterations,
            "capped": not result.separable and result.iterations == cap}


def _write_info(fn, args, kwargs, result) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs).arguments
    data = call.get("traj", call.get("points"))
    return {"bytes": os.path.getsize(call["path"]), "rows": 1 if data is None else len(data)}


# Facts read from a call's arguments and result after its span has closed.
_INFO = {
    "collision.evolve": _evolve_info,
    "classifier.separability": _separability_info,
    "writers.write": _write_info,
}


class Tracer:
    """Keeps spans in memory; ``install``/``uninstall`` bracket one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(fn, args, kwargs, result)
            return result

        return traced

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self.wrap(name, original))
                self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def totals(spans: list[list]) -> dict[int, defaultdict]:
    """Per run id: (span name, field) -> sum, for fields s, self_s, calls and info keys."""
    child = [0.0] * len(spans)
    for name, start, end, parent, run, info in spans:
        if parent >= 0:
            child[parent] += end - start
    runs: dict[int, defaultdict] = {}
    for index, (name, start, end, parent, run, info) in enumerate(spans):
        t = runs.setdefault(run, defaultdict(float))
        t[name, "s"] += end - start
        t[name, "self_s"] += end - start - child[index]
        t[name, "calls"] += 1
        t["all", "self_s"] += end - start - child[index]
        for key, value in (info or {}).items():
            t[name, key] += value
    return runs


def layer_metrics(t: defaultdict, wall: float) -> dict[str, float]:
    """The benchmark's per-layer metrics for one traced workload run of ``wall`` seconds."""
    evolve_s, collisions = t["collision.evolve", "s"], t["collision.evolve", "collisions"]
    return {
        "collision.evolve_s": evolve_s,
        "collision.ns_per_collision": 1e9 * evolve_s / collisions if collisions else 0.0,
        "collision.evolve_calls": t["collision.evolve", "calls"],
        "collision.collisions": collisions,
        "collision.budget_exhausted": t["collision.evolve", "budget_exhausted"],
        "collision.oracle_s": t["collision.oracle", "s"],
        "collision.oracle_calls": t["collision.oracle", "calls"],
        "collision.step_calls": t["collision.step", "calls"],
        "linalg.expm_s": t["linalg.expm", "s"],
        "linalg.expm_calls": t["linalg.expm", "calls"],
        "states.validate_s": t["states.validate", "s"],
        "states.validate_calls": t["states.validate", "calls"],
        "classifier.separability_s": t["classifier.separability", "s"],
        "classifier.separability_epochs": t["classifier.separability", "epochs"],
        "classifier.separability_capped": t["classifier.separability", "capped"],
        "classifier.sweep_self_s": t["classifier.sweep", "self_s"],
        "writers.write_s": t["writers.write", "s"],
        "writers.bytes": t["writers.write", "bytes"],
        "writers.rows": t["writers.write", "rows"],
        "writers.calls": t["writers.write", "calls"],
        "presets.self_s": t["presets.run_preset", "self_s"],
        "cli.self_s": t["cli.main", "self_s"],
        "trace.wall_s": wall,
        # Time between the CLI calls of a workload run, outside every span.
        "trace.unattributed_frac": 1.0 - t["all", "self_s"] / wall,
    }
