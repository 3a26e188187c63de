"""Workloads of the qsc benchmark and the checks on what they write.

A workload is a fixed list of ``qsc run`` command lines.  The benchmark seed
picks one program seed from the workload's pool in ``references.json``; the
program receives nothing else that depends on the seed.  Every artifact is
compared with the reference recorded for that program seed:

* columns are looked up by name, so artifacts may gain columns;
* labels and the ``separable`` verdict must match exactly, except that a
  label whose reference ``sigma_z_ss`` lies within the tolerance of zero only
  has to agree with the sign of the artifact's own ``sigma_z_ss``;
* every other compared number must lie within ``references.json``'s
  ``tolerance`` of the reference;
* ``n_used``, ``converged``, the trajectory index ``n`` and the
  ``iterations``, ``w``, ``b`` and ``margin`` fields of ``separability.json``
  are not compared: later changes to the engine and the separability test
  redefine them.

One check is one exit code, one artifact's column set, one compared row or
one verdict.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class Artifact:
    """One file a call writes; ``kind`` is table (all rows), final (last row) or verdict."""

    file: str
    kind: str
    compare: tuple[str, ...] = ()


@dataclass(frozen=True)
class Call:
    """One ``qsc run`` invocation; it writes into its own subdirectory ``name``."""

    name: str
    args: tuple[str, ...]
    exit_codes: frozenset[int]
    artifacts: tuple[Artifact, ...]

    def argv(self, out_root: Path) -> list[str]:
        return ["run", *self.args, "--out", str(out_root / self.name), "--jobs", "1"]


# Results one workload run delivers: sweep points, or trajectory runs.
POINTS = {
    "sweep_det": 21 + 42,  # fig3a sweep points + fig5f dataset points
    "classify_noisy": 42,  # fig7d dataset points
    "trajectory": 4 + 1,  # fig2a trajectories + the stochastic config run
}

# Exit 2 means a run stopped at its collision budget.  Noisy and stochastic
# runs are designed to use their whole budget, and a later change may report
# that as 0, so both codes are accepted there.
_OK = frozenset({0})
_BUDGET_OK = frozenset({0, 2})

_VERDICT = Artifact("separability.json", "verdict")


def _dataset(*features: str) -> Artifact:
    return Artifact("dataset.csv", "table", (*features, "sigma_z_ss", "label"))


def _final_row(file: str) -> Artifact:
    return Artifact(file, "final", ("sigma_z", "bloch_x", "bloch_y", "bloch_z", "fidelity"))


def stochastic_config(program_seed: int) -> dict:
    """Three equally weighted reservoirs drawn at random each collision."""
    return {
        "reservoirs": [
            {"theta": 0.0, "coupling": 0.1},
            {"theta": math.pi / 2, "coupling": 0.1},
            {"theta": math.pi, "coupling": 0.1},
        ],
        "engine": {"tau": 0.5, "max_collisions": 20_000, "mixing_mode": "stochastic",
                   "seed": program_seed},
        "output": {"format": "json"},
    }


def prepare(workload: str, program_seed: int, work: Path) -> list[Call]:
    """Write the workload's input files into ``work`` and return its calls."""
    seed = str(program_seed)
    if workload == "sweep_det":
        return [
            Call("fig3a", ("--preset", "fig3a"), _OK,
                 (Artifact("sweep.csv", "table", ("param_value", "sigma_z_ss", "label")),)),
            Call("fig5f", ("--preset", "fig5f", "--seed", seed), _OK,
                 (_dataset("theta_1", "theta_2", "theta_3"), _VERDICT)),
        ]
    if workload == "classify_noisy":
        return [
            Call("fig7d", ("--preset", "fig7d", "--seed", seed), _BUDGET_OK,
                 (_dataset("theta_1", "theta_2"), _VERDICT)),
        ]
    if workload == "trajectory":
        config = work / "stochastic.json"
        config.write_text(json.dumps(stochastic_config(program_seed)), encoding="utf-8")
        fig2a = tuple(_final_row(f"trajectory_j2_{j2}.csv") for j2 in ("0.025", "0.05", "0.075", "0.1"))
        return [
            Call("fig2a", ("--preset", "fig2a"), _OK, fig2a),
            Call("stochastic", ("--config", str(config)), _BUDGET_OK, (_final_row("trajectory.json"),)),
        ]
    raise KeyError(f"unknown workload {workload!r}; choose one of {sorted(POINTS)}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def program_seed(references: dict, workload: str, seed: int) -> int:
    """The benchmark seed selects a program seed from the workload's pool."""
    pool = references["pools"][workload]
    return pool[seed % len(pool)]


def read_table(path: Path) -> tuple[list[str], list[list]]:
    """Column names and rows of a CSV (``#`` comment lines skipped) or JSON table."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        payload = json.loads(text)
        return list(payload["columns"]), payload["rows"]
    rows = list(csv.reader(line for line in text.splitlines() if line and not line.startswith("#")))
    return rows[0], rows[1:]


def extract(path: Path, artifact: Artifact) -> dict:
    """The reference record of one artifact: what later runs are compared with."""
    if artifact.kind == "verdict":
        verdict = json.loads(path.read_text(encoding="utf-8"))
        return {"kind": "verdict", "separable": bool(verdict["separable"])}
    columns, rows = read_table(path)
    if artifact.kind == "final":
        rows = rows[-1:]
    index = [columns.index(c) for c in artifact.compare]
    values = [[_value(c, row[i]) for c, i in zip(artifact.compare, index)] for row in rows]
    return {"kind": artifact.kind, "columns": columns, "compare": list(artifact.compare),
            "rows": values}


def _value(column: str, cell):
    return str(cell) if column == "label" else float(cell)


def check_artifact(path: Path, ref: dict, tol: float) -> tuple[int, list[str]]:
    """Compare one artifact with its reference; return (checks attempted, problems).

    Each problem is one failed check.
    """
    if ref["kind"] == "verdict":
        try:
            separable = json.loads(path.read_text(encoding="utf-8"))["separable"]
        except (OSError, ValueError, KeyError) as exc:
            return 1, [f"{path}: unreadable verdict ({exc})"]
        if separable is not ref["separable"]:
            return 1, [f"{path}: separable={separable}, reference {ref['separable']}"]
        return 1, []

    attempted = 1 + len(ref["rows"])
    try:
        columns, rows = read_table(path)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return attempted, [f"{path}: unreadable ({exc})"] * attempted
    missing = [c for c in ref["columns"] if c not in columns]
    if missing:
        return attempted, [f"{path}: missing columns {missing}"] * attempted
    if ref["kind"] == "final":
        rows = rows[-1:]
    if len(rows) != len(ref["rows"]):
        return attempted, [f"{path}: {len(rows)} rows, reference {len(ref['rows'])}"] * attempted

    compare = ref["compare"]
    index = {c: columns.index(c) for c in compare}
    problems = []
    for n, (row, expected) in enumerate(zip(rows, ref["rows"])):
        try:
            got = {c: _value(c, row[index[c]]) for c in compare}
        except (ValueError, IndexError) as exc:
            problems.append(f"{path} row {n}: unreadable ({exc})")
            continue
        want = dict(zip(compare, expected))
        bad = [c for c in compare if c != "label" and not abs(got[c] - want[c]) <= tol]
        if "label" in compare and got["label"] != _expected_label(got, want, tol):
            bad.append("label")
        if bad:
            problems.append(f"{path} row {n}: {', '.join(f'{c}={got[c]} (reference {want[c]})' for c in bad)}")
    return attempted, problems


def _expected_label(got: dict, want: dict, tol: float) -> str:
    # A steady state within the tolerance of sigma_z = 0 has no reliable sign:
    # the label then only has to follow the artifact's own sigma_z_ss.
    if abs(want["sigma_z_ss"]) <= tol:
        return "class1" if got["sigma_z_ss"] >= 0.0 else "class2"
    return want["label"]


def check_call(call: Call, code: int, out_root: Path, refs: dict, tol: float) -> tuple[int, list[str]]:
    """Checks for one call: its exit code, then each of its artifacts."""
    attempted = 1
    problems = [] if code in call.exit_codes else [
        f"{call.name}: exit code {code}, expected one of {sorted(call.exit_codes)}"]
    for artifact in call.artifacts:
        key = f"{call.name}/{artifact.file}"
        n, found = check_artifact(out_root / key, refs[key], tol)
        attempted += n
        problems.extend(found)
    return attempted, problems
