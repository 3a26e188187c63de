"""Record the references that the benchmark checks every artifact against.

Run from the root of a qsc checkout, at the commit whose outputs are to be
the reference:

    PYTHONPATH=src python3 perfbench/record_references.py

For each workload it tries the program seeds DEFAULT_SEED, DEFAULT_SEED + 1,
... in order and keeps the first POOL_SIZE on which the workload does the
work it was chosen for:

* sweep_det: fig5f's dataset is separable, so the perceptron stops within a
  few epochs and evolve dominates;
* classify_noisy: fig7d's dataset is not separable, so the perceptron runs to
  its epoch cap;
* trajectory: every seed.

Each verdict must also agree with an exact linear-programming feasibility
test (scipy, needed here only), so no reference rests on the perceptron's
cap.  Seeds left out are listed in ``excluded`` with the reason.  Pool entry
0 is the default seed; the README names the held-out entry.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import qsc
import qsc.cli
import workloads

POOL_SIZE = 8
MAX_TRIES = 64
ENGINE_TOL = qsc.EngineConfig().tol
# The stopping rule bounds each of the last `window` steps by tol, which
# leaves sigma_z within 2 tol / (1 - |lambda|) of the fixed point, where
# |lambda| is the slowest eigenvalue modulus of the Bloch map.  It is at most
# 0.9997 on every deterministic point these workloads run, so 1e4 tol covers
# any correct stopping point.  Reproduced random samples agree far closer.
TOLERANCE = 1e4 * ENGINE_TOL
# Where a seed's verdict decides what the workload measures.
WANT_SEPARABLE = {"sweep_det": ("fig5f", True), "classify_noisy": ("fig7d", False)}


def lp_separable(path: Path) -> bool:
    """Exact test: some (w, b) with y_i (w . x_i + b) >= 1 for every point."""
    from scipy.optimize import linprog

    columns, rows = workloads.read_table(path)
    features = [i for i, c in enumerate(columns) if c not in ("sigma_z_ss", "label")]
    x = np.array([[float(row[i]) for i in features] for row in rows])
    y = np.array([1.0 if row[columns.index("label")] == "class1" else -1.0 for row in rows])
    a = -y[:, None] * np.hstack([x, np.ones((len(x), 1))])
    res = linprog(np.zeros(x.shape[1] + 1), A_ub=a, b_ub=-np.ones(len(x)),
                  bounds=(None, None), method="highs")
    return res.status == 0


def record(workload: str, program_seed: int, work: Path) -> tuple[dict, str | None]:
    """The seed's references, and why the seed does not fit the workload (None if it does)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_root = work / "out"
    refs = {}
    for call in workloads.prepare(workload, program_seed, work):
        code = qsc.cli.main(call.argv(out_root))
        if code not in call.exit_codes:
            raise SystemExit(f"{workload} seed {program_seed}: {call.name} exited with {code}")
        for artifact in call.artifacts:
            key = f"{call.name}/{artifact.file}"
            refs[key] = workloads.extract(out_root / key, artifact)
    if workload not in WANT_SEPARABLE:
        return refs, None
    name, want = WANT_SEPARABLE[workload]
    verdict = refs[f"{name}/separability.json"]["separable"]
    exact = lp_separable(out_root / name / "dataset.csv")
    if verdict != exact:
        return refs, f"perceptron says separable={verdict}, the exact test {exact}"
    if verdict != want:
        return refs, f"separable={verdict}"
    return refs, None


def main() -> int:
    work = workloads.HERE / ".work" / "record-references"
    pools, artifacts, excluded = {}, {}, {}
    for workload in workloads.POINTS:
        pools[workload], artifacts[workload], excluded[workload] = [], {}, {}
        for program_seed in range(qsc.DEFAULT_SEED, qsc.DEFAULT_SEED + MAX_TRIES):
            refs, misfit = record(workload, program_seed, work)
            print(f"{workload} seed {program_seed}: {misfit or 'kept'}", file=sys.stderr)
            if misfit:
                excluded[workload][str(program_seed)] = misfit
            else:
                pools[workload].append(program_seed)
                artifacts[workload][str(program_seed)] = refs
                if len(pools[workload]) == POOL_SIZE:
                    break
        else:
            raise SystemExit(f"{workload}: fewer than {POOL_SIZE} of {MAX_TRIES} seeds fit")
    shutil.rmtree(work, ignore_errors=True)
    payload = {"qsc_version": qsc.__version__, "engine_tol": ENGINE_TOL,
               "tolerance": TOLERANCE, "pools": pools, "excluded": excluded,
               "artifacts": artifacts}
    workloads.REFERENCES.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
