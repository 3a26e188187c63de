"""Self-tests of the benchmark's output check and span arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import time

import pytest

import tracer
import workloads

REFS = workloads.load_references()


def _dataset_reference():
    seed = str(REFS["pools"]["sweep_det"][0])
    return REFS["artifacts"]["sweep_det"][seed]["fig5f/dataset.csv"]


def _write_csv(path, columns, rows):
    lines = ["# seed=0", "# angle_unit=radians", ",".join(columns)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_reference_dataset_passes_and_a_flipped_label_fails(tmp_path):
    ref = _dataset_reference()
    path = tmp_path / "dataset.csv"
    rows = [list(row) for row in ref["rows"]]
    _write_csv(path, ref["compare"], rows)
    attempted, problems = workloads.check_artifact(path, ref, REFS["tolerance"])
    assert (attempted, problems) == (1 + len(rows), [])

    label = ref["compare"].index("label")
    rows[3][label] = "class2" if rows[3][label] == "class1" else "class1"
    _write_csv(path, ref["compare"], rows)
    attempted, problems = workloads.check_artifact(path, ref, REFS["tolerance"])
    assert attempted == 1 + len(rows)
    assert len(problems) == 1 and "row 3" in problems[0] and "label" in problems[0]


def test_columns_are_matched_by_name(tmp_path):
    ref = _dataset_reference()
    columns = ["stop_reason", *reversed(ref["compare"])]
    rows = [["tol", *reversed(row)] for row in ref["rows"]]
    path = tmp_path / "dataset.csv"
    _write_csv(path, columns, rows)
    assert workloads.check_artifact(path, ref, REFS["tolerance"])[1] == []

    _write_csv(path, columns[:-1], [row[:-1] for row in rows])
    attempted, problems = workloads.check_artifact(path, ref, REFS["tolerance"])
    assert len(problems) == attempted


def test_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.01)

    def inner():
        traced_leaf()
        time.sleep(0.01)

    traced_leaf = t.wrap("collision.step", leaf)
    traced_inner = t.wrap("collision.oracle", inner)
    root = t.wrap("cli.main", lambda: [traced_inner(), traced_leaf()])
    root()
    totals = tracer.totals(t.spans)[0]
    assert totals["collision.step", "calls"] == 2
    assert totals["all", "self_s"] == pytest.approx(totals["cli.main", "s"], rel=1e-9)
    assert totals["collision.oracle", "self_s"] == pytest.approx(0.01, abs=0.005)


def test_install_wraps_bound_names_and_uninstall_restores_them():
    import qsc.classifier
    import qsc.presets

    before = (qsc.presets.evolve, qsc.classifier.evolve)
    t = tracer.Tracer()
    t.install(run_id=1)
    try:
        assert qsc.presets.evolve is not before[0] and qsc.classifier.evolve is not before[1]
    finally:
        t.uninstall()
    assert (qsc.presets.evolve, qsc.classifier.evolve) == before
