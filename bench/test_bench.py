"""Tests of the benchmark's own logic; they run no optimizer.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from shapeopt import generate_disk_mesh, read_vtk, write_vtk  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("solve", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 6.0, 0),
        ("b", 7.0, 7.5, 0),
    ]
    summary = tracing.summarize(spans)
    assert summary["solve"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 1.0 - 0.5}
    assert summary["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["b"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert summary["c"]["self_s"] == 1.0
    # self times partition the root span
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_survive_exceptions():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def outer_fn(x):
        return inner(inner(x))

    outer = tracer.wrap("outer", outer_fn)

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)
    assert outer(1) == 3
    with pytest.raises(ValueError):
        failing()
    assert outer(1) == 3
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0),
                     ("failing", -1), ("outer", -1), ("inner", 4), ("inner", 4)]
    summary = tracing.summarize(tracer.spans)
    assert summary["inner"]["calls"] == 4
    assert 0.0 <= summary["outer"]["self_s"] <= summary["outer"]["total_s"]


REFERENCE = {"status": "converged", "iterations": 2, "final_J": -0.09, "history_sha256": ""}


def fake_run(tmp_path: Path, status="converged", final_j=-0.09, objectives=(-0.08, -0.085, -0.09)):
    """An output directory shaped like the one ``cli.run`` writes."""
    write_vtk(generate_disk_mesh(1.0, 0), tmp_path / "final_mesh.vtk")
    lines = ["iter,J,grad_energy,alpha,backtracks,min_radius_ratio"]
    lines += [f"{i},{j!r},1e-20,0.5,0,0.7" for i, j in enumerate(objectives)]
    (tmp_path / "history.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "summary.txt").write_text(
        f"method: restricted-gradient\nstatus: {status}\niterations: {len(objectives) - 1}\n"
        f"final_objective: {final_j!r}\nfinal_gradient_norm: 1e-10\n"
        "final_min_radius_ratio: 0.7\nwall_seconds: 1.000\n"
    )
    return {"label": "disk0", "out_dir": str(tmp_path), "eps_tol": 1e-7}


def test_matching_run_has_no_problems(tmp_path):
    problems, info = checks.check_run(fake_run(tmp_path), REFERENCE, 0, read_vtk)
    assert problems == []
    assert info["iterations_match"]


@pytest.mark.parametrize("change, seed", [
    ({"final_j": -0.09 * (1 + 1e-8)}, 0),          # beyond the seed-0 tolerance
    ({"final_j": -0.09 * (1 + 2e-4)}, 7),          # beyond the jittered tolerance
    ({"status": "max_iterations"}, 0),
    ({"objectives": (-0.08, -0.07, -0.09)}, 0),    # J rises on the way
])
def test_wrong_result_is_counted_as_failed(tmp_path, change, seed):
    spec = fake_run(tmp_path, **change)
    tally = run.Tally([spec], {"disk0": REFERENCE}, seed, read_vtk)
    tally.check({"runs": [{"error": None, "solve_s": 1.0}]})
    assert (tally.attempted, tally.failed) == (1, 1)


def test_raised_run_and_crashed_worker_are_counted_as_failed(tmp_path):
    spec = fake_run(tmp_path)
    tally = run.Tally([spec], {"disk0": REFERENCE}, 0, read_vtk)
    tally.check({"runs": [{"error": "Traceback ...", "solve_s": 0.0}]})
    tally.crashed(run.WorkerError("exited -9"))
    assert (tally.attempted, tally.failed) == (2, 2)


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rep = {"runs": [{"solve_s": 2.0, "accepted": 3, "trials": 4, "error": None}],
           "peak_rss_mb": 50.0, "import_s": 0.5}
    traced = dict(rep, spans={"solve": {"calls": 1, "total_s": 2.5, "self_s": 0.1}},
                  counters={})
    layer = run.per_layer(rep, traced)
    assert set(layer) == {m["name"] for m in declared["per_layer"]}
    e2e = set(run.end_to_end(rep, [{"iterations": 3, "min_radius_ratio": 0.6}]))
    assert e2e | {"setup_s", "pass_ratio"} == {m["name"] for m in declared["end_to_end"]}
