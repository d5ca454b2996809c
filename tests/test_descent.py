"""Line-search loops, history bookkeeping, and the collapse diagnostic."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapeopt import descent, fem
from shapeopt.descent import (
    CONVERGED,
    MAX_ITERATIONS,
    LineSearchConfig,
    armijo_accepts,
    collapse_direction,
    load_history,
    spurious_sweep,
)
from shapeopt.mesh import apply_deformation, deformation_gradients, min_radius_ratio
from shapeopt.shape import ElasticityParams


def test_armijo_examples():
    assert armijo_accepts(1.0, 0.5, -1.0, 0.5, 0.1)       # 0.5 <= 1 - 0.05
    assert not armijo_accepts(1.0, 0.99, -1.0, 0.5, 0.1)  # 0.99 > 0.95
    # at alpha = 0 the test degenerates to plain decrease
    assert armijo_accepts(1.0, 1.0, -1.0, 0.0, 0.1)
    assert not armijo_accepts(1.0, 1.0 + 1e-12, -1.0, 0.0, 0.1)


@pytest.mark.parametrize("kwargs", [
    {"beta": 0.0}, {"beta": 1.0}, {"sigma": 0.0}, {"sigma": 0.7},
    {"alpha0": 0.0}, {"eps_tol": -1.0},
])
def test_line_search_config_validation(kwargs):
    with pytest.raises(ValueError):
        LineSearchConfig(**kwargs)


@pytest.mark.parametrize("solver", ["restricted", "newton"])
def test_accepted_trial_state_is_not_solved_again(solver, data2d, monkeypatch):
    """The Armijo test solves the state on each trial mesh; the next
    iteration start reuses it, so the loads assembled are one per moved mesh
    plus one for the initial mesh."""
    from shapeopt.mesh import generate_disk_mesh
    from shapeopt.newton import NewtonConfig, restricted_newton

    loads, moves = [], []
    assemble, move = fem.assemble_load, descent.apply_deformation
    monkeypatch.setattr(fem, "assemble_load", lambda *args: loads.append(1) or assemble(*args))
    monkeypatch.setattr(descent, "apply_deformation",
                        lambda *args: moves.append(1) or move(*args))
    mesh = generate_disk_mesh(1.0, 0)
    if solver == "restricted":
        _, record = descent.restricted_descent(mesh, data2d, config=LineSearchConfig(max_iterations=3))
    else:
        _, record = restricted_newton(mesh, data2d, config=NewtonConfig(max_iterations=3))
    assert len(record.iterates) == 4
    assert len(loads) == len(moves) + 1


def test_already_stationary_mesh_returns_immediately(disk0, data2d):
    config = LineSearchConfig(eps_tol=1e3)  # tolerance above any real energy
    final, record = descent.restricted_descent(disk0, data2d, config=config)
    assert record.status == CONVERGED
    assert len(record.iterates) == 1
    assert record.final.alpha == 0.0
    assert final is disk0


def test_restricted_descent_decreases_objective(disk0, data2d):
    config = LineSearchConfig(max_iterations=8)
    final, record = descent.restricted_descent(disk0, data2d, config=config)
    assert record.status == MAX_ITERATIONS
    objectives = record.objectives
    assert np.all(np.diff(objectives) < 0.0)
    assert final.num_vertices == disk0.num_vertices
    # steps carry over: alphas stay within a factor of beta of each other
    accepted = [r.alpha for r in record.iterates if r.alpha > 0.0]
    assert accepted and all(a > 0.0 for a in accepted)


def test_descent_records_quality_and_backtracks(disk0, data2d):
    config = LineSearchConfig(max_iterations=5)
    _, record = descent.classical_descent(disk0, data2d, config=config)
    for it in record.iterates:
        assert 0.0 < it.min_radius_ratio <= 1.0
        assert it.backtracks >= 0
        assert it.damping is None


def test_callback_sees_every_iterate(disk0, data2d):
    seen = []
    config = LineSearchConfig(max_iterations=3)
    descent.restricted_descent(
        disk0, data2d, config=config,
        callback=lambda iteration, **kw: seen.append(iteration),
    )
    assert seen == [0, 1, 2, 3]


def test_history_csv_round_trip(tmp_path, disk0, data2d):
    config = LineSearchConfig(max_iterations=4)
    _, record = descent.restricted_descent(disk0, data2d, config=config)
    path = tmp_path / "history.csv"
    record.write_csv(path)
    table = load_history(path)
    assert list(table) == ["iter", "J", "grad_energy", "alpha", "backtracks",
                           "min_radius_ratio"]
    assert_allclose(table["J"], record.objectives, rtol=0.0, atol=0.0)
    assert_allclose(table["grad_energy"], record.energies, rtol=0.0, atol=0.0)


def test_ssw_runs_and_records(disk0, data2d):
    config = LineSearchConfig(max_iterations=3)
    _, record = descent.ssw_descent(disk0, data2d, config=config)
    assert record.method == "ssw"
    assert record.status in (MAX_ITERATIONS, descent.NON_DESCENT, CONVERGED)
    assert len(record.iterates) >= 1


def test_collapse_direction_moves_single_vertex(disk0, data2d):
    field, vertex = collapse_direction(disk0, data2d, collapse_alpha=0.1)
    moved = np.flatnonzero(np.any(field != 0.0, axis=1))
    assert list(moved) == [vertex]
    assert vertex in disk0.boundary_vertices
    # by construction some cell determinant hits zero exactly at alpha = 0.1
    rates = np.trace(deformation_gradients(disk0, field), axis1=1, axis2=2)
    assert abs(1.0 + 0.1 * rates.min()) <= 1e-12


def test_spurious_sweep_zero_field_is_constant(disk0, data2d):
    sweep = spurious_sweep(disk0, data2d, np.zeros_like(disk0.vertices),
                           [0.0, 0.05, 0.1])
    assert_allclose(sweep.min_determinants, 1.0, atol=1e-13)
    assert_allclose(sweep.objectives, sweep.objectives[0], rtol=1e-14)


def test_spurious_sweep_stops_at_degeneracy(disk0, data2d):
    field, _ = collapse_direction(disk0, data2d, collapse_alpha=0.1)
    sweep = spurious_sweep(disk0, data2d, field, np.linspace(0.0, 0.2, 21))
    # the sweep must stop at the collapse, never probing past alpha = 0.1
    assert sweep.alphas[-1] == pytest.approx(0.1, abs=1e-12)
    assert sweep.min_determinants[-1] <= 1e-12
    assert np.isnan(sweep.objectives[-1])
    assert np.all(np.isfinite(sweep.objectives[:-1]))
