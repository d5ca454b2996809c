"""The benchmark's traced run wraps these program names from outside.

``bench/tracing.py`` lists every function and method it replaces.  A
refactor that renames or deletes one of them would make ``--trace 1`` raise,
so each listed name must resolve in the imported package.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for _, module, attr in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for module, cls, method in tracing.METHODS.values():
        owner = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(owner, method, None)):
            missing.append(f"{module}.{cls}.{method}")
    assert not missing


def test_factorization_takes_the_matrix_first():
    # the tracer reads the factored matrix as the first argument after self
    from shapeopt.linalg import Factorization

    assert list(inspect.signature(Factorization.__init__).parameters)[1] == "matrix"


def test_every_solver_returns_mesh_and_record_with_step_rows():
    # bench/worker.py wraps each cli._SOLVERS entry, takes result[1] as the
    # run record and counts rows with alpha > 0 as accepted steps
    from shapeopt import cli
    from shapeopt.descent import LineSearchConfig, RunRecord
    from shapeopt.mesh import SimplicialMesh, generate_disk_mesh
    from shapeopt.newton import NewtonConfig
    from shapeopt.problems import benchmark_load_2d
    from shapeopt.shape import ElasticityParams

    mesh, data = generate_disk_mesh(1.0, 0), benchmark_load_2d()
    for method, solver in cli._SOLVERS.items():
        config_type = NewtonConfig if method == "restricted-newton" else LineSearchConfig
        final, record = solver(mesh, data, ElasticityParams(), config_type(max_iterations=2),
                               callback=None)
        assert isinstance(final, SimplicialMesh), method
        assert isinstance(record, RunRecord), method
        *steps, terminal = record.iterates
        assert all(r.alpha > 0.0 for r in steps), method
        assert terminal.alpha == 0.0, method
