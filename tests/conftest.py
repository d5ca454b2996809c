"""Shared fixtures: benchmark meshes, problem data, seeded RNG."""
import shapeopt  # noqa: F401  (before numpy, so its one-BLAS-thread default applies)

import numpy as np
import pytest

from shapeopt import problems
from shapeopt.mesh import SimplicialMesh, generate_cube_mesh, generate_disk_mesh


@pytest.fixture(scope="session")
def disk0() -> SimplicialMesh:
    return generate_disk_mesh(1.0, 0)


@pytest.fixture(scope="session")
def disk1() -> SimplicialMesh:
    return generate_disk_mesh(1.0, 1)


@pytest.fixture(scope="session")
def cube2() -> SimplicialMesh:
    return generate_cube_mesh(2.0, 2)


@pytest.fixture(scope="session")
def cube4() -> SimplicialMesh:
    return generate_cube_mesh(2.0, 4)


def make_hexagon() -> SimplicialMesh:
    """Six triangles around one interior vertex; the smallest useful 2D mesh."""
    angles = np.arange(6) * np.pi / 3.0
    vertices = np.vstack(([0.0, 0.0], np.column_stack((np.cos(angles), np.sin(angles)))))
    cells = np.array([(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)])
    return SimplicialMesh.from_cells(vertices, cells)


@pytest.fixture(scope="session")
def hexagon() -> SimplicialMesh:
    return make_hexagon()


@pytest.fixture(scope="session")
def data2d() -> problems.ProblemData:
    return problems.benchmark_load_2d()


@pytest.fixture(scope="session")
def data3d() -> problems.ProblemData:
    return problems.benchmark_load_3d()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def random_deformation(
    mesh: SimplicialMesh, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Random vertex field normalized to max component ``scale``."""
    field = rng.standard_normal(mesh.vertices.shape)
    return scale * field / np.abs(field).max()
