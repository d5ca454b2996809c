"""P1 assembly and Poisson solves against independent oracles.

Element matrices are cross-checked with sympy integration on an arbitrary
triangle; solver accuracy with the exact solution on the disk, where
-laplace(u) = 1 gives u = (1 - |x|^2) / 4.
"""
import pickle

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose

from shapeopt import fem
from shapeopt.mesh import SimplicialMesh, apply_deformation, drop_derived, generate_disk_mesh
from shapeopt.problems import ProblemData, benchmark_load_2d
from shapeopt.shape import ElasticityParams, restriction, shape_operators
from conftest import random_deformation


def constant_load(dim: int, value: float = 1.0) -> ProblemData:
    return ProblemData(
        dim,
        lambda p: np.full(p.shape[:-1], value),
        lambda p: np.zeros(p.shape),
        lambda p: np.zeros(p.shape + (dim,)),
        name=f"const-{value}",
    )


def sympy_element_matrices(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact P1 stiffness and mass matrices of one triangle via sympy."""
    x, y = sympy.symbols("x y")
    corners = [sympy.Matrix(c) for c in coords]
    # hat functions: lambda_i(x) solves the 3x3 interpolation system
    system = sympy.Matrix(
        [[1, c[0], c[1]] for c in coords]
    )
    hats = []
    for i in range(3):
        e = sympy.zeros(3, 1)
        e[i] = 1
        a = system.solve(e)
        hats.append(a[0] + a[1] * x + a[2] * y)
    # integrate over the triangle by mapping from the reference element
    u, v = sympy.symbols("u v", nonnegative=True)
    xm = corners[0] + u * (corners[1] - corners[0]) + v * (corners[2] - corners[0])
    jdet = sympy.Abs(
        (corners[1][0] - corners[0][0]) * (corners[2][1] - corners[0][1])
        - (corners[2][0] - corners[0][0]) * (corners[1][1] - corners[0][1])
    )

    def integrate(expr):
        mapped = expr.subs({x: xm[0], y: xm[1]}, simultaneous=True)
        inner = sympy.integrate(mapped, (v, 0, 1 - u))
        return sympy.integrate(inner, (u, 0, 1)) * jdet

    K = np.empty((3, 3))
    M = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            gi = sympy.Matrix([sympy.diff(hats[i], x), sympy.diff(hats[i], y)])
            gj = sympy.Matrix([sympy.diff(hats[j], x), sympy.diff(hats[j], y)])
            K[i, j] = float(integrate(gi.dot(gj)))
            M[i, j] = float(integrate(hats[i] * hats[j]))
    return K, M


def test_single_triangle_matrices_match_sympy():
    coords = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])
    mesh = SimplicialMesh.from_cells(coords, np.array([[0, 1, 2]]))
    K_oracle, M_oracle = sympy_element_matrices(coords)
    assert_allclose(fem.assemble_stiffness(mesh).toarray(), K_oracle, atol=1e-13)
    assert_allclose(fem.assemble_mass(mesh).toarray(), M_oracle, atol=1e-14)


def test_stiffness_kernel_is_constants(disk0):
    K = fem.assemble_stiffness(disk0)
    assert_allclose(K @ np.ones(disk0.num_vertices), 0.0, atol=1e-13)
    # symmetric up to summation order of the scatter
    assert abs(K - K.T).max() <= 1e-15 * abs(K).max()


def test_mass_total_is_area(disk0):
    M = fem.assemble_mass(disk0)
    ones = np.ones(disk0.num_vertices)
    area = ones @ (M @ ones)
    from shapeopt.mesh import signed_volumes
    assert_allclose(area, signed_volumes(disk0).sum(), rtol=1e-13)


def test_unit_load_integrates_linears(hexagon):
    # integral of a linear field equals b . u exactly
    b = fem.assemble_unit_load(hexagon)
    field = 0.7 * hexagon.vertices[:, 0] - 1.3 * hexagon.vertices[:, 1] + 0.25
    exact = 0.25 * fem.cell_geometry(hexagon).volumes.sum()  # odd parts cancel by symmetry
    assert_allclose(b @ field, exact, rtol=1e-13)
    assert_allclose(fem.objective(hexagon, field), exact, rtol=1e-13)


def test_load_matches_quadrature_oracle(disk0, data2d):
    from shapeopt import quadrature
    b = fem.assemble_load(disk0, data2d)
    bary, weights = quadrature.oracle_rule(2, 11)
    points = quadrature.physical_points(bary, disk0.vertices[disk0.cells])
    vols = fem.cell_geometry(disk0).volumes
    fvals = data2d.f(points)
    oracle = np.zeros(disk0.num_vertices)
    contrib = np.einsum("c,cq,q,qi->ci", vols, fvals, weights, bary)
    np.add.at(oracle, disk0.cells.ravel(), contrib.ravel())
    assert_allclose(b, oracle, rtol=1e-12, atol=1e-15)


def test_interior_vertices_complement_boundary(disk0):
    interior = fem.interior_vertices(disk0)
    both = np.concatenate((interior, disk0.boundary_vertices))
    assert np.array_equal(np.sort(both), np.arange(disk0.num_vertices))


def test_state_solution_zero_on_boundary(disk0, data2d):
    u = fem.solve_state(disk0, data2d)
    assert_allclose(u.values[disk0.boundary_vertices], 0.0, atol=0.0)


def test_state_converges_to_exact_disk_solution():
    # -laplace(u) = 1 on the unit disk: u(x) = (1 - |x|^2) / 4
    data = constant_load(2)
    errors = []
    for level in (0, 1, 2):
        mesh = generate_disk_mesh(1.0, level)
        u = fem.solve_state(mesh, data)
        exact = 0.25 * (1.0 - np.einsum("vd,vd->v", mesh.vertices, mesh.vertices))
        M = fem.assemble_mass(mesh)
        diff = u.values - exact
        errors.append(np.sqrt(diff @ (M @ diff)))
    errors = np.array(errors)
    assert errors[0] / errors[1] > 3.0  # second-order L2 convergence
    assert errors[1] / errors[2] > 3.0


def test_adjoint_is_negated_unit_state(disk1):
    # adjoint rhs is -integral(v); with f = 1 the state solves the same system
    p = fem.solve_adjoint(disk1)
    u1 = fem.solve_state(disk1, constant_load(2))
    assert_allclose(p.values, -u1.values, rtol=1e-12, atol=1e-16)


def test_per_mesh_data_is_computed_once_and_read_only(disk0, data2d, rng):
    geo = fem.cell_geometry(disk0)
    ws = fem.poisson_workspace(disk0)
    ops = shape_operators(disk0, ElasticityParams())
    restrict = restriction(disk0, ElasticityParams())
    assert fem.cell_geometry(disk0) is geo
    assert fem.poisson_workspace(disk0) is ws
    assert shape_operators(disk0, ElasticityParams()) is ops
    assert restriction(disk0, ElasticityParams()) is restrict
    assert restrict.operators is ops
    arrays = [geo.volumes, geo.grads, ws.interior, restrict.phi, restrict.schur[0]]
    for matrix in (ws.stiffness, ops.elasticity, ops.normal_force):
        arrays += [matrix.data, matrix.indices, matrix.indptr]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0
    # a deformed mesh derives its own data and never inherits the parent's
    moved = apply_deformation(disk0, random_deformation(disk0, rng, scale=0.05))
    moved_ws = fem.poisson_workspace(moved)
    assert fem.cell_geometry(moved) is not geo
    assert moved_ws is not ws and moved_ws.factor is not ws.factor
    fresh = SimplicialMesh(moved.vertices.copy(), moved.cells, moved.boundary_facets)
    assert np.array_equal(fem.cell_geometry(moved).volumes, fem.cell_geometry(fresh).volumes)
    assert np.array_equal(
        fem.solve_state(moved, data2d).values, fem.solve_state(fresh, data2d).values
    )


def test_state_and_adjoint_are_solved_once_per_mesh(data2d, monkeypatch):
    mesh = generate_disk_mesh(1.0, 0)
    loads = []
    assemble = fem.assemble_load
    monkeypatch.setattr(fem, "assemble_load", lambda *args: loads.append(1) or assemble(*args))
    u, p = fem.solve_state(mesh, data2d), fem.solve_adjoint(mesh)
    assert fem.solve_state(mesh, data2d) is u and fem.solve_adjoint(mesh) is p
    assert len(loads) == 1
    for values in (u.values, p.values):
        with pytest.raises(ValueError):
            values[0] = 1.0
    drop_derived(mesh)
    again = fem.solve_state(mesh, data2d)
    assert again is not u and np.array_equal(again.values, u.values)
    assert len(loads) == 2


def test_used_mesh_pickles_without_its_derived_data(disk0, data2d):
    fem.solve_state(disk0, data2d)
    copy = pickle.loads(pickle.dumps(disk0))
    assert "_derived" not in vars(copy) and "_topology" not in vars(copy)
    assert np.array_equal(copy.vertices, disk0.vertices)
    assert np.array_equal(fem.cell_geometry(copy).grads, fem.cell_geometry(disk0).grads)


def test_objective_of_benchmark_state_is_negative(disk0, data2d):
    # the benchmark load is negative near the origin, so J < 0 on the disk
    u = fem.solve_state(disk0, data2d)
    assert fem.objective(disk0, u) < 0.0


def test_dual_vector_pairing(rng):
    coeffs = rng.standard_normal((9, 2))
    field = rng.standard_normal((9, 2))
    dual = fem.DualVector(coeffs)
    assert dual.pair(field) == pytest.approx(float(np.sum(coeffs * field)), rel=1e-15)
    assert dual.pair(fem.NodalField(field)) == dual.pair(field)
