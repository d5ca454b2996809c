"""Shape derivative, elasticity inner product, and the restricted gradient."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapeopt import fem, quadrature, shape
from shapeopt.mesh import apply_deformation, boundary_measures, boundary_normals
from conftest import random_deformation


def solve_pair(mesh, data):
    return fem.solve_state(mesh, data), fem.solve_adjoint(mesh)


def objective_at(mesh, data, field, alpha):
    moved = apply_deformation(mesh, field, alpha)
    return fem.objective(moved, fem.solve_state(moved, data))


def test_elasticity_params_lame_constants():
    params = shape.ElasticityParams(young=2.0, poisson=0.25)
    assert params.mu == pytest.approx(0.8)
    assert params.lam == pytest.approx(0.8)
    assert params.damping == pytest.approx(0.4)
    with pytest.raises(ValueError):
        shape.ElasticityParams(young=-1.0)
    with pytest.raises(ValueError):
        shape.ElasticityParams(poisson=0.5)
    with pytest.raises(ValueError):
        shape.ElasticityParams(damping=0.0)


def test_elasticity_energy_of_affine_field_matches_formula(hexagon):
    """x^T E x for V = A x + b against the closed-form elastic energy.

    The strain of an affine field is constant, so the bilinear form reduces
    to area * (2 mu eps:eps + lam tr(eps)^2) plus the damping term, which is
    the exact integral of |V|^2 (computed here with a degree-5 rule).
    """
    params = shape.ElasticityParams(young=1.7, poisson=0.3)
    E = shape.assemble_elasticity(hexagon, params)
    a = np.array([[0.4, -0.7], [0.1, 0.2]])
    b = np.array([0.3, -0.5])
    field = hexagon.vertices @ a.T + b
    eps = 0.5 * (a + a.T)
    area = fem.cell_geometry(hexagon).volumes.sum()
    elastic = area * (
        2.0 * params.mu * np.sum(eps * eps) + params.lam * np.trace(eps) ** 2
    )
    bary, weights = quadrature.simplex_rule(2, 5)
    points = quadrature.physical_points(bary, hexagon.vertices[hexagon.cells])
    vals = points @ a.T + b
    vols = fem.cell_geometry(hexagon).volumes
    mass_term = params.damping * np.einsum(
        "c,q,cqd,cqd->", vols, weights, vals, vals
    )
    got = field.ravel() @ (E @ field.ravel())
    assert_allclose(got, elastic + mass_term, rtol=1e-12)


def test_elasticity_is_symmetric_positive_definite(disk0):
    E = shape.assemble_elasticity(disk0, shape.ElasticityParams())
    assert abs(E - E.T).max() <= 1e-14 * abs(E).max()
    # damping removes the rigid-motion kernel
    rigid = np.column_stack((-disk0.vertices[:, 1], disk0.vertices[:, 0]))
    assert rigid.ravel() @ (E @ rigid.ravel()) > 0.0
    from scipy.sparse.linalg import eigsh
    lam_min = eigsh(E.tocsc(), k=1, which="SA", return_eigenvectors=False)[0]
    assert lam_min > 0.0


def test_normal_force_matches_boundary_quadrature(disk0, rng):
    """N F pairing equals the boundary integral of F (V . nu).

    Both F and V . nu are piecewise linear on each boundary edge, so the
    exact edge integral is the two-point formula length/6 * (2 a0 b0 +
    a0 b1 + a1 b0 + 2 a1 b1), assembled here directly as the oracle.
    """
    N = shape.assemble_normal_force(disk0)
    bverts = disk0.boundary_vertices
    force = rng.standard_normal(len(bverts))
    field = random_deformation(disk0, rng)
    lengths = boundary_measures(disk0)
    normals = boundary_normals(disk0)
    index_of = {v: i for i, v in enumerate(bverts)}
    oracle = 0.0
    for facet, length, normal in zip(disk0.boundary_facets, lengths, normals):
        a = [force[index_of[v]] for v in facet]
        b = [field[v] @ normal for v in facet]
        oracle += length / 6.0 * (
            2.0 * a[0] * b[0] + a[0] * b[1] + a[1] * b[0] + 2.0 * a[1] * b[1]
        )
    got = field.ravel() @ (N @ force)
    assert_allclose(got, oracle, rtol=1e-12)


def test_shape_derivative_matches_finite_differences(disk0, data2d, rng):
    u, p = solve_pair(disk0, data2d)
    derivative = shape.shape_derivative(disk0, data2d, u, p)
    field = random_deformation(disk0, rng, scale=0.5)
    directional = derivative.pair(field)
    h = 1e-6
    fd = (objective_at(disk0, data2d, field, h)
          - objective_at(disk0, data2d, field, -h)) / (2.0 * h)
    assert directional == pytest.approx(fd, rel=1e-7)


def test_shape_derivative_3d_matches_finite_differences(cube2, data3d, rng):
    u, p = solve_pair(cube2, data3d)
    derivative = shape.shape_derivative(cube2, data3d, u, p)
    field = random_deformation(cube2, rng, scale=0.2)
    directional = derivative.pair(field)
    h = 1e-6
    fd = (objective_at(cube2, data3d, field, h)
          - objective_at(cube2, data3d, field, -h)) / (2.0 * h)
    assert directional == pytest.approx(fd, rel=1e-6)


def test_classical_gradient_solves_elasticity(disk0, data2d):
    u, p = solve_pair(disk0, data2d)
    derivative = shape.shape_derivative(disk0, data2d, u, p)
    ops = shape.shape_operators(disk0, shape.ElasticityParams())
    v = shape.classical_gradient(disk0, shape.ElasticityParams(), derivative)
    residual = ops.elasticity @ v.values.ravel() + derivative.coeffs.ravel()
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(derivative.coeffs)


def test_restricted_gradient_saddle_identities(disk0, data2d):
    params = shape.ElasticityParams()
    u, p = solve_pair(disk0, data2d)
    derivative = shape.shape_derivative(disk0, data2d, u, p)
    ops = shape.shape_operators(disk0, params)
    res = shape.restricted_gradient(disk0, params, derivative)
    scale = np.linalg.norm(derivative.coeffs)
    # E V = N F: the direction is induced by the boundary force
    lhs = ops.elasticity @ res.direction.ravel()
    rhs = ops.normal_force @ res.force
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale
    # multiplier orthogonality N^T Pi = 0
    assert np.linalg.norm(ops.normal_force.T @ res.multiplier.ravel()) <= 1e-9 * scale
    # direction = classical - multiplier
    assert_allclose(res.direction, res.classical - res.multiplier, atol=1e-14)
    # energy identity <E V, V> = -dJ(V)
    assert res.energy == pytest.approx(-derivative.pair(res.direction), rel=1e-11)


def test_restricted_projection_is_idempotent(disk0, data2d):
    params = shape.ElasticityParams()
    u, p = solve_pair(disk0, data2d)
    derivative = shape.shape_derivative(disk0, data2d, u, p)
    ops = shape.shape_operators(disk0, params)
    res = shape.restricted_gradient(disk0, params, derivative)
    # feed -E V back in: classical gradient of that dual is V itself,
    # so the projection must reproduce V
    dual = fem.DualVector(
        -(ops.elasticity @ res.direction.ravel()).reshape(res.direction.shape)
    )
    again = shape.restricted_gradient(disk0, params, dual)
    norm = np.linalg.norm(res.direction)
    assert np.linalg.norm(again.direction - res.direction) <= 1e-10 * norm


def test_restricted_energy_never_exceeds_classical(disk0, data2d):
    # the restriction is an E-orthogonal projection, so it cannot gain energy
    params = shape.ElasticityParams()
    u, p = solve_pair(disk0, data2d)
    derivative = shape.shape_derivative(disk0, data2d, u, p)
    ops = shape.shape_operators(disk0, params)
    res = shape.restricted_gradient(disk0, params, derivative)
    classical_energy = res.classical.ravel() @ (ops.elasticity @ res.classical.ravel())
    assert 0.0 < res.energy <= classical_energy * (1.0 + 1e-12)


def test_ssw_masks_boundary_rows(disk0, data2d):
    params = shape.ElasticityParams()
    u, p = solve_pair(disk0, data2d)
    derivative = shape.shape_derivative(disk0, data2d, u, p)
    ops = shape.shape_operators(disk0, params)
    v = shape.ssw_direction(disk0, params, derivative)
    # E V must equal -dJ on interior vertices and 0 on boundary vertices
    residual = (ops.elasticity @ v.values.ravel()).reshape(v.values.shape)
    interior = fem.interior_vertices(disk0)
    scale = np.linalg.norm(derivative.coeffs)
    assert np.linalg.norm(
        residual[interior] + derivative.coeffs[interior]
    ) <= 1e-10 * scale
    assert np.linalg.norm(residual[disk0.boundary_vertices]) <= 1e-10 * scale


def test_stationarity_residual_zero_for_tangential_fields(disk0):
    # rotation field is tangential to the circle, so N^T annihilates it
    normal_t = shape.shape_operators(disk0, shape.ElasticityParams()).normal_force.T
    rotation = np.column_stack((-disk0.vertices[:, 1], disk0.vertices[:, 0]))
    radial = disk0.vertices.copy()
    assert np.linalg.norm(normal_t @ rotation.ravel()) <= 1e-12
    assert np.linalg.norm(normal_t @ radial.ravel()) > 0.1

