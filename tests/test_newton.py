"""Coupled second-order system: exactness at W = 0 and the damped step."""
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapeopt import fem, linalg, shape
from shapeopt.descent import CONVERGED, LINE_SEARCH_FAILURE, LineSearchConfig
from shapeopt.linalg import BlockSystem, factorize
from shapeopt.mesh import (
    SimplicialMesh,
    apply_deformation,
    generate_cube_mesh,
    generate_disk_mesh,
)
from shapeopt.meshio import read_vtk, write_vtk
from shapeopt.newton import (
    LagrangianForms,
    NewtonConfig,
    NewtonSystem,
    d_elasticity,
    d_normal_force,
    d_normal_transpose,
    prepare_iterate,
    pulled_back_elasticity_apply,
    pulled_back_normal_apply,
    pulled_back_normal_transpose_apply,
    restricted_newton,
)
from shapeopt.problems import benchmark_load_2d, benchmark_load_3d
from conftest import random_deformation


@pytest.fixture(scope="module")
def params():
    return shape.ElasticityParams()


def solved(mesh, data):
    return fem.solve_state(mesh, data).values, fem.solve_adjoint(mesh).values


@pytest.mark.parametrize("kwargs", [{"beta": 1.5}, {"sigma": 0.5}, {"alpha0": -1.0}])
def test_newton_config_validation(kwargs):
    with pytest.raises(ValueError):
        NewtonConfig(**kwargs)


def test_newton_config_differs_from_line_search_only_in_four_defaults():
    newton_cfg, line_search = NewtonConfig(), LineSearchConfig()
    assert isinstance(newton_cfg, LineSearchConfig)
    names = [f.name for f in dataclasses.fields(NewtonConfig)]
    assert names == [f.name for f in dataclasses.fields(LineSearchConfig)]
    differ = {n: getattr(newton_cfg, n) for n in names
              if getattr(newton_cfg, n) != getattr(line_search, n)}
    assert differ == {"alpha0": 1e-2, "beta": 0.1, "eps_tol": 1e-9, "max_iterations": 40}


def test_lagrangian_at_zero_equals_objective(disk0, data2d):
    u, p = solved(disk0, data2d)
    forms = LagrangianForms(disk0, data2d)
    value = forms.value(np.zeros_like(disk0.vertices), u, p)
    assert value == pytest.approx(fem.objective(disk0, u), rel=1e-14)


def test_lagrangian_value_matches_deformed_mesh(disk0, data2d, rng):
    """Pullback exactness: L(W, u, p) equals the Lagrangian assembled on
    the deformed mesh with the transported nodal values."""
    u, p = solved(disk0, data2d)
    w = random_deformation(disk0, rng, scale=0.04)
    forms = LagrangianForms(disk0, data2d)
    value = forms.value(w, u, p)
    moved = apply_deformation(disk0, w, 1.0)
    K = fem.assemble_stiffness(moved)
    oracle = (
        fem.objective(moved, u)
        + u @ (K @ p)
        - fem.assemble_load(moved, data2d) @ p
    )
    assert value == pytest.approx(oracle, rel=1e-12)


def test_first_derivatives_at_solution_vanish(disk0, data2d):
    u, p = solved(disk0, data2d)
    forms = LagrangianForms(disk0, data2d)
    zero = np.zeros_like(disk0.vertices)
    # u solves the state equation, p the adjoint: both rows vanish
    assert np.linalg.norm(forms.d_p(zero, u, p)) <= 1e-12
    assert np.linalg.norm(forms.d_u(zero, u, p)) <= 1e-12


def test_d_w_at_zero_is_the_shape_derivative(disk0, data2d):
    u, p = solved(disk0, data2d)
    derivative = shape.shape_derivative(
        disk0, data2d, fem.NodalField(u), fem.NodalField(p)
    )
    forms = LagrangianForms(disk0, data2d)
    d_w = forms.d_w(np.zeros_like(disk0.vertices), u, p)
    assert_allclose(d_w, derivative.coeffs, rtol=0.0, atol=1e-15)


def test_d_w_matches_finite_differences_off_zero(disk0, data2d, rng):
    u, p = solved(disk0, data2d)
    forms = LagrangianForms(disk0, data2d)
    base = random_deformation(disk0, rng, scale=0.03)
    direction = random_deformation(disk0, rng, scale=1.0)
    h = 1e-6
    fd = (forms.value(base + h * direction, u, p)
          - forms.value(base - h * direction, u, p)) / (2.0 * h)
    got = float(np.sum(forms.d_w(base, u, p) * direction))
    assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("name", ["hexagon", "cube2"])
def test_second_derivative_symmetry(name, request):
    mesh = request.getfixturevalue(name)
    data = request.getfixturevalue("data2d" if mesh.dim == 2 else "data3d")
    u, p = solved(mesh, data)
    forms = LagrangianForms(mesh, data)
    h = forms.d2_ww(u, p).toarray()
    assert_allclose(h, h.T, atol=1e-12 * max(1.0, np.abs(h).max()))


@pytest.mark.parametrize("name", ["hexagon", "cube2"])
def test_d2_ww_matches_finite_differences(name, request, rng):
    mesh = request.getfixturevalue(name)
    data = request.getfixturevalue("data2d" if mesh.dim == 2 else "data3d")
    u, p = solved(mesh, data)
    forms = LagrangianForms(mesh, data)
    h_matrix = forms.d2_ww(u, p)
    da = random_deformation(mesh, rng)
    db = random_deformation(mesh, rng)
    h = 1e-5
    fd = (
        float(np.sum(forms.d_w(h * da, u, p) * db))
        - float(np.sum(forms.d_w(-h * da, u, p) * db))
    ) / (2.0 * h)
    got = float(da.ravel() @ (h_matrix @ db.ravel()))
    assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("name", ["disk0", "cube2"])
def test_fixed_pattern_assembly_matches_triplets(name, request, params, monkeypatch):
    """E, d2_ww and d_elasticity filled into the per-topology CSR pattern
    equal the coo->csr sum of the same cell tensors."""
    mesh = request.getfixturevalue(name)
    data = request.getfixturevalue("data2d" if mesh.dim == 2 else "data3d")
    u, p = solved(mesh, data)
    z = random_deformation(mesh, np.random.default_rng(5))
    tensors = []
    scatter = shape._scatter_vector_matrix
    monkeypatch.setattr(shape, "_scatter_vector_matrix",
                        lambda m, local: tensors.append(local) or scatter(m, local))
    nd = mesh.num_vertices * mesh.dim
    dofs = shape.vector_dofs(mesh)
    for label, build in (
        ("E", lambda: shape.assemble_elasticity(mesh, params)),
        ("d2_ww", lambda: LagrangianForms(mesh, data).d2_ww(u, p)),
        ("d_elasticity", lambda: d_elasticity(mesh, params, z)),
    ):
        tensors.clear()
        matrix = build()
        (local,) = tensors
        rows, cols = np.broadcast_arrays(
            dofs[:, :, :, None, None], dofs[:, None, None, :, :]
        )
        oracle = linalg.from_triplets(nd, nd, rows.ravel(), cols.ravel(), local.ravel())
        assert np.array_equal(matrix.indptr, oracle.indptr), label
        assert np.array_equal(matrix.indices, oracle.indices), label
        rel = np.abs(matrix.data - oracle.data).max() / np.abs(oracle.data).max()
        assert rel <= 1e-14, f"{name} {label}: rel={rel:.3e}"


def test_patterns_are_built_once_per_topology(data2d, params, monkeypatch, tmp_path):
    """A Newton run shares its sparsity patterns with every mesh it moves to;
    a mesh with the same cells made from raw data or a file builds its own."""
    mesh = generate_disk_mesh(1.0, 0)
    built = []
    init = linalg.CsrPattern.__init__

    def counted(self, nrows, ncols, rows, cols):
        built.append((nrows, ncols))
        init(self, nrows, ncols, rows, cols)

    monkeypatch.setattr(linalg.CsrPattern, "__init__", counted)
    final, record = restricted_newton(mesh, data2d, params, NewtonConfig(max_iterations=3))
    assert [r.iteration for r in record.iterates] == [0, 1, 2, 3]
    nv, nd = mesh.num_vertices, mesh.num_vertices * mesh.dim
    ni = len(fem.interior_vertices(mesh))
    assert sorted(built) == sorted([(nv, nv), (nd, nd), (ni, nd)])
    write_vtk(final, tmp_path / "final.vtk")
    for other in (SimplicialMesh.from_cells(final.vertices, final.cells),
                  read_vtk(tmp_path / "final.vtk")[0]):
        built.clear()
        elasticity = shape.assemble_elasticity(other, params)
        assert built == [(nd, nd)]
        assert (elasticity != shape.assemble_elasticity(final, params)).nnz == 0


def test_pulled_back_operators_reduce_to_assembled(disk0, params, rng):
    zero = np.zeros_like(disk0.vertices)
    ops = shape.shape_operators(disk0, params)
    field = random_deformation(disk0, rng)
    ev = pulled_back_elasticity_apply(disk0, params, zero, field)
    assert_allclose(
        ev.ravel(), ops.elasticity @ field.ravel(), rtol=1e-12, atol=1e-14
    )
    force = rng.standard_normal(len(disk0.boundary_vertices))
    nf = pulled_back_normal_apply(disk0, zero, force)
    assert_allclose(nf.ravel(), ops.normal_force @ force, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", ["hexagon", "cube2"])
def test_deformation_operator_linearizations_match_central_differences(name, request, params):
    """d_elasticity, d_normal_force and d_normal_transpose are the W-derivatives
    at W = 0 of the pulled-back elasticity, normal force and its transpose."""
    mesh = request.getfixturevalue(name)
    rng = np.random.default_rng(71)
    h = 1e-5
    x = random_deformation(mesh, rng)
    z = random_deformation(mesh, rng)
    force = rng.standard_normal(len(mesh.boundary_vertices))
    for label, linearized, apply in (
        ("d_elasticity", d_elasticity(mesh, params, z),
         lambda w: pulled_back_elasticity_apply(mesh, params, w, z).ravel()),
        ("d_normal_force", d_normal_force(mesh, force),
         lambda w: pulled_back_normal_apply(mesh, w, force).ravel()),
        ("d_normal_transpose", d_normal_transpose(mesh, z),
         lambda w: pulled_back_normal_transpose_apply(mesh, w, z)),
    ):
        fd = (apply(h * x) - apply(-h * x)) / (2.0 * h)
        rel = np.linalg.norm(linearized @ x.ravel() - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6, f"{name} {label}: rel={rel:.3e}"


def monolith(system, alpha):
    """The seven-block Newton matrix and right-hand side at damping alpha."""
    blocks = BlockSystem(system.sizes)
    for (row, col), block in system.blocks.items():
        blocks.set_block(row, col, block)
    blocks.set_identity("G", "G", -1.0 / alpha)
    rhs = blocks.join({name: -vec for name, vec in system.residual.items()})
    return blocks, blocks.matrix(), rhs


@pytest.mark.parametrize("name", ["disk0", "cube2"])
def test_reduced_step_matches_monolithic_oracle(name, request, params):
    """The reduction onto G solves the assembled seven-block system, whose
    sparse LU gives the same mesh update W, for damping from 1e-6 to 1e4."""
    mesh = request.getfixturevalue(name)
    data = request.getfixturevalue("data2d" if mesh.dim == 2 else "data3d")
    system = NewtonSystem(mesh, data, params, prepare_iterate(mesh, data, params).state)
    for alpha in (1e-6, 1e-2, 1.0, 10.0, 1e4):
        blocks, matrix, rhs = monolith(system, alpha)
        reduced = system.solve(alpha)
        assert list(reduced) == list(system.sizes)
        x = blocks.join(reduced)
        residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-11, f"alpha={alpha:g}: residual {residual:.3e}"
        w_lu = blocks.split(factorize(matrix).solve(rhs))["W"]
        w_err = np.linalg.norm(reduced["W"] - w_lu) / np.linalg.norm(w_lu)
        assert w_err <= 1e-9, f"alpha={alpha:g}: W differs by {w_err:.3e}"


@pytest.mark.parametrize("name", ["disk0", "cube2"])
def test_newton_system_factorizes_nothing(name, params, monkeypatch):
    """A Newton iteration start factorizes the interior Poisson matrix K and
    the elasticity E; the restriction, the system and its solves reuse them."""
    # a new mesh, so that no factor is memoized on it yet
    if name == "disk0":
        mesh, data = generate_disk_mesh(1.0, 0), benchmark_load_2d()
    else:
        mesh, data = generate_cube_mesh(2.0, 2), benchmark_load_3d()
    calls = []
    init = linalg.Factorization.__init__

    def counted(self, matrix):
        calls.append(matrix.shape)
        init(self, matrix)

    monkeypatch.setattr(linalg.Factorization, "__init__", counted)
    it = prepare_iterate(mesh, data, params)
    ni, nd = len(fem.interior_vertices(mesh)), mesh.num_vertices * mesh.dim
    assert calls == [(ni, ni), (nd, nd)]
    system = NewtonSystem(mesh, data, params, it.state)
    for alpha in (0.1, 1.0, 10.0):
        system.solve(alpha)
    assert calls == [(ni, ni), (nd, nd)]


@pytest.mark.parametrize("name", ["disk0", "cube2"])
def test_force_response_is_the_derivative_of_the_restricted_force(name, request, params):
    """T = dF/dG: moving the mesh by +-h Phi g changes the restricted-gradient
    force F by +-h T g, up to O(h^2)."""
    mesh = request.getfixturevalue(name)
    data = request.getfixturevalue("data2d" if mesh.dim == 2 else "data3d")
    g = np.random.default_rng(0).standard_normal(len(mesh.boundary_vertices))
    system = NewtonSystem(mesh, data, params, prepare_iterate(mesh, data, params).state)
    w = (shape.restriction(mesh, params).phi @ g).reshape(mesh.num_vertices, mesh.dim)

    def force(h):
        return prepare_iterate(apply_deformation(mesh, w, h), data, params).state.force

    h = 1e-5
    fd = (force(h) - force(-h)) / (2.0 * h)
    expected = system.T @ g
    rel = np.linalg.norm(fd - expected) / np.linalg.norm(expected)
    assert rel <= 1e-6, f"{name}: rel={rel:.3e}"


def test_force_response_poles_vanish_at_the_converged_disk(data2d, params):
    """T = dF/dG has positive eigenvalues at the start of the disk0 run, which
    cap the damping, and none on the converged mesh."""
    mesh = generate_disk_mesh(1.0, 0)

    def spectrum(m):
        it = prepare_iterate(m, data2d, params)
        eig = np.linalg.eigvals(NewtonSystem(m, data2d, params, it.state).T)
        return eig.real.max(), int(np.sum(eig.real > 0.0))

    top, positive = spectrum(mesh)
    assert top == pytest.approx(0.855, abs=5e-3)
    assert positive == 12
    final, record = restricted_newton(mesh, data2d, params)
    assert record.status == CONVERGED
    top, positive = spectrum(final)
    assert top < 0.0 and positive == 0


def test_newton_residual_vanishes_except_force_row(disk0, data2d, params):
    """At a restricted iterate the only nonzero residual block is the damping
    row, which carries the current boundary force."""
    system = NewtonSystem(disk0, data2d, params, prepare_iterate(disk0, data2d, params).state)
    residual = system.residual
    for name, part in residual.items():
        if name == "G":
            assert np.linalg.norm(part) > 0.0
        else:
            assert np.linalg.norm(part) <= 1e-12, name


def test_small_damping_step_is_scaled_gradient(disk0, data2d, params):
    it = prepare_iterate(disk0, data2d, params)
    ops = shape.shape_operators(disk0, params)
    alpha = 1e-5
    w = NewtonSystem(disk0, data2d, params, it.state).step(alpha)
    diff = (w - alpha * it.direction).ravel()
    rel = np.sqrt(diff @ (ops.elasticity @ diff)) / (
        alpha * np.sqrt(it.energy)
    )
    assert rel <= 1e-3


def test_restricted_newton_converges_on_level0(disk0, data2d, params):
    final, record = restricted_newton(disk0, data2d, params)
    assert record.status == CONVERGED
    assert record.final.iteration <= 15
    assert record.final.direction_energy <= 1e-18
    assert record.final.damping >= 1e3
    # each accepted Newton step uses unit step size
    assert all(r.alpha == 1.0 for r in record.iterates[:-1])
    assert np.all(np.diff(record.objectives) < 0.0)


def test_restricted_newton_records_damping(disk0, data2d, params):
    config = NewtonConfig(max_iterations=2)
    _, record = restricted_newton(disk0, data2d, params, config)
    assert all(r.damping is not None for r in record.iterates)


def test_newton_line_search_failure_records_last_damping(disk0, data2d, params):
    # no step of the first iteration can pass frob_max = 1e-9
    config = NewtonConfig(max_backtracks=2, frob_max=1e-9)
    final, record = restricted_newton(disk0, data2d, params, config)
    assert record.status == LINE_SEARCH_FAILURE
    assert final is disk0
    assert len(record.iterates) == 1
    row = record.final
    assert row.alpha == 0.0
    assert row.backtracks == 3
    # damping alpha0 / beta, then two rejections that each scale it by beta
    assert row.damping == pytest.approx(config.alpha0 * config.beta, rel=1e-12)


def test_newton_callback_sees_every_iterate(disk0, data2d, params):
    seen = []
    config = NewtonConfig(max_iterations=3)
    restricted_newton(disk0, data2d, params, config,
                      callback=lambda **kw: seen.append(kw))
    assert [kw["iteration"] for kw in seen] == [0, 1, 2, 3]
    assert {frozenset(kw) for kw in seen} == {frozenset((
        "iteration", "mesh", "objective", "energy", "directional",
        "derivative", "direction", "operators",
    ))}
    assert seen[0]["mesh"] is disk0
    assert seen[0]["directional"] == pytest.approx(-seen[0]["energy"], rel=1e-8)
