"""Discrete shape calculus: shape derivative, deformation operators, gradients.

The shape derivative of J = integral(u) is assembled in volume form against
every piecewise-linear vector field.  Descent directions are measured in the
inner product of a linear-elasticity operator with a zero-order damping term
and no boundary conditions.  The restricted gradient is the part of the
classical gradient reachable by normal boundary forces: it solves a saddle
system whose unknowns are the boundary force density and a multiplier field.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .fem import DualVector, NodalField, reference_mass
from .linalg import Factorization, BlockSystem, factorize, from_triplets
from .mesh import (
    SimplicialMesh,
    boundary_measures,
    boundary_normals,
    cell_geometry,
    per_mesh,
    read_only,
)
from .problems import ProblemData


@dataclasses.dataclass(frozen=True)
class ElasticityParams:
    """Lame material data plus the zero-order damping weight.

    ``mu = young / (2 (1 + poisson))``, ``lam = young * poisson /
    ((1 + poisson)(1 - 2 poisson))``; ``damping`` defaults to ``0.2 * young``.
    """

    young: float = 1.0
    poisson: float = 0.4
    damping: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.young < np.inf:
            raise ValueError(f"young must be finite and positive, got {self.young}")
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError(f"poisson must lie in [0, 0.5), got {self.poisson}")
        if self.damping is None:
            object.__setattr__(self, "damping", 0.2 * self.young)
        if not 0.0 < self.damping < np.inf:
            raise ValueError(
                "damping must be finite and positive (the operator needs no kernel), "
                f"got {self.damping}"
            )

    @property
    def mu(self) -> float:
        return self.young / (2.0 * (1.0 + self.poisson))

    @property
    def lam(self) -> float:
        return self.young * self.poisson / ((1.0 + self.poisson) * (1.0 - 2.0 * self.poisson))


def shape_derivative(
    mesh: SimplicialMesh,
    data: ProblemData,
    u: NodalField,
    p: NodalField,
) -> DualVector:
    """Volume-form shape derivative of J = integral(u) at the current mesh.

    For a deformation field W it returns the pairing

        dJ(W) = int u div W
              + int grad(u)^T [(div W) I - DW - DW^T] grad(p)
              - int (grad(f) . W + f div W) p,

    evaluated coefficient-wise against every nodal vector field.  Exact for
    the polynomial benchmark loads thanks to the degree-5 quadrature.
    """
    geo = cell_geometry(mesh)
    uv, pv = u.values, p.values
    G = geo.grads
    vols = geo.volumes
    a = np.einsum("ci,cid->cd", uv[mesh.cells], G)  # grad u per cell
    b = np.einsum("ci,cid->cd", pv[mesh.cells], G)  # grad p per cell
    ubar = uv[mesh.cells].mean(axis=1)
    adotb = np.einsum("cd,cd->c", a, b)
    # geometric terms: u div W and the Hadamard-type gradient coupling
    contrib = np.einsum("c,cjm->cjm", vols * (ubar + adotb), G)
    contrib -= np.einsum("c,cm,cj->cjm", vols, a, np.einsum("cjd,cd->cj", G, b))
    contrib -= np.einsum("c,cj,cm->cjm", vols, np.einsum("cjd,cd->cj", G, a), b)
    # load terms: -(grad f . W) p - f p div W, integrated with quadrature
    bary, weights = quadrature.simplex_rule(mesh.dim)
    points = quadrature.physical_points(bary, mesh.vertices[mesh.cells])
    fq = data.f(points)
    gq = data.grad_f(points)
    pq = np.einsum("ci,qi->cq", pv[mesh.cells], bary)
    contrib -= np.einsum("c,q,cqm,qj,cq->cjm", vols, weights, gq, bary, pq)
    contrib -= np.einsum("c,q,cq,cq,cjm->cjm", vols, weights, fq, pq, G)
    out = np.zeros((mesh.num_vertices, mesh.dim))
    np.add.at(out, mesh.cells.ravel(), contrib.reshape(-1, mesh.dim))
    return DualVector(out)


def assemble_elasticity(mesh: SimplicialMesh, params: ElasticityParams) -> sp.csr_matrix:
    """Elasticity inner-product matrix on nodal vector fields, (nv*d, nv*d).

    <E V, W> = int 2 mu eps(V):eps(W) + lam div(V) div(W) + damping V.W
    with eps the symmetric gradient; no boundary conditions.  Symmetric
    positive definite for positive damping.
    """
    geo = cell_geometry(mesh)
    d = mesh.dim
    G = geo.grads
    vols = geo.volumes
    eye = np.eye(d)
    gg = np.einsum("c,cjd,ckd->cjk", vols, G, G)
    local = params.mu * np.einsum("cjk,am->cjakm", gg, eye)
    local += params.mu * np.einsum("c,cjm,cka->cjakm", vols, G, G)
    local += params.lam * np.einsum("c,cja,ckm->cjakm", vols, G, G)
    local += params.damping * np.einsum(
        "c,jk,am->cjakm", vols, reference_mass(d), eye
    )
    return _scatter_vector_matrix(mesh, local)


def _scatter_vector_matrix(mesh: SimplicialMesh, local: np.ndarray) -> sp.csr_matrix:
    """Assemble (nc, d+1, d, d+1, d) cell blocks into the (nv*d, nv*d) matrix."""
    d = mesh.dim
    nd = mesh.num_vertices * d
    dof = mesh.cells[:, :, None] * d + np.arange(d)[None, None, :]  # (nc, d+1, d)
    flat = dof.reshape(mesh.num_cells, -1)  # (nc, (d+1)*d)
    n = flat.shape[1]
    rows = np.repeat(flat, n, axis=1).ravel()
    cols = np.tile(flat, (1, n)).ravel()
    return from_triplets(nd, nd, rows, cols, local.reshape(mesh.num_cells, n, n).ravel())


def facet_mass_matrices(mesh: SimplicialMesh) -> np.ndarray:
    """Per-facet boundary mass matrices, (nf, d, d); measure*(1+delta)/(d(d+1))."""
    d = mesh.dim
    measures = boundary_measures(mesh)
    ref = (np.ones((d, d)) + np.eye(d)) / (d * (d + 1))
    return measures[:, None, None] * ref[None, :, :]


def assemble_normal_force(
    mesh: SimplicialMesh,
) -> sp.csr_matrix:
    """Normal boundary-force operator N, (nv*d, n_boundary).

    Column ordering follows ``mesh.boundary_vertices``.  For a boundary force
    density F (piecewise linear on the boundary) and a vector field V,
    ``(N F) . V = int_boundary F (V . normal) ds``.
    """
    d = mesh.dim
    facets = mesh.boundary_facets
    fm = facet_mass_matrices(mesh)
    normals = boundary_normals(mesh)
    bv = mesh.boundary_vertices
    vals = np.einsum("fij,fc->fjci", fm, normals)  # rows (j, c), cols i
    j_dof = facets[:, :, None] * d + np.arange(d)[None, None, :]  # (nf, j, c)
    rows = np.broadcast_to(j_dof[:, :, :, None], vals.shape)
    cols_i = np.searchsorted(bv, facets)  # (nf, i)
    cols = np.broadcast_to(cols_i[:, None, None, :], vals.shape)
    return from_triplets(
        mesh.num_vertices * d, len(bv), rows.ravel(), cols.ravel(), vals.ravel()
    )


@dataclasses.dataclass(frozen=True)
class ShapeOperators:
    """Assembled deformation operators for one mesh, with a reusable LU of E."""

    elasticity: sp.csr_matrix
    elasticity_factor: Factorization
    normal_force: sp.csr_matrix
    boundary: np.ndarray  # boundary vertex indices = column order of normal_force


@per_mesh
def shape_operators(mesh: SimplicialMesh, params: ElasticityParams) -> ShapeOperators:
    E = read_only(assemble_elasticity(mesh, params))
    N = read_only(assemble_normal_force(mesh))
    return ShapeOperators(E, factorize(E), N, mesh.boundary_vertices)


def classical_gradient(
    mesh: SimplicialMesh,
    params: ElasticityParams,
    derivative: DualVector,
) -> NodalField:
    """Unrestricted gradient field: solve <E V, .> = -dJ over all vector fields."""
    ops = shape_operators(mesh, params)
    v = ops.elasticity_factor.solve(-derivative.coeffs.ravel())
    return NodalField(v.reshape(mesh.num_vertices, mesh.dim))


@dataclasses.dataclass(frozen=True)
class RestrictedGradientResult:
    """Solution of the restricted-gradient saddle problem.

    ``direction`` is the elasticity displacement of the normal boundary force
    ``force``; ``multiplier`` is the saddle multiplier; ``classical`` the
    unrestricted gradient (direction = classical - multiplier); ``energy`` is
    <E direction, direction> which also equals -dJ(direction).
    """

    direction: np.ndarray
    force: np.ndarray
    multiplier: np.ndarray
    classical: np.ndarray
    energy: float


def restricted_gradient(
    mesh: SimplicialMesh,
    params: ElasticityParams,
    derivative: DualVector,
) -> RestrictedGradientResult:
    """Steepest-descent direction among deformations driven by normal forces.

    Solves the reduced saddle system

        [ 0   N^T ] [ F  ]   [  0  ]
        [ N    E  ] [ Pi ] = [ -dJ ]

    and returns V = classical - Pi, which satisfies E V = N F.  The returned
    direction is the E-orthogonal projection of the classical gradient onto
    the range of E^{-1} N.
    """
    ops = shape_operators(mesh, params)
    nb = ops.normal_force.shape[1]
    nd = ops.elasticity.shape[0]
    system = BlockSystem({"force": nb, "field": nd})
    system.set_block("force", "field", ops.normal_force.T)
    system.set_block("field", "force", ops.normal_force)
    system.set_block("field", "field", ops.elasticity)
    saddle = system.solve({"field": -derivative.coeffs.ravel()})
    classical = ops.elasticity_factor.solve(-derivative.coeffs.ravel())
    multiplier = saddle["field"]
    direction = classical - multiplier
    energy = float(direction @ (ops.elasticity @ direction))
    shape2 = (mesh.num_vertices, mesh.dim)
    return RestrictedGradientResult(
        direction.reshape(shape2),
        saddle["force"],
        multiplier.reshape(shape2),
        classical.reshape(shape2),
        energy,
    )


def ssw_direction(
    mesh: SimplicialMesh,
    params: ElasticityParams,
    derivative: DualVector,
) -> NodalField:
    """Interior-masked baseline direction: solve E V = -(dJ masked to interior).

    The mask zeroes the derivative coefficients attached to boundary
    vertices before the elasticity solve.  This is a known heuristic for
    suppressing boundary oscillations; it is *not* a gradient and can fail
    to be a descent direction.
    """
    ops = shape_operators(mesh, params)
    masked = derivative.coeffs.copy()
    masked[mesh.boundary_vertices] = 0.0
    v = ops.elasticity_factor.solve(-masked.ravel())
    return NodalField(v.reshape(mesh.num_vertices, mesh.dim))


def stationarity_residual(mesh: SimplicialMesh, classical: NodalField | np.ndarray) -> float:
    """Norm of N^T applied to the classical gradient.

    Vanishes exactly when the classical gradient is tangential to the
    boundary in the weak sense, i.e. when the mesh is stationary for the
    restricted dynamics.
    """
    values = classical.values if isinstance(classical, NodalField) else classical
    return float(np.linalg.norm(assemble_normal_force(mesh).T @ values.ravel()))

