"""Discrete shape calculus: shape derivative, deformation operators, gradients.

The shape derivative of J = integral(u) is assembled in volume form against
every piecewise-linear vector field.  Descent directions are measured in the
inner product of a linear-elasticity operator with a zero-order damping term
and no boundary conditions.  The restricted gradient is the part of the
classical gradient reachable by normal boundary forces.  Such deformations
are V = Phi F with Phi = E^{-1} N; each mesh keeps Phi and the Cholesky factor
of S = N^T Phi (:func:`restriction`), which solve the projection saddle
[E N; N^T 0] for the restricted gradient and for the Newton system alike.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import quadrature
from .fem import DualVector, NodalField, reference_mass
from .linalg import Factorization, factorize, from_triplets
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
    normal_force: sp.csr_matrix  # columns ordered as mesh.boundary_vertices


@per_mesh
def shape_operators(mesh: SimplicialMesh, params: ElasticityParams) -> ShapeOperators:
    E = read_only(assemble_elasticity(mesh, params))
    N = read_only(assemble_normal_force(mesh))
    return ShapeOperators(E, factorize(E), N)


@dataclasses.dataclass(frozen=True)
class Restriction:
    """Normal-force deformations Phi = E^{-1} N and chol(S), S = N^T Phi."""

    operators: ShapeOperators
    phi: np.ndarray
    schur: tuple

    def solve(self, a: np.ndarray, b: np.ndarray | None = None, c: np.ndarray | None = None):
        """(V, F, Pi) of E V - N F = b, E (V + Pi) = a, -N^T Pi = c; None is zero.

        With z_a = E^{-1} a and z_b = E^{-1} b the first two rows give
        V = z_b + Phi F and Pi = z_a - V, so the last is S F = c + N^T (z_a - z_b).
        """
        factor = self.operators.elasticity_factor
        if b is None:
            z_b, z_a = 0.0, factor.solve(a)
        else:
            z_b, z_a = factor.solve(np.column_stack((b, a))).T
        rhs = self.operators.normal_force.T @ (z_a - z_b)
        f = scipy.linalg.cho_solve(self.schur, rhs if c is None else c + rhs)
        v = z_b + self.phi @ f
        return v, f, z_a - v


@per_mesh
def restriction(mesh: SimplicialMesh, params: ElasticityParams) -> Restriction:
    ops = shape_operators(mesh, params)
    phi = read_only(ops.elasticity_factor.solve(ops.normal_force.toarray()))
    factor, lower = scipy.linalg.cho_factor(ops.normal_force.T @ phi)
    return Restriction(ops, phi, (read_only(factor), lower))


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

    The E-orthogonal projection of the classical gradient c_cl = E^{-1}(-dJ)
    onto the range of Phi = E^{-1} N: :meth:`Restriction.solve` with a = -dJ
    and b = c = 0 on the mesh's cached :func:`restriction`, so S F = N^T c_cl,
    V = Phi F and Pi = c_cl - V.  V satisfies E V = N F.
    """
    restrict = restriction(mesh, params)
    direction, force, multiplier = restrict.solve(-derivative.coeffs.ravel())
    energy = float(direction @ (restrict.operators.elasticity @ direction))
    v, pi = (x.reshape(mesh.num_vertices, mesh.dim) for x in (direction, multiplier))
    return RestrictedGradientResult(v, force, pi, v + pi, energy)


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
