"""Piecewise-linear finite elements for the state and adjoint problems.

State problem: -laplace(u) = f in the domain, u = 0 on the boundary.
Adjoint problem for the objective J = integral(u):  (grad p, grad v) =
-(1, v) for all test v, likewise with zero boundary values.  All assembly is
vectorized over cells; load integrals use the degree-5 quadrature, which is
exact for the benchmark loads (degree-4 polynomials) times linear hats.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .linalg import CsrPattern, Factorization, factorize
from .mesh import SimplicialMesh, cell_geometry, per_mesh, per_topology, read_only
from .problems import ProblemData


@dataclasses.dataclass(frozen=True)
class NodalField:
    """Vertex values of a piecewise-linear function; (nv,) or (nv, dim)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.ascontiguousarray(self.values, dtype=np.float64)
        )


@dataclasses.dataclass(frozen=True)
class DualVector:
    """Coefficients of a linear functional on vector fields, shape (nv, dim)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", np.ascontiguousarray(self.coeffs, dtype=np.float64)
        )

    def pair(self, field: np.ndarray | NodalField) -> float:
        """Apply the functional to a vertex-based vector field."""
        values = field.values if isinstance(field, NodalField) else field
        return float(np.sum(self.coeffs * values))


@per_topology
def interior_vertices(mesh: SimplicialMesh) -> np.ndarray:
    """Sorted indices of vertices not on the boundary."""
    mask = np.ones(mesh.num_vertices, dtype=bool)
    mask[mesh.boundary_vertices] = False
    return read_only(np.flatnonzero(mask))


@per_topology
def _scalar_pattern(mesh: SimplicialMesh) -> CsrPattern:
    nv = mesh.num_vertices
    return CsrPattern(nv, nv, mesh.cells[:, :, None], mesh.cells[:, None, :])


def _scatter_cell_matrix(mesh: SimplicialMesh, local: np.ndarray) -> sp.csr_matrix:
    """Assemble per-cell (d+1)x(d+1) matrices into the mesh's (nv, nv) CSR pattern."""
    return _scalar_pattern(mesh).fill(local)


@per_mesh
def quadrature_points(mesh: SimplicialMesh) -> np.ndarray:
    """Physical points of the degree-5 rule in every cell, (nc, nq, d)."""
    bary, _ = quadrature.simplex_rule(mesh.dim)
    return read_only(quadrature.physical_points(bary, mesh.vertices[mesh.cells]))


def assemble_stiffness(mesh: SimplicialMesh) -> sp.csr_matrix:
    """Full (nv, nv) stiffness matrix of the Laplacian; no boundary conditions."""
    geo = cell_geometry(mesh)
    local = np.einsum("c,cia,cja->cij", geo.volumes, geo.grads, geo.grads)
    return _scatter_cell_matrix(mesh, local)


def reference_mass(dim: int) -> np.ndarray:
    """P1 cell mass matrix per unit volume: (1 + delta_ij) / ((d+1)(d+2))."""
    npc = dim + 1
    return (np.ones((npc, npc)) + np.eye(npc)) / (npc * (npc + 1))


def assemble_mass(mesh: SimplicialMesh) -> sp.csr_matrix:
    """Full (nv, nv) mass matrix: vol * (1 + delta_ij) / ((d+1)(d+2)) per cell."""
    geo = cell_geometry(mesh)
    local = geo.volumes[:, None, None] * reference_mass(mesh.dim)[None, :, :]
    return _scatter_cell_matrix(mesh, local)


def assemble_load(mesh: SimplicialMesh, data: ProblemData) -> np.ndarray:
    """Load vector b_i = integral(f * hat_i) over the mesh, shape (nv,)."""
    geo = cell_geometry(mesh)
    bary, weights = quadrature.simplex_rule(mesh.dim)
    fvals = data.f(quadrature_points(mesh))  # (nc, nq)
    # hat_i at quadrature point q is bary[q, i]
    contrib = geo.volumes[:, None] * (fvals @ (weights[:, None] * bary))
    return np.bincount(mesh.cells.ravel(), contrib.ravel(), minlength=mesh.num_vertices)


def assemble_unit_load(mesh: SimplicialMesh) -> np.ndarray:
    """Vector with entries integral(hat_i) = sum of vol/(d+1) over incident cells."""
    contrib = np.repeat(cell_geometry(mesh).volumes / (mesh.dim + 1), mesh.dim + 1)
    return np.bincount(mesh.cells.ravel(), contrib, minlength=mesh.num_vertices)


@dataclasses.dataclass(frozen=True)
class PoissonWorkspace:
    """Shared pieces for solving state and adjoint on one mesh."""

    stiffness: sp.csr_matrix      # full, no boundary conditions
    interior: np.ndarray          # interior vertex indices
    factor: Factorization         # LU of the interior stiffness block


@per_mesh
def poisson_workspace(mesh: SimplicialMesh) -> PoissonWorkspace:
    K = read_only(assemble_stiffness(mesh))
    idx = interior_vertices(mesh)
    factor = factorize(K[np.ix_(idx, idx)].tocsc())
    return PoissonWorkspace(K, idx, factor)


@per_mesh
def solve_state(mesh: SimplicialMesh, data: ProblemData) -> NodalField:
    """Solve -laplace(u) = f with zero Dirichlet values; returns all-vertex values."""
    ws = poisson_workspace(mesh)
    rhs = assemble_load(mesh, data)
    u = np.zeros(mesh.num_vertices)
    u[ws.interior] = ws.factor.solve(rhs[ws.interior])
    return NodalField(read_only(u))


@per_mesh
def solve_adjoint(mesh: SimplicialMesh) -> NodalField:
    """Adjoint of J = integral(u): (grad p, grad v) = -(1, v), zero on the boundary."""
    ws = poisson_workspace(mesh)
    rhs = -assemble_unit_load(mesh)
    p = np.zeros(mesh.num_vertices)
    p[ws.interior] = ws.factor.solve(rhs[ws.interior])
    return NodalField(read_only(p))


def objective(mesh: SimplicialMesh, u: NodalField | np.ndarray) -> float:
    """J = integral of the piecewise-linear field u over the mesh."""
    values = u.values if isinstance(u, NodalField) else np.asarray(u)
    geo = cell_geometry(mesh)
    return float(np.sum(geo.volumes * values[mesh.cells].mean(axis=1)))
