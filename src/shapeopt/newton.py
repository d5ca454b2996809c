"""Damped second-order method for the restricted shape dynamics.

The mesh update W, the boundary force G driving it, the state u, the adjoint
p, and the projection triple (V, F, Pi) are coupled into one nonlinear system
built from the Lagrangian of the pulled-back state-constrained objective

    L(W, u, p) = int u det(I+DW)
               + int ((I+DW)^{-T} grad u) . ((I+DW)^{-T} grad p) det(I+DW)
               - int f((id+W)(x)) p det(I+DW),

whose W-derivative at W = 0 is the shape derivative.  One damped Newton step
solves the linearization of the seven coupled equations at the current mesh
(W = 0, G = 0) and applies the resulting W; the damping parameter alpha
scales the force-update equation G = alpha * F, so small alpha reproduces the
restricted gradient flow and large alpha approaches the undamped method.
The step W is itself a deformation driven by the normal boundary force G, so
the system is solved exactly in G: one dense nb x nb solve per damping value
(see :class:`NewtonSystem`).

All second derivatives are exact: the quadrature integrates every term of the
polynomial benchmark loads without error, so the Jacobian blocks match finite
differences of the first derivatives to discretization-free accuracy.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fem, quadrature, shape
from .descent import Iterate, LineSearchConfig, RunRecord, optimize
from .linalg import from_triplets
from .mesh import SimplicialMesh, boundary_normals, deformation_gradients, facet_owner_cells
from .problems import ProblemData


@dataclasses.dataclass(frozen=True)
class NewtonConfig(LineSearchConfig):
    """Line-search settings of the Newton loop, where alpha is the damping."""

    alpha0: float = 1e-2
    beta: float = 0.1
    eps_tol: float = 1e-9
    max_iterations: int = 40


@dataclasses.dataclass(frozen=True)
class NewtonIterate:
    """Current point of the Newton iteration at W = 0 on the current mesh."""

    u: np.ndarray           # state values, all vertices (zero on boundary)
    p: np.ndarray           # adjoint values, all vertices
    direction: np.ndarray   # restricted gradient V, (nv, dim)
    force: np.ndarray       # boundary force F, (n_boundary,)
    multiplier: np.ndarray  # saddle multiplier Pi, (nv, dim)


class LagrangianForms:
    """Evaluations and derivatives of the pulled-back Lagrangian on one mesh.

    First derivatives are available at arbitrary deformation W (used by the
    finite-difference validations and the Newton residual); second derivatives
    are assembled at W = 0 where the Newton system is built.
    """

    def __init__(self, mesh: SimplicialMesh, data: ProblemData):
        self.mesh = mesh
        self.data = data
        self.geometry = fem.cell_geometry(mesh)
        self.interior = fem.interior_vertices(mesh)
        self.bary, self.weights = quadrature.simplex_rule(mesh.dim)
        self.points = quadrature.physical_points(self.bary, mesh.vertices[mesh.cells])

    # -- helpers -------------------------------------------------------------

    def _deformed_points(self, w_field: np.ndarray) -> np.ndarray:
        wq = np.einsum(
            "cia,qi->cqa", np.asarray(w_field)[self.mesh.cells], self.bary
        )
        return self.points + wq

    def _field_grads(self, values: np.ndarray) -> np.ndarray:
        return np.einsum("ci,cid->cd", values[self.mesh.cells], self.geometry.grads)

    def _at_quad(self, values: np.ndarray) -> np.ndarray:
        return np.einsum("ci,qi->cq", values[self.mesh.cells], self.bary)

    # -- value and first derivatives at arbitrary W ---------------------------

    def value(self, w_field: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
        mesh = self.mesh
        vols = self.geometry.volumes
        inv, det = _pulled_back_map(mesh, w_field)
        a = self._field_grads(u)
        b = self._field_grads(p)
        ba = np.einsum("cda,cd->ca", inv, a)  # B a with B = M^{-T}
        bb = np.einsum("cda,cd->ca", inv, b)
        ubar = u[mesh.cells].mean(axis=1)
        bulk = np.sum(vols * det * (ubar + np.einsum("ca,ca->c", ba, bb)))
        fq = self.data.f(self._deformed_points(w_field))
        pq = self._at_quad(p)
        load = np.einsum("c,c,q,cq,cq->", vols, det, self.weights, fq, pq)
        return float(bulk - load)

    def d_u(self, w_field: np.ndarray, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Derivative in u against interior hats, shape (n_interior,)."""
        mesh = self.mesh
        vols = self.geometry.volumes
        inv, det = _pulled_back_map(mesh, w_field)
        b = self._field_grads(p)
        bb = np.einsum("cda,cd->ca", inv, b)
        bg = np.einsum("cda,cid->cia", inv, self.geometry.grads)  # B grad(hat_i)
        contrib = vols[:, None] * det[:, None] * (
            1.0 / (mesh.dim + 1) + np.einsum("cia,ca->ci", bg, bb)
        )
        out = np.zeros(mesh.num_vertices)
        np.add.at(out, mesh.cells.ravel(), contrib.ravel())
        return out[self.interior]

    def d_p(self, w_field: np.ndarray, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Derivative in p against interior hats, shape (n_interior,)."""
        mesh = self.mesh
        vols = self.geometry.volumes
        inv, det = _pulled_back_map(mesh, w_field)
        a = self._field_grads(u)
        ba = np.einsum("cda,cd->ca", inv, a)
        bg = np.einsum("cda,cid->cia", inv, self.geometry.grads)
        contrib = vols[:, None] * det[:, None] * np.einsum("cia,ca->ci", bg, ba)
        fq = self.data.f(self._deformed_points(w_field))
        contrib -= np.einsum(
            "c,c,q,cq,qi->ci", vols, det, self.weights, fq, self.bary
        )
        out = np.zeros(mesh.num_vertices)
        np.add.at(out, mesh.cells.ravel(), contrib.ravel())
        return out[self.interior]

    def d_w(self, w_field: np.ndarray, u: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Derivative in W against all nodal vector fields, shape (nv, dim).

        At W = 0 this equals the volume-form shape derivative.
        """
        mesh = self.mesh
        vols = self.geometry.volumes
        G = self.geometry.grads
        inv, det = _pulled_back_map(mesh, w_field)
        a = self._field_grads(u)
        b = self._field_grads(p)
        ba = np.einsum("cda,cd->ca", inv, a)
        bb = np.einsum("cda,cd->ca", inv, b)
        # B g_i with B = M^{-T}; also equals A^T g_i, the cofactor direction
        bg = np.einsum("cda,cid->cia", inv, G)
        ubar = u[mesh.cells].mean(axis=1)
        vj = vols * det
        # volume term and metric term of the gradient coupling
        contrib = np.einsum(
            "c,cjm->cjm", vj * (ubar + np.einsum("ca,ca->c", ba, bb)), bg
        )
        contrib -= np.einsum("c,cm,cj->cjm", vj, ba, np.einsum("cja,ca->cj", bg, bb))
        contrib -= np.einsum("c,cj,cm->cjm", vj, np.einsum("ca,cja->cj", ba, bg), bb)
        # load terms at the deformed points
        moved = self._deformed_points(w_field)
        fq = self.data.f(moved)
        gq = self.data.grad_f(moved)
        pq = self._at_quad(p)
        contrib -= np.einsum(
            "c,c,q,cqm,qj,cq->cjm", vols, det, self.weights, gq, self.bary, pq
        )
        contrib -= np.einsum(
            "c,c,q,cq,cq,cjm->cjm", vols, det, self.weights, fq, pq, bg
        )
        out = np.zeros((mesh.num_vertices, mesh.dim))
        np.add.at(out, mesh.cells.ravel(), contrib.reshape(-1, mesh.dim))
        return out

    # -- second derivatives at W = 0 ------------------------------------------

    def stiffness_interior(self) -> sp.csr_matrix:
        idx = self.interior
        return fem.poisson_workspace(self.mesh).stiffness[np.ix_(idx, idx)].tocsr()

    def d2_uw(self, u: np.ndarray, p: np.ndarray) -> sp.csr_matrix:
        """Mixed block d2L/(du dW) at W=0, shape (n_interior, nv*dim).

        Row i, column (k, m):
            vol * [ g_km / (d+1) + g_km (g_i.b) - g_im (g_k.b) - (g_i.g_k) b_m ]
        with b = grad p.  The 1/(d+1) term is the u-variation of the measure.
        """
        b = self._field_grads(p)
        return self._mixed_block(b, with_volume=True, with_load=False)

    def d2_pw(self, u: np.ndarray, p: np.ndarray) -> sp.csr_matrix:
        """Mixed block d2L/(dp dW) at W=0, shape (n_interior, nv*dim)."""
        a = self._field_grads(u)
        return self._mixed_block(a, with_volume=False, with_load=True)

    def _mixed_block(
        self, grad_field: np.ndarray, with_volume: bool, with_load: bool
    ) -> sp.csr_matrix:
        mesh = self.mesh
        d = mesh.dim
        vols = self.geometry.volumes
        G = self.geometry.grads
        gb = np.einsum("cid,cd->ci", G, grad_field)
        gg = np.einsum("cid,ckd->cik", G, G)
        entries = np.zeros((mesh.num_cells, d + 1, d + 1, d))
        if with_volume:
            entries += np.einsum("c,ckm->ckm", vols, G)[:, None, :, :] / (d + 1)
        entries += np.einsum("c,ckm,ci->cikm", vols, G, gb)
        entries -= np.einsum("c,cim,ck->cikm", vols, G, gb)
        entries -= np.einsum("c,cik,cm->cikm", vols, gg, grad_field)
        if with_load:
            # subtract int( grad_f_m hat_k hat_i + f hat_i g_km )
            fq = self.data.f(self.points)
            gq = self.data.grad_f(self.points)
            entries -= np.einsum(
                "c,q,cqm,qk,qi->cikm", vols, self.weights, gq, self.bary, self.bary
            )
            entries -= np.einsum(
                "c,q,cq,qi,ckm->cikm", vols, self.weights, fq, self.bary, G
            )
        # scatter: rows interior scalar dofs, cols vector dofs
        interior_pos = -np.ones(mesh.num_vertices, dtype=np.int64)
        interior_pos[self.interior] = np.arange(len(self.interior))
        rows = np.broadcast_to(
            interior_pos[mesh.cells][:, :, None, None], entries.shape
        )
        cols = np.broadcast_to(
            (mesh.cells[:, :, None] * d + np.arange(d))[:, None, :, :], entries.shape
        )
        keep = rows >= 0
        return from_triplets(
            len(self.interior), mesh.num_vertices * d,
            rows[keep], cols[keep], entries[keep],
        )

    def d2_ww(self, u: np.ndarray, p: np.ndarray) -> sp.csr_matrix:
        """Pure deformation block d2L/dW2 at W=0, shape (nv*dim, nv*dim)."""
        mesh = self.mesh
        vols = self.geometry.volumes
        G = self.geometry.grads
        a = self._field_grads(u)
        b = self._field_grads(p)
        ga = np.einsum("cid,cd->ci", G, a)
        gb = np.einsum("cid,cd->ci", G, b)
        gg = np.einsum("cid,ckd->cik", G, G)
        adotb = np.einsum("cd,cd->c", a, b)
        ubar = u[mesh.cells].mean(axis=1)
        ein = np.einsum
        local = ein("c,ca,cjm,ck->cjakm", vols, a, G, gb)
        local += ein("c,cm,cka,cj->cjakm", vols, a, G, gb)
        local += ein("c,cm,ckj,ca->cjakm", vols, a, gg, b)
        local += ein("c,ca,cjk,cm->cjakm", vols, a, gg, b)
        local += ein("c,cka,cj,cm->cjakm", vols, G, ga, b)
        local += ein("c,cjm,ck,ca->cjakm", vols, G, ga, b)
        local -= ein("c,cja,cm,ck->cjakm", vols, G, a, gb)
        local -= ein("c,cja,ck,cm->cjakm", vols, G, ga, b)
        local -= ein("c,ckm,ca,cj->cjakm", vols, G, a, gb)
        local -= ein("c,ckm,cj,ca->cjakm", vols, G, ga, b)
        local += ein("c,cja,ckm->cjakm", vols * adotb, G, G)
        local -= ein("c,cjm,cka->cjakm", vols * adotb, G, G)
        # volume-measure second variation of int u
        local += ein("c,cja,ckm->cjakm", vols * ubar, G, G)
        local -= ein("c,cjm,cka->cjakm", vols * ubar, G, G)
        # load terms
        fq = self.data.f(self.points)
        gq = self.data.grad_f(self.points)
        hq = self.data.hess_f(self.points)
        pq = self._at_quad(p)
        wp = ein("c,q,cq->cq", vols, self.weights, pq)
        local -= ein("cq,qj,qk,cqam->cjakm", wp, self.bary, self.bary, hq, optimize=True)
        local -= ein("cq,cqm,qk,cja->cjakm", wp, gq, self.bary, G, optimize=True)
        local -= ein("cq,cqa,qj,ckm->cjakm", wp, gq, self.bary, G, optimize=True)
        local -= ein("cq,cq,cja,ckm->cjakm", wp, fq, G, G, optimize=True)
        local += ein("cq,cq,cjm,cka->cjakm", wp, fq, G, G, optimize=True)
        return shape._scatter_vector_matrix(mesh, local)


# ----------------------------------------------------------------------------
# pulled-back deformation operators and their linearizations at W = 0


def _pulled_back_map(mesh: SimplicialMesh, w_field: np.ndarray):
    """Inverse and determinant of I + DW on every cell."""
    m = np.eye(mesh.dim)[None] + deformation_gradients(mesh, w_field)
    return np.linalg.inv(m), np.linalg.det(m)


def _owner_geometry(mesh: SimplicialMesh):
    """Owner-cell hat gradients and cell index for every boundary facet."""
    owners = facet_owner_cells(mesh)
    return owners, fem.cell_geometry(mesh).grads[owners]


def pulled_back_elasticity_apply(
    mesh: SimplicialMesh,
    params: shape.ElasticityParams,
    w_field: np.ndarray,
    z_field: np.ndarray,
) -> np.ndarray:
    """<E^W Z, .> against all nodal vector fields, shape (nv, dim).

    E^W is the elasticity form transported to the deformed mesh
    (id + W)(mesh) and pulled back: strains use DZ (I+DW)^{-1} and the
    measure picks up det(I+DW).
    """
    d = mesh.dim
    geo = fem.cell_geometry(mesh)
    G = geo.grads
    vols = geo.volumes
    inv, det = _pulled_back_map(mesh, w_field)
    dz = deformation_gradients(mesh, z_field)
    dza = np.einsum("cab,cbe->cae", dz, inv)
    eps = 0.5 * (dza + np.swapaxes(dza, 1, 2))
    tr = np.trace(dza, axis1=1, axis2=2)
    h = np.einsum("cba,cib->cia", inv, G)  # A^T g_i per cell
    vj = vols * det
    contrib = 2.0 * params.mu * np.einsum("c,cae,cje->cja", vj, eps, h)
    contrib += params.lam * np.einsum("c,c,cja->cja", vj, tr, h)
    contrib += params.damping * np.einsum(
        "c,ij,cia->cja", vj, fem.reference_mass(d), np.asarray(z_field)[mesh.cells]
    )
    out = np.zeros((mesh.num_vertices, d))
    np.add.at(out, mesh.cells.ravel(), contrib.reshape(-1, d))
    return out


def _cofactor_normals(mesh: SimplicialMesh, w_field: np.ndarray) -> np.ndarray:
    """cof(I + DW) nu per boundary facet (owner-cell deformation gradient)."""
    owners = facet_owner_cells(mesh)
    inv, det = _pulled_back_map(mesh, w_field)
    cof = det[owners, None, None] * np.swapaxes(inv[owners], 1, 2)
    return np.einsum("fab,fb->fa", cof, boundary_normals(mesh))


def pulled_back_normal_apply(
    mesh: SimplicialMesh, w_field: np.ndarray, force: np.ndarray
) -> np.ndarray:
    """<N^W F, .> against all nodal vector fields, shape (nv, dim).

    Integrates F (test . cof(I+DW) nu) over the undeformed boundary; by the
    cofactor (Nanson) formula this is the normal-force pairing on the
    deformed boundary.
    """
    facets = mesh.boundary_facets
    fm = shape.facet_mass_matrices(mesh)
    cn = _cofactor_normals(mesh, w_field)
    fvals = np.asarray(force)[np.searchsorted(mesh.boundary_vertices, facets)]
    w = np.einsum("fi,fij->fj", fvals, fm)
    contrib = np.einsum("fj,fc->fjc", w, cn)
    out = np.zeros((mesh.num_vertices, mesh.dim))
    np.add.at(out, facets.ravel(), contrib.reshape(-1, mesh.dim))
    return out


def pulled_back_normal_transpose_apply(
    mesh: SimplicialMesh, w_field: np.ndarray, field: np.ndarray
) -> np.ndarray:
    """(N^W)^* applied to a nodal vector field, shape (n_boundary,)."""
    facets = mesh.boundary_facets
    fm = shape.facet_mass_matrices(mesh)
    cn = _cofactor_normals(mesh, w_field)
    znu = np.einsum("fjc,fc->fj", np.asarray(field)[facets], cn)
    contrib = np.einsum("fij,fj->fi", fm, znu)
    out = np.zeros(len(mesh.boundary_vertices))
    np.add.at(out, np.searchsorted(mesh.boundary_vertices, facets).ravel(), contrib.ravel())
    return out


def d_elasticity(
    mesh: SimplicialMesh, params: shape.ElasticityParams, z_field: np.ndarray
) -> sp.csr_matrix:
    """Linearization of W -> <E^W Z, .> at W = 0, shape (nv*dim, nv*dim).

    Rows are test vector dofs, columns are the deformation direction dofs.
    """
    d = mesh.dim
    geo = fem.cell_geometry(mesh)
    G = geo.grads
    vols = geo.volumes
    zc = np.asarray(z_field)[mesh.cells]
    dz = deformation_gradients(mesh, z_field)
    eps = 0.5 * (dz + np.swapaxes(dz, 1, 2))
    divz = np.trace(dz, axis1=1, axis2=2)
    gg = np.einsum("cid,ckd->cik", G, G)
    gdz = np.einsum("cid,cdm->cim", G, dz)  # (g_i . DZ e_m)
    epsg = np.einsum("cae,cie->cia", eps, G)  # eps(Z) g_i
    ein = np.einsum
    local = -params.mu * ein("c,cam,ckj->cjakm", vols, dz, gg)
    local -= params.mu * ein("c,cka,cjm->cjakm", vols, G, gdz)
    local -= 2.0 * params.mu * ein("c,cjm,cka->cjakm", vols, G, epsg)
    local -= params.lam * ein("c,ckm,cja->cjakm", vols, gdz, G)
    local -= params.lam * ein("c,c,cjm,cka->cjakm", vols, divz, G, G)
    elastic = 2.0 * params.mu * epsg + params.lam * divz[:, None, None] * G
    local += ein("c,ckm,cja->cjakm", vols, G, elastic)
    mass_z = ein("c,ij,cia->cja", vols, fem.reference_mass(d), zc)
    local += params.damping * ein("ckm,cja->cjakm", G, mass_z)
    return shape._scatter_vector_matrix(mesh, local)


def d_normal_force(mesh: SimplicialMesh, force: np.ndarray) -> sp.csr_matrix:
    """Linearization of W -> N^W F at W = 0, shape (nv*dim, nv*dim).

    Uses d cof(I)[P] = tr(P) I - P^T; columns couple to all vertices of the
    facet's owner cell (entries for the opposite vertex vanish identically,
    as the cofactor normal only depends on the facet's own motion).
    """
    d = mesh.dim
    facets = mesh.boundary_facets
    owners, gown = _owner_geometry(mesh)
    fm = shape.facet_mass_matrices(mesh)
    normals = boundary_normals(mesh)
    fvals = np.asarray(force)[np.searchsorted(mesh.boundary_vertices, facets)]
    w = np.einsum("fi,fij->fj", fvals, fm)
    entries = np.einsum("fj,fc,fkm->fjckm", w, normals, gown)
    entries -= np.einsum("fj,fkc,fm->fjckm", w, gown, normals)
    rows = np.broadcast_to(
        (facets[:, :, None] * d + np.arange(d))[:, :, :, None, None], entries.shape
    )
    owner_dofs = mesh.cells[owners][:, :, None] * d + np.arange(d)  # (nf, k, m)
    cols = np.broadcast_to(owner_dofs[:, None, None, :, :], entries.shape)
    nd = mesh.num_vertices * d
    return from_triplets(nd, nd, rows.ravel(), cols.ravel(), entries.ravel())


def d_normal_transpose(mesh: SimplicialMesh, field: np.ndarray) -> sp.csr_matrix:
    """Linearization of W -> (N^W)^* Pi at W = 0, shape (n_boundary, nv*dim)."""
    d = mesh.dim
    facets = mesh.boundary_facets
    owners, gown = _owner_geometry(mesh)
    fm = shape.facet_mass_matrices(mesh)
    normals = boundary_normals(mesh)
    pif = np.asarray(field)[facets]  # (nf, j, comp)
    pi_nu = np.einsum("fjc,fc->fj", pif, normals)
    pi_g = np.einsum("fjc,fkc->fjk", pif, gown)
    entries = np.einsum("fij,fj,fkm->fikm", fm, pi_nu, gown)
    entries -= np.einsum("fij,fjk,fm->fikm", fm, pi_g, normals)
    bcols = np.searchsorted(mesh.boundary_vertices, facets)
    rows = np.broadcast_to(bcols[:, :, None, None], entries.shape)
    owner_dofs = mesh.cells[owners][:, :, None] * d + np.arange(d)
    cols = np.broadcast_to(owner_dofs[:, None, :, :], entries.shape)
    return from_triplets(
        len(mesh.boundary_vertices), mesh.num_vertices * d,
        rows.ravel(), cols.ravel(), entries.ravel(),
    )


# ----------------------------------------------------------------------------
# the damped Newton system


class NewtonSystem:
    """Linearization of the coupled optimality system at the current mesh.

    Unknown blocks (sizes): W (nv*d), G (nb), u (ni), p (ni), V (nv*d),
    F (nb), Pi (nv*d).  ``blocks`` holds the nonzero Jacobian blocks keyed
    by (row, column) and ``residual`` the residual per row.  The damping
    alpha only enters the force-update row -G/alpha + F = -force, whose
    diagonal block -I/alpha is left out of ``blocks``.

    The system is solved by exact reduction onto the boundary force G.  The
    W row E W = N G makes every step a normal-force deformation W = Phi G
    with Phi = E^{-1} N.  Given G, the u and p rows are interior Poisson
    solves and the (V, F, Pi) rows are the saddle [E N; N^T 0], solved by
    the mesh's :func:`shapeopt.shape.restriction` (Phi and the Cholesky
    factor of S = N^T Phi) that also gave the restricted gradient.  All is
    affine in G, so F = F0 + T G, where ``T`` = dF/dG is a dense nb x nb
    matrix; each positive real eigenvalue lambda of T puts a pole of the
    step at alpha = 1/lambda.  Nothing is factorized here.
    """

    def __init__(
        self,
        mesh: SimplicialMesh,
        data: ProblemData,
        params: shape.ElasticityParams,
        iterate: NewtonIterate,
    ):
        self.mesh = mesh
        self.forms = LagrangianForms(mesh, data)
        restrict = self._restriction = shape.restriction(mesh, params)
        d = mesh.dim
        nd = mesh.num_vertices * d
        nb = len(mesh.boundary_vertices)
        ni = len(self.forms.interior)
        u, p = iterate.u, iterate.p
        v_flat = iterate.direction.ravel()
        pi_flat = iterate.multiplier.ravel()
        stiff = self.forms.stiffness_interior()
        c_uw = self.forms.d2_uw(u, p)
        c_pw = self.forms.d2_pw(u, p)
        h_ww = self.forms.d2_ww(u, p)
        de_vpi = d_elasticity(mesh, params, iterate.direction + iterate.multiplier)
        de_v = d_elasticity(mesh, params, iterate.direction)
        dn_f = d_normal_force(mesh, iterate.force)
        dns_pi = d_normal_transpose(mesh, iterate.multiplier)
        E, N = restrict.operators.elasticity, restrict.operators.normal_force
        self.sizes = {"W": nd, "G": nb, "u": ni, "p": ni, "V": nd, "F": nb, "Pi": nd}
        self.blocks = {
            ("W", "W"): E, ("W", "G"): -N,
            ("G", "F"): sp.identity(nb, format="csr"),
            ("u", "W"): c_uw, ("u", "p"): stiff,
            ("p", "W"): c_pw, ("p", "u"): stiff,
            ("V", "W"): h_ww + de_vpi, ("V", "u"): c_uw.T, ("V", "p"): c_pw.T,
            ("V", "V"): E, ("V", "Pi"): E,
            ("F", "W"): -dns_pi, ("F", "Pi"): -N.T,
            ("Pi", "W"): de_v - dn_f, ("Pi", "V"): E, ("Pi", "F"): -N,
        }
        zero_w = np.zeros_like(iterate.direction)
        self.residual = {
            "G": iterate.force.copy(),
            "W": np.zeros(nd),
            "u": self.forms.d_u(zero_w, u, p),
            "p": self.forms.d_p(zero_w, u, p),
            "V": E @ (v_flat + pi_flat) + self.forms.d_w(zero_w, u, p).ravel(),
            "F": -(N.T @ pi_flat),
            "Pi": E @ v_flat - N @ iterate.force,
        }
        b = self.blocks
        self._poisson = fem.poisson_workspace(mesh).factor
        phi = restrict.phi
        # G -> (u, p) -> (V, Pi) -> F, linearly; Phi^T = N^T E^{-1} as E is symmetric
        xky = (b["u", "W"] @ phi).T @ self._poisson.solve(b["p", "W"] @ phi)
        coupling = phi.T @ ((b["Pi", "W"] - b["V", "W"]) @ phi) - b["F", "W"] @ phi
        self.T = scipy.linalg.cho_solve(restrict.schur, coupling + xky + xky.T)
        self._f0 = self._recover(np.zeros(nb))["F"]

    def _recover(self, g: np.ndarray) -> dict[str, np.ndarray]:
        """All solution blocks for the force update G, from every row but G's."""
        b = self.blocks
        r = {name: -vec for name, vec in self.residual.items()}
        w = self._restriction.phi @ g  # the W row E W - N G = 0 has a zero residual
        p, u = self._poisson.solve(np.column_stack((
            r["u"] - b["u", "W"] @ w, r["p"] - b["p", "W"] @ w,
        ))).T
        v, f, pi = self._restriction.solve(
            a=r["V"] - b["V", "W"] @ w - b["V", "u"] @ u - b["V", "p"] @ p,
            b=r["Pi"] - b["Pi", "W"] @ w,
            c=r["F"] - b["F", "W"] @ w,
        )
        return {"W": w, "G": g, "u": u, "p": p, "V": v, "F": f, "Pi": pi}

    def solve(self, alpha: float) -> dict[str, np.ndarray]:
        """Solve the damped system; returns all solution blocks keyed by name.

        The G row -G/alpha + F0 + T G = -force is the dense nb x nb system
        (I/alpha - T) G = F0 + force; the other blocks follow from G.
        """
        if alpha <= 0.0:
            raise ValueError(f"damping alpha must be positive, got {alpha}")
        damped = np.eye(len(self._f0)) / alpha - self.T
        return self._recover(np.linalg.solve(damped, self._f0 + self.residual["G"]))

    def step(self, alpha: float) -> np.ndarray:
        """Mesh update W of the damped Newton step, shape (nv, dim)."""
        return self.solve(alpha)["W"].reshape(self.mesh.num_vertices, self.mesh.dim)


def prepare_iterate(
    mesh: SimplicialMesh,
    data: ProblemData,
    params: shape.ElasticityParams,
) -> Iterate:
    """Solve state, adjoint, and projection on the mesh; package the iterate.

    The restricted gradient is the search direction; ``state`` holds the
    :class:`NewtonIterate` the Newton system is built from.
    """
    u = fem.solve_state(mesh, data)
    p = fem.solve_adjoint(mesh)
    derivative = shape.shape_derivative(mesh, data, u, p)
    res = shape.restricted_gradient(mesh, params, derivative)
    return Iterate(
        fem.objective(mesh, u), derivative, res.direction, res.energy,
        derivative.pair(res.direction),
        NewtonIterate(u.values, p.values, res.direction, res.force, res.multiplier),
    )


def _damped_trials(mesh, data, params, it):
    """Damped Newton trials: alpha is the damping and the step is always 1."""
    system = NewtonSystem(mesh, data, params, it.state)

    def trial(alpha):
        w_step = system.step(alpha)
        return w_step, 1.0, it.derivative.pair(w_step)

    return trial


def restricted_newton(
    mesh: SimplicialMesh,
    data: ProblemData,
    params: shape.ElasticityParams | None = None,
    config: NewtonConfig | None = None,
    callback: Callable | None = None,
) -> tuple[SimplicialMesh, RunRecord]:
    """Damped Newton iteration on the restricted shape dynamics.

    Every outer iteration rebuilds the coupled system on the current mesh,
    raises the damping by 1/beta, and backtracks (re-solving the system) until
    the step is a descent direction satisfying both the Armijo condition with
    unit step and the cell-quality safeguards.  Stops when the restricted
    gradient energy falls below ``eps_tol**2``.  The loop is
    :func:`shapeopt.descent.optimize`.
    """
    return optimize(mesh, data, params, config or NewtonConfig(), "newton",
                    prepare_iterate, _damped_trials, damped=True, callback=callback)
