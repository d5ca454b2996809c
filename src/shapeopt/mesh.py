"""Simplicial meshes: construction, deformation, quality, boundary geometry.

A mesh is a flat array of vertex coordinates plus positively oriented cell
connectivity.  Boundary facets are stored explicitly with the orientation
induced by their owning cell, so outward normals can be computed without
sign searches.  Meshes are immutable; deformation produces a new mesh.
Data derived from a mesh (hat gradients, facet owners, factorizations) is
computed on first use and kept with that mesh; see :func:`per_mesh`.
"""
from __future__ import annotations

import dataclasses
import logging
from functools import cached_property, wraps

import numpy as np

logger = logging.getLogger(__name__)


class MeshError(ValueError):
    """Malformed or inconsistent mesh data."""


class DegenerateMeshError(MeshError):
    """A cell has non-positive signed volume."""


class DegenerateFacetError(MeshError):
    """A boundary facet has zero measure."""


@dataclasses.dataclass(frozen=True)
class SimplicialMesh:
    """Conforming simplicial mesh in dimension 2 or 3.

    Attributes
    ----------
    vertices : (nv, dim) float array of coordinates.
    cells : (nc, dim+1) int array, every cell positively oriented.
    boundary_facets : (nf, dim) int array; facet vertices are listed in the
        orientation induced by the owning cell, so the outward normal follows
        from the right-hand rule without further sign checks.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray

    def __post_init__(self) -> None:
        verts = np.ascontiguousarray(self.vertices, dtype=np.float64)
        cells = np.ascontiguousarray(self.cells, dtype=np.int64)
        facets = np.ascontiguousarray(self.boundary_facets, dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] not in (2, 3):
            raise MeshError(f"vertices must be (nv, 2) or (nv, 3), got {verts.shape}")
        dim = verts.shape[1]
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise MeshError(f"cells must be (nc, {dim + 1}), got {cells.shape}")
        if facets.ndim != 2 or facets.shape[1] != dim:
            raise MeshError(f"boundary facets must be (nf, {dim}), got {facets.shape}")
        if cells.size and (cells.min() < 0 or cells.max() >= len(verts)):
            raise MeshError("cell index out of range")
        if facets.size and (facets.min() < 0 or facets.max() >= len(verts)):
            raise MeshError("facet index out of range")
        if not np.all(np.isfinite(verts)):
            raise MeshError("vertex coordinates must be finite")
        for arr, name in ((verts, "vertices"), (cells, "cells"), (facets, "boundary_facets")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __getstate__(self) -> dict:
        # the per_mesh memo is rebuilt on demand and holds unpicklable factors
        return {k: v for k, v in self.__dict__.items() if k != "_derived"}

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        """Sorted indices of vertices lying on the boundary."""
        bv = np.unique(self.boundary_facets)
        bv.setflags(write=False)
        return bv

    @classmethod
    def from_cells(cls, vertices: np.ndarray, cells: np.ndarray) -> "SimplicialMesh":
        """Build a mesh from raw connectivity.

        Negative cells are reoriented by swapping their last two vertices;
        boundary facets are extracted from the cell complex.  Raises
        :class:`DegenerateMeshError` if any cell has zero volume.
        """
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        cells = np.array(cells, dtype=np.int64)
        if vertices.ndim != 2 or cells.ndim != 2 or cells.shape[1] != vertices.shape[1] + 1:
            raise MeshError(f"cells {cells.shape} do not fit vertices {vertices.shape}")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell index out of range")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        vols = _signed_volumes(vertices, cells)
        flip = vols < 0.0
        if np.any(flip):
            cells[flip] = cells[flip][:, _swap_last_two(cells.shape[1])]
            vols = np.abs(vols)
        if np.any(vols == 0.0):
            raise DegenerateMeshError(
                f"{int(np.sum(vols == 0.0))} cells have zero volume"
            )
        facets = _extract_boundary_facets(cells)
        return cls(vertices, cells, facets)

    def validate(self) -> None:
        """Full consistency check: volumes, facet bookkeeping, outwardness."""
        vols = _signed_volumes(self.vertices, self.cells)
        if np.any(vols <= 0.0):
            raise DegenerateMeshError(
                f"min signed volume {vols.min():.3e} (cell {int(np.argmin(vols))})"
            )
        expected = _extract_boundary_facets(self.cells)
        got = {tuple(sorted(f)) for f in self.boundary_facets}
        want = {tuple(sorted(f)) for f in expected}
        if got != want:
            raise MeshError("stored boundary facets do not match the cell complex")
        # outward orientation: normal points away from the facet's owning cell
        normals = boundary_normals(self)
        centroids = self.vertices[self.boundary_facets].mean(axis=1)
        owner = facet_owner_cells(self)
        opposite = self.vertices[self.cells[owner]].mean(axis=1)
        if np.any(np.einsum("fd,fd->f", normals, centroids - opposite) <= 0.0):
            raise MeshError("boundary facet oriented inward")


def _swap_last_two(width: int) -> np.ndarray:
    perm = np.arange(width)
    perm[-2], perm[-1] = perm[-1], perm[-2]
    return perm


def _signed_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    coords = vertices[cells]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    dim = vertices.shape[1]
    return np.linalg.det(edges) / np.prod(np.arange(1, dim + 1))


def signed_volumes(mesh: SimplicialMesh) -> np.ndarray:
    """Signed cell volumes (positive on a valid mesh)."""
    return _signed_volumes(mesh.vertices, mesh.cells)


def per_mesh(build):
    """Run ``build(mesh, *args)`` once per mesh and argument tuple.

    The result is kept in the mesh's own memo for as long as the mesh lives.
    Meshes are immutable, so derived data never goes stale, and a deformed
    mesh is a new object that starts with an empty memo.  Results are shared
    between callers, so builders return read-only arrays.
    """

    @wraps(build)
    def derived(mesh: SimplicialMesh, *args):
        memo = mesh.__dict__.setdefault("_derived", {})
        key = (build, *args)
        if key not in memo:
            memo[key] = build(mesh, *args)
        return memo[key]

    return derived


def drop_derived(mesh: SimplicialMesh) -> None:
    """Free the data memoized on ``mesh``; it is rebuilt if asked for again.

    The optimization loops call this on each mesh they leave, so its
    factorizations do not stay alive with a mesh the caller still holds.
    """
    mesh.__dict__.pop("_derived", None)


def read_only(array):
    """Mark ``array``, or a sparse matrix's data, indices and indptr, read-only."""
    parts = (array.data, array.indices, array.indptr) if hasattr(array, "indptr") else (array,)
    for part in parts:
        part.setflags(write=False)
    return array


@dataclasses.dataclass(frozen=True)
class CellGeometry:
    """Volumes and hat-function gradients of every cell.

    ``grads[c, i]`` is the gradient of the hat function of local vertex i on
    cell c; gradients sum to zero over each cell.
    """

    volumes: np.ndarray  # (nc,)
    grads: np.ndarray    # (nc, d+1, d)


@per_mesh
def cell_geometry(mesh: SimplicialMesh) -> CellGeometry:
    """Raises :class:`DegenerateMeshError` if a cell has non-positive volume."""
    coords = mesh.vertices[mesh.cells]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    dim = mesh.dim
    volumes = np.linalg.det(edges) / np.prod(np.arange(1, dim + 1))
    if volumes.size and volumes.min() <= 0.0:
        worst = int(np.argmin(volumes))
        raise DegenerateMeshError(f"cell {worst} has signed volume {volumes[worst]:.3e}")
    inv = np.linalg.inv(edges)
    grads = np.empty((mesh.num_cells, dim + 1, dim))
    grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return CellGeometry(read_only(volumes), read_only(grads))


_FACE_ORDER_2D = [(0, 1), (1, 2), (2, 0)]
# Faces of a positively oriented tet, each wound so the normal points outward.
_FACE_ORDER_3D = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]


def _cell_facets(cells: np.ndarray) -> np.ndarray:
    """All facets of all cells with the owner-induced orientation, (nc*nfpc, dim)."""
    order = _FACE_ORDER_2D if cells.shape[1] == 3 else _FACE_ORDER_3D
    return np.concatenate([cells[:, list(face)] for face in order], axis=0)


def _extract_boundary_facets(cells: np.ndarray) -> np.ndarray:
    faces = _cell_facets(cells)
    key = np.sort(faces, axis=1)
    _, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    on_boundary = counts[inverse.ravel()] == 1
    if np.any(counts > 2):
        raise MeshError("facet shared by more than two cells")
    return faces[on_boundary]


@per_mesh
def facet_owner_cells(mesh: SimplicialMesh) -> np.ndarray:
    """Index of the unique cell owning each boundary facet."""
    faces = np.sort(_cell_facets(mesh.cells), axis=1)
    keys = np.concatenate((faces, np.sort(mesh.boundary_facets, axis=1)))
    # sorted by vertex ids, then cell faces before boundary facets: each
    # boundary facet lands right after its owner's copy of the same face
    is_facet = np.arange(len(keys)) >= len(faces)
    order = np.lexsort((is_facet, *keys.T[::-1]))
    at = np.flatnonzero(is_facet[order])
    face = order[np.maximum(at - 1, 0)]
    found = (at > 0) & ~is_facet[face] & np.all(keys[face] == keys[order[at]], axis=1)
    if not found.all():
        raise MeshError("a boundary facet is not a face of any cell")
    owners = np.empty(len(mesh.boundary_facets), dtype=np.int64)
    owners[order[at] - len(faces)] = face % mesh.num_cells
    return read_only(owners)


def boundary_normals(mesh: SimplicialMesh) -> np.ndarray:
    """Unit outward normals of all boundary facets, (nf, dim)."""
    coords = mesh.vertices[mesh.boundary_facets]
    if mesh.dim == 2:
        tangent = coords[:, 1, :] - coords[:, 0, :]
        lengths = np.linalg.norm(tangent, axis=1)
        if np.any(lengths == 0.0):
            raise DegenerateFacetError("zero-length boundary edge")
        return np.column_stack((tangent[:, 1], -tangent[:, 0])) / lengths[:, None]
    cross = np.cross(coords[:, 1, :] - coords[:, 0, :], coords[:, 2, :] - coords[:, 0, :])
    areas = np.linalg.norm(cross, axis=1)
    if np.any(areas == 0.0):
        raise DegenerateFacetError("zero-area boundary triangle")
    return cross / areas[:, None]


def boundary_measures(mesh: SimplicialMesh) -> np.ndarray:
    """Lengths (2D) or areas (3D) of all boundary facets."""
    coords = mesh.vertices[mesh.boundary_facets]
    if mesh.dim == 2:
        return np.linalg.norm(coords[:, 1, :] - coords[:, 0, :], axis=1)
    cross = np.cross(coords[:, 1, :] - coords[:, 0, :], coords[:, 2, :] - coords[:, 0, :])
    return 0.5 * np.linalg.norm(cross, axis=1)


def cell_radius_ratios(mesh: SimplicialMesh) -> np.ndarray:
    """Normalized inradius/circumradius ratio per cell, in [0, 1].

    Returns ``dim * r / R`` which equals one for the regular simplex and zero
    for a degenerate cell.  Invariant under rigid motions and uniform scaling.
    """
    coords = mesh.vertices[mesh.cells]
    with np.errstate(divide="ignore", invalid="ignore"):
        if mesh.dim == 2:
            a = np.linalg.norm(coords[:, 1] - coords[:, 2], axis=1)
            b = np.linalg.norm(coords[:, 2] - coords[:, 0], axis=1)
            c = np.linalg.norm(coords[:, 0] - coords[:, 1], axis=1)
            area = 0.5 * np.abs(
                np.linalg.det(coords[:, 1:, :] - coords[:, :1, :])
            )
            s = 0.5 * (a + b + c)
            inradius = area / s
            circum = a * b * c / (4.0 * area)
            ratio = 2.0 * inradius / circum
        else:
            edges = coords[:, 1:, :] - coords[:, :1, :]
            vol = np.abs(np.linalg.det(edges)) / 6.0
            # total surface area of the four faces
            face_area = np.zeros(len(coords))
            for i, j, k in _FACE_ORDER_3D:
                cr = np.cross(coords[:, j] - coords[:, i], coords[:, k] - coords[:, i])
                face_area += 0.5 * np.linalg.norm(cr, axis=1)
            inradius = 3.0 * vol / face_area
            # circumcenter from |x - v_i| = |x - v_0|, i = 1..3
            rhs = 0.5 * (
                np.einsum("cid,cid->ci", coords[:, 1:, :], coords[:, 1:, :])
                - np.einsum("cd,cd->c", coords[:, 0, :], coords[:, 0, :])[:, None]
            )
            nondeg = np.abs(np.linalg.det(edges)) > 0.0
            center = np.zeros((len(coords), 3))
            if np.any(nondeg):
                center[nondeg] = np.linalg.solve(
                    edges[nondeg], rhs[nondeg][..., None]
                )[..., 0]
            circum = np.linalg.norm(center - coords[:, 0, :], axis=1)
            ratio = 3.0 * inradius / circum
    return np.where(np.isfinite(ratio) & (ratio > 0.0), ratio, 0.0)


def min_radius_ratio(mesh: SimplicialMesh) -> float:
    """Worst cell radius ratio of the mesh (0 if any cell is degenerate)."""
    return float(cell_radius_ratios(mesh).min())


def deformation_gradients(mesh: SimplicialMesh, field: np.ndarray) -> np.ndarray:
    """Per-cell Jacobian DV of a piecewise-linear vector field, (nc, dim, dim)."""
    field = np.asarray(field, dtype=np.float64)
    return np.einsum("cia,cib->cab", field[mesh.cells], cell_geometry(mesh).grads)


@dataclasses.dataclass(frozen=True)
class CellQualityReport:
    """Per-cell deformation quality under x -> x + alpha * V(x)."""

    alpha: float
    determinants: np.ndarray      # det(I + alpha DV) per cell
    frobenius_norms: np.ndarray   # ||alpha DV||_F per cell
    passed: bool


def quality_check(
    mesh: SimplicialMesh,
    field: np.ndarray,
    alpha: float,
    det_lo: float = 0.5,
    det_hi: float = 2.0,
    frob_max: float = 0.3,
) -> CellQualityReport:
    """Check the cell-wise step-size safeguards for a trial deformation.

    Passes iff every cell satisfies ``det_lo <= det(I + alpha DV) <= det_hi``
    and ``||alpha DV||_F <= frob_max``.
    """
    dv = alpha * deformation_gradients(mesh, field)
    dets = np.linalg.det(np.eye(mesh.dim) + dv)
    frob = np.sqrt(np.einsum("cab,cab->c", dv, dv))
    passed = bool(
        dets.min() >= det_lo and dets.max() <= det_hi and frob.max() <= frob_max
    )
    return CellQualityReport(float(alpha), dets, frob, passed)


def apply_deformation(
    mesh: SimplicialMesh, field: np.ndarray, alpha: float = 1.0
) -> SimplicialMesh:
    """Move every vertex by ``alpha * field`` keeping the connectivity.

    Raises :class:`DegenerateMeshError` if the moved mesh has a cell with
    non-positive signed volume.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != mesh.vertices.shape:
        raise MeshError(
            f"deformation field shape {field.shape} != vertices {mesh.vertices.shape}"
        )
    moved = SimplicialMesh(mesh.vertices + alpha * field, mesh.cells, mesh.boundary_facets)
    cell_geometry(moved)  # checks the volumes, and the moved mesh keeps the result
    return moved


# ----------------------------------------------------------------------------
# generators


def generate_disk_mesh(radius: float = 1.0, refinement_level: int = 0) -> SimplicialMesh:
    """Triangulate the disk of given radius.

    Level 0 is a six-sector polar layout with six concentric rings: 127
    vertices, 216 triangles, 36 boundary vertices.  Each refinement level
    splits every triangle into four; midpoints of boundary edges are projected
    back onto the circle so the discrete boundary tracks the geometry.
    """
    if radius <= 0.0:
        raise MeshError(f"radius must be positive, got {radius}")
    if refinement_level < 0:
        raise MeshError("refinement_level must be >= 0")
    rings = 6
    verts = [(0.0, 0.0)]
    ring_start = [0, 1]
    for j in range(1, rings + 1):
        r = radius * j / rings
        for k in range(6 * j):
            angle = 2.0 * np.pi * k / (6 * j)
            verts.append((r * np.cos(angle), r * np.sin(angle)))
        ring_start.append(ring_start[-1] + 6 * j)
    cells = []
    for k in range(6):
        cells.append((0, 1 + k, 1 + (k + 1) % 6))
    for j in range(2, rings + 1):
        inner, outer = ring_start[j - 1], ring_start[j]
        n_in, n_out = 6 * (j - 1), 6 * j
        for s in range(6):
            idx_in = [inner + (s * (j - 1) + t) % n_in for t in range(j)]
            idx_out = [outer + (s * j + t) % n_out for t in range(j + 1)]
            for t in range(j):
                cells.append((idx_out[t], idx_out[t + 1], idx_in[t]))
            for t in range(j - 1):
                cells.append((idx_in[t], idx_out[t + 1], idx_in[t + 1]))
    mesh = SimplicialMesh.from_cells(np.array(verts), np.array(cells))
    for _ in range(refinement_level):
        mesh = _refine_red(mesh, _circle_projector(radius))
    logger.info(
        "disk mesh level %d: %d vertices, %d cells",
        refinement_level, mesh.num_vertices, mesh.num_cells,
    )
    return mesh


def _circle_projector(radius: float):
    def project(points: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        return radius * points / norms

    return project


def _refine_red(mesh: SimplicialMesh, boundary_project=None) -> SimplicialMesh:
    """Uniform red refinement; optional projection of boundary-edge midpoints."""
    if mesh.dim != 2:
        raise MeshError("red refinement implemented for 2D meshes only")
    cells = mesh.cells
    pairs = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]], axis=0)
    keys = np.sort(pairs, axis=1)
    edges, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    if boundary_project is not None:
        boundary_keys = {tuple(sorted(f)) for f in mesh.boundary_facets}
        on_boundary = np.array(
            [tuple(e) in boundary_keys for e in edges], dtype=bool
        )
        midpoints[on_boundary] = boundary_project(midpoints[on_boundary])
    mid_index = mesh.num_vertices + np.arange(len(edges))
    nc = mesh.num_cells
    mab = mid_index[inverse[:nc]]
    mbc = mid_index[inverse[nc : 2 * nc]]
    mca = mid_index[inverse[2 * nc :]]
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    new_cells = np.concatenate(
        [
            np.column_stack((a, mab, mca)),
            np.column_stack((mab, b, mbc)),
            np.column_stack((mca, mbc, c)),
            np.column_stack((mab, mbc, mca)),
        ]
    )
    new_verts = np.vstack((mesh.vertices, midpoints))
    return SimplicialMesh.from_cells(new_verts, new_cells)


# The six tetrahedra of the Kuhn split of the unit cube, one per permutation
# of the axes; all share the main diagonal, so neighbouring cubes conform.
_KUHN_PERMS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]


def generate_cube_mesh(side: float = 2.0, n_per_edge: int = 8) -> SimplicialMesh:
    """Tetrahedralize the axis-aligned cube of given side, centered at the origin.

    Uses an n x n x n grid with six tetrahedra per grid cell, giving
    ``(n+1)**3`` vertices and ``6 n**3`` cells.
    """
    if side <= 0.0:
        raise MeshError(f"side must be positive, got {side}")
    n = int(n_per_edge)
    if n < 1:
        raise MeshError("n_per_edge must be >= 1")
    coords_1d = np.linspace(-0.5 * side, 0.5 * side, n + 1)
    grid = np.stack(
        np.meshgrid(coords_1d, coords_1d, coords_1d, indexing="ij"), axis=-1
    ).reshape(-1, 3)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                base = np.array((i, j, k))
                for perm in _KUHN_PERMS:
                    path = [base.copy()]
                    for axis in perm:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    cells.append([vid(*p) for p in path])
    mesh = SimplicialMesh.from_cells(grid, np.array(cells))
    logger.info(
        "cube mesh n=%d: %d vertices, %d cells", n, mesh.num_vertices, mesh.num_cells
    )
    return mesh
