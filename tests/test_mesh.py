"""Mesh data structure, quality measures, deformation, and generators."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapeopt.mesh import (
    DegenerateMeshError,
    MeshError,
    SimplicialMesh,
    apply_deformation,
    boundary_measures,
    boundary_normals,
    cell_geometry,
    cell_radius_ratios,
    deformation_gradients,
    facet_owner_cells,
    generate_cube_mesh,
    generate_disk_mesh,
    min_radius_ratio,
    quality_check,
    signed_volumes,
)

from conftest import make_hexagon, random_deformation


def test_from_cells_reorients_negative_cells():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = SimplicialMesh.from_cells(vertices, np.array([[0, 2, 1]]))
    assert signed_volumes(mesh)[0] > 0.0
    assert_allclose(signed_volumes(mesh)[0], 0.5)


def test_from_cells_rejects_zero_volume():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateMeshError):
        SimplicialMesh.from_cells(vertices, np.array([[0, 1, 2]]))


def test_constructor_rejects_bad_indices():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        SimplicialMesh.from_cells(vertices, np.array([[0, 1, 3]]))


def test_constructor_rejects_non_finite_vertices():
    # a NaN volume passes both the negative and the zero-volume test
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(MeshError):
        SimplicialMesh.from_cells(vertices, np.array([[0, 1, 2]]))


def test_arrays_are_frozen(hexagon):
    with pytest.raises(ValueError):
        hexagon.vertices[0, 0] = 7.0


def test_hexagon_boundary(hexagon):
    assert hexagon.num_vertices == 7
    assert hexagon.num_cells == 6
    assert list(hexagon.boundary_vertices) == [1, 2, 3, 4, 5, 6]
    assert len(hexagon.boundary_facets) == 6
    hexagon.validate()


def test_facet_owner_cells(hexagon):
    owners = facet_owner_cells(hexagon)
    for facet, owner in zip(hexagon.boundary_facets, owners):
        assert set(facet) <= set(hexagon.cells[owner])


def test_facet_owner_cells_match_a_search_over_all_faces(cube2):
    # any facet order, same owners as a dict from each cell face to its cell
    order = np.random.default_rng(5).permutation(len(cube2.boundary_facets))
    mesh = SimplicialMesh(cube2.vertices, cube2.cells, cube2.boundary_facets[order])
    owner_of = {}
    for cell, nodes in enumerate(mesh.cells):
        for drop in range(4):
            owner_of[tuple(sorted(np.delete(nodes, drop)))] = cell
    expected = [owner_of[tuple(sorted(f))] for f in mesh.boundary_facets]
    owners = facet_owner_cells(mesh)
    assert owners.dtype == np.int64 and not owners.flags.writeable
    assert owners.tolist() == expected


def test_facet_owner_cells_rejects_a_facet_of_no_cell(hexagon):
    facets = hexagon.boundary_facets.copy()
    facets[0] = (1, 3)  # a chord, not an edge of any triangle
    with pytest.raises(MeshError):
        facet_owner_cells(SimplicialMesh(hexagon.vertices, hexagon.cells, facets))


def test_boundary_normals_outward_unit(disk0):
    normals = boundary_normals(disk0)
    assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
    # disk: outward normal at a boundary edge is radial at the edge midpoint
    midpoints = disk0.vertices[disk0.boundary_facets].mean(axis=1)
    radial = midpoints / np.linalg.norm(midpoints, axis=1, keepdims=True)
    assert np.einsum("fd,fd->f", normals, radial).min() > 0.99


def test_boundary_measures_sum_to_perimeter(hexagon):
    # regular hexagon with unit circumradius: six unit edges
    assert_allclose(boundary_measures(hexagon).sum(), 6.0, rtol=1e-14)


def test_radius_ratio_equilateral_is_one():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    mesh = SimplicialMesh.from_cells(vertices, np.array([[0, 1, 2]]))
    assert_allclose(cell_radius_ratios(mesh), [1.0], rtol=1e-13)


def test_radius_ratio_regular_tet_is_one():
    vertices = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    mesh = SimplicialMesh.from_cells(vertices, np.array([[0, 1, 2, 3]]))
    assert_allclose(cell_radius_ratios(mesh), [1.0], rtol=1e-13)


def test_radius_ratio_shrinks_for_flat_cells():
    # progressively flatter triangles: ratio decreases towards zero
    heights = [1.0, 0.1, 0.01, 0.001]
    ratios = []
    for h in heights:
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        ratios.append(min_radius_ratio(SimplicialMesh.from_cells(vertices, np.array([[0, 1, 2]]))))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.01


def test_radius_ratio_scale_invariant(disk0):
    scaled = SimplicialMesh(disk0.vertices * 37.0, disk0.cells, disk0.boundary_facets)
    assert_allclose(
        cell_radius_ratios(scaled), cell_radius_ratios(disk0), rtol=1e-10
    )


def test_deformation_gradients_linear_field_exact(disk0):
    # V(x) = A x + b has DV = A on every cell
    a = np.array([[0.3, -0.1], [0.2, 0.5]])
    field = disk0.vertices @ a.T + np.array([0.7, -0.2])
    dv = deformation_gradients(disk0, field)
    assert_allclose(dv, np.broadcast_to(a, dv.shape), atol=1e-12)


def test_quality_check_identity_and_thresholds(disk0, rng):
    assert quality_check(disk0, np.zeros_like(disk0.vertices), 1.0).passed
    field = random_deformation(disk0, rng)
    report = quality_check(disk0, field, 1e-4)
    assert report.passed
    assert report.determinants.min() > 0.99
    big = quality_check(disk0, field, 10.0)
    assert not big.passed


def test_quality_check_frobenius_bound():
    # uniform expansion x -> x + alpha x: DV = I, ||DV||_F = sqrt(2), det = (1+alpha)^2
    mesh = make_hexagon()
    field = mesh.vertices.copy()
    report = quality_check(mesh, field, 0.1)
    assert_allclose(report.frobenius_norms, 0.1 * np.sqrt(2.0), rtol=1e-12)
    assert_allclose(report.determinants, 1.21, rtol=1e-12)
    assert report.passed
    assert not quality_check(mesh, field, 0.3).passed  # frobenius exceeds 0.3


def test_apply_deformation_moves_vertices(disk0):
    field = np.ones_like(disk0.vertices)
    moved = apply_deformation(disk0, field, 0.25)
    assert_allclose(moved.vertices, disk0.vertices + 0.25, rtol=0.0)
    assert moved.cells is disk0.cells


def test_apply_deformation_rejects_inversion(hexagon):
    field = np.zeros_like(hexagon.vertices)
    field[0] = (3.0, 0.0)  # push the center far past the boundary ring
    with pytest.raises(DegenerateMeshError):
        apply_deformation(hexagon, field, 1.0)


@pytest.mark.parametrize("apex", [(2.0, 0.0), (0.5, -1.0)])  # flat, then inverted
def test_cell_geometry_rejects_non_positive_volume(apex):
    # built directly, so no constructor check has looked at the volumes
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], apex])
    mesh = SimplicialMesh(vertices, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))
    with pytest.raises(DegenerateMeshError):
        cell_geometry(mesh)


def test_apply_deformation_shape_mismatch(hexagon):
    with pytest.raises(MeshError):
        apply_deformation(hexagon, np.zeros((3, 2)), 1.0)


def test_disk_mesh_pinned_sizes(disk0, disk1):
    assert disk0.num_vertices == 127
    assert disk0.num_cells == 216
    assert len(disk0.boundary_vertices) == 36
    assert disk1.num_cells == 4 * 216
    assert len(disk1.boundary_vertices) == 72
    disk0.validate()
    disk1.validate()


def test_disk_mesh_boundary_on_circle(disk1):
    radii = np.linalg.norm(disk1.vertices[disk1.boundary_vertices], axis=1)
    assert_allclose(radii, 1.0, atol=1e-14)


def test_disk_mesh_area_converges():
    areas = [signed_volumes(generate_disk_mesh(1.0, level)).sum() for level in (0, 1, 2)]
    errors = np.pi - np.array(areas)
    assert errors.min() > 0.0  # inscribed polygons underestimate
    assert errors[1] / errors[0] < 0.3
    assert errors[2] / errors[1] < 0.3


def test_cube_mesh_pinned_sizes():
    mesh = generate_cube_mesh(2.0, 8)
    assert mesh.num_vertices == 729
    assert mesh.num_cells == 3072
    assert len(mesh.boundary_facets) == 2 * 6 * 8 * 8
    assert_allclose(signed_volumes(mesh).sum(), 8.0, rtol=1e-12)
    assert_allclose(mesh.vertices.min(axis=0), -1.0)
    assert_allclose(mesh.vertices.max(axis=0), 1.0)


def test_cube_mesh_conforming(cube2):
    cube2.validate()
    assert cube2.num_vertices == 27
    assert cube2.num_cells == 48


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_generator_rejects_bad_sizes(bad):
    with pytest.raises(MeshError):
        generate_disk_mesh(bad, 0)
    with pytest.raises(MeshError):
        generate_cube_mesh(bad, 2)
    with pytest.raises(MeshError):
        generate_cube_mesh(2.0, 0)
