"""Mesh exchange: VTK write/read round trips and the Gmsh reader."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from shapeopt.mesh import MeshError, generate_disk_mesh
from shapeopt.meshio import read_gmsh, read_vtk, write_vtk


def test_vtk_round_trip_2d(disk0, tmp_path, rng):
    path = tmp_path / "disk.vtk"
    data = {
        "temperature": rng.standard_normal(disk0.num_vertices),
        "velocity": rng.standard_normal((disk0.num_vertices, 2)),
    }
    write_vtk(disk0, path, point_data=data)
    mesh, back = read_vtk(path)
    assert_allclose(mesh.vertices, disk0.vertices, rtol=0.0, atol=0.0)
    assert np.array_equal(mesh.cells, disk0.cells)
    assert_allclose(back["temperature"], data["temperature"], rtol=0.0, atol=0.0)
    assert_allclose(back["velocity"], data["velocity"], rtol=0.0, atol=0.0)


def test_vtk_round_trip_3d(cube2, tmp_path):
    path = tmp_path / "cube.vtk"
    write_vtk(cube2, path)
    mesh, data = read_vtk(path)
    assert mesh.dim == 3
    assert_allclose(mesh.vertices, cube2.vertices, rtol=0.0, atol=0.0)
    assert np.array_equal(mesh.cells, cube2.cells)
    assert data == {}


def test_vtk_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("not a vtk file\n")
    with pytest.raises(MeshError):
        read_vtk(path)


def test_vtk_rejects_binary(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("# vtk DataFile Version 3.0\ntitle\nBINARY\n")
    with pytest.raises(MeshError):
        read_vtk(path)


def test_vtk_rejects_bad_point_data_shape(disk0, tmp_path):
    with pytest.raises(ValueError):
        write_vtk(disk0, tmp_path / "x.vtk", point_data={"bad": np.zeros((3, 7))})


GMSH_TRIANGLES = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
5
10 0.0 0.0 0.0
20 1.0 0.0 0.0
30 0.0 1.0 0.0
40 1.0 1.0 0.0
99 5.0 5.0 0.0
$EndNodes
$Elements
5
1 1 2 0 1 10 20
2 2 2 0 1 10 20 30
3 2 2 0 1 20 40 30
4 15 2 0 1 99
5 1 2 0 1 20 40
$EndElements
"""


def test_gmsh_reads_triangles_with_sparse_ids(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_TRIANGLES)
    mesh = read_gmsh(path)
    assert mesh.dim == 2
    assert mesh.num_cells == 2
    # the unused node 99 is dropped
    assert mesh.num_vertices == 4
    assert_allclose(np.sort(mesh.vertices[:, 0]), [0.0, 0.0, 1.0, 1.0])
    from shapeopt.mesh import signed_volumes
    assert_allclose(signed_volumes(mesh).sum(), 1.0, rtol=1e-14)
    mesh.validate()


def test_gmsh_prefers_tets_over_triangles(tmp_path):
    text = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0.0 0.0 0.0
2 1.0 0.0 0.0
3 0.0 1.0 0.0
4 0.0 0.0 1.0
$EndNodes
$Elements
2
1 2 2 0 1 1 2 3
2 4 2 0 1 1 2 3 4
$EndElements
"""
    path = tmp_path / "tet.msh"
    path.write_text(text)
    mesh = read_gmsh(path)
    assert mesh.dim == 3
    assert mesh.num_cells == 1


@pytest.mark.parametrize("header,message", [
    ("4.1 0 8", "version"),
    ("2.2 1 8", "binary"),
])
def test_gmsh_rejects_unsupported_formats(tmp_path, header, message):
    path = tmp_path / "bad.msh"
    path.write_text(f"$MeshFormat\n{header}\n$EndMeshFormat\n$Nodes\n0\n$EndNodes\n"
                    "$Elements\n0\n$EndElements\n")
    with pytest.raises(MeshError):
        read_gmsh(path)


def test_gmsh_requires_cells(tmp_path):
    path = tmp_path / "empty.msh"
    path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n1\n1 0 0 0\n$EndNodes\n"
                    "$Elements\n1\n1 15 2 0 1 1\n$EndElements\n")
    with pytest.raises(MeshError):
        read_gmsh(path)


def test_gmsh_to_vtk_round_trip(tmp_path):
    source = tmp_path / "square.msh"
    source.write_text(GMSH_TRIANGLES)
    mesh = read_gmsh(source)
    target = tmp_path / "square.vtk"
    write_vtk(mesh, target)
    back, _ = read_vtk(target)
    assert_allclose(back.vertices, mesh.vertices, rtol=0.0, atol=0.0)
    assert np.array_equal(back.cells, mesh.cells)


@pytest.fixture(scope="module")
def disk0_vtk(tmp_path_factory):
    """Header lines and body tokens of a written disk0 VTK, and a scratch path."""
    path = tmp_path_factory.mktemp("vtk") / "disk0.vtk"
    write_vtk(generate_disk_mesh(1.0, 0), path)
    lines = path.read_text().splitlines()
    return lines[:3], " ".join(lines[3:]).split(), path


GARBAGE = ["abc", "nan", "inf", "1e999", "-1", "0", "2", "3.5", "5", "10", "999999", "CELLS"]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_vtk_reads_to_a_valid_mesh_or_raises_mesh_error(disk0_vtk, data):
    """Replace, drop, insert or cut off at one token: the reader either returns
    a mesh that passes ``validate()`` or raises MeshError, never another error."""
    header, tokens, path = disk0_vtk
    where = data.draw(st.integers(0, len(tokens) - 1))
    edit = data.draw(st.sampled_from(["replace", "drop", "insert", "truncate"]))
    word = data.draw(st.sampled_from(GARBAGE))
    corrupted = {
        "replace": tokens[:where] + [word] + tokens[where + 1:],
        "drop": tokens[:where] + tokens[where + 1:],
        "insert": tokens[:where] + [word] + tokens[where:],
        "truncate": tokens[:where],
    }[edit]
    path.write_text("\n".join(header + [" ".join(corrupted)]) + "\n")
    try:
        mesh, _ = read_vtk(path)
    except MeshError:
        return
    mesh.validate()


@pytest.mark.parametrize("old, new", [
    ("20 1.0 0.0 0.0", "20 1.0 abc 0.0"),     # non-numeric coordinate
    ("20 1.0 0.0 0.0", "20 1.0 0.0"),         # missing coordinate
    ("$Nodes\n5", "$Nodes\nfive"),            # non-numeric count
    ("5\n1 1 2", "5\none 1 2"),               # non-numeric element id
    ("3 2 2 0 1 20 40 30", "3 2 2 0 1 20 41 30"),  # unknown node id
    ("3 2 2 0 1 20 40 30", "3 2 2 0 1 20 40"),     # missing vertex
    ("3 2 2 0 1 20 40 30", "3 2 9 0 1 20 40 30"),  # more tags than tokens
    ("40 1.0 1.0 0.0", "10 1.0 1.0 0.0"),     # duplicate node id
])
def test_gmsh_rejects_malformed_tokens(tmp_path, old, new):
    assert old in GMSH_TRIANGLES
    path = tmp_path / "bad.msh"
    path.write_text(GMSH_TRIANGLES.replace(old, new, 1))
    with pytest.raises(MeshError):
        read_gmsh(path)
