"""Mesh exchange: Gmsh MSH 2.2 ASCII reader, legacy VTK ASCII writer/reader.

The exact grammar accepted and emitted is documented in docs/FORMATS.md.
Coordinates are written with 17 significant digits so a write/read round trip
reproduces every float bit-exactly.
"""
from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .mesh import MeshError, SimplicialMesh

logger = logging.getLogger(__name__)

_VTK_TRIANGLE = 5
_VTK_TETRA = 10
_MSH_LINE = 1
_MSH_TRIANGLE = 2
_MSH_TETRA = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _numbers(kind: type, words: list[str], what: str) -> list:
    """Every word parsed as ``kind`` (int or float); a bad word is a MeshError."""
    try:
        return [kind(word) for word in words]
    except ValueError:
        raise MeshError(f"{what}: expected {kind.__name__} values, got {words[:8]}") from None


def _count(words: list[str], what: str) -> int:
    """The one non-negative integer in ``words``."""
    values = _numbers(int, words, what)
    if len(values) != 1 or values[0] < 0:
        raise MeshError(f"{what}: expected a count, got {words}")
    return values[0]


def write_vtk(
    mesh: SimplicialMesh,
    path: str | Path,
    point_data: dict[str, np.ndarray] | None = None,
    title: str = "shapeopt mesh",
) -> None:
    """Write a mesh (plus optional vertex fields) as legacy ASCII VTK.

    Scalar fields must have shape (nv,), vector fields (nv, dim); 2D vectors
    are padded with a zero third component as the format requires.
    """
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    nv = mesh.num_vertices
    pts = mesh.vertices
    if mesh.dim == 2:
        pts = np.column_stack((pts, np.zeros(nv)))
    lines.append(f"POINTS {nv} double")
    lines.extend(" ".join(_fmt(c) for c in p) for p in pts)
    npc = mesh.dim + 1
    lines.append(f"CELLS {mesh.num_cells} {mesh.num_cells * (npc + 1)}")
    lines.extend(f"{npc} " + " ".join(str(i) for i in cell) for cell in mesh.cells)
    lines.append(f"CELL_TYPES {mesh.num_cells}")
    ctype = _VTK_TRIANGLE if mesh.dim == 2 else _VTK_TETRA
    lines.extend(str(ctype) for _ in range(mesh.num_cells))
    if point_data:
        lines.append(f"POINT_DATA {nv}")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=np.float64)
            if values.shape == (nv,):
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(_fmt(v) for v in values)
            elif values.shape == (nv, mesh.dim):
                padded = values
                if mesh.dim == 2:
                    padded = np.column_stack((values, np.zeros(nv)))
                lines.append(f"VECTORS {name} double")
                lines.extend(" ".join(_fmt(c) for c in row) for row in padded)
            else:
                raise ValueError(
                    f"point data {name!r} has shape {values.shape}, "
                    f"expected ({nv},) or ({nv}, {mesh.dim})"
                )
    Path(path).write_text("\n".join(lines) + "\n")
    logger.debug("wrote VTK mesh to %s", path)


def read_vtk(path: str | Path) -> tuple[SimplicialMesh, dict[str, np.ndarray]]:
    """Read a legacy ASCII VTK unstructured grid written by :func:`write_vtk`.

    Returns the mesh and any point data.  The spatial dimension is inferred
    from the cell type (triangle -> 2D, dropping the zero z column).
    """
    tokens = _tokenize_vtk(Path(path).read_text())
    cursor = 0

    def expect(word: str) -> None:
        nonlocal cursor
        if cursor >= len(tokens) or tokens[cursor].upper() != word:
            got = tokens[cursor] if cursor < len(tokens) else "<eof>"
            raise MeshError(f"VTK parse error: expected {word}, got {got!r}")
        cursor += 1

    def take(count: int) -> list[str]:
        nonlocal cursor
        if cursor + count > len(tokens):
            raise MeshError("VTK parse error: unexpected end of file")
        out = tokens[cursor : cursor + count]
        cursor += count
        return out

    def count(section: str) -> int:
        return _count(take(1), f"VTK {section}")

    expect("DATASET")
    expect("UNSTRUCTURED_GRID")
    expect("POINTS")
    nv = count("POINTS")
    take(1)  # dtype
    points = np.array(_numbers(float, take(3 * nv), "VTK POINTS")).reshape(nv, 3)
    expect("CELLS")
    nc, total = count("CELLS"), count("CELLS")
    table = np.array(_numbers(int, take(total), "VTK CELLS"))
    width = total // nc if nc else 0
    if width < 2 or width * nc != total:
        raise MeshError(f"VTK parse error: {total} CELLS entries for {nc} cells of one size")
    table = table.reshape(nc, width)
    if np.any(table[:, 0] != width - 1):
        raise MeshError("VTK parse error: CELLS vertex counts disagree with the cell size")
    cells = table[:, 1:]
    expect("CELL_TYPES")
    if count("CELL_TYPES") != nc:
        raise MeshError("VTK parse error: CELL_TYPES count mismatch")
    types = set(_numbers(int, take(nc), "VTK CELL_TYPES"))
    if types == {_VTK_TRIANGLE}:
        dim = 2
    elif types == {_VTK_TETRA}:
        dim = 3
    else:
        raise MeshError(f"unsupported VTK cell types {sorted(types)}")
    vertices = points[:, :dim]
    point_data: dict[str, np.ndarray] = {}
    while cursor < len(tokens):
        word = tokens[cursor].upper()
        cursor += 1
        if word == "POINT_DATA":
            if count("POINT_DATA") != nv:
                raise MeshError("VTK parse error: POINT_DATA count mismatch")
        elif word == "SCALARS":
            name, _dtype, _comps = take(3)
            expect("LOOKUP_TABLE")
            take(1)
            point_data[name] = np.array(_numbers(float, take(nv), f"VTK SCALARS {name}"))
        elif word == "VECTORS":
            name, _dtype = take(2)
            vec = np.array(_numbers(float, take(3 * nv), f"VTK VECTORS {name}")).reshape(nv, 3)
            point_data[name] = vec[:, :dim]
        else:
            raise MeshError(f"VTK parse error: unexpected section {word!r}")
    return _checked(vertices, cells), point_data


def _tokenize_vtk(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# vtk DataFile"):
        raise MeshError("not a legacy VTK file (missing '# vtk DataFile' header)")
    if len(lines) < 3 or lines[2].strip().upper() != "ASCII":
        raise MeshError("only ASCII VTK files are supported")
    tokens: list[str] = []
    for line in lines[3:]:
        tokens.extend(line.split())
    return tokens


def read_gmsh(path: str | Path) -> SimplicialMesh:
    """Read a Gmsh MSH 2.2 ASCII file.

    Keeps the highest-dimensional simplices found (tetrahedra if present,
    otherwise triangles); lower-dimensional elements and physical tags are
    ignored, and boundary facets are re-derived from the cell complex.  Node
    ids may be non-contiguous.
    """
    lines = Path(path).read_text().splitlines()
    sections: dict[str, list[str]] = {}
    name = None
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("$End"):
            name = None
        elif stripped.startswith("$"):
            name = stripped[1:]
            sections[name] = []
        elif name is not None:
            sections[name].append(stripped)
    if "MeshFormat" not in sections or not sections["MeshFormat"]:
        raise MeshError("not a Gmsh MSH file (missing $MeshFormat)")
    fields = sections["MeshFormat"][0].split()
    if not fields or not fields[0].startswith("2."):
        raise MeshError(f"unsupported MSH version {fields[0] if fields else '?'} (need 2.x)")
    if len(fields) > 1 and fields[1] != "0":
        raise MeshError("binary MSH files are not supported")
    if "Nodes" not in sections or "Elements" not in sections:
        raise MeshError("MSH file lacks $Nodes or $Elements")
    node_lines = sections["Nodes"]
    count = _count(node_lines[0].split() if node_lines else [], "MSH $Nodes")
    nodes = [line.split() for line in node_lines[1 : 1 + count]]
    if len(nodes) != count or any(len(parts) < 4 for parts in nodes):
        raise MeshError(f"MSH $Nodes: expected {count} lines of 'id x y z'")
    ids = _numbers(int, [parts[0] for parts in nodes], "MSH node ids")
    coords = np.array(
        _numbers(float, [x for parts in nodes for x in parts[1:4]], "MSH node coordinates")
    ).reshape(count, 3)
    renumber = {i: k for k, i in enumerate(ids)}
    if len(renumber) != count:
        raise MeshError("MSH $Nodes: duplicate node id")
    elem_lines = sections["Elements"]
    ecount = _count(elem_lines[0].split() if elem_lines else [], "MSH $Elements")
    if len(elem_lines) < 1 + ecount:
        raise MeshError(f"MSH $Elements: expected {ecount} element lines")
    tris, tets = [], []
    for line in elem_lines[1 : 1 + ecount]:
        parts = _numbers(int, line.split(), "MSH element")
        if len(parts) < 3 or not 0 <= parts[2] <= len(parts) - 3:
            raise MeshError(f"MSH element line too short: {line!r}")
        etype, ntags = parts[1], parts[2]
        if etype == _MSH_TRIANGLE:
            tris.append(parts[3 + ntags :])
        elif etype == _MSH_TETRA:
            tets.append(parts[3 + ntags :])
        elif etype == _MSH_LINE:
            continue
        else:
            logger.debug("ignoring MSH element type %d", etype)
    try:
        cells = np.array([[renumber[n] for n in t] for t in tets or tris], dtype=np.int64)
    except KeyError as exc:
        raise MeshError(f"MSH element refers to unknown node {exc.args[0]}") from None
    except ValueError:
        raise MeshError("MSH elements of one type have different vertex counts") from None
    if tets:
        vertices = coords
    elif tris:
        if np.any(coords[:, 2] != 0.0):
            raise MeshError("triangle mesh with nonzero z coordinates")
        vertices = coords[:, :2]
    else:
        raise MeshError("MSH file contains no triangles or tetrahedra")
    used = np.unique(cells)
    if len(used) != len(vertices):
        # drop nodes not referenced by any kept cell (e.g. standalone points)
        remap = -np.ones(len(vertices), dtype=np.int64)
        remap[used] = np.arange(len(used))
        vertices = vertices[used]
        cells = remap[cells]
    return _checked(vertices, cells)


def _checked(vertices: np.ndarray, cells: np.ndarray) -> SimplicialMesh:
    """The mesh of the read data, if it passes :meth:`SimplicialMesh.validate`."""
    mesh = SimplicialMesh.from_cells(vertices, cells)
    mesh.validate()
    return mesh
