"""The benchmark's workloads and the inputs a seed gives them.

Why each workload exists, and which later change should move which metric on
it, is written down in README.md next to this file.

Seed 0 is each preset exactly as ``shapeopt run --preset`` builds it.  Any
other seed moves every interior vertex by a seeded random fraction (at most
``JITTER`` per axis) of its shortest incident edge and hands the moved mesh to
the program through the custom-mesh path (``[problem] kind = custom``, a VTK
file written with ``write_vtk``).  Only the standard library is imported at
module level, so loading this module does not count towards the measured
import time.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

JITTER = 0.005


@dataclasses.dataclass(frozen=True)
class Run:
    """One optimizer run: a CLI preset and extra config sections."""

    label: str
    preset: str
    options: str = ""  # INI text appended to the run's config file


# Workload name -> its optimizer runs, executed in order in one process.
WORKLOADS = {
    # 3D Newton capped at 4 iterations: big LUs with 3D fill dominate.
    "cube-newton": (
        Run("cube", "paper3d-newton", "[newton]\nmax_iterations = 4\n"),
    ),
    # 2D Newton to convergence on disk levels 0-2: time to solution, damping to 1e5.
    "disk-newton": tuple(
        Run(f"disk{level}", f"paper2d-newton, level {level}")
        for level in range(3)
    ),
    # First-order restricted descent to convergence: many small calls, no Newton.
    "disk-descent": (Run("disk0", "paper2d-restricted-gradient"),),
}


def jitter(mesh, seed: int, index: int):
    """Move interior vertices by a seeded fraction of their shortest incident edge."""
    import numpy as np

    from shapeopt import apply_deformation

    rng = np.random.default_rng([seed, index])
    cells = mesh.cells
    pairs = np.concatenate([cells[:, [i, j]] for i in range(cells.shape[1])
                            for j in range(i + 1, cells.shape[1])])
    lengths = np.linalg.norm(mesh.vertices[pairs[:, 0]] - mesh.vertices[pairs[:, 1]], axis=1)
    shortest = np.full(mesh.num_vertices, np.inf)
    np.minimum.at(shortest, pairs[:, 0], lengths)
    np.minimum.at(shortest, pairs[:, 1], lengths)
    field = rng.uniform(-1.0, 1.0, mesh.vertices.shape) * (JITTER * shortest)[:, None]
    field[mesh.boundary_vertices] = 0.0
    moved = apply_deformation(mesh, field)
    moved.validate()
    return moved


def prepare(runs: tuple[Run, ...], seed: int, work_dir: Path) -> list[dict]:
    """Write each run's config (and jittered mesh); return the run specs.

    A spec holds what the worker passes to ``cli.build_config`` plus what the
    checks and the report need: stopping tolerance and mesh size.
    """
    from shapeopt import cli

    specs = []
    for index, run in enumerate(runs):
        config_file = work_dir / f"{run.label}.ini"
        config_file.write_text(run.options)
        config = cli.build_config(run.preset, config_file)
        mesh = cli.build_mesh(config)
        preset = run.preset
        if seed != 0:
            mesh_file = work_dir / f"{run.label}.vtk"
            mesh = jitter(mesh, seed, index)
            cli.write_vtk(mesh, mesh_file)
            config_file.write_text(
                f"[problem]\nkind = custom\nmesh_file = {mesh_file}\n"
                f"[method]\nname = {config.method}\n" + run.options
            )
            preset = None
        d = mesh.dim
        nb = len(mesh.boundary_vertices)
        ni = mesh.num_vertices - nb
        if config.method == "restricted-newton":
            unknowns = 3 * mesh.num_vertices * d + 2 * nb + 2 * ni  # W, V, Pi, G, F, u, p
            tol = config.newton.eps_tol
        else:
            unknowns = mesh.num_vertices * d + nb  # restricted-gradient saddle
            tol = config.line_search.eps_tol
        specs.append({
            "label": run.label,
            "preset": preset,
            "config_file": str(config_file),
            "out_dir": str(work_dir / run.label),
            "eps_tol": tol,
            "nv": mesh.num_vertices,
            "nc": mesh.num_cells,
            "unknowns": unknowns,
        })
    return specs
