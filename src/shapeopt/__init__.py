"""Shape optimization on simplicial meshes via normal boundary forces.

The package minimizes integral objectives constrained by a Poisson problem,
moving the mesh with deformation fields that an elasticity operator produces
from scalar forces on the boundary.  Restricting descent directions to such
fields keeps interior vertices from collapsing cells while the boundary does
the actual shape change; first-order descent and a damped Newton scheme share
the same restriction.

Modules: ``mesh`` (simplicial meshes, quality, deformation), ``quadrature``
(simplex rules), ``fem`` (P1 Poisson assembly and solves), ``problems``
(benchmark loads), ``shape`` (shape derivative, elasticity inner product,
restricted gradient), ``descent`` (line-search loops), ``newton`` (coupled
second-order system), ``linalg`` (sparse solves, block systems), ``meshio``
(Gmsh/VTK exchange), ``cli`` (experiment driver).

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and
``OMP_NUM_THREADS`` to 1 when none of them is set: the BLAS calls here are
small, so more threads only add fork/join cost, and a run's floating-point
results depend on the thread count.  The default takes effect only when
``shapeopt`` is imported before numpy and scipy, as the ``shapeopt`` command
does; a thread variable set by the user always wins.
"""
import os

# Before the first import that loads numpy or scipy: OpenBLAS reads these once,
# when the library loads.  Its kernels here are nb-column SuperLU solves and
# dense nb x nb products (nb <= a few hundred), where a second thread costs
# more than it saves, and its spinning worker slows numpy code between calls.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .descent import (
    LineSearchConfig,
    RunRecord,
    classical_descent,
    collapse_direction,
    restricted_descent,
    spurious_sweep,
    ssw_descent,
)
from .fem import (
    DualVector,
    NodalField,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    interior_vertices,
    objective,
    solve_adjoint,
    solve_state,
)
from .mesh import (
    DegenerateMeshError,
    MeshError,
    SimplicialMesh,
    apply_deformation,
    boundary_normals,
    generate_cube_mesh,
    generate_disk_mesh,
    min_radius_ratio,
    quality_check,
    signed_volumes,
)
from .meshio import read_gmsh, read_vtk, write_vtk
from .newton import NewtonConfig, restricted_newton
from .problems import ProblemData, benchmark_load_2d, benchmark_load_3d
from .shape import (
    ElasticityParams,
    assemble_elasticity,
    assemble_normal_force,
    classical_gradient,
    restricted_gradient,
    shape_derivative,
    ssw_direction,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateMeshError",
    "DualVector",
    "ElasticityParams",
    "LineSearchConfig",
    "MeshError",
    "NewtonConfig",
    "NodalField",
    "ProblemData",
    "RunRecord",
    "SimplicialMesh",
    "apply_deformation",
    "assemble_elasticity",
    "assemble_load",
    "assemble_mass",
    "assemble_normal_force",
    "assemble_stiffness",
    "benchmark_load_2d",
    "benchmark_load_3d",
    "boundary_normals",
    "classical_descent",
    "classical_gradient",
    "collapse_direction",
    "generate_cube_mesh",
    "generate_disk_mesh",
    "interior_vertices",
    "min_radius_ratio",
    "objective",
    "quality_check",
    "read_gmsh",
    "read_vtk",
    "restricted_descent",
    "restricted_gradient",
    "restricted_newton",
    "shape_derivative",
    "signed_volumes",
    "solve_adjoint",
    "solve_state",
    "spurious_sweep",
    "ssw_descent",
    "ssw_direction",
    "write_vtk",
]
