"""The optimization loop with backtracking line search and quality safeguards.

:func:`optimize` is the one outer loop of every optimizer.  Here it drives
three direction choices: the restricted gradient (normal boundary forces),
the classical elasticity gradient, and the interior-masked baseline; the
damped Newton method in :mod:`shapeopt.newton` supplies its own iteration
start and trial steps.  Steps are accepted when they descend and satisfy both
the Armijo condition and the cell-wise quality safeguards; the step size
carries over between iterations (one expansion, then halving).
"""
from __future__ import annotations

import csv
import dataclasses
import logging
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import fem, shape
from .mesh import (
    SimplicialMesh,
    apply_deformation,
    deformation_gradients,
    drop_derived,
    min_radius_ratio,
    quality_check,
)
from .problems import ProblemData

logger = logging.getLogger(__name__)

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
LINE_SEARCH_FAILURE = "line_search_failure"
NON_DESCENT = "non_descent"

CSV_COLUMNS = ("iter", "J", "grad_energy", "alpha", "backtracks", "min_radius_ratio")


@dataclasses.dataclass(frozen=True)
class LineSearchConfig:
    """Line-search and stopping parameters shared by all optimizers.

    The iteration stops when the direction energy <E V, V> drops to
    ``eps_tol**2``.  Step-size safeguards bound the per-cell deformation:
    ``det_lo <= det(I + alpha DV) <= det_hi`` and ``||alpha DV||_F <= frob_max``.
    """

    alpha0: float = 1.0
    beta: float = 0.5
    sigma: float = 0.1
    eps_tol: float = 1e-7
    max_iterations: int = 2000
    max_backtracks: int = 60
    det_lo: float = 0.5
    det_hi: float = 2.0
    frob_max: float = 0.3

    def __post_init__(self) -> None:
        # every test is written so that NaN fails it
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 < self.sigma < 0.5:
            raise ValueError(f"sigma must lie in (0, 0.5), got {self.sigma}")
        if not (0.0 < self.alpha0 < np.inf and 0.0 < self.eps_tol < np.inf):
            raise ValueError("alpha0 and eps_tol must be finite and positive")
        if not 0.0 < self.det_lo < self.det_hi:
            raise ValueError(
                f"need 0 < det_lo < det_hi, got det_lo={self.det_lo}, det_hi={self.det_hi}"
            )
        if not self.frob_max > 0.0:
            raise ValueError(f"frob_max must be positive, got {self.frob_max}")
        if not (self.max_iterations >= 0 and self.max_backtracks >= 0):
            raise ValueError("max_iterations and max_backtracks must be >= 0")


def armijo_accepts(
    j_old: float, j_new: float, directional: float, alpha: float, sigma: float
) -> bool:
    """Sufficient-decrease test: j_new <= j_old + sigma * alpha * directional."""
    return j_new <= j_old + sigma * alpha * directional


@dataclasses.dataclass(frozen=True)
class IterateRecord:
    """One outer iteration: objective, direction data, accepted step."""

    iteration: int
    objective: float
    direction_energy: float
    directional: float          # dJ applied to the step direction
    alpha: float                # accepted step size (0.0 on terminal rows)
    backtracks: int
    min_radius_ratio: float
    seconds: float
    damping: float | None = None  # Newton damping; None for first-order methods


@dataclasses.dataclass
class RunRecord:
    """Full history of one optimization run."""

    method: str
    status: str
    iterates: list[IterateRecord]

    @property
    def final(self) -> IterateRecord:
        return self.iterates[-1]

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.iterates])

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.direction_energy for r in self.iterates])

    def write_csv(self, path: str | Path) -> None:
        """Write the history schema; floats use 17 significant digits.

        Wall times stay in memory (see :attr:`IterateRecord.seconds`) so that
        repeated runs of one configuration produce byte-identical files.
        """
        columns = list(CSV_COLUMNS)
        with_damping = any(r.damping is not None for r in self.iterates)
        if with_damping:
            columns.append("damping")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for r in self.iterates:
                row = [
                    str(r.iteration),
                    _g17(r.objective),
                    _g17(r.direction_energy),
                    _g17(r.alpha),
                    str(r.backtracks),
                    _g17(r.min_radius_ratio),
                ]
                if with_damping:
                    row.append(_g17(r.damping if r.damping is not None else 0.0))
                writer.writerow(row)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def load_history(path: str | Path) -> dict[str, np.ndarray]:
    """Read a history CSV back into named float arrays."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    table = np.array(rows) if rows else np.zeros((0, len(header)))
    return {name: table[:, i] for i, name in enumerate(header)}


class Iterate(NamedTuple):
    """An optimizer's evaluation of the current mesh, made before any trial."""

    objective: float
    derivative: fem.DualVector
    direction: np.ndarray  # search direction V, (nv, dim)
    energy: float          # <E V, V>; the run converges once it is <= eps_tol**2
    directional: float     # dJ(V)
    state: object = None   # what the method builds its trials from


Trial = Callable[[float], tuple[np.ndarray, float, float]]


def optimize(
    mesh: SimplicialMesh,
    data: ProblemData,
    params: shape.ElasticityParams | None,
    config: LineSearchConfig,
    method: str,
    start: Callable[[SimplicialMesh, ProblemData, shape.ElasticityParams], Iterate],
    make_trial: Callable[..., Trial],
    damped: bool = False,
    callback: Callable | None = None,
) -> tuple[SimplicialMesh, RunRecord]:
    """The outer loop and backtracking line search of every optimizer.

    Each iteration evaluates ``start(mesh, data, params)`` and stops on
    convergence, on a non-descent direction or at ``max_iterations``.
    Otherwise ``make_trial(mesh, data, params, iterate)`` gives
    ``trial(alpha) -> (field, step, slope)``: the trial mesh is
    ``mesh + step * field`` and ``slope`` is dJ(field).  ``alpha`` grows by
    1/beta when the search starts and shrinks by beta after each rejection.
    A trial is accepted once its slope is negative, every cell passes the
    quality safeguards and the Armijo test holds.  For the first-order
    methods alpha is the step along a fixed direction; for Newton
    (``damped``) it is the damping, recorded per row, and the step is 1.
    """
    params = params or shape.ElasticityParams()
    records: list[IterateRecord] = []
    alpha = config.alpha0
    for iteration in range(config.max_iterations + 1):
        clock = perf_counter()
        it = start(mesh, data, params)
        ratio = min_radius_ratio(mesh)
        if callback is not None:
            callback(
                iteration=iteration, mesh=mesh, objective=it.objective,
                energy=it.energy, directional=it.directional, derivative=it.derivative,
                direction=it.direction, operators=shape.shape_operators(mesh, params),
            )
        status = None
        if it.energy <= config.eps_tol**2:
            status = CONVERGED
        elif it.directional >= 0.0:
            status = NON_DESCENT
        elif iteration == config.max_iterations:
            status = MAX_ITERATIONS
        step, backtracks, accepted = 0.0, 0, None
        if status is None:
            trial = make_trial(mesh, data, params, it)
            alpha /= config.beta
            while True:
                field, step, slope = trial(alpha)
                if slope < 0.0 and quality_check(
                    mesh, field, step, config.det_lo, config.det_hi, config.frob_max
                ).passed:
                    moved = apply_deformation(mesh, field, step)
                    j_trial = fem.objective(moved, fem.solve_state(moved, data))
                    if armijo_accepts(it.objective, j_trial, slope, step, config.sigma):
                        accepted = moved
                        break
                backtracks += 1
                if backtracks > config.max_backtracks:
                    status, step = LINE_SEARCH_FAILURE, 0.0
                    break
                alpha *= config.beta
        records.append(IterateRecord(
            iteration, it.objective, it.energy, it.directional, step, backtracks,
            ratio, perf_counter() - clock, alpha if damped else None,
        ))
        logger.debug("%s it %d: J=%.10e energy=%.3e alpha=%.1e backtracks=%d",
                     method, iteration, it.objective, it.energy, alpha, backtracks)
        if status is not None:
            break
        drop_derived(mesh)
        mesh = accepted
    if status in (NON_DESCENT, LINE_SEARCH_FAILURE):
        logger.warning("%s: %s at iteration %d (dJ(V) = %.3e, %d backtracks)",
                       method, status, iteration, it.directional, backtracks)
    logger.info("%s: %s after %d iterations (J = %.8e, energy = %.3e)",
                method, status, iteration, it.objective, it.energy)
    return mesh, RunRecord(method, status, records)


def _evaluate(mesh, data):
    u = fem.solve_state(mesh, data)
    derivative = shape.shape_derivative(mesh, data, u, fem.solve_adjoint(mesh))
    return fem.objective(mesh, u), derivative


def _restricted_start(mesh, data, params):
    j, derivative = _evaluate(mesh, data)
    res = shape.restricted_gradient(mesh, params, derivative)
    return Iterate(j, derivative, res.direction, res.energy, derivative.pair(res.direction))


def _solved_start(gradient):
    """Iteration start along ``gradient(mesh, params, dJ)``, with energy <E V, V>."""

    def start(mesh, data, params):
        j, derivative = _evaluate(mesh, data)
        v = gradient(mesh, params, derivative).values
        elasticity = shape.shape_operators(mesh, params).elasticity
        energy = float(v.ravel() @ (elasticity @ v.ravel()))
        return Iterate(j, derivative, v, energy, derivative.pair(v))

    return start


def _along_direction(mesh, data, params, it):
    """Trials along the iterate's fixed direction: alpha is the step size."""
    return lambda alpha: (it.direction, alpha, it.directional)


def restricted_descent(
    mesh: SimplicialMesh,
    data: ProblemData,
    params: shape.ElasticityParams | None = None,
    config: LineSearchConfig | None = None,
    callback: Callable | None = None,
) -> tuple[SimplicialMesh, RunRecord]:
    """Descend along the restricted gradient until <E V, V> <= eps_tol^2.

    Returns the final mesh and the run history.  Each accepted step keeps
    every cell within the quality safeguards, so meshes stay valid for the
    whole run; the objective is non-increasing across accepted steps.
    """
    return optimize(mesh, data, params, config or LineSearchConfig(), "restricted",
                    _restricted_start, _along_direction, callback=callback)


def classical_descent(
    mesh: SimplicialMesh,
    data: ProblemData,
    params: shape.ElasticityParams | None = None,
    config: LineSearchConfig | None = None,
    callback: Callable | None = None,
) -> tuple[SimplicialMesh, RunRecord]:
    """Descend along the unrestricted elasticity gradient (baseline)."""
    return optimize(mesh, data, params, config or LineSearchConfig(), "classical",
                    _solved_start(shape.classical_gradient), _along_direction, callback=callback)


def ssw_descent(
    mesh: SimplicialMesh,
    data: ProblemData,
    params: shape.ElasticityParams | None = None,
    config: LineSearchConfig | None = None,
    callback: Callable | None = None,
) -> tuple[SimplicialMesh, RunRecord]:
    """Descend along the interior-masked baseline direction.

    The masked direction need not be a descent direction; if dJ(V) >= 0 the
    run stops with status ``non_descent`` and the mesh is returned as is.
    """
    return optimize(mesh, data, params, config or LineSearchConfig(), "ssw",
                    _solved_start(shape.ssw_direction), _along_direction, callback=callback)


# ----------------------------------------------------------------------------
# spurious single-vertex deformation


@dataclasses.dataclass(frozen=True)
class SweepRecord:
    """Objective and worst cell determinant along a one-parameter deformation."""

    alphas: np.ndarray
    objectives: np.ndarray       # NaN where the mesh is degenerate
    min_determinants: np.ndarray


def collapse_direction(
    mesh: SimplicialMesh,
    data: ProblemData,
    collapse_alpha: float = 0.1,
    probe_alphas: Iterable[float] | None = None,
) -> tuple[np.ndarray, int]:
    """Single-vertex deformation that decreases J yet collapses a cell.

    Scans boundary vertices; for each incident cell the candidate field moves
    only that vertex along the altitude towards the opposite edge/face,
    scaled so the cell volume vanishes exactly at ``collapse_alpha``.  Returns
    the first candidate whose objective is strictly decreasing at the probe
    steps while no other cell degenerates earlier.  Demonstrates that descent
    directions alone do not protect mesh validity.
    """
    if probe_alphas is None:
        probe_alphas = np.linspace(0.0, collapse_alpha, 11)[1:-1]
    probe_alphas = np.asarray(list(probe_alphas))
    j0 = fem.objective(mesh, fem.solve_state(mesh, data))
    for vertex in mesh.boundary_vertices:
        incident = np.flatnonzero(np.any(mesh.cells == vertex, axis=1))
        for cell in incident:
            field = np.zeros_like(mesh.vertices)
            altitude = _altitude_vector(mesh, int(cell), int(vertex))
            field[vertex] = altitude / collapse_alpha
            dets = 1.0 + collapse_alpha * _det_rates(mesh, field)
            others = np.delete(dets, cell)
            if others.size and others.min() <= 1e-9:
                continue  # some other cell collapses first
            objectives = [j0]
            good = True
            for alpha in probe_alphas:
                trial = apply_deformation(mesh, field, float(alpha))
                objectives.append(fem.objective(trial, fem.solve_state(trial, data)))
                if objectives[-1] >= objectives[-2]:
                    good = False
                    break
            if good:
                logger.info("collapse direction at boundary vertex %d, cell %d",
                            vertex, cell)
                return field, int(vertex)
    raise RuntimeError("no strictly decreasing collapse direction found")


def _det_rates(mesh: SimplicialMesh, field: np.ndarray) -> np.ndarray:
    """Per-cell d/dalpha of det(I + alpha DV); exact since one moved vertex makes DV rank one."""
    dv = deformation_gradients(mesh, field)
    return np.trace(dv, axis1=1, axis2=2)


def _altitude_vector(mesh: SimplicialMesh, cell: int, vertex: int) -> np.ndarray:
    """Vector from ``vertex`` to the foot of its altitude in ``cell``."""
    nodes = list(mesh.cells[cell])
    others = [n for n in nodes if n != vertex]
    x = mesh.vertices[vertex]
    base = mesh.vertices[others[0]]
    if mesh.dim == 2:
        tangent = mesh.vertices[others[1]] - base
        tangent = tangent / np.linalg.norm(tangent)
        rel = x - base
        return (base + tangent * (rel @ tangent)) - x
    t1 = mesh.vertices[others[1]] - base
    t2 = mesh.vertices[others[2]] - base
    normal = np.cross(t1, t2)
    normal = normal / np.linalg.norm(normal)
    return -normal * ((x - base) @ normal)


def spurious_sweep(
    mesh: SimplicialMesh,
    data: ProblemData,
    field: np.ndarray,
    alphas: Iterable[float],
) -> SweepRecord:
    """Evaluate J and the worst cell determinant along x + alpha * field.

    Stops at the first degenerate configuration (min determinant <= 1e-12);
    there the objective is recorded as NaN since the state problem has no
    valid mesh.  Degeneracy is data here, not an error.
    """
    out_alpha: list[float] = []
    out_j: list[float] = []
    out_det: list[float] = []
    dv = deformation_gradients(mesh, field)
    eye = np.eye(mesh.dim)
    for alpha in alphas:
        dets = np.linalg.det(eye + float(alpha) * dv)
        mind = float(dets.min())
        out_alpha.append(float(alpha))
        out_det.append(mind)
        if mind <= 1e-12:
            out_j.append(float("nan"))
            logger.info("sweep hit degenerate mesh at alpha = %g (min det %.3e)",
                        alpha, mind)
            break
        trial = apply_deformation(mesh, field, float(alpha))
        out_j.append(fem.objective(trial, fem.solve_state(trial, data)))
    return SweepRecord(np.array(out_alpha), np.array(out_j), np.array(out_det))
