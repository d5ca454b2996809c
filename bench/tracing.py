"""In-memory spans around calls into shapeopt's layers, installed from outside.

The benchmark does not edit the program.  It replaces public functions and
methods with wrappers that record a span per call: name, start, end and the
index of the enclosing span.  A module that did ``from .mesh import
quality_check`` holds its own reference, so every loaded ``shapeopt`` module
attribute bound to the original function is replaced, not only the defining
one.  Only the standard library is imported here, so loading this module
does not count towards the measured import time.
"""
from __future__ import annotations

import functools
import os
import sys
from time import perf_counter
from typing import Callable

# (span name, module, attribute) of each public function wrapped.
FUNCTIONS = [
    ("newton.d_elasticity", "shapeopt.newton", "d_elasticity"),
    ("newton.prepare_iterate", "shapeopt.newton", "prepare_iterate"),
    ("fem.cell_geometry", "shapeopt.fem", "cell_geometry"),
    ("fem.poisson_workspace", "shapeopt.fem", "poisson_workspace"),
    ("fem.assemble_stiffness", "shapeopt.fem", "assemble_stiffness"),
    ("fem.assemble_load", "shapeopt.fem", "assemble_load"),
    ("fem.solve_state", "shapeopt.fem", "solve_state"),
    ("fem.solve_adjoint", "shapeopt.fem", "solve_adjoint"),
    ("fem.objective", "shapeopt.fem", "objective"),
    ("shape.shape_operators", "shapeopt.shape", "shape_operators"),
    ("shape.assemble_elasticity", "shapeopt.shape", "assemble_elasticity"),
    ("shape.restricted_gradient", "shapeopt.shape", "restricted_gradient"),
    ("shape.shape_derivative", "shapeopt.shape", "shape_derivative"),
    ("mesh.quality_check", "shapeopt.mesh", "quality_check"),
    ("mesh.min_radius_ratio", "shapeopt.mesh", "min_radius_ratio"),
    ("mesh.facet_owner_cells", "shapeopt.mesh", "facet_owner_cells"),
    ("mesh.apply_deformation", "shapeopt.mesh", "apply_deformation"),
    ("mesh.generate", "shapeopt.mesh", "generate_disk_mesh"),
    ("mesh.generate", "shapeopt.mesh", "generate_cube_mesh"),
    ("meshio.write_vtk", "shapeopt.meshio", "write_vtk"),
    ("cli.build_mesh", "shapeopt.cli", "build_mesh"),
]

# Span name -> (module, class, method).
METHODS = {
    "linalg.factorize": ("shapeopt.linalg", "Factorization", "__init__"),
    "linalg.solve": ("shapeopt.linalg", "Factorization", "solve"),
    "linalg.block_assemble": ("shapeopt.linalg", "BlockSystem", "matrix"),
    "newton.system_build": ("shapeopt.newton", "NewtonSystem", "__init__"),
    "newton.system_solve": ("shapeopt.newton", "NewtonSystem", "solve"),
    "newton.d2_ww": ("shapeopt.newton", "LagrangianForms", "d2_ww"),
    "newton.d2_uw": ("shapeopt.newton", "LagrangianForms", "d2_uw"),
    "newton.d2_pw": ("shapeopt.newton", "LagrangianForms", "d2_pw"),
}


class Tracer:
    """Records nested spans of one thread and a few counters.

    ``spans[i]`` is ``(name, start, end, parent)`` with ``parent`` the index
    of the enclosing span, or -1 at the top.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``after(args, kwargs, result)`` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def summarize(spans) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children
    return out


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name != "shapeopt" and not module_name.startswith("shapeopt."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _argument(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the imported shapeopt package."""

    def after_factorize(args, kwargs, result):
        matrix = _argument(args, kwargs, 1, "matrix")
        tracer.count("linalg.factorize.nnz_in", matrix.nnz)
        tracer.maximum("linalg.factorize.n_max", matrix.shape[0])

    def after_quality(args, kwargs, report):
        tracer.count("mesh.quality_check.passed", report.passed)

    def after_write(args, kwargs, result):
        tracer.count("meshio.bytes_written", os.path.getsize(_argument(args, kwargs, 1, "path")))

    after = {
        "linalg.factorize": after_factorize,
        "mesh.quality_check": after_quality,
        "meshio.write_vtk": after_write,
    }
    for name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        _replace_everywhere(original, tracer.wrap(name, original, after.get(name)))
    for name, (module_name, cls_name, method) in METHODS.items():
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method), after.get(name)))
