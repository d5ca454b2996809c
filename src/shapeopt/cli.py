"""Command-line experiment driver: presets, config files, run artifacts.

Two subcommands cover the workflows:

``shapeopt run``
    One optimization run (or the single-vertex diagnostic sweep) built from a
    preset and/or a config file.  Artifacts land in the output directory:
    ``history.csv``, optional ``mesh_0000.vtk`` snapshots, ``final_mesh.vtk``,
    ``summary.txt``, and ``plot_history.py`` (a script consuming the CSV).

``shapeopt compare``
    Several configurations of the same problem, run sequentially into
    subdirectories, their histories merged into ``compare.csv`` for overlays.

Exit codes: 0 success, 2 configuration error (nothing is written), 3 linear
solver failure, 4 non-convergence (artifacts are still written), 5 degenerate
mesh.  Log verbosity comes from the SHAPEOPT_LOG environment variable
(DEBUG, INFO, WARNING, or ERROR; default WARNING).
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import logging
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import descent, fem, newton, shape
from .descent import LineSearchConfig, RunRecord
from .linalg import SingularOperatorError
from .mesh import (
    DegenerateMeshError,
    MeshError,
    SimplicialMesh,
    generate_cube_mesh,
    generate_disk_mesh,
)
from .meshio import read_gmsh, read_vtk, write_vtk
from .newton import NewtonConfig
from .problems import ProblemData, benchmark_load_2d, benchmark_load_3d

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_CONVERGENCE = 4
EXIT_DEGENERATE = 5

PROBLEMS = ("paper2d", "paper3d", "custom")
METHODS = (
    "restricted-gradient",
    "classical-gradient",
    "ssw-gradient",
    "restricted-newton",
    "spurious-sweep",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; reported with exit code 2."""


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment: problem, method, solver parameters, output plumbing."""

    problem: str = "paper2d"
    method: str = "restricted-gradient"
    level: int = 0                  # disk refinement level (paper2d)
    side: float = 2.0               # cube side (paper3d)
    n_per_edge: int = 8             # cube grid resolution (paper3d)
    radius: float = 1.0             # disk radius (paper2d)
    mesh_file: str | None = None    # custom problems: .msh or .vtk path
    line_search: LineSearchConfig = dataclasses.field(default_factory=LineSearchConfig)
    newton: NewtonConfig = dataclasses.field(default_factory=NewtonConfig)
    elasticity: shape.ElasticityParams = dataclasses.field(
        default_factory=shape.ElasticityParams
    )
    out_dir: Path = Path("shapeopt-out")
    snapshot_every: int = 0         # 0 disables snapshots

    def validate(self) -> None:
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.level < 0:
            raise ConfigError(f"level must be >= 0, got {self.level}")
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if not (0.0 < self.side < np.inf and 0.0 < self.radius < np.inf) or self.n_per_edge < 1:
            raise ConfigError("mesh dimensions must be positive and finite")
        if self.problem == "custom":
            if not self.mesh_file:
                raise ConfigError("custom problems need mesh_file")
            if not Path(self.mesh_file).is_file():
                raise ConfigError(f"mesh file not found: {self.mesh_file}")
        if self.problem == "paper3d" and self.method == "spurious-sweep":
            raise ConfigError("the sweep diagnostic is set up for the planar benchmark")


# ----------------------------------------------------------------------------
# presets and config files


def parse_preset(name: str) -> dict:
    """Translate a preset name into config overrides.

    Grammar: ``<problem>-<method>[, level <k>]`` with problem ``paper2d`` or
    ``paper3d`` and method one of the method names (``newton`` is accepted as
    shorthand for ``restricted-newton``).
    """
    text = name.strip()
    overrides: dict = {}
    if "," in text:
        text, _, tail = text.partition(",")
        text = text.strip()
        tail = tail.strip()
        if not tail.startswith("level"):
            raise ConfigError(f"unrecognized preset suffix {tail!r} (expected 'level <k>')")
        try:
            overrides["level"] = int(tail[len("level"):])
        except ValueError:
            raise ConfigError(f"bad level in preset {name!r}") from None
    for problem in ("paper2d", "paper3d"):
        if text.startswith(problem + "-"):
            overrides["problem"] = problem
            method = text[len(problem) + 1:]
            break
    else:
        raise ConfigError(f"unknown preset {name!r}")
    if method == "newton":
        method = "restricted-newton"
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r} in preset {name!r}")
    if problem == "paper3d" and "level" in overrides:
        raise ConfigError("levels apply to paper2d presets only")
    overrides["method"] = method
    return overrides


_SECTION_KEYS = {
    "problem": {
        "kind": ("problem", str),
        "level": ("level", int),
        "side": ("side", float),
        "n_per_edge": ("n_per_edge", int),
        "radius": ("radius", float),
        "mesh_file": ("mesh_file", str),
    },
    "method": {"name": ("method", str)},
    "output": {
        "directory": ("out_dir", Path),
        "snapshot_every": ("snapshot_every", int),
    },
}

_LINE_SEARCH_KEYS = {
    "alpha0": float, "beta": float, "sigma": float, "eps_tol": float,
    "max_iterations": int, "max_backtracks": int,
    "det_lo": float, "det_hi": float, "frob_max": float,
}
_ELASTICITY_KEYS = {"young": float, "poisson": float, "damping": float}


def read_config_file(path: str | Path) -> dict:
    """Parse an INI-style config file into ExperimentConfig overrides.

    Sections: [problem], [method], [line_search], [newton], [elasticity],
    [output].  Unknown sections or keys are rejected so typos cannot silently
    fall back to defaults.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    overrides: dict = {"line_search": {}, "newton": {}, "elasticity": {}}
    for section in parser.sections():
        if section in _SECTION_KEYS:
            keymap = _SECTION_KEYS[section]
            for key, raw in parser.items(section):
                if key not in keymap:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                attr, cast = keymap[key]
                try:
                    overrides[attr] = cast(raw)
                except ValueError:
                    raise ConfigError(f"bad value {raw!r} for {section}.{key}") from None
        elif section in ("line_search", "newton", "elasticity"):
            keymap = _ELASTICITY_KEYS if section == "elasticity" else _LINE_SEARCH_KEYS
            for key, raw in parser.items(section):
                if key not in keymap:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                try:
                    overrides[section][key] = keymap[key](raw)
                except ValueError:
                    raise ConfigError(f"bad value {raw!r} for {section}.{key}") from None
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return overrides


def build_config(
    preset: str | None = None,
    config_file: str | Path | None = None,
    out_dir: str | Path | None = None,
    snapshot_every: int | None = None,
) -> ExperimentConfig:
    """Merge defaults, preset, config file, and flags into a validated config."""
    if preset is None and config_file is None:
        raise ConfigError("provide --preset and/or --config")
    plain: dict = {}
    nested: dict = {"line_search": {}, "newton": {}, "elasticity": {}}
    if preset is not None:
        plain.update(parse_preset(preset))
    if config_file is not None:
        overrides = read_config_file(config_file)
        for name in nested:
            nested[name].update(overrides.pop(name))
        plain.update(overrides)
    if out_dir is not None:
        plain["out_dir"] = Path(out_dir)
    if snapshot_every is not None:
        plain["snapshot_every"] = snapshot_every
    try:
        config = ExperimentConfig(
            line_search=LineSearchConfig(**nested["line_search"]),
            newton=NewtonConfig(**nested["newton"]),
            elasticity=shape.ElasticityParams(**nested["elasticity"]),
            **plain,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


# ----------------------------------------------------------------------------
# running experiments


def build_mesh(config: ExperimentConfig) -> SimplicialMesh:
    if config.problem == "paper2d":
        return generate_disk_mesh(config.radius, config.level)
    if config.problem == "paper3d":
        return generate_cube_mesh(config.side, config.n_per_edge)
    path = Path(config.mesh_file)
    if path.suffix == ".msh":
        return read_gmsh(path)
    if path.suffix == ".vtk":
        return read_vtk(path)[0]
    raise ConfigError(f"unsupported mesh file type {path.suffix!r} (use .msh or .vtk)")


def build_problem(config: ExperimentConfig, mesh: SimplicialMesh) -> ProblemData:
    if mesh.dim == 2:
        return benchmark_load_2d()
    return benchmark_load_3d()


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _snapshot_callback(config: ExperimentConfig):
    if config.snapshot_every <= 0:
        return None

    def callback(iteration: int, mesh: SimplicialMesh, **_ignored) -> None:
        if iteration % config.snapshot_every == 0:
            write_vtk(mesh, config.out_dir / f"mesh_{iteration:04d}.vtk")

    return callback


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the run history written next to this script.\"\"\"
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "history.csv"
with open(path, newline="") as handle:
    rows = list(csv.DictReader(handle))
iters = [float(r["iter"]) for r in rows]
fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
if "J" in rows[0]:
    ax1.plot(iters, [float(r["J"]) for r in rows])
    ax1.set_xlabel("iteration"); ax1.set_ylabel("objective")
    ax2.semilogy(iters, [max(float(r["grad_energy"]), 1e-300) ** 0.5 for r in rows])
    ax2.set_xlabel("iteration"); ax2.set_ylabel("gradient norm")
else:  # sweep table: alpha, J, min_determinant
    ax1.plot(iters, [float(r["J"]) for r in rows])
    ax1.set_xlabel("alpha"); ax1.set_ylabel("objective")
    ax2.plot(iters, [float(r["min_determinant"]) for r in rows])
    ax2.set_xlabel("alpha"); ax2.set_ylabel("min determinant")
fig.tight_layout()
out = path.with_suffix(".png")
fig.savefig(out, dpi=150)
print(f"wrote {out}")
"""


def _write_summary(config: ExperimentConfig, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    (config.out_dir / "summary.txt").write_text(text)
    (config.out_dir / "plot_history.py").write_text(_PLOT_SCRIPT)


def _run_sweep(config: ExperimentConfig, mesh: SimplicialMesh, data: ProblemData) -> int:
    start = perf_counter()
    field, vertex = descent.collapse_direction(mesh, data, collapse_alpha=0.1)
    sweep = descent.spurious_sweep(mesh, data, field, np.linspace(0.0, 0.1, 51))
    with open(config.out_dir / "history.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("iter", "J", "min_determinant"))
        for alpha, j, det in zip(sweep.alphas, sweep.objectives, sweep.min_determinants):
            writer.writerow((_g17(alpha), _g17(j), _g17(det)))
    write_vtk(
        mesh, config.out_dir / "final_mesh.vtk",
        point_data={"collapse_direction": field},
    )
    _write_summary(config, [
        "method: spurious-sweep",
        "status: collapsed",
        f"moved_vertex: {vertex}",
        f"collapse_alpha: {_g17(sweep.alphas[-1])}",
        f"final_min_determinant: {_g17(sweep.min_determinants[-1])}",
        f"wall_seconds: {perf_counter() - start:.3f}",
    ])
    return EXIT_OK


_SOLVERS = {
    "restricted-gradient": descent.restricted_descent,
    "classical-gradient": descent.classical_descent,
    "ssw-gradient": descent.ssw_descent,
    "restricted-newton": newton.restricted_newton,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write artifacts; map outcomes to exit codes."""
    config.validate()
    mesh = build_mesh(config)
    data = build_problem(config, mesh)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    logger.info("running %s on %s (%d vertices, %d cells) into %s",
                config.method, config.problem, mesh.num_vertices,
                mesh.num_cells, config.out_dir)
    if config.method == "spurious-sweep":
        return _run_sweep(config, mesh, data)
    solver = _SOLVERS[config.method]
    solver_config = (
        config.newton if config.method == "restricted-newton" else config.line_search
    )
    start = perf_counter()
    final_mesh, record = solver(
        mesh, data, config.elasticity, solver_config,
        callback=_snapshot_callback(config),
    )
    wall = perf_counter() - start
    record.write_csv(config.out_dir / "history.csv")
    u = fem.solve_state(final_mesh, data)
    write_vtk(
        final_mesh, config.out_dir / "final_mesh.vtk", point_data={"state": u.values}
    )
    final = record.final
    lines = [
        f"method: {config.method}",
        f"status: {record.status}",
        f"iterations: {final.iteration}",
        f"final_objective: {_g17(final.objective)}",
        f"final_gradient_norm: {_g17(final.direction_energy ** 0.5)}",
        f"final_min_radius_ratio: {_g17(final.min_radius_ratio)}",
        f"wall_seconds: {wall:.3f}",
    ]
    if final.damping is not None:
        lines.insert(6, f"final_damping: {_g17(final.damping)}")
    _write_summary(config, lines)
    if record.status != descent.CONVERGED:
        logger.warning("run finished without convergence: %s", record.status)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def compare(configs: list[ExperimentConfig], out_dir: str | Path) -> int:
    """Run several configs on one problem; merge histories into compare.csv."""
    if not configs:
        raise ConfigError("compare needs at least one configuration")
    problems = {(c.problem, c.level, c.radius, c.side, c.n_per_edge, c.mesh_file)
                for c in configs}
    if len(problems) > 1:
        raise ConfigError("compare requires all configurations to share one problem")
    if any(c.method == "spurious-sweep" for c in configs):
        raise ConfigError("compare works on per-iteration methods, not the sweep")
    out_dir = Path(out_dir)
    labels: list[str] = []
    for config in configs:
        label = config.method
        if label in labels:
            label = f"{label}-{labels.count(label) + 1}"
        labels.append(label)
        config.out_dir = out_dir / label
        status = run(config)
        if status not in (EXIT_OK, EXIT_NO_CONVERGENCE):
            return status  # solver/mesh failure: no comparison to write
    histories = [descent.load_history(out_dir / label / "history.csv") for label in labels]
    length = max(h["iter"].size for h in histories)
    columns = ["iter"]
    for label in labels:
        columns += [f"J_{label}", f"grad_energy_{label}"]
    with open(out_dir / "compare.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for i in range(length):
            row: list[str] = [str(i)]
            for h in histories:
                if i < h["iter"].size:
                    row += [_g17(h["J"][i]), _g17(h["grad_energy"][i])]
                else:
                    row += ["", ""]  # run already finished; keep rows aligned
            writer.writerow(row)
    logger.info("wrote comparison table for %s", ", ".join(labels))
    return EXIT_OK


# ----------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, multi: bool) -> None:
    action = "append" if multi else "store"
    parser.add_argument("--config", action=action, metavar="FILE",
                        help="INI config file" + (" (repeatable)" if multi else ""))
    parser.add_argument("--preset", action=action, metavar="NAME",
                        help="preset such as 'paper2d-newton, level 1'"
                             + (" (repeatable)" if multi else ""))
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--snapshot-every", type=int, metavar="K",
                        help="write mesh_XXXX.vtk every K iterations")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeopt",
        description="Shape optimization driven by normal boundary forces.",
        epilog="exit codes: 0 ok, 2 config error, 3 solver failure, "
               "4 non-convergence, 5 degenerate mesh",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one experiment")
    _add_common(run_parser, multi=False)
    compare_parser = sub.add_parser("compare", help="run and merge several experiments")
    _add_common(compare_parser, multi=True)
    return parser


def _setup_logging() -> None:
    name = os.environ.get("SHAPEOPT_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = build_config(args.preset, args.config, args.out,
                                  args.snapshot_every)
            return run(config)
        presets = args.preset or []
        files = args.config or []
        configs = [
            build_config(preset, None, None, args.snapshot_every)
            for preset in presets
        ] + [
            build_config(None, path, None, args.snapshot_every)
            for path in files
        ]
        if args.out is None:
            raise ConfigError("compare needs --out")
        return compare(configs, args.out)
    except ConfigError as exc:
        print(f"shapeopt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateMeshError as exc:
        print(f"shapeopt: degenerate mesh: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MeshError as exc:
        print(f"shapeopt: mesh error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SingularOperatorError, np.linalg.LinAlgError) as exc:
        print(f"shapeopt: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
