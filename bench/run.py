"""shapeopt benchmark: time to solution, mesh quality and per-layer cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are defined in workloads.py and
explained in README.md; the metrics, their units and bounds in BENCHMARK.json
at the root.  Every repetition of a workload is a fresh ``worker.py``
process that runs it through ``cli.build_config`` and ``cli.run``, as
``shapeopt run --preset ... [--config ...]`` does.  The output of every
optimizer run is checked (checks.py); a run failing a check counts as failed.

``--trace 0`` first times the set-up ``SETUP_PROBES`` times in fresh
processes, then repeats the workload while another repetition fits in
``--seconds`` (at least once), and reports medians of the end-to-end metrics.
``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics of the traced repetition, the tracing overhead against
the untraced one, and the part of the optimizer time no span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing is printed
there, and the exit code is not 0, when the program cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
TIME_LIMIT_S = 170.0  # every run of this script must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("linalg", "newton", "fem", "shape", "mesh", "meshio", "cli")


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0.0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


class Tally:
    """Checks every run of every repetition; counts attempted and failed runs."""

    def __init__(self, specs: list[dict], references: dict, seed: int, read_vtk):
        self.specs, self.references, self.seed = specs, references, seed
        self.read_vtk = read_vtk
        self.attempted = 0
        self.failed = 0

    def crashed(self, error: Exception) -> None:
        self.attempted += len(self.specs)
        self.failed += len(self.specs)
        print(f"repetition failed: {error}", file=sys.stderr)

    def check(self, rep: dict) -> list[dict]:
        infos = []
        for spec, result in zip(self.specs, rep["runs"]):
            self.attempted += 1
            if result["error"]:
                problems, info = [f"raised:\n{result['error']}"], {}
            else:
                try:
                    problems, info = checks.check_run(
                        spec, self.references[spec["label"]], self.seed, self.read_vtk)
                except (OSError, KeyError, ValueError) as exc:
                    problems, info = [f"unreadable output: {exc!r}"], {}
            self.failed += bool(problems)
            info.update(label=spec["label"], solve_s=result["solve_s"],
                        trials=result.get("trials"), problems=problems)
            infos.append(info)
            print(f"run {spec['label']}: " + json.dumps(info))
        return infos


def end_to_end(rep: dict, infos: list[dict]) -> dict:
    return {
        "solve_s": sum(r["solve_s"] for r in rep["runs"]),
        "peak_rss_mb": rep["peak_rss_mb"],
        "iterations": sum(i.get("iterations", 0) for i in infos),
        "final_min_radius_ratio": min(i.get("min_radius_ratio", 0.0) for i in infos),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    spans, counters, runs = traced["spans"], traced["counters"], traced["runs"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {}
    for name, fields in (
        ("linalg.factorize", ("calls", "self_s")),
        ("linalg.solve", ("calls", "self_s")),
        ("linalg.block_assemble", ("self_s",)),
        ("newton.system_build", ("calls", "self_s")),
        ("newton.system_solve", ("calls",)),
        ("newton.d2_ww", ("self_s",)),
        ("newton.d_elasticity", ("self_s",)),
        ("newton.prepare_iterate", ("total_s",)),
        ("fem.cell_geometry", ("calls", "self_s")),
        ("fem.poisson_workspace", ("calls", "self_s")),
        ("fem.assemble_stiffness", ("self_s",)),
        ("fem.assemble_load", ("self_s",)),
        ("fem.solve_state", ("calls",)),
        ("fem.objective", ("calls",)),
        ("shape.shape_operators", ("calls", "self_s")),
        ("shape.assemble_elasticity", ("self_s",)),
        ("shape.restricted_gradient", ("calls", "self_s")),
        ("shape.shape_derivative", ("self_s",)),
        ("mesh.quality_check", ("calls", "self_s")),
        ("mesh.min_radius_ratio", ("calls", "self_s")),
        ("mesh.facet_owner_cells", ("calls", "self_s")),
        ("mesh.apply_deformation", ("calls",)),
        ("mesh.generate", ("self_s",)),
        ("meshio.write_vtk", ("self_s",)),
        ("cli.build_mesh", ("self_s",)),
    ):
        for field in fields:
            out[f"{name}.{field}"] = span(name, field)
    for name in ("linalg.factorize.n_max", "linalg.factorize.nnz_in", "meshio.bytes_written"):
        out[name] = counters.get(name, 0)
    accepted = sum(r.get("accepted", 0) for r in runs)
    trials = sum(r.get("trials", 0) for r in runs)
    out["newton.accept_ratio"] = ratio(accepted, span("newton.system_solve", "calls"))
    out["mesh.quality_pass_ratio"] = ratio(
        counters.get("mesh.quality_check.passed", 0), span("mesh.quality_check", "calls"))
    out["descent.trials"] = trials
    out["descent.accept_ratio"] = ratio(accepted, trials)
    out["cli.import_s"] = untraced["import_s"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.startswith(layer + "."))
    traced_solve = sum(r["solve_s"] for r in runs)
    untraced_solve = sum(r["solve_s"] for r in untraced["runs"])
    out["trace.overhead_ratio"] = traced_solve / untraced_solve - 1.0
    out["trace.unattributed_s"] = span("solve", "self_s")
    out["trace.unattributed_share"] = ratio(span("solve", "self_s"), traced_solve)
    return out


def provenance(specs: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
        "meshes": {s["label"]: {k: s[k] for k in ("nv", "nc", "unknowns")} for s in specs},
    }


def measure_traced(spec_file: Path, tally: Tally, deadline: float) -> dict:
    """One untraced and one traced repetition; per-layer metrics of the latter."""
    untraced = run_worker(["run", str(spec_file)], deadline)
    tally.check(untraced)
    traced = run_worker(["run", str(spec_file), "--trace"], deadline)
    tally.check(traced)
    return per_layer(untraced, traced)


def measure(spec_file: Path, tally: Tally, seconds: float, deadline: float) -> dict:
    """Set-up probes, then repetitions while another fits in ``seconds``; medians."""
    setups = [run_worker(["setup", str(spec_file)], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    samples = []
    start = perf_counter()
    while True:
        rep_start = perf_counter()
        try:
            rep = run_worker(["run", str(spec_file)], deadline)
        except WorkerError as exc:
            if not samples:
                raise
            tally.crashed(exc)
            break
        samples.append(end_to_end(rep, tally.check(rep)))
        now = perf_counter()
        if now - start + (now - rep_start) > seconds or now + (now - rep_start) > deadline:
            break
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["setup_s"] = statistics.median(setups)
    metrics["pass_ratio"] = 1.0 - tally.failed / tally.attempted
    print(f"repetitions {len(samples)}, set-up probes {len(setups)}: "
          + json.dumps({"solve_s": [s["solve_s"] for s in samples], "setup_s": setups}))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + TIME_LIMIT_S
    if not (SRC / "shapeopt" / "__init__.py").is_file():
        print(f"bench: no shapeopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from shapeopt import read_vtk

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    references = json.loads((HERE / "references.json").read_text())[args.workload]

    work_dir = WORK / f"{args.workload}{'-trace' if args.trace else ''}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    specs = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, work_dir)
    spec_file = work_dir / "specs.json"
    spec_file.write_text(json.dumps(specs))
    info = provenance(specs)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(info))

    tally = Tally(specs, references, args.seed, read_vtk)
    try:
        if args.trace:
            metrics = measure_traced(spec_file, tally, deadline)
        else:
            metrics = measure(spec_file, tally, args.seconds, deadline)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (work_dir / "result.json").write_text(json.dumps(dict(result, provenance=info), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
