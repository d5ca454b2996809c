"""Correctness checks on the artifacts of one ``cli.run`` call.

Every optimizer run is checked; a run with any problem counts as failed.
Checks that depend on the exact trajectory (the final objective to
``EXACT_RTOL``) apply at seed 0 only, where the run must reproduce the
references recorded from the parent commit.  On a jittered mesh a converged
run reaches a nearby stationary shape, so its final objective is held to the
looser ``JITTERED_RTOL`` instead.  The ``history.csv`` fingerprint is
reported, never gated on, so a change may alter the trajectory if it says why.
"""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path

EXACT_RTOL = 1e-9
JITTERED_RTOL = 1e-4


def read_summary(path: Path) -> dict[str, str]:
    pairs = (line.partition(": ") for line in path.read_text().splitlines())
    return {key: value for key, _, value in pairs}


def read_outputs(out: Path) -> tuple[dict, list[dict]]:
    """Summary fields and the ``history.csv`` fingerprint of one run; history rows."""
    summary = read_summary(out / "summary.txt")
    history_bytes = (out / "history.csv").read_bytes()
    info = {
        "status": summary.get("status"),
        "iterations": int(summary["iterations"]),
        "final_J": float(summary["final_objective"]),
        "min_radius_ratio": float(summary["final_min_radius_ratio"]),
        "history_sha256": hashlib.sha256(history_bytes).hexdigest(),
    }
    return info, list(csv.DictReader(history_bytes.decode().splitlines()))


def check_run(spec: dict, reference: dict, seed: int, read_vtk) -> tuple[list[str], dict]:
    """Problems found in one run's output directory, and what was read there.

    ``read_vtk`` is the program's reader; the final mesh is read back with it
    and must pass ``SimplicialMesh.validate``.
    """
    out = Path(spec["out_dir"])
    info, rows = read_outputs(out)
    objectives = [float(r["J"]) for r in rows]
    problems = []
    if info["status"] != reference["status"]:
        problems.append(f"status {info['status']!r}, expected {reference['status']!r}")
    if any(b > a for a, b in zip(objectives, objectives[1:])):
        problems.append("J increases along history.csv")
    if info["status"] == "converged":
        energy = float(rows[-1]["grad_energy"])
        if not energy <= spec["eps_tol"] ** 2:
            problems.append(f"final |V|_E^2 = {energy:.3e} above tol^2 = {spec['eps_tol'] ** 2:.3e}")
        rtol = EXACT_RTOL if seed == 0 else JITTERED_RTOL
        error = abs(info["final_J"] - reference["final_J"]) / abs(reference["final_J"])
        if not error <= rtol:
            problems.append(f"final J {info['final_J']!r} off reference "
                            f"{reference['final_J']!r} by {error:.2e} (rtol {rtol:g})")
    try:
        read_vtk(out / "final_mesh.vtk")[0].validate()
    except ValueError as exc:  # MeshError and its subclasses
        problems.append(f"final mesh invalid: {exc}")
    if seed == 0:
        info["iterations_match"] = info["iterations"] == reference["iterations"]
        info["fingerprint_match"] = info["history_sha256"] == reference["history_sha256"]
    return problems, info
