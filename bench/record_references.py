"""Record the seed-0 references the checks compare against.

    python3 bench/record_references.py

Runs every workload once at seed 0 and writes, for each optimizer run, its
status, iteration count, final objective and the sha256 of its
``history.csv`` to references.json.  Run it only on a commit whose results
are known to be right: the checks then hold later commits to them.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import checks
import run
import workloads


def main() -> None:
    references = {}
    for name, runs in workloads.WORKLOADS.items():
        work_dir = run.WORK / f"references-{name}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        specs = workloads.prepare(runs, 0, work_dir)
        spec_file = work_dir / "specs.json"
        spec_file.write_text(json.dumps(specs))
        result = run.run_worker(["run", str(spec_file)], perf_counter() + 600.0)
        references[name] = {}
        for spec, outcome in zip(specs, result["runs"]):
            if outcome["error"]:
                raise RuntimeError(f"{name}/{spec['label']} raised:\n{outcome['error']}")
            info, _ = checks.read_outputs(Path(spec["out_dir"]))
            references[name][spec["label"]] = {
                key: info[key] for key in ("status", "iterations", "final_J", "history_sha256")
            }
            print(name, spec["label"], references[name][spec["label"]])
    (run.HERE / "references.json").write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    main()
