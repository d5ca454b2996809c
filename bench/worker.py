"""Fresh-process side of the benchmark.

    python3 bench/worker.py setup SPECS.json
    python3 bench/worker.py run SPECS.json [--trace]

``setup`` times the import of shapeopt plus, for every run in SPECS.json,
``cli.build_config``, ``cli.build_mesh`` and ``cli.build_problem``.  ``run``
executes every run with ``cli.run`` as ``shapeopt run`` does, timing the
optimizer call of each with a single span around the solver.  With
``--trace`` it also wraps the layers' public functions (see tracing.py) and
writes all spans to ``spans.json`` next to SPECS.json.  Either mode prints
one JSON object as its last line of standard output.
"""
from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def build_config(cli, spec: dict):
    return cli.build_config(spec["preset"], spec["config_file"], spec["out_dir"])


def run_all(cli, specs: list[dict], tracer: tracing.Tracer) -> list[dict]:
    records = []
    for method, solver in list(cli._SOLVERS.items()):
        cli._SOLVERS[method] = tracer.wrap(
            "solve", solver, lambda args, kwargs, result: records.append(result[1])
        )
    results = []
    for spec in specs:
        first_span, first_record = len(tracer.spans), len(records)
        result = {"label": spec["label"], "error": None}
        try:
            cli.run(build_config(cli, spec))  # the checks read the status it wrote
        except Exception:  # one failed run must not hide the others
            result["error"] = traceback.format_exc()
        result["solve_s"] = sum(
            end - start for name, start, end, _ in tracer.spans[first_span:] if name == "solve"
        )
        for record in records[first_record:]:
            accepted = [r.alpha > 0.0 for r in record.iterates]
            result["accepted"] = sum(accepted)
            result["trials"] = sum(accepted) + sum(r.backtracks for r in record.iterates)
        results.append(result)
    return results


def main(argv: list[str]) -> dict:
    mode, spec_path = argv[0], Path(argv[1])
    specs = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    from shapeopt import cli

    import_s = perf_counter() - start
    if mode == "setup":
        for spec in specs:
            config = build_config(cli, spec)
            cli.build_problem(config, cli.build_mesh(config))
        return {"setup_s": perf_counter() - start, "import_s": import_s}
    tracer = tracing.Tracer()
    trace = "--trace" in argv
    if trace:
        tracing.install(tracer)
    runs = run_all(cli, specs, tracer)
    out = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
    }
    if trace:
        (spec_path.parent / "spans.json").write_text(json.dumps(tracer.spans))
        out["spans"] = tracing.summarize(tracer.spans)
        out["counters"] = tracer.counters
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
