"""Experiment driver: presets, config parsing, artifacts, exit codes."""
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shapeopt import cli
from shapeopt.linalg import SingularOperatorError
from shapeopt.meshio import read_vtk, write_vtk


def test_parse_preset_grammar():
    assert cli.parse_preset("paper2d-restricted-gradient") == {
        "problem": "paper2d", "method": "restricted-gradient",
    }
    assert cli.parse_preset("paper2d-newton, level 1") == {
        "problem": "paper2d", "method": "restricted-newton", "level": 1,
    }
    assert cli.parse_preset("paper3d-restricted-newton") == {
        "problem": "paper3d", "method": "restricted-newton",
    }


@pytest.mark.parametrize("name", [
    "bogus", "paper2d-bogus", "paper2d-newton, stage 3",
    "paper2d-newton, level x", "paper3d-newton, level 1",
])
def test_parse_preset_rejects(name):
    with pytest.raises(cli.ConfigError):
        cli.parse_preset(name)


def test_config_file_overrides_preset(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[problem]\nlevel = 2\n"
        "[line_search]\nmax_iterations = 7\nalpha0 = 0.25\n"
        "[elasticity]\npoisson = 0.3\n"
    )
    config = cli.build_config("paper2d-restricted-gradient, level 1", path)
    assert config.level == 2  # file wins over preset
    assert config.line_search.max_iterations == 7
    assert config.line_search.alpha0 == 0.25
    assert config.line_search.beta == 0.5  # untouched default
    assert config.elasticity.poisson == 0.3


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[line_search]\nstepsize = 0.5\n")
    with pytest.raises(cli.ConfigError):
        cli.build_config(None, path)
    path.write_text("[mystery]\nx = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.build_config(None, path)


def test_build_config_validates_ranges(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[line_search]\nbeta = 1.5\n")
    with pytest.raises(cli.ConfigError):
        cli.build_config("paper2d-restricted-gradient", path)


def test_invalid_config_exits_2_without_artifacts(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[line_search]\nbeta = 1.5\n")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--preset",
                     "paper2d-restricted-gradient", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("section, setting", [
    ("line_search", "eps_tol = nan"),
    ("line_search", "alpha0 = nan"),
    ("newton", "det_lo = 3.0"),
    ("newton", "max_iterations = -1"),
    ("elasticity", "young = nan"),
    ("elasticity", "damping = inf"),
    ("problem", "radius = nan"),
    ("problem", "side = inf"),
])
def test_non_finite_or_unordered_settings_exit_2(tmp_path, section, setting):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{setting}\n")
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--preset",
                     "paper2d-restricted-gradient", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


def test_short_run_writes_artifacts(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text("[line_search]\nmax_iterations = 4\n")
    out = tmp_path / "out"
    code = cli.main(["run", "--preset", "paper2d-restricted-gradient",
                     "--config", str(path), "--out", str(out),
                     "--snapshot-every", "2"])
    assert code == cli.EXIT_NO_CONVERGENCE
    names = {p.name for p in out.iterdir()}
    assert {"history.csv", "final_mesh.vtk", "summary.txt",
            "plot_history.py", "mesh_0000.vtk", "mesh_0002.vtk"} <= names
    summary = (out / "summary.txt").read_text()
    assert "status: max_iterations" in summary
    assert "final_gradient_norm:" in summary
    # emitted VTK files round-trip through the reader
    mesh, data = read_vtk(out / "final_mesh.vtk")
    assert mesh.num_vertices == 127
    assert "state" in data


def test_newton_preset_converges_with_exit_0(tmp_path):
    out = tmp_path / "newton"
    code = cli.main(["run", "--preset", "paper2d-newton", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "status: converged" in summary
    assert "final_damping:" in summary
    history = (out / "history.csv").read_text().splitlines()
    assert history[0].endswith(",damping")


def test_identical_configs_produce_identical_csv(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[line_search]\nmax_iterations = 6\n")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["run", "--preset", "paper2d-restricted-gradient",
                         "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_NO_CONVERGENCE
        outputs.append((out / "history.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_custom_mesh_file_run(tmp_path, disk0):
    source = tmp_path / "disk.vtk"
    write_vtk(disk0, source)
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        "[problem]\nkind = custom\nmesh_file = %s\n"
        "[method]\nname = restricted-gradient\n"
        "[line_search]\nmax_iterations = 2\n" % source
    )
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == cli.EXIT_NO_CONVERGENCE
    assert (out / "history.csv").exists()


def test_degenerate_custom_mesh_exits_5(tmp_path):
    bad = tmp_path / "bad.vtk"
    bad.write_text(
        "# vtk DataFile Version 3.0\nflat\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 3 double\n0 0 0\n1 0 0\n2 0 0\n"
        "CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n"
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        f"[problem]\nkind = custom\nmesh_file = {bad}\n"
    )
    code = cli.main(["run", "--config", str(config_path), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_DEGENERATE


def test_unreadable_custom_mesh_exits_5(tmp_path):
    bad = tmp_path / "bad.vtk"
    bad.write_text(
        "# vtk DataFile Version 3.0\nbad\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        "POINTS 3 double\n0 0 0\n1 abc 0\n0 1 0\n"
        "CELLS 1 4\n3 0 1 2\nCELL_TYPES 1\n5\n"
    )
    config_path = tmp_path / "run.ini"
    config_path.write_text(f"[problem]\nkind = custom\nmesh_file = {bad}\n")
    code = cli.main(["run", "--config", str(config_path), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_DEGENERATE


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SingularOperatorError("synthetic failure")
    monkeypatch.setitem(cli._SOLVERS, "restricted-gradient", boom)
    code = cli.main(["run", "--preset", "paper2d-restricted-gradient",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SOLVER


def test_sweep_preset_writes_sweep_table(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["run", "--preset", "paper2d-spurious-sweep", "--out", str(out)])
    assert code == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert lines[0] == "iter,J,min_determinant"
    last = lines[-1].split(",")
    assert float(last[2]) <= 1e-12  # collapse reached
    mesh, data = read_vtk(out / "final_mesh.vtk")
    assert "collapse_direction" in data


def test_compare_merges_histories(tmp_path):
    base = ("[problem]\nkind = paper2d\nlevel = 0\n"
            "[line_search]\nmax_iterations = %d\n[method]\nname = %s\n")
    a = tmp_path / "a.ini"
    a.write_text(base % (3, "restricted-gradient"))
    b = tmp_path / "b.ini"
    b.write_text(base % (5, "classical-gradient"))
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", str(a), "--config", str(b),
                     "--out", str(out)])
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == ("iter,J_restricted-gradient,grad_energy_restricted-gradient,"
                        "J_classical-gradient,grad_energy_classical-gradient")
    assert len(lines) == 7  # header + 6 rows (longest run)
    # the shorter run is padded with empty cells
    assert lines[-1].split(",")[1] == ""


def test_compare_rejects_mismatched_problems(tmp_path):
    a = tmp_path / "a.ini"
    a.write_text("[problem]\nkind = paper2d\n")
    b = tmp_path / "b.ini"
    b.write_text("[problem]\nkind = paper3d\n")
    code = cli.main(["compare", "--config", str(a), "--config", str(b),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_compare_requires_configs(tmp_path):
    code = cli.main(["compare", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_log_verbosity_from_environment(tmp_path):
    env = dict(os.environ, SHAPEOPT_LOG="INFO")
    script = (
        "from shapeopt import cli; import sys;"
        "sys.exit(cli.main(['run', '--preset', 'paper2d-restricted-gradient',"
        f"'--config', r'{tmp_path / 'c.ini'}', '--out', r'{tmp_path / 'out'}']))"
    )
    (tmp_path / "c.ini").write_text("[line_search]\nmax_iterations = 1\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=env)
    assert result.returncode == cli.EXIT_NO_CONVERGENCE
    assert "INFO" in result.stderr  # info-level records are emitted
