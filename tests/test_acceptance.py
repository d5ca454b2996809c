"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints the quantities it asserts against, so a failing line
carries its own evidence.  The long optimization runs are shared through
module-scoped fixtures; nothing here depends on test execution order.
"""
import time

import numpy as np
import pytest

from shapeopt import cli, descent, fem, newton, problems, shape
from shapeopt.descent import CONVERGED, LineSearchConfig
from shapeopt.mesh import apply_deformation, generate_cube_mesh, generate_disk_mesh
from shapeopt.newton import LagrangianForms, NewtonConfig
from conftest import make_hexagon, random_deformation

PARAMS = shape.ElasticityParams()


def identity_collector(log):
    """Callback recording |<E V, V> + dJ(V)| for the restricted direction."""

    def cb(iteration, mesh, objective, energy, directional, derivative,
           direction, operators, **_):
        log.append((energy, directional))

    return cb


def restricted_identity_collector(log):
    """Same check for runs whose own direction is not the restricted one."""

    def cb(iteration, mesh, derivative, **_):
        res = shape.restricted_gradient(mesh, PARAMS, derivative)
        log.append((res.energy, derivative.pair(res.direction)))

    return cb


@pytest.fixture(scope="module")
def restricted_runs(data2d):
    """Full restricted-gradient runs on disk levels 0 and 1."""
    runs = {}
    for level in (0, 1):
        identities = []
        start = time.perf_counter()
        final, record = descent.restricted_descent(
            generate_disk_mesh(1.0, level), data2d,
            callback=identity_collector(identities),
        )
        runs[level] = (final, record, time.perf_counter() - start, identities)
    return runs


@pytest.fixture(scope="module")
def classical_run(data2d):
    """Classical-gradient run on disk level 0, capped at 1500 iterations."""
    identities = []
    final, record = descent.classical_descent(
        generate_disk_mesh(1.0, 0), data2d,
        config=LineSearchConfig(max_iterations=1500),
        callback=restricted_identity_collector(identities),
    )
    return final, record, identities


@pytest.fixture(scope="module")
def ssw_run(data2d):
    """Interior-masked run on disk level 0 (stops when descent fails)."""
    identities = []
    final, record = descent.ssw_descent(
        generate_disk_mesh(1.0, 0), data2d,
        config=LineSearchConfig(max_iterations=300),
        callback=restricted_identity_collector(identities),
    )
    return final, record, identities


@pytest.fixture(scope="module")
def newton_runs_2d(data2d):
    """Damped Newton runs on disk levels 0, 1, 2."""
    runs = {}
    for level in (0, 1, 2):
        identities = []
        start = time.perf_counter()
        final, record = newton.restricted_newton(
            generate_disk_mesh(1.0, level), data2d,
            callback=identity_collector(identities),
        )
        runs[level] = (final, record, time.perf_counter() - start, identities)
    return runs


@pytest.fixture(scope="module")
def newton_run_3d(data3d):
    """Damped Newton run on the cube benchmark, capped at 30 iterations."""
    start = time.perf_counter()
    final, record = newton.restricted_newton(
        generate_cube_mesh(2.0, 8), data3d,
        config=NewtonConfig(max_iterations=30),
    )
    return final, record, time.perf_counter() - start


def test_01_shape_derivative_consistency(data2d):
    """Central differences of J converge to the assembled derivative at
    second order on disk levels 0 and 1 (20 random fields per level)."""
    rng = np.random.default_rng(31)
    steps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    start = time.perf_counter()
    print()
    orders = []
    for level in (0, 1):
        mesh = generate_disk_mesh(1.0, level)
        u = fem.solve_state(mesh, data2d)
        p = fem.solve_adjoint(mesh)
        derivative = shape.shape_derivative(mesh, data2d, u, p)
        errors = np.zeros((20, len(steps)))
        for k in range(20):
            field = random_deformation(mesh, rng, scale=1.0)
            exact = derivative.pair(field)
            for j, h in enumerate(steps):
                plus = apply_deformation(mesh, field, h)
                minus = apply_deformation(mesh, field, -h)
                j_plus = fem.objective(plus, fem.solve_state(plus, data2d))
                j_minus = fem.objective(minus, fem.solve_state(minus, data2d))
                errors[k, j] = abs((j_plus - j_minus) / (2.0 * h) - exact)
        assert np.all(errors > 0.0)
        # observed order of the 20-field ensemble over the pinned step range
        order = np.polyfit(np.log(steps), np.log(errors.mean(axis=0)), 1)[0]
        orders.append(order)
        print(f"level {level}: observed order {order:.3f}; mean errors "
              + " ".join(f"{e:.2e}" for e in errors.mean(axis=0)))
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.1f}s")
    assert elapsed <= 60.0
    assert min(orders) >= 1.9


def test_02_descent_energy_identity(restricted_runs, classical_run, ssw_run,
                                    newton_runs_2d):
    """<E V, V> = -dJ(V) for the restricted direction at every iterate of
    every method, to 1e-9 relative to max(1, energy)."""
    logs = {
        "restricted level 0": restricted_runs[0][3],
        "restricted level 1": restricted_runs[1][3],
        "classical": classical_run[2],
        "ssw": ssw_run[2],
        "newton": newton_runs_2d[0][3],
    }
    print()
    for name, entries in logs.items():
        assert len(entries) > 0
        defects = np.array([
            abs(energy + directional) / max(1.0, energy)
            for energy, directional in entries
        ])
        print(f"identity defect {name}: max={defects.max():.3e} "
              f"over {len(entries)} iterates")
        assert defects.max() <= 1e-9


def test_03_projection_matches_dense_kkt_oracle(disk0, disk1, cube4,
                                                data2d, data3d):
    """Restricted gradient equals a dense saddle-point solve on a 7-vertex
    mesh; idempotence and multiplier orthogonality hold on the benchmarks."""
    hexagon = make_hexagon()
    u = fem.solve_state(hexagon, data2d)
    p = fem.solve_adjoint(hexagon)
    derivative = shape.shape_derivative(hexagon, data2d, u, p)
    ops = shape.shape_operators(hexagon, PARAMS)
    res = shape.restricted_gradient(hexagon, PARAMS, derivative)

    elasticity = ops.elasticity.toarray()
    normal = ops.normal_force.toarray()
    nb = normal.shape[1]
    kkt = np.zeros((nb + normal.shape[0],) * 2)
    kkt[:nb, nb:] = normal.T
    kkt[nb:, :nb] = normal
    kkt[nb:, nb:] = elasticity
    rhs = np.concatenate([np.zeros(nb), -derivative.coeffs.ravel()])
    sol = np.linalg.solve(kkt, rhs)
    classical = np.linalg.solve(elasticity, -derivative.coeffs.ravel())
    direction = classical - sol[nb:]
    gaps = (
        np.abs(res.force - sol[:nb]).max(),
        np.abs(res.multiplier.ravel() - sol[nb:]).max(),
        np.abs(res.direction.ravel() - direction).max(),
    )
    print(f"\ndense KKT gaps: force={gaps[0]:.3e} multiplier={gaps[1]:.3e} "
          f"direction={gaps[2]:.3e}")
    assert max(gaps) <= 1e-10

    for name, mesh, data in (("disk0", disk0, data2d), ("disk1", disk1, data2d),
                             ("cube4", cube4, data3d)):
        u = fem.solve_state(mesh, data)
        p = fem.solve_adjoint(mesh)
        derivative = shape.shape_derivative(mesh, data, u, p)
        ops = shape.shape_operators(mesh, PARAMS)
        res = shape.restricted_gradient(mesh, PARAMS, derivative)
        orthogonality = np.linalg.norm(ops.normal_force.T @ res.multiplier.ravel())
        # projecting the restricted direction's own dual must reproduce it
        dual = fem.DualVector(-(ops.elasticity @ res.direction.ravel())
                              .reshape(res.direction.shape))
        again = shape.restricted_gradient(mesh, PARAMS, dual)
        drift = np.abs(again.direction - res.direction).max()
        scale = max(1.0, np.abs(res.direction).max())
        print(f"{name}: ||N^T Pi||={orthogonality:.3e} "
              f"idempotence drift={drift:.3e}")
        assert orthogonality <= 1e-9
        assert drift <= 1e-9 * scale


def test_04_restricted_gradient_convergence(restricted_runs):
    """Disk levels 0 and 1 reach ||V||_E <= 1e-7 within 2000 iterations and
    keep at least half the initial mesh quality."""
    print()
    for level in (0, 1):
        final, record, elapsed, _ = restricted_runs[level]
        norm = np.sqrt(record.final.direction_energy)
        initial_ratio = record.iterates[0].min_radius_ratio
        print(f"level {level}: {record.status} at iteration "
              f"{record.final.iteration}, ||V||_E={norm:.3e}, quality "
              f"{initial_ratio:.4f} -> {record.final.min_radius_ratio:.4f}, "
              f"{elapsed:.1f}s")
        assert record.status == CONVERGED
        assert record.final.iteration <= 2000
        assert norm <= 1e-7
        assert record.final.min_radius_ratio >= 0.5 * initial_ratio
        assert elapsed <= 600.0


def test_05_classical_gradient_pathology(restricted_runs, classical_run):
    """After matching the restricted method's converged objective, the
    classical gradient stagnates (norm stays above 1e-4 for 1500 iterations)
    while mesh quality degrades below the restricted method's final value."""
    _, restricted_record, _, _ = restricted_runs[0]
    _, record, _ = classical_run
    j_star = restricted_record.final.objective
    objectives = record.objectives
    matched = np.nonzero(objectives <= j_star)[0]
    assert matched.size > 0, "classical run never matched the converged objective"
    norms = np.sqrt(record.energies[matched[0]:])
    final_ratio = record.final.min_radius_ratio
    restricted_ratio = restricted_record.final.min_radius_ratio
    print(f"\nobjective matched at iterate {matched[0]}; "
          f"min ||V||_E afterwards = {norms.min():.3e}; quality "
          f"{final_ratio:.4f} vs restricted {restricted_ratio:.4f} "
          f"({record.final.iteration} iterations, {record.status})")
    assert record.final.iteration >= 1500 or record.status == CONVERGED
    assert norms.min() >= 1e-4
    assert final_ratio < restricted_ratio


def test_06_spurious_collapse_sweep(disk0, data2d):
    """A single-vertex inward perturbation decreases J monotonically while
    collapsing the adjacent cell exactly at step 0.1."""
    field, vertex = descent.collapse_direction(disk0, data2d, collapse_alpha=0.1)
    alphas = np.linspace(0.0, 0.1, 21)
    sweep = descent.spurious_sweep(disk0, data2d, field, alphas)
    drops = np.diff(sweep.objectives[:-1])
    print(f"\nvertex {vertex}: J drops over [0, 0.1): max diff "
          f"{drops.max():.3e}; det at 0.1 = {sweep.min_determinants[-1]:.3e}; "
          f"det before = {sweep.min_determinants[-2]:.3e}")
    assert sweep.alphas[-1] == pytest.approx(0.1, abs=0.0)
    assert np.all(drops < 0.0)
    assert sweep.min_determinants[-2] > 0.0
    assert sweep.min_determinants[-1] <= 1e-12
    assert np.isnan(sweep.objectives[-1])


def test_07_second_derivative_blocks(cube2, data2d, data3d):
    """All mixed and second derivative blocks match central differences of
    the first derivatives; at W = 0 the rows reduce to the assembled
    state, adjoint, and projection operators."""
    rng = np.random.default_rng(73)
    h = 1e-5
    print()
    for name, mesh, data in (("hexagon", make_hexagon(), data2d),
                             ("cube2", cube2, data3d)):
        u = fem.solve_state(mesh, data).values
        p = fem.solve_adjoint(mesh).values
        forms = LagrangianForms(mesh, data)
        x = random_deformation(mesh, rng)
        worst = 0.0

        for label, first, second in (
            ("uw", forms.d_u, forms.d2_uw), ("pw", forms.d_p, forms.d2_pw),
        ):
            fd = (first(h * x, u, p) - first(-h * x, u, p)) / (2.0 * h)
            got = second(u, p) @ x.ravel()
            rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
            assert rel <= 1e-6, f"{name} d2_{label}: rel={rel:.3e}"

        y = random_deformation(mesh, rng)
        fd = float(np.sum((forms.d_w(h * x, u, p)
                           - forms.d_w(-h * x, u, p)) * y)) / (2.0 * h)
        got = float(x.ravel() @ (forms.d2_ww(u, p) @ y.ravel()))
        rel = abs(got - fd) / abs(fd)
        worst = max(worst, rel)
        assert rel <= 1e-6, f"{name} d2_ww: rel={rel:.3e}"

        # W = 0 rows against the independently assembled operators
        interior = fem.interior_vertices(mesh)
        stiffness = fem.assemble_stiffness(mesh)[interior][:, interior]
        state_gap = np.abs((forms.stiffness_interior() - stiffness)).max()
        ops = shape.shape_operators(mesh, PARAMS)
        zero = np.zeros_like(mesh.vertices)
        force = rng.standard_normal(ops.normal_force.shape[1])
        elastic_gap = np.abs(
            newton.pulled_back_elasticity_apply(mesh, PARAMS, zero, x).ravel()
            - (ops.elasticity @ x.ravel())
        ).max()
        normal_gap = np.abs(
            newton.pulled_back_normal_apply(mesh, zero, force).ravel()
            - (ops.normal_force @ force)
        ).max()
        print(f"{name}: worst FD rel={worst:.3e}; W=0 gaps: "
              f"state={state_gap:.3e} elasticity={elastic_gap:.3e} "
              f"normal={normal_gap:.3e}")
        assert state_gap <= 1e-12 * max(1.0, np.abs(stiffness.data).max())
        assert elastic_gap <= 1e-12
        assert normal_gap <= 1e-12


def test_08_newton_convergence(newton_runs_2d, newton_run_3d):
    """Damped Newton reaches ||V||_E <= 1e-9 in at most 25 iterations on disk
    levels 0-2 and at most 30 on the cube, with terminal damping above 1e3."""
    print()
    for level in (0, 1, 2):
        _, record, elapsed, _ = newton_runs_2d[level]
        norm = np.sqrt(record.final.direction_energy)
        print(f"disk level {level}: {record.status} at iteration "
              f"{record.final.iteration}, ||V||_E={norm:.3e}, "
              f"damping={record.final.damping:.1e}, {elapsed:.1f}s")
    _, record3, elapsed3 = newton_run_3d
    norm3 = np.sqrt(record3.final.direction_energy)
    print(f"cube: {record3.status} at iteration {record3.final.iteration}, "
          f"||V||_E={norm3:.3e}, damping={record3.final.damping:.1e}, "
          f"{elapsed3:.1f}s")
    for level in (0, 1, 2):
        _, record, elapsed, _ = newton_runs_2d[level]
        assert record.status == CONVERGED
        assert record.final.iteration <= 25
        assert np.sqrt(record.final.direction_energy) <= 1e-9
        assert record.final.damping > 1e3
    assert elapsed3 <= 900.0
    assert record3.status == CONVERGED, (
        f"cube run: {record3.status} with ||V||_E={norm3:.3e} "
        f"and damping={record3.final.damping:.1e} after "
        f"{record3.final.iteration} iterations"
    )
    assert record3.final.iteration <= 30
    assert record3.final.damping > 1e3


def test_09_small_damping_limit(disk0, data2d):
    """For small damping the Newton step is the scaled restricted gradient:
    ||W - alpha V||_E / (alpha ||V||_E) <= 0.1 for alpha <= 1e-4."""
    iterate = newton.prepare_iterate(disk0, data2d, PARAMS)
    elasticity = shape.shape_operators(disk0, PARAMS).elasticity
    v = iterate.direction.ravel()
    v_norm = np.sqrt(v @ (elasticity @ v))
    print()
    for alpha in (1e-4, 1e-5, 1e-6):
        w = newton.NewtonSystem(disk0, data2d, PARAMS, iterate.state).step(alpha)
        diff = w.ravel() - alpha * v
        ratio = np.sqrt(diff @ (elasticity @ diff)) / (alpha * v_norm)
        print(f"alpha={alpha:.0e}: ||W - alpha V||_E / (alpha ||V||_E) "
              f"= {ratio:.3e}")
        assert ratio <= 0.1


def test_10_deterministic_history(tmp_path):
    """Identical configurations produce bit-identical history files."""
    short = tmp_path / "short.ini"
    short.write_text("[line_search]\nmax_iterations = 10\n")
    for preset, config in (("paper2d-newton", None),
                           ("paper2d-restricted-gradient", short)):
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{preset}-{tag}"
            argv = ["run", "--preset", preset, "--out", str(out)]
            if config is not None:
                argv += ["--config", str(config)]
            code = cli.main(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)
            payloads.append((out / "history.csv").read_bytes())
        identical = payloads[0] == payloads[1]
        print(f"\n{preset}: {len(payloads[0])} bytes, identical={identical}")
        assert identical
