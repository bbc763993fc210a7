"""Acceptance criteria, one test per criterion.

Each test enforces the published tolerance and runtime budget; a
PASS/FAIL line per criterion is printed by the report hook in
conftest.py.  The three-agent reference parameter set (mu=1, lambda=1/2,
alpha=pi/6, alpha0=pi/4, winding m=1) is used unless a criterion fixes
its own parameters.
"""

import time

import numpy as np
import pytest

from pursuit_lab import (ControlParams, equilibrium_shape,
                         extract_shape, integrate_shape, random_world,
                         shape_derivative, simulate)
from pursuit_lab import (abd, block_triple, dk, invariant_region_check,
                         lift, manifold_spec, reduced_equilibrium,
                         routh_necessary, spectrum_report)
from pursuit_lab.errors import (CollisionError, EquilibriumNotFoundError,
                                SingularModeError)
from pursuit_lab.full_space import extract_shape_trajectory
from pursuit_lab.numerics import eig5, wrap_angle
from pursuit_lab.pure_shape import integrate_pure_shape, integrate_reduced
from pursuit_lab.shape_space import ShapeState

from conftest import (assemble_block_circulant, multiset_distance,
                      reference_equilibrium)


def _reference_params(mu=1.0):
    return ControlParams.homogeneous(3, mu=mu, lam=0.5, alpha=np.pi / 6,
                                     alpha0=np.pi / 4)


def _spiral_params():
    return ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                     alpha=7 * np.pi / 12,
                                     alpha0=11 * np.pi / 12)


@pytest.fixture(scope="module")
def two_route_runs():
    """Shared by criteria 3 and 4: both integration routes from one
    random valid initial condition, T=5, dt=1e-3."""
    params = _reference_params()
    world = random_world(3, seed=3)
    shape0 = extract_shape(world)
    full = simulate(world, params, T=5.0, dt=1e-3, record_every=10)
    shape_run = integrate_shape(shape0, params, T=5.0, dt=1e-3,
                                record_every=10)
    return full, shape_run


def test_criterion_01_circling_convergence_fig2():
    start = time.monotonic()
    alpha = [np.pi / 6] * 3 + [np.pi / 7] * 3 + [np.pi / 8] * 4
    params = ControlParams.homogeneous(10, mu=1.0, lam=0.5, alpha=alpha,
                                       alpha0=np.pi / 4)
    converged = 0
    for seed in range(5):
        try:
            traj = simulate(random_world(10, seed=seed), params, T=100.0,
                            dt=0.01, record_every=10)
        except CollisionError:
            continue
        _, _, _, rho_b, kappa_b = extract_shape_trajectory(traj)
        tail = rho_b[traj.t >= traj.t[-1] - 10.0]
        spread = tail.std() / tail.mean()
        heading_err = np.max(np.abs(np.abs(kappa_b[-1]) - np.pi / 2))
        if spread < 1e-3 and heading_err < 1e-2:
            converged += 1
    elapsed = time.monotonic() - start
    assert converged >= 4, f"only {converged}/5 runs converged"
    assert elapsed < 60.0


def test_criterion_02_equilibrium_closed_form():
    start = time.monotonic()
    params = _reference_params()
    eq = reference_equilibrium(params)
    assert abs(eq.rho_b - 0.82843) < 1e-4
    assert np.max(np.abs(eq.rho - 1.43488)) < 1e-4
    assert np.max(np.abs(eq.kappa - np.pi / 3)) < 1e-9
    shape = equilibrium_shape(eq, params)
    assert shape_derivative(shape, params).max_abs() < 1e-9
    assert time.monotonic() - start < 1.0


def test_criterion_03_two_route_consistency(two_route_runs):
    start = time.monotonic()
    full, shape_run = two_route_runs
    rho, kappa, theta, rho_b, kappa_b = extract_shape_trajectory(full)
    assert np.max(np.abs(rho - shape_run.rho)) < 1e-4
    assert np.max(np.abs(rho_b - shape_run.rho_b)) < 1e-4
    for got, want in [(kappa, shape_run.kappa), (theta, shape_run.theta),
                      (kappa_b, shape_run.kappa_b)]:
        assert np.max(np.abs(wrap_angle(got - want))) < 1e-4
    assert time.monotonic() - start < 30.0


def test_criterion_04_constraint_preservation(two_route_runs):
    full, shape_run = two_route_runs
    assert np.max(np.abs(shape_run.residuals)) < 1e-6
    from pursuit_lab import constraint_residuals
    arrays = extract_shape_trajectory(full)
    for idx in range(0, full.t.size, 25):
        shape = ShapeState(*(a[idx].copy() for a in arrays))
        assert constraint_residuals(shape).max_abs() < 1e-6


def test_criterion_05_spectrum_equivalence():
    start = time.monotonic()
    for n in (3, 4, 5):
        params = ControlParams.homogeneous(n, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        blocks, _ = block_triple(params, 1)
        assembled = np.linalg.eigvals(assemble_block_circulant(blocks, n))
        union = np.concatenate([eig5(dk(blocks, k, n)) for k in range(n)])
        assert multiset_distance(assembled, union) < 1e-6
        on_axis = int(np.sum(np.abs(assembled.real) < 1e-6))
        assert on_axis == 2 * n + 1
    assert time.monotonic() - start < 5.0


def test_criterion_06_jacobian_validation():
    start = time.monotonic()
    params = _reference_params()
    shape = equilibrium_shape(reference_equilibrium(params), params)
    vec0 = shape.to_vector()

    def field(v):
        return shape_derivative(ShapeState.from_vector(v, 3),
                                params).to_vector()

    h = 1e-6
    jac = np.zeros((15, 15))
    for j in range(15):
        probe = np.zeros(15)
        probe[j] = h
        jac[:, j] = (field(vec0 + probe) - field(vec0 - probe)) / (2 * h)
    blocks, _ = block_triple(params, 1)
    assert np.max(np.abs(jac - assemble_block_circulant(blocks, 3))) < 1e-5
    assert time.monotonic() - start < 5.0


def test_criterion_07_routh_eigenvalue_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    disagreements = 0
    while checked < 200:
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n))
        lam = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(-np.pi, np.pi))
        alpha0 = float(rng.uniform(-np.pi, np.pi))
        try:
            base = ControlParams.homogeneous(n, mu=1.0, lam=lam, alpha=alpha,
                                             alpha0=alpha0)
            abd(base, m)
        except (EquilibriumNotFoundError, SingularModeError):
            continue
        checked += 1
        verdicts = []
        for mu in (0.5, 1.0, 2.0, 10.0):
            params = ControlParams.homogeneous(n, mu=mu, lam=lam,
                                               alpha=alpha, alpha0=alpha0)
            verdicts.append(routh_necessary(params, m).overall)
        assert len(set(verdicts)) == 1, "verdict not invariant under mu"
        worst = spectrum_report(base, m).max_informative_real()
        if abs(worst) < 1e-9:
            continue  # inside the tolerance band
        if verdicts[0] != (worst < 0.0):
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 60.0


def test_criterion_08_manifold_invariance():
    start = time.monotonic()
    params_by_n = {n: ControlParams.homogeneous(
        n, mu=1.0, lam=0.5, alpha=np.pi / 6, alpha0=np.pi / 4)
        for n in (3, 4, 5)}
    for n, k in [(3, 1), (3, 2), (4, 1), (5, 2)]:
        params = params_by_n[n]
        spec = manifold_spec(n, k)
        kappa0 = k * np.pi / n + 0.4
        rho0 = 1.5
        state0, _ = lift(spec, kappa0, rho0)
        traj = integrate_pure_shape(state0, params, T=20.0, dt=2e-3,
                                    record_every=20)
        worst = np.max(spec.residuals(traj.states))
        assert worst < 1e-5, f"(n,k)=({n},{k}) residual {worst:.2e}"
        _, red_kappa, red_rho = integrate_reduced(kappa0, rho0, params, k,
                                                  T=20.0, dt=2e-3,
                                                  record_every=20)
        assert np.max(np.abs(wrap_angle(traj.kappa1 - wrap_angle(red_kappa)))) \
            < 1e-5
        assert np.max(np.abs(traj.rho1 - red_rho)) < 1e-5
    assert time.monotonic() - start < 30.0


def test_criterion_09_fig5_reduced_dynamics():
    start = time.monotonic()
    params = _spiral_params()
    assert reduced_equilibrium(params, 2) is None
    region = invariant_region_check(params, 2)
    assert region.holds
    rng = np.random.default_rng(11)
    strip_low = 2 * np.pi / 3
    for _ in range(20):
        kappa0 = strip_low + rng.uniform(0.05, np.pi - 0.05)
        rho0 = rng.uniform(0.5, 4.0)
        _, kk, rr = integrate_reduced(kappa0, rho0, params, 2, T=120.0,
                                      dt=0.01, record_every=10)
        offsets = wrap_angle(kk - strip_low)
        assert np.all((offsets > 0) & (offsets < np.pi)), "left the strip"
        assert abs(wrap_angle(kk[-1] - 5 * np.pi / 6)) < 0.02
        assert np.all(np.diff(rr) > 0), "rho1 not strictly increasing"
    assert time.monotonic() - start < 30.0


def test_criterion_10_fig4_pure_shape_spiral():
    start = time.monotonic()
    params = _spiral_params()
    spec = manifold_spec(3, 2)
    _, world = lift(spec, kappa1=2 * np.pi / 3 + 0.8, rho1=1.0)
    traj = simulate(world, params, T=20.0, dt=1e-3, record_every=10)
    rho, _, _, rho_b, _ = extract_shape_trajectory(traj)
    rho1 = rho[:, 0]
    assert np.max(np.abs(rho / rho1[:, None] - 1.0)) < 1e-3
    assert np.max(np.abs(rho_b / rho1[:, None] - spec.rho_tb_const)) < 1e-3
    assert np.all(np.diff(rho1) > 0), "spiral scale not monotone"
    assert time.monotonic() - start < 30.0
