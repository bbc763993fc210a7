import numpy as np
import pytest

from pursuit_lab import (ControlParams, constraint_residuals, extract_shape,
                         integrate_shape, random_world, shape_derivative,
                         simulate)
from pursuit_lab import equilibrium_shape
from pursuit_lab.errors import AssumptionError, CollisionError
from pursuit_lab.full_space import extract_shape_trajectory
from pursuit_lab.numerics import wrap_angle
from pursuit_lab.shape_space import EPS_COL, ShapeState, _check_ranges

from conftest import reference_equilibrium


def _valid_shape(seed, n=3):
    return extract_shape(random_world(n, seed=seed))


class TestConstraintResiduals:
    def test_extraction_identity(self):
        for seed in range(6):
            assert constraint_residuals(_valid_shape(seed)).max_abs() < 1e-12

    def test_equilibrium_satisfies_constraints(self, reference_params):
        shape = equilibrium_shape(reference_equilibrium(reference_params),
                                  reference_params)
        assert constraint_residuals(shape).max_abs() < 1e-12

    def test_g0_linear_in_kappa(self):
        shape = _valid_shape(3)
        base = constraint_residuals(shape).g0
        shape.kappa[1] += 0.1
        assert abs(abs(constraint_residuals(shape).g0 - base) - 0.1) < 1e-12


class TestShapeDerivative:
    def test_equilibrium_is_fixed_point(self, reference_params):
        shape = equilibrium_shape(reference_equilibrium(reference_params),
                                  reference_params)
        assert shape_derivative(shape, reference_params).max_abs() < 1e-12

    def test_beacon_range_frozen_at_right_angle(self, reference_params):
        shape = _valid_shape(4)
        shape.kappa_b[0] = np.pi / 2
        rates = shape_derivative(shape, reference_params)
        assert abs(rates.rho_b[0]) < 1e-15

    def test_matches_full_space_finite_difference(self, reference_params):
        # two-route oracle: differentiate the extracted shape along a
        # full-space trajectory and compare with the closed-loop rates
        traj = simulate(random_world(3, seed=3), reference_params, T=0.2,
                        dt=1e-3)
        arrays = extract_shape_trajectory(traj)
        mid = traj.t.size // 2
        dt = traj.t[1] - traj.t[0]
        shape = ShapeState(*(a[mid].copy() for a in arrays))
        rates = shape_derivative(shape, reference_params)
        for got, series, circular in [
                (rates.rho, arrays[0], False), (rates.kappa, arrays[1], True),
                (rates.theta, arrays[2], True), (rates.rho_b, arrays[3],
                                                 False),
                (rates.kappa_b, arrays[4], True)]:
            if circular:
                fd = wrap_angle(series[mid + 1] - series[mid - 1]) / (2 * dt)
            else:
                fd = (series[mid + 1] - series[mid - 1]) / (2 * dt)
            assert np.max(np.abs(got - fd)) < 1e-5

    def test_heterogeneous_parameters_rejected(self):
        params = ControlParams(n=3, mu=1.0, lam=0.5, alpha=0.3,
                               alpha0=[0.2, 0.3, 0.4], mu_b=1.0, nu=1.0)
        with pytest.raises(AssumptionError, match="A3"):
            shape_derivative(_valid_shape(0), params)
        params = ControlParams(n=3, mu=1.0, lam=0.5, alpha=0.3, alpha0=0.3,
                               mu_b=1.0, nu=2.0)
        with pytest.raises(AssumptionError, match="A1"):
            shape_derivative(_valid_shape(0), params)

    def test_constraint_directional_derivative_vanishes(self,
                                                        reference_params):
        # complex-step directional derivative of the constraint functions
        # along the closed-loop field (independent of constraint_residuals)
        def residual_stack(rho, kappa, theta, rho_b, kappa_b):
            theta_next = np.roll(theta, -1)
            g0 = np.sum(np.pi + kappa - theta_next)
            rot_i = kappa_b - kappa
            rot_next = np.roll(kappa_b, -1) - theta_next
            g1 = rho - rho_b * np.cos(rot_i) \
                - np.roll(rho_b, -1) * np.cos(rot_next)
            g2 = rho_b * np.sin(rot_i) + np.roll(rho_b, -1) * np.sin(rot_next)
            return np.concatenate([[g0], g1, g2])

        h = 1e-20
        for seed in range(5):
            shape = _valid_shape(seed)
            rates = shape_derivative(shape, reference_params)
            perturbed = residual_stack(
                shape.rho + 1j * h * rates.rho,
                shape.kappa + 1j * h * rates.kappa,
                shape.theta + 1j * h * rates.theta,
                shape.rho_b + 1j * h * rates.rho_b,
                shape.kappa_b + 1j * h * rates.kappa_b)
            assert np.max(np.abs(perturbed.imag / h)) < 1e-10


class TestIntegrateShape:
    def test_equilibrium_stays_put(self, reference_params):
        shape = equilibrium_shape(reference_equilibrium(reference_params),
                                  reference_params)
        traj = integrate_shape(shape, reference_params, T=10.0, dt=1e-3,
                               record_every=100)
        assert np.max(np.abs(traj.rho - shape.rho[0])) < 1e-6
        assert np.max(np.abs(traj.rho_b - shape.rho_b[0])) < 1e-6
        assert np.max(np.abs(wrap_angle(traj.kappa - shape.kappa[0]))) < 1e-6

    def test_route_independence(self, reference_params):
        world = random_world(3, seed=3)
        shape0 = extract_shape(world)
        full = simulate(world, reference_params, T=5.0, dt=1e-3,
                        record_every=10)
        sh = integrate_shape(shape0, reference_params, T=5.0, dt=1e-3,
                             record_every=10)
        rho, kappa, theta, rho_b, kappa_b = extract_shape_trajectory(full)
        assert np.max(np.abs(rho - sh.rho)) < 1e-4
        assert np.max(np.abs(wrap_angle(kappa - sh.kappa))) < 1e-4
        assert np.max(np.abs(wrap_angle(theta - sh.theta))) < 1e-4
        assert np.max(np.abs(rho_b - sh.rho_b)) < 1e-4
        assert np.max(np.abs(wrap_angle(kappa_b - sh.kappa_b))) < 1e-4

    def test_residuals_stay_small(self, reference_params):
        traj = integrate_shape(_valid_shape(3), reference_params, T=5.0,
                               dt=1e-3, record_every=10)
        assert np.max(np.abs(traj.residuals)) < 1e-6

    def test_collision_abort(self, reference_params):
        shape = equilibrium_shape(reference_equilibrium(reference_params),
                                  reference_params)
        shape.rho_b[:] = 2e-6  # just above the floor, closing inward fails
        shape.kappa_b[:] = 0.0  # rho_b' = -1
        with pytest.raises(CollisionError) as err:
            integrate_shape(shape, reference_params, T=1.0, dt=1e-3)
        assert err.value.t is not None and 0.0 < err.value.t < 1e-2

    def test_cyclic_relabelling_symmetry(self, reference_params):
        # A1-A4 hold, so rotating agent labels maps trajectories to
        # trajectories
        shape = _valid_shape(7)
        rolled = ShapeState(*(np.roll(getattr(shape, f), 1) for f in
                              ("rho", "kappa", "theta", "rho_b", "kappa_b")))
        traj = integrate_shape(shape, reference_params, T=1.0, dt=1e-3,
                               record_every=1000)
        traj_rolled = integrate_shape(rolled, reference_params, T=1.0,
                                      dt=1e-3, record_every=1000)
        for f in ("rho", "kappa", "theta", "rho_b", "kappa_b"):
            a = getattr(traj, f)[-1]
            b = getattr(traj_rolled, f)[-1]
            assert np.max(np.abs(np.roll(a, 1) - b)) < 1e-9


def _any_guard(blocks):
    """The range guard as two ``np.any`` checks, chase ranges first: the
    (kind, agent) it names, or None."""
    for kind, col in (("chase", 0), ("beacon", 3)):
        low = blocks[:, col] <= EPS_COL
        if np.any(low):
            return kind, int(np.argmax(low))
    return None


class TestRangeGuard:
    def _assert_decides_as_any(self, blocks):
        n = blocks.shape[0]
        expected = _any_guard(blocks)
        if expected is None:
            _check_ranges(blocks, t=0.5)
            return False
        kind, i = expected
        with pytest.raises(CollisionError) as err:
            _check_ranges(blocks, t=0.5)
        if kind == "chase":
            assert str(err.value).startswith(f"chase range rho_{i + 1} ")
            assert err.value.pair == (i, (i + 1) % n)
        else:
            assert str(err.value).startswith(f"beacon range rho_{i + 1}b ")
            assert err.value.pair == (i, "beacon")
        assert err.value.t == 0.5
        return True

    def test_nan_next_to_collocated_range(self):
        blocks = np.ones((3, 5))
        blocks[:, 0] = [np.nan, 1e-7, 1.0]
        assert self._assert_decides_as_any(blocks)
        blocks[:, 0] = [1.0, np.nan, 1.0]
        blocks[:, 3] = [np.nan, 1.0, EPS_COL]
        assert self._assert_decides_as_any(blocks)
        blocks[:, ::3] = np.nan
        assert not self._assert_decides_as_any(blocks)

    def test_decides_as_any_on_random_ranges(self):
        rng = np.random.default_rng(11)
        pool = [np.nan, 1e-7, EPS_COL, 2e-6, 1.0, 3.0, -np.inf]
        weights = [0.2, 0.03, 0.03, 0.2, 0.3, 0.2, 0.04]
        raised = 0
        for _ in range(400):
            n = int(rng.integers(2, 9))
            blocks = rng.uniform(-np.pi, np.pi, (n, 5))
            blocks[:, ::3] = rng.choice(pool, size=(n, 2), p=weights)
            raised += self._assert_decides_as_any(blocks)
        assert 50 < raised < 350

    def test_shape_derivative_guard(self, reference_params):
        shape = _valid_shape(2)
        shape.rho[:] = [np.nan, 1.0, 1e-7]
        with pytest.raises(CollisionError) as err:
            shape_derivative(shape, reference_params)
        assert err.value.pair == (2, 0)
