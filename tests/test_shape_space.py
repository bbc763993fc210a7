import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import data, floats, integers as ints, lists

from pursuit_lab import (ControlParams, constraint_residuals, extract_shape,
                         integrate_shape, random_world, shape_derivative,
                         simulate)
from pursuit_lab import equilibrium_shape
from pursuit_lab.errors import (AssumptionError, CollisionError,
                                ConstraintDriftError, IntegrationError)
from pursuit_lab.full_space import extract_shape_trajectory
from pursuit_lab.numerics import _scalar_pass, rk4_integrate, rk4_step, \
    wrap_angle
from pursuit_lab.shape_space import (DRIFT_TOL, EPS_COL, ShapeState,
                                     _check_ranges, _field_constants,
                                     _largest_residual, _rates,
                                     _residual_summary, _rewrap_and_check)

from conftest import reference_equilibrium, reference_shape_rates, same_bits


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
        v = blocks.ravel().tolist()
        expected = _any_guard(blocks)
        if expected is None:
            _check_ranges(v, t=0.5)
            return False
        kind, i = expected
        with pytest.raises(CollisionError) as err:
            _check_ranges(v, t=0.5)
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


def _oracle_check_ranges(blocks, t=None):
    """The range guard of the numpy post-step: the first chase range,
    else the first beacon range, at or below the floor."""
    found = _any_guard(blocks)
    if found is None:
        return
    kind, i = found
    n = blocks.shape[0]
    if kind == "chase":
        raise CollisionError(
            f"chase range rho_{i + 1} at or below collocation floor",
            pair=(i, (i + 1) % n), t=t)
    raise CollisionError(
        f"beacon range rho_{i + 1}b at or below collocation floor",
        pair=(i, "beacon"), t=t)


def _oracle_rewrap_and_check(vec, t):
    """The numpy post-step: re-wrap the angle columns, the range guard,
    then the drift gate on ``_residual_summary``."""
    blocks = vec.reshape(-1, 5)
    blocks[:, [1, 2, 4]] = wrap_angle(blocks[:, [1, 2, 4]])
    _oracle_check_ranges(blocks, t=t)
    g0, max_g1, max_g2 = _residual_summary(blocks)
    worst = max(abs(g0), max_g1, max_g2)
    if worst > DRIFT_TOL:
        raise ConstraintDriftError(
            f"constraint residual {worst:.3e} exceeds {DRIFT_TOL:.1e} "
            f"at t = {t:.6g}")
    return vec


def _reference_integrate_shape(shape0, params, T, dt, record_every=1):
    """The shape dynamics through ``rk4_integrate`` on an array state,
    with the oracle field and the numpy post-step: times, samples."""
    n = shape0.n

    def field(vec):
        blocks = vec.reshape(n, 5)
        _oracle_check_ranges(blocks)
        return reference_shape_rates(blocks, params).ravel()

    return rk4_integrate(field, shape0.to_vector(), T, dt, record_every,
                         _oracle_rewrap_and_check)


def _outcome(run):
    """The error a run raises, as (type, message, pair, t), or None."""
    try:
        run()
    except (CollisionError, ConstraintDriftError) as err:
        return (type(err).__name__, str(err), getattr(err, "pair", None),
                getattr(err, "t", None))
    return None


class TestScalarFieldMatchesNumpyOracle:
    """The shape field runs in scalar math over agents on a list state;
    ``reference_shape_rates`` in conftest is its numpy oracle, bit for
    bit (libm and numpy trig agree on the build)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=ints(2, 10), mu=floats(0.1, 5.0), lam=floats(0.01, 0.99),
           alpha0=floats(-np.pi, np.pi), draw=data())
    def test_rates_bit_for_bit(self, n, mu, lam, alpha0, draw):
        alpha = draw.draw(lists(floats(-np.pi, np.pi), min_size=n,
                                max_size=n))
        # angles unwrapped, ranges well above the floor
        angles = draw.draw(lists(floats(-4 * np.pi, 4 * np.pi),
                                 min_size=3 * n, max_size=3 * n))
        ranges = draw.draw(lists(floats(0.05, 20.0, exclude_min=True,
                                        exclude_max=True),
                                 min_size=2 * n, max_size=2 * n))
        blocks = np.empty((n, 5))
        blocks[:, [1, 2, 4]] = np.reshape(angles, (n, 3))
        blocks[:, ::3] = np.reshape(ranges, (n, 2))
        params = ControlParams.homogeneous(n, mu=mu, lam=lam, alpha=alpha,
                                           alpha0=alpha0)
        shape = ShapeState.from_vector(blocks.ravel(), n)
        assert same_bits(shape_derivative(shape, params).to_vector(),
                         reference_shape_rates(blocks, params).ravel())

    def test_infinite_angle_follows_ieee(self, reference_params):
        # math.sin(inf) raises; the pass reruns on numpy scalars and gives
        # the oracle's NaNs, which a stage gate then names by index
        shape = _valid_shape(1)
        shape.theta[2] = np.inf
        blocks = shape.to_blocks()
        with np.errstate(invalid="ignore"):
            rates = shape_derivative(shape, reference_params).to_vector()
            expected = reference_shape_rates(blocks, reference_params)
        nan = np.isnan(rates)
        assert np.array_equal(nan, np.isnan(expected.ravel()))
        assert same_bits(rates[~nan], expected.ravel()[~nan])

        consts = _field_constants(reference_params)
        with np.errstate(invalid="ignore"), pytest.raises(
                IntegrationError) as got:
            rk4_step(lambda v: _scalar_pass(_rates, v, *consts),
                     blocks.ravel().tolist(), 1e-3)
        with np.errstate(invalid="ignore"), pytest.raises(
                IntegrationError) as want:
            rk4_step(lambda vec: reference_shape_rates(
                vec.reshape(3, 5), reference_params).ravel(),
                blocks.ravel(), 1e-3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n,seed,spread", [
        (2, 0, 0.0), (3, 3, 0.0), (3, 5, 0.4), (5, 1, 0.3), (10, 2, 0.2)])
    def test_run_bit_for_bit(self, n, seed, spread):
        rng = np.random.default_rng(seed)
        params = ControlParams.homogeneous(
            n, mu=1.3, lam=0.4,
            alpha=np.pi / 6 + spread * rng.uniform(-1.0, 1.0, n),
            alpha0=np.pi / 4)
        shape0 = extract_shape(random_world(n, seed=seed))
        traj = integrate_shape(shape0, params, T=1.0, dt=1e-3,
                               record_every=7)
        times, samples = _reference_integrate_shape(shape0, params, T=1.0,
                                                    dt=1e-3, record_every=7)
        assert same_bits(traj.t, times)
        stacked = np.stack([traj.rho, traj.kappa, traj.theta, traj.rho_b,
                            traj.kappa_b], axis=-1)
        assert same_bits(stacked.reshape(len(times), -1), samples)
        assert same_bits(traj.residuals,
                         _residual_summary(samples.reshape(-1, n, 5)))

    @pytest.mark.parametrize("seed,dt,t", [(0, 0.05, 6.6), (2, 0.05, 1.9),
                                           (3, 0.1, 1.3)])
    def test_drift_raises_at_the_same_step(self, reference_params, seed, dt,
                                           t):
        shape0 = extract_shape(random_world(3, seed=seed))
        got = _outcome(lambda: integrate_shape(
            shape0, reference_params, T=round(200 * dt, 10), dt=dt))
        want = _outcome(lambda: _reference_integrate_shape(
            shape0, reference_params, T=round(200 * dt, 10), dt=dt))
        assert got == want
        assert got[0] == "ConstraintDriftError"
        assert got[1].endswith(f"at t = {t:.6g}")

    def test_collisions_raise_at_the_same_step(self, reference_params):
        eq_shape = equilibrium_shape(reference_equilibrium(reference_params),
                                     reference_params)
        beacon = ShapeState(*(a.copy() for a in (
            eq_shape.rho, eq_shape.kappa, eq_shape.theta, eq_shape.rho_b,
            eq_shape.kappa_b)))
        beacon.rho_b[:] = 2e-6  # rho_b' = -1 at kappa_b = 0
        beacon.kappa_b[:] = 0.0
        chase = _valid_shape(4)
        chase.rho[1] = 3e-6     # rho_2' = -2 at kappa_2 = theta_3 = 0
        chase.kappa[1] = 0.0
        chase.theta[2] = 0.0
        for shape0, pair in ((beacon, (0, "beacon")), (chase, (1, 2))):
            got = _outcome(lambda: integrate_shape(
                shape0, reference_params, T=1.0, dt=1e-3))
            want = _outcome(lambda: _reference_integrate_shape(
                shape0, reference_params, T=1.0, dt=1e-3))
            assert got == want
            assert got[0] == "CollisionError" and got[2] == pair

    def test_drift_gate_decides_as_residuals_at_the_threshold(
            self, reference_params):
        # start from a consistent shape and push g1 of agent 1 (through
        # rho_1) or g0 (through kappa_1) across DRIFT_TOL in steps of
        # about one ulp of the residual
        base = _valid_shape(6).to_vector()
        # ulp-sized steps across DRIFT_TOL, and steps across the screen's
        # 1e-9 margin below it
        offsets = ([j * 2e-18 for j in range(-40, 41)]
                   + [j * 5e-10 for j in range(-6, 7)])
        raised = 0
        for entry in (0, 1):
            for offset in offsets:
                vec = base.copy()
                vec[entry] += DRIFT_TOL + offset * (1 + 100 * entry)
                got = _outcome(lambda: _rewrap_and_check(vec.tolist(),
                                                         0.25))
                want = _outcome(lambda: _oracle_rewrap_and_check(vec.copy(),
                                                                 0.25))
                assert got == want
                raised += got is not None
        assert 0 < raised < 2 * len(offsets)

    def test_screen_tracks_residuals(self):
        # the screen's largest residual is within roundoff of the numpy
        # one, far inside the 1e-9 margin below DRIFT_TOL: on random
        # blocks, and on consistent shapes, where g0's sum order shows
        rng = np.random.default_rng(4)
        states = []
        for seed in range(150):
            n = int(rng.integers(2, 51))
            blocks = rng.uniform(-np.pi, np.pi, (n, 5))
            blocks[:, ::3] = rng.uniform(0.05, 20.0, (n, 2))
            states.append(blocks)
            states.append(_valid_shape(seed, n).to_blocks())
        for blocks in states:
            g0, max_g1, max_g2 = _residual_summary(blocks)
            numpy_worst = max(abs(g0), max_g1, max_g2)
            assert abs(_largest_residual(blocks.ravel().tolist())
                       - numpy_worst) <= 1e-12 * (1.0 + numpy_worst)


class TestShapeTracedSteps:
    def test_each_step_is_one_rk4_step_of_four_evaluations(
            self, traced_step_counts, reference_params):
        # a tracer wraps numerics.rk4_step: every step and every field
        # evaluation of the run must pass through it
        integrate_shape(_valid_shape(3), reference_params, T=0.05, dt=1e-3)
        assert traced_step_counts == {"steps": 50, "fields": 200}
