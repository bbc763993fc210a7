import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit_lab import (ControlParams, cli, extract_shape, full_space,
                         integrate_shape, numerics, random_world, simulate)
from pursuit_lab import constraint_residuals
from pursuit_lab.equilibria import embed_world
from pursuit_lab.errors import CollisionError, IntegrationError
from pursuit_lab.full_space import (WorldState, _constants, _entries, _law,
                                    _packed, control_profile,
                                    extract_shape_trajectory,
                                    particle_rates)
from pursuit_lab.numerics import _scalar_pass, wrap_angle

from conftest import (reference_controls, reference_equilibrium,
                      reference_rates, reference_simulate, same_bits)


def steering_law_shape(i, shape, params):
    """The steering law of agent i evaluated from scalar shape variables.

    Oracle for the vector form; the two agree to 1e-10 at any valid
    state.
    """
    n = shape.n
    j = (i + 1) % n
    speed_ratio = params.nu[j] / params.nu[i]
    return float(
        params.lam * params.mu_b[i]
        * np.sin(shape.kappa_b[i] - params.alpha0[i])
        + (1.0 - params.lam) * params.mu
        * np.sin(shape.kappa[i] - params.alpha[i])
        + (1.0 - params.lam) / shape.rho[i]
        * (np.sin(shape.kappa[i]) + speed_ratio * np.sin(shape.theta[j])))


def _two_agent_params(lam=0.5, alpha=0.3, alpha0=0.7):
    return ControlParams.homogeneous(2, mu=1.0, lam=lam, alpha=alpha,
                                     alpha0=alpha0)


def _zero_control_world(params):
    """Both bearing deviations vanish and theta_2 = pi + kappa_1, so the
    rotation term cancels too: u_1 = 0 by construction."""
    alpha = params.alpha[0]
    alpha0 = params.alpha0[0]
    rho = 1.7
    r1 = np.array([0.0, 0.0])
    r2 = rho * np.array([np.cos(alpha), np.sin(alpha)])
    beacon = 2.3 * np.array([np.cos(alpha0), np.sin(alpha0)])
    return WorldState.from_polar(np.stack([r1, r2]), [0.0, 0.0],
                                 beacon=beacon)


class TestSteeringLaw:
    def test_vanishing_control(self):
        params = _two_agent_params()
        world = _zero_control_world(params)
        shape = extract_shape(world)
        assert abs(shape.kappa[0] - params.alpha[0]) < 1e-12
        assert abs(shape.kappa_b[0] - params.alpha0[0]) < 1e-12
        assert abs(wrap_angle(shape.theta[1] - np.pi - shape.kappa[0])) \
            < 1e-12
        assert abs(control_profile(world, params)[0]) < 1e-12

    def test_equilibrium_turning_rate(self, reference_params):
        eq = reference_equilibrium(reference_params)
        world = embed_world(eq)
        u = control_profile(world, reference_params)[0]
        assert abs(u - 1.20711) < 1e-4
        assert abs(u - 1.0 / eq.rho_b) < 1e-10  # circling curvature 1/0.82843

    def test_small_lambda_limit_is_pure_pursuit(self):
        world = random_world(2, seed=5)
        near_zero = _two_agent_params(lam=1e-9)
        u = control_profile(world, near_zero)[0]
        # constant-bearing pursuit of agent 2 alone, from the shape
        shape = extract_shape(world)
        pursuit = (near_zero.mu * np.sin(shape.kappa[0] - near_zero.alpha[0])
                   + (np.sin(shape.kappa[0]) + np.sin(shape.theta[1]))
                   / shape.rho[0])
        assert abs(u - pursuit) < 1e-6

    def test_vector_and_shape_forms_agree(self):
        rng = np.random.default_rng(9)
        params = ControlParams(
            n=4, mu=1.3, lam=0.4, alpha=rng.uniform(-1, 1, 4),
            alpha0=rng.uniform(-1, 1, 4), mu_b=rng.uniform(0.5, 2.0, 4),
            nu=rng.uniform(0.5, 2.0, 4))
        for seed in range(8):
            world = random_world(4, seed=seed)
            shape = extract_shape(world)
            profile = control_profile(world, params)
            for i in range(4):
                assert abs(profile[i]
                           - steering_law_shape(i, shape, params)) < 1e-10

    def test_collocation_rejected(self):
        params = _two_agent_params()
        world = WorldState.from_polar([[0.0, 0.0], [1e-8, 0.0]], [0.0, 0.0],
                                      beacon=[0.0, 1.0])
        with pytest.raises(CollisionError) as err:
            control_profile(world, params)
        assert err.value.pair == (0, 1)

    def test_negative_zero_dot_product(self):
        # agent 1 heads up with agent 2 and the beacon straight below it:
        # both products of each dot product are -0, and so is the
        # rotation term (both agents move alike), so u_1 is -0
        params = _two_agent_params(alpha=0.0, alpha0=0.0)
        world = WorldState([[0.0, 1.0], [0.0, 0.0]],
                           [[0.0, 1.0], [0.0, 1.0]], beacon=[0.0, -1.0])
        u = control_profile(world, params)
        assert same_bits(u, np.array([-0.0, 0.0]))
        assert same_bits(u, reference_controls(world.positions,
                                               world.headings, world.beacon,
                                               params))
        _, d_headings = _rates(world, params)
        assert same_bits(d_headings, np.array([[0.0, -0.0], [-0.0, 0.0]]))


class TestLeadingAxes:
    def _batch(self, n=5, size=4):
        worlds = [random_world(n, seed=seed) for seed in range(size)]
        return worlds, WorldState(np.stack([w.positions for w in worlds]),
                                  np.stack([w.headings for w in worlds]),
                                  worlds[0].beacon)

    def test_agent_count_of_stacked_world(self):
        world = WorldState(np.zeros((4, 5, 2)), np.zeros((4, 5, 2)),
                           np.zeros(2))
        assert world.n == 5
        assert self._batch(n=3, size=6)[1].n == 3

    def test_batch_rows_match_single_worlds(self):
        rng = np.random.default_rng(3)
        params = ControlParams(
            n=5, mu=1.1, lam=0.3, alpha=rng.uniform(-1, 1, 5),
            alpha0=rng.uniform(-1, 1, 5), mu_b=rng.uniform(0.5, 2.0, 5),
            nu=rng.uniform(0.5, 2.0, 5))
        worlds, batch = self._batch()
        profile = control_profile(batch, params)
        assert profile.shape == (4, 5)
        for b, world in enumerate(worlds):
            assert same_bits(profile[b], control_profile(world, params))

    def test_collision_in_later_member_names_pair(self):
        params = ControlParams.homogeneous(5, alpha=0.2, alpha0=0.4)
        _, batch = self._batch()
        batch.positions[2, 4] = batch.positions[2, 0]
        with pytest.raises(CollisionError) as err:
            control_profile(batch, params)
        assert err.value.pair == (4, 0)
        assert "agents 5 and 1" in str(err.value)

    def test_collision_next_to_nan_member_still_raises(self):
        params = ControlParams.homogeneous(5, alpha=0.2, alpha0=0.4)
        _, batch = self._batch()
        batch.positions[0, 2] = np.nan
        batch.positions[2, 4] = batch.positions[2, 0]
        with pytest.raises(CollisionError) as err:
            control_profile(batch, params)
        assert err.value.pair == (4, 0)

    def test_beacon_collision_in_later_member_names_agent(self):
        params = ControlParams.homogeneous(5, alpha=0.2, alpha0=0.4)
        _, batch = self._batch()
        batch.positions[3, 1] = batch.beacon
        with pytest.raises(CollisionError) as err:
            control_profile(batch, params)
        assert err.value.pair == (1, "beacon")


def _random_case(seed, n):
    """A world away from collocation plus heterogeneous parameters."""
    rng = np.random.default_rng(seed)
    while True:
        world = random_world(n, seed=int(rng.integers(2**32)))
        shape = extract_shape(world)
        if min(shape.rho.min(), shape.rho_b.min()) > 0.2:
            break
    params = ControlParams(
        n=n, mu=float(rng.uniform(0.2, 3.0)),
        lam=float(rng.uniform(0.05, 0.95)), alpha=rng.uniform(-3, 3, n),
        alpha0=rng.uniform(-3, 3, n), mu_b=rng.uniform(0.2, 3.0, n),
        nu=rng.uniform(0.2, 3.0, n))
    return world, params


def _relabelled(world, params, k):
    """The world and parameters with agent i + k renamed agent i."""
    def relabel(a):
        return np.roll(a, -k, axis=0)

    shifted = ControlParams(
        n=params.n, mu=params.mu, lam=params.lam,
        alpha=relabel(params.alpha), alpha0=relabel(params.alpha0),
        mu_b=relabel(params.mu_b), nu=relabel(params.nu))
    return (WorldState(relabel(world.positions), relabel(world.headings),
                       world.beacon), shifted)


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)


class TestLawProperties:
    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           angle=st.floats(-np.pi, np.pi),
           shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    def test_rigid_motion_invariance(self, seed, n, angle, shift):
        world, params = _random_case(seed, n)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        moved = WorldState(world.positions @ rot.T + shift,
                           world.headings @ rot.T,
                           rot @ world.beacon + shift)
        assert np.max(np.abs(control_profile(moved, params)
                             - control_profile(world, params))) < 1e-9

    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           k=st.integers(1, 8))
    def test_cyclic_relabelling_equivariance(self, seed, n, k):
        world, params = _random_case(seed, n)
        moved, shifted = _relabelled(world, params, k)
        assert np.array_equal(control_profile(moved, shifted),
                              np.roll(control_profile(world, params), -k))

    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8),
           k=st.integers(1, 7))
    def test_run_cyclic_relabelling_equivariance(self, seed, n, k):
        # a run of the relabelled world under the relabelled parameters
        # is the relabelled run, bit for bit
        world, params = _random_case(seed, n)
        moved, shifted = _relabelled(world, params, k)
        traj = simulate(world, params, T=1.0, dt=1e-2)
        run = simulate(moved, shifted, T=1.0, dt=1e-2)
        assert same_bits(run.t, traj.t)
        for name in ("positions", "headings", "controls"):
            assert same_bits(getattr(run, name),
                             np.roll(getattr(traj, name), -k, axis=1))


def _off_origin(world, shift):
    """The world translated by shift, beacon included."""
    return WorldState(world.positions + shift, world.headings,
                      world.beacon + shift)


def _outcome(run, *args, **kwargs):
    """A run's result, or the (message, pair, time) of its collision."""
    try:
        return run(*args, **kwargs)
    except CollisionError as err:
        return str(err), err.pair, err.t


class TestLawMatchesOracle:
    """The list-form law, on numpy scalars, on stacked arrays and (in
    ``simulate``) on floats, against the agent-major component law, bit
    for bit, with heterogeneous parameters and the beacon off the
    origin."""

    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           members=st.integers(2, 4))
    def test_controls_and_rates(self, seed, n, shift, members):
        _, params = _random_case(seed, n)
        worlds = [_off_origin(_random_case((seed + k) % 2**32, n)[0], shift)
                  for k in range(members)]
        batch = WorldState(np.stack([w.positions for w in worlds]),
                           np.stack([w.headings for w in worlds]),
                           worlds[0].beacon)
        for w in (worlds[0], batch):
            args = (w.positions, w.headings, w.beacon, params)
            assert same_bits(control_profile(w, params),
                             reference_controls(*args))
            assert same_bits(particle_rates(*args), reference_rates(*args))

    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    def test_run(self, seed, n, shift):
        world, params = _random_case(seed, n)
        world = _off_origin(world, shift)
        run = _outcome(simulate, world, params, T=1.0, dt=1e-2)
        oracle = _outcome(reference_simulate, world, params, T=1.0, dt=1e-2)
        if isinstance(oracle, tuple):
            assert run == oracle
            return
        for name in ("t", "positions", "headings", "controls", "beacon"):
            assert same_bits(getattr(run, name), getattr(oracle, name)), name


_LIST_PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


def _list_state(world, params):
    """The packed state of a world as a list of floats, and the law's
    constants."""
    return (_packed(world.positions, world.headings).tolist(),
            _constants(params, world.beacon))


def _collision(fn, *args):
    """The (message, pair) of the CollisionError ``fn`` raises."""
    with pytest.raises(CollisionError) as err:
        fn(*args)
    return str(err.value), err.value.pair


class TestFloatAndArrayEntries:
    """``_law`` on the array entries of a stacked batch against ``_law``
    on each member's list of floats, bit for bit."""

    @_LIST_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
           members=st.integers(1, 4))
    def test_batch_equals_each_member(self, seed, n, shift, members):
        _, params = _random_case(seed, n)
        worlds = [_off_origin(_random_case((seed + k) % 2**32, n)[0], shift)
                  for k in range(members)]
        packed = np.stack([_packed(w.positions, w.headings) for w in worlds])
        const = _constants(params, worlds[0].beacon)
        for rates in (False, True):
            batch = np.stack(_law(_entries(packed), const, rates), axis=-1)
            each = np.array([_law(row.tolist(), const, rates)
                             for row in packed])
            assert same_bits(batch, each)

    def test_recorded_controls_are_the_law_per_sample(self, monkeypatch):
        # 11 samples in blocks of 4, 4 and 3
        world, params = _random_case(11, 6)
        world = _off_origin(world, (3.0, -2.0))
        monkeypatch.setattr(full_space, "_RECORD_BLOCK", 4)
        run = simulate(world, params, T=0.1, dt=1e-2)
        const = _constants(params, run.beacon)
        per_sample = np.array([
            _law(_packed(p, h).tolist(), const, False)
            for p, h in zip(run.positions, run.headings)])
        assert len(run.t) == 11
        assert same_bits(run.controls, per_sample)


class TestListGuards:
    """The float path of the law and of the heading renormalisation
    decides and fails as the array form does."""

    def test_nan_first_range_is_skipped(self):
        params = ControlParams.homogeneous(4, alpha=0.2, alpha0=0.4)
        world = WorldState([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0], [-1.0, 1.0]],
                           random_world(4, seed=3).headings, [2.0, -1.0])
        world.positions[0, 0] = np.nan
        v, const = _list_state(world, params)
        assert np.isnan(_law(v, const, False)[0])
        with np.errstate(invalid="ignore"):
            oracle = reference_controls(world.positions, world.headings,
                                        world.beacon, params)
        assert same_bits(np.array(_law(v, const, False)), oracle)

    def test_nan_next_to_collocated_range_raises(self):
        params = ControlParams.homogeneous(4, alpha=0.2, alpha0=0.4)
        headings = random_world(4, seed=3).headings
        # the NaN range comes first, and then after the collocated one
        for nan_at, pair in (((0, 0), (1, 2)), ((2, 1), (0, 1))):
            positions = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0],
                                  [-1.0, 1.0]])
            positions[pair[1]] = positions[pair[0]]
            positions[nan_at] = np.nan
            world = WorldState(positions, headings, [2.0, -1.0])
            v, const = _list_state(world, params)
            message = f"agents {pair[0] + 1} and {pair[1] + 1} are collocated"
            assert _collision(_law, v, const, True) == (message, pair)
            with np.errstate(invalid="ignore"):
                assert _collision(reference_controls, world.positions,
                                  world.headings, world.beacon,
                                  params) == (message, pair)

    def test_chase_reported_before_beacon_in_one_evaluation(self):
        params = ControlParams.homogeneous(3, alpha=0.2, alpha0=0.4)
        world = WorldState.from_polar([[1.0, 1.0], [2.0, 0.5], [2.0, 0.5]],
                                      [0.0, 1.0, 2.0], beacon=[1.0, 1.0])
        v, const = _list_state(world, params)
        assert _collision(_law, v, const, False) == (
            "agents 2 and 3 are collocated", (1, 2))

    def test_collision_at_the_last_sample_carries_its_time(self):
        # the beacon sits where agent 1 ends the one step, which no stage
        # evaluates: the recorded controls find it, at t = T
        params = ControlParams.homogeneous(2, mu=1.0, lam=0.5, alpha=0.3,
                                           alpha0=0.5)
        world = WorldState.from_polar(
            [[0.0, 0.0], [3.0, 1.0]], [0.0, 2.0],
            beacon=[0.09999999140746768, -5.058719883856961e-05])
        want = ("agent 1 is collocated with the beacon", (0, "beacon"), 0.1)
        assert _outcome(simulate, world, params, T=0.1, dt=0.1) == want
        assert _outcome(reference_simulate, world, params, T=0.1,
                        dt=0.1) == want

    def test_underflowing_divisor_takes_the_array_outcome(self):
        # nu_1 * rho_1 rounds to 0: a float division raises there, and
        # the numpy-scalar rerun gives the array form's infinities
        params = ControlParams(n=3, mu=1.0, lam=0.5, alpha=0.2, alpha0=0.4,
                               mu_b=1.0, nu=[5e-324, 1.0, 1.0])
        world = WorldState.from_polar([[0.0, 0.0], [0.3, 0.1], [1.0, 1.0]],
                                      [0.1, 1.0, 2.0], beacon=[2.0, -1.0])
        v, const = _list_state(world, params)
        with pytest.raises(ZeroDivisionError):
            _law(v, const, True)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = np.array(_scalar_pass(_law, v, const, True))
            want = np.stack(_law(_entries(np.array([v])), const, True),
                            axis=-1)[0]
            assert same_bits(got, want)
            assert not np.isfinite(want).all()
            bad = int(np.argmin(np.isfinite(want)))
            with pytest.raises(IntegrationError) as err:
                simulate(world, params, T=1e-2, dt=1e-2)
        assert str(err.value) == (f"non-finite derivative entry at index "
                                  f"{bad} (RK4 stage 1)")

    def test_zero_heading_takes_the_array_outcome(self):
        params = ControlParams.homogeneous(3, alpha=0.2, alpha0=0.4)
        world = WorldState([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0]],
                           [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [2.0, -1.0])
        with np.errstate(invalid="ignore"):
            run = simulate(world, params, T=1e-2, dt=1e-2)
            oracle = reference_simulate(world, params, T=1e-2, dt=1e-2)
            for name in ("t", "positions", "headings"):
                assert same_bits(getattr(run, name), getattr(oracle, name))
            assert np.isnan(run.headings[-1, 0]).all()
            # the oracle negates hy where the law negates cos, so only the
            # signs of the NaN controls may differ
            assert np.array_equal(run.controls, oracle.controls,
                                  equal_nan=True)
            with pytest.raises(IntegrationError) as err:
                simulate(world, params, T=2e-2, dt=1e-2)
        assert str(err.value) == ("non-finite derivative entry at index 0 "
                                  "(RK4 stage 1)")

    def test_negative_zero_on_floats(self):
        # the world of TestSteeringLaw.test_negative_zero_dot_product
        params = _two_agent_params(alpha=0.0, alpha0=0.0)
        world = WorldState([[0.0, 1.0], [0.0, 0.0]],
                           [[0.0, 1.0], [0.0, 1.0]], beacon=[0.0, -1.0])
        v, const = _list_state(world, params)
        assert same_bits(np.array(_law(v, const, False)),
                         np.array([-0.0, 0.0]))


def _rates(world, params):
    """World-state rates through the particle-model field."""
    return particle_rates(world.positions, world.headings, world.beacon,
                          params)


class TestWorldDerivative:
    def test_zero_control_is_straight_line(self):
        params = _two_agent_params()
        # mirror-symmetric pair: both agents see vanishing deviations
        world = _zero_control_world(params)
        d_positions, d_headings = _rates(world, params)
        assert np.max(np.abs(d_headings[0])) < 1e-12
        assert np.allclose(d_positions, world.headings, atol=0)

    def test_frame_orthogonality_infinitesimal(self, reference_params):
        world = random_world(3, seed=2)
        _, d_headings = _rates(world, reference_params)
        assert np.max(np.abs(np.sum(d_headings * world.headings,
                                    axis=1))) == 0.0

    def test_equilibrium_distances_frozen(self, reference_params):
        eq = reference_equilibrium(reference_params)
        world = embed_world(eq)
        d_positions, _ = _rates(world, reference_params)
        for i in range(3):
            for j in range(i + 1, 3):
                gap = world.positions[i] - world.positions[j]
                dgap = d_positions[i] - d_positions[j]
                assert abs(gap @ dgap) / np.linalg.norm(gap) < 1e-10
            gap = world.positions[i] - world.beacon
            assert abs(gap @ d_positions[i]) / np.linalg.norm(gap) \
                < 1e-10


class TestExtractShape:
    def test_neighbor_dead_ahead(self):
        world = WorldState.from_polar([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0],
                                      beacon=[5.0, 5.0])
        shape = extract_shape(world)
        assert abs(shape.rho[0] - 1.0) < 1e-15
        assert abs(shape.kappa[0]) < 1e-15

    def test_beacon_directly_left(self):
        world = WorldState.from_polar([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0],
                                      beacon=[0.0, 1.0])
        shape = extract_shape(world)
        assert abs(shape.kappa_b[0] - np.pi / 2) < 1e-15

    def test_constraints_are_extraction_identities(self):
        for seed in range(10):
            world = random_world(5, seed=seed)
            res = constraint_residuals(extract_shape(world))
            assert res.max_abs() < 1e-12


class TestSimulate:
    def test_frame_and_speed_invariants(self, reference_params):
        traj = simulate(random_world(3, seed=6), reference_params, T=2.0,
                        dt=1e-3, record_every=10)
        norms = np.hypot(traj.headings[..., 0], traj.headings[..., 1])
        assert np.max(np.abs(norms - 1.0)) < 1e-6
        # renormalization makes |r'| = nu exact at every sample
        assert np.max(np.abs(norms - 1.0)) < 1e-15

    def test_beacon_bitwise_constant(self, reference_params):
        world = random_world(3, seed=6)
        before = world.beacon.copy()
        traj = simulate(world, reference_params, T=1.0, dt=1e-2)
        assert np.array_equal(traj.beacon, before)

    def test_equilibrium_is_invariant(self, reference_params):
        eq = reference_equilibrium(reference_params)
        traj = simulate(embed_world(eq), reference_params, T=10.0, dt=1e-3,
                        record_every=100)
        rho, _, _, rho_b, _ = extract_shape_trajectory(traj)
        assert np.max(np.abs(rho - eq.rho[0])) < 1e-5
        assert np.max(np.abs(rho_b - eq.rho_b)) < 1e-5

    def test_collision_abort_carries_time_and_pair(self):
        # negligible gains leave two head-on agents on straight paths;
        # they meet at the origin at t = 1
        params = ControlParams.homogeneous(2, mu=1e-9, lam=0.5, alpha=0.0,
                                           alpha0=0.0)
        world = WorldState.from_polar([[-1.0, 0.0], [1.0, 0.0]],
                                      [0.0, np.pi], beacon=[0.0, 3.0])
        with pytest.raises(CollisionError) as err:
            simulate(world, params, T=3.0, dt=1e-3)
        assert err.value.t is not None and 0.9 < err.value.t < 1.1
        assert err.value.pair is not None

    def test_recorded_controls_in_blocks(self, monkeypatch):
        world, params = _random_case(4, 5)
        oracle = reference_simulate(world, params, T=0.1, dt=1e-2)
        monkeypatch.setattr(full_space, "_RECORD_BLOCK", 3)
        run = simulate(world, params, T=0.1, dt=1e-2)
        assert same_bits(run.controls, oracle.controls)

    def test_chase_collision_reported_before_beacon(self):
        # agent 1 sits on the beacon and agents 2 and 3 on each other:
        # the chase pair is reported, at the first step
        params = ControlParams.homogeneous(3, alpha=0.2, alpha0=0.4)
        world = WorldState.from_polar([[1.0, 1.0], [2.0, 0.5], [2.0, 0.5]],
                                      [0.0, 1.0, 2.0], beacon=[1.0, 1.0])
        with pytest.raises(CollisionError) as err:
            simulate(world, params, T=0.1, dt=1e-2)
        assert err.value.pair == (1, 2)
        assert str(err.value) == "agents 2 and 3 are collocated"
        assert err.value.t == 1e-2

    def test_each_step_is_one_rk4_step_of_four_evaluations(
            self, monkeypatch, reference_params):
        # per-step tracing wraps numerics.rk4_step and the field it is
        # given; a step inlined into the driver would hide both
        counts = {"steps": 0, "fields": 0}
        kinds = set()
        step = numerics.rk4_step

        def counting_step(field, state, dt):
            counts["steps"] += 1

            def counting_field(vec):
                counts["fields"] += 1
                kinds.add(type(vec))
                return field(vec)
            return step(counting_field, state, dt)

        monkeypatch.setattr(numerics, "rk4_step", counting_step)
        simulate(random_world(3, seed=1), reference_params, T=0.07, dt=1e-2)
        assert counts == {"steps": 7, "fields": 28}
        # the state steps as a list of floats
        assert kinds == {list}

    def test_trajectory_csv_layout(self, tmp_path):
        config = __file__.rsplit("/", 2)[0] + "/configs/reference.cfg"
        cfg = cli.parse_config(config, "simulate",
                               overrides=["initial=random", "t=0.1",
                                          "dt=1e-2"],
                               out_dir=tmp_path, seed=1)
        cli.run(cfg)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header.split(",") == [
            "t", "r1_x", "r1_y", "heading_1", "r2_x", "r2_y", "heading_2",
            "r3_x", "r3_y", "heading_3", "beacon_x", "beacon_y",
            "u_1", "u_2", "u_3"]
        assert any(ln.startswith("# seed = 1") for ln in lines)


_RUN_PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)


class TestRunProperties:
    @_RUN_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           angle=st.floats(-np.pi, np.pi),
           shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
    def test_rigid_motion_leaves_shape_run_unchanged(self, seed, n, angle,
                                                     shift):
        world, params = _random_case(seed, n)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        moved = WorldState(world.positions @ rot.T + shift,
                           world.headings @ rot.T,
                           rot @ world.beacon + shift)
        run = _outcome(simulate, world, params, T=1.0, dt=1e-2)
        moved_run = _outcome(simulate, moved, params, T=1.0, dt=1e-2)
        if isinstance(run, tuple):
            assert moved_run[1] == run[1]
            return
        rho, kappa, theta, rho_b, kappa_b = extract_shape_trajectory(run)
        got = extract_shape_trajectory(moved_run)
        assert np.max(np.abs(got[0] - rho)) < 1e-9
        assert np.max(np.abs(got[3] - rho_b)) < 1e-9
        for moved_angle, angle_ in zip(got[1:3] + got[4:], (kappa, theta,
                                                            kappa_b)):
            assert np.max(np.abs(wrap_angle(moved_angle - angle_))) < 1e-9

    @_RUN_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
    def test_full_and_shape_routes_agree(self, seed, n):
        # criterion 03's tolerance over random A1-A3 parameters
        world, _ = _random_case(seed, n)
        rng = np.random.default_rng(seed)
        mu = float(rng.uniform(0.2, 3.0))
        params = ControlParams(
            n=n, mu=mu, lam=float(rng.uniform(0.05, 0.95)),
            alpha=rng.uniform(-3, 3, n), alpha0=float(rng.uniform(-3, 3)),
            mu_b=mu, nu=1.0)
        full = simulate(world, params, T=0.5, dt=1e-3, record_every=10)
        shape = integrate_shape(extract_shape(world), params, T=0.5,
                                dt=1e-3, record_every=10)
        rho, kappa, theta, rho_b, kappa_b = extract_shape_trajectory(full)
        assert np.max(np.abs(rho - shape.rho)) < 1e-4
        assert np.max(np.abs(rho_b - shape.rho_b)) < 1e-4
        for got, want in [(kappa, shape.kappa), (theta, shape.theta),
                          (kappa_b, shape.kappa_b)]:
            assert np.max(np.abs(wrap_angle(got - want))) < 1e-4
