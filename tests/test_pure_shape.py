import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import data, floats, integers as ints, lists

from pursuit_lab import (ControlParams, extract_shape, integrate_shape,
                         pure_shape, random_world, shape_derivative)
from pursuit_lab import (asymptote_prediction, equilibrium_shape,
                         invariant_region_check, lift, manifold_spec,
                         pure_shape_derivative, reduced_derivative,
                         reduced_equilibrium, to_pure_shape)
from pursuit_lab.errors import (AssumptionError, CollisionError,
                                InconclusiveError, PreconditionError,
                                UndefinedManifoldError)
from pursuit_lab.numerics import (_scalar_pass, _wrap_source, cyclic_neighbors,
                                  wrap_angle)
from pursuit_lab.pure_shape import (A5_GUARD_TOL, GridSpec, PureShapeState,
                                    a5_guard_values, _reduced_rates,
                                    _constants, _require_manifold,
                                    integrate_pure_shape,
                                    integrate_reduced, phase_portrait,
                                    reduced_params)
from pursuit_lab.shape_space import EPS_COL

from conftest import (FixedDraws, reference_a5_guards,
                      reference_equilibrium, reference_pure_rates,
                      reference_rk4_integrate, same_bits)


def pure_constraint_residuals(state):
    """Residuals of the transformed cycle-closure and consistency
    constraints: the closure angle (mod 2*pi) and the per-agent real and
    imaginary consistency defects in the length ratios."""
    closure = float(wrap_angle(np.sum(np.pi - state.psi)))
    nxt, _ = cyclic_neighbors(state.n)
    phi_next = state.phi_b[nxt]
    psi_next = state.psi[nxt]
    rho_tb_next = state.rho_tb[nxt]
    turn = phi_next - psi_next
    g1 = (state.rho_t - state.rho_tb * np.cos(state.phi_b)
          - rho_tb_next * np.cos(turn))
    g2 = state.rho_tb * np.sin(state.phi_b) + rho_tb_next * np.sin(turn)
    return closure, g1, g2


def _reduced_rho_rate_cos_form(kappa1, kpn):
    """The difference-of-cosines form of the reduced rho1 rate."""
    return -math.cos(kappa1) + math.cos(kappa1 - 2.0 * kpn)


def _grid_rates_numpy(params, k, grid):
    """The reduced field on a portrait grid in numpy array form (the
    former grid formula of phase_portrait), as a test oracle."""
    mu, lam = params.mu, params.lam
    alpha, alpha0 = params.alpha[0], params.alpha0[0]
    kpn = k * np.pi / params.n
    kappas = np.linspace(grid.kappa_min, grid.kappa_max, grid.kappa_samples)
    rhos = np.linspace(grid.rho_min, grid.rho_max, grid.rho_samples)
    kk, rr = np.meshgrid(kappas, rhos, indexing="ij")
    d_kappa = (-mu * ((1.0 - lam) * np.sin(kk - alpha)
                      + lam * np.cos(kk - kpn - alpha0))
               + 2.0 * lam / rr * np.cos(kk - kpn) * np.sin(kpn))
    d_rho = 2.0 * np.sin(kk - kpn) * np.sin(kpn) * np.ones_like(rr)
    return kk, rr, d_kappa, d_rho


def _mp_reduced_rates(kappa1, rho1, mu, lam, alpha, alpha0, kpn):
    """``_reduced_rates`` transcribed to mpmath."""
    return (-mu * ((1 - lam) * mpmath.sin(kappa1 - alpha)
                   + lam * mpmath.cos(kappa1 - kpn - alpha0))
            + 2 * lam / rho1 * mpmath.cos(kappa1 - kpn) * mpmath.sin(kpn),
            2 * mpmath.sin(kappa1 - kpn) * mpmath.sin(kpn))


def _linearized_tag(consts, kappa1, rho1):
    """Reference tag: stability from the 2x2 Jacobian (trace/determinant
    signs) of the reduced field by central differences with h = 1e-6,
    with the constants of ``_require_manifold``.  The differences run in
    mpmath at 50 digits on the float constants and point taken exactly:
    in floats they are about 1e-10 off, which misreads a trace just
    outside the 1e-9 marginal band."""
    h = 1e-6
    if not rho1 - h > 0.0:
        raise CollisionError("reduced scale rho1 reached zero", pair=(0, 1))
    with mpmath.workdps(50):
        consts = [mpmath.mpf(float(c)) for c in consts]
        ka, rh, step = mpmath.mpf(kappa1), mpmath.mpf(rho1), mpmath.mpf(h)

        def f(ka, rh):
            return _mp_reduced_rates(ka, rh, *consts)

        (p11, p21), (m11, m21) = f(ka + step, rh), f(ka - step, rh)
        (p12, p22), (m12, m22) = f(ka, rh + step), f(ka, rh - step)
        j11, j21 = (p11 - m11) / (2 * step), (p21 - m21) / (2 * step)
        j12, j22 = (p12 - m12) / (2 * step), (p22 - m22) / (2 * step)
        trace = j11 + j22
        det = j11 * j22 - j12 * j21
        if abs(trace) < 1e-9 or abs(det) < 1e-9:
            return False, "marginal"
        stable = trace < 0 and det > 0
    return stable, "stable" if stable else "unstable"


class TestChangeOfVariables:
    def test_equilibrium_collapses_to_units(self, reference_params):
        shape = equilibrium_shape(reference_equilibrium(reference_params),
                                  reference_params)
        st = to_pure_shape(shape)
        assert np.max(np.abs(st.kappa_t)) < 1e-15
        assert np.max(np.abs(st.rho_t - 1.0)) < 1e-15
        # kappa = pi/3, theta = 2pi/3, kappa_b = pi/2
        assert np.max(np.abs(st.phi_b - np.pi / 6)) < 1e-12
        assert np.max(np.abs(st.psi - np.pi / 3)) < 1e-12

    def test_scale_invariance(self, reference_params):
        world = random_world(3, seed=8)
        st = to_pure_shape(extract_shape(world))
        world.positions = world.positions * 3.0
        world.beacon = world.beacon * 3.0
        st3 = to_pure_shape(extract_shape(world))
        assert abs(st3.rho1 - 3.0 * st.rho1) < 1e-12
        assert abs(st3.kappa1 - st.kappa1) < 1e-12
        for f in ("kappa_t", "psi", "phi_b", "rho_t", "rho_tb"):
            assert np.max(np.abs(getattr(st3, f) - getattr(st, f))) < 1e-12

    def test_transformed_constraints_inherited(self):
        for seed in range(6):
            st = to_pure_shape(extract_shape(random_world(4, seed=seed)))
            closure, g1, g2 = pure_constraint_residuals(st)
            assert abs(closure) < 1e-10
            assert np.max(np.abs(g1)) < 1e-10
            assert np.max(np.abs(g2)) < 1e-10


class TestTransformedDynamics:
    def test_chain_rule_oracle(self, reference_params):
        # derivative of the change of variables along the shape flow
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            world = random_world(3, seed=seed)
            shape = extract_shape(world)
            st = to_pure_shape(shape)
            rates = pure_shape_derivative(st, reference_params)
            sr = shape_derivative(shape, reference_params)
            expected = {
                "kappa1": sr.kappa[0],
                "rho1": sr.rho[0],
                "kappa_t": sr.kappa - np.roll(sr.kappa, -1),
                "psi": sr.theta - sr.kappa,
                "phi_b": sr.kappa_b - sr.kappa,
                "rho_t": (sr.rho - st.rho_t * sr.rho[0]) / st.rho1,
                "rho_tb": (sr.rho_b - st.rho_tb * sr.rho[0]) / st.rho1,
            }
            for name, want in expected.items():
                assert np.max(np.abs(np.asarray(getattr(rates, name))
                                     - want)) < 1e-9, name
            checked += 1

    def test_manifold_freezes_pure_shape(self, reference_params):
        spec = manifold_spec(3, 1)
        st, _ = lift(spec, kappa1=0.7, rho1=1.2)
        rates = pure_shape_derivative(st, reference_params)
        for f in ("kappa_t", "psi", "phi_b", "rho_t", "rho_tb"):
            assert np.max(np.abs(getattr(rates, f))) < 1e-14

    def test_first_ratio_rate_identically_zero(self, reference_params):
        st = to_pure_shape(extract_shape(random_world(3, seed=5)))
        rates = pure_shape_derivative(st, reference_params)
        assert rates.rho_t[0] == 0.0

    def test_requires_a4(self):
        params = ControlParams.homogeneous(
            3, mu=1.0, lam=0.5, alpha=[0.5, 0.6, 0.5], alpha0=np.pi / 4)
        st = to_pure_shape(extract_shape(random_world(3, seed=5)))
        with pytest.raises(AssumptionError, match="A4"):
            pure_shape_derivative(st, params)


def _oracle_rates(state, params):
    return reference_pure_rates(state.to_vector(), state.n, params.mu,
                                params.lam, params.alpha[0],
                                params.alpha0[0])


def _oracle_guards(state):
    return reference_a5_guards(state.kappa1, state.kappa_t, state.psi)


def _reference_integrate_pure_shape(state0, params, T, dt, record_every=1):
    """The transformed dynamics through ``reference_rk4_integrate`` with
    the oracle field and the post-step of ``integrate_pure_shape``
    (re-wrap, range floors, A5 flags) over the oracle guards: times,
    samples, flags."""
    n = state0.n
    consts = (params.mu, params.lam, params.alpha[0], params.alpha0[0])

    def field(vec):
        if vec[1] <= EPS_COL:
            raise CollisionError("rho_1 at or below collocation floor",
                                 pair=(0, 1))
        return reference_pure_rates(vec, n, *consts)

    flags = []

    def rewrap_and_guard(vec, t):
        vec[0] = wrap_angle(vec[0])
        vec[2:2 + 3 * n] = wrap_angle(vec[2:2 + 3 * n])
        if (vec[1] <= EPS_COL
                or np.fmin.reduce(vec[2 + 3 * n:] * vec[1]) <= EPS_COL):
            raise CollisionError("a range reached the collocation floor",
                                 t=t)
        guards = reference_a5_guards(vec[0], vec[2:2 + n],
                                     vec[2 + n:2 + 2 * n])
        if min(guards) < A5_GUARD_TOL:
            flags.append((t, guards))
        return vec

    times, rows = reference_rk4_integrate(field, state0.to_vector(), T, dt,
                                          record_every, rewrap_and_guard)
    return times, rows, flags


# the angles and ratios of an n = 25 state, drawn within the strategies'
# bounds
_RNG_25 = np.random.default_rng(2025)
_DRAWS_25 = FixedDraws(_RNG_25.uniform(-4 * np.pi, 4 * np.pi, 75).tolist(),
                       _RNG_25.uniform(0.05, 20.0, 50).tolist())


class TestScalarFieldMatchesNumpyOracle:
    """The transformed field and the A5 guard run in scalar math over
    agents; the numpy array forms in conftest are their oracles, bit for
    bit (libm and numpy trig agree on the build)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=ints(2, 12), mu=floats(0.1, 5.0), lam=floats(0.01, 0.99),
           alpha=floats(-np.pi, np.pi), alpha0=floats(-np.pi, np.pi),
           kappa1=floats(-4 * np.pi, 4 * np.pi),
           rho1=floats(0.05, 20.0, exclude_min=True, exclude_max=True),
           draw=data())
    @example(n=25, mu=1.7, lam=0.35, alpha=0.6, alpha0=-2.2, kappa1=5.1,
             rho1=1.5, draw=_DRAWS_25)
    def test_rates_and_guards_bit_for_bit(self, n, mu, lam, alpha, alpha0,
                                          kappa1, rho1, draw):
        # the half-angle forms are only 4*pi-periodic: angles unwrapped
        angles = draw.draw(lists(floats(-4 * np.pi, 4 * np.pi),
                                 min_size=3 * n, max_size=3 * n))
        ratios = draw.draw(lists(floats(0.05, 20.0, exclude_min=True,
                                        exclude_max=True),
                                 min_size=2 * n, max_size=2 * n))
        state = PureShapeState.from_vector(
            np.array([kappa1, rho1] + angles + ratios), n)
        params = ControlParams.homogeneous(n, mu=mu, lam=lam, alpha=alpha,
                                           alpha0=alpha0)
        assert same_bits(pure_shape_derivative(state, params).to_vector(),
                         _oracle_rates(state, params))
        assert same_bits(np.array(a5_guard_values(state)),
                         np.array(_oracle_guards(state)))

    @pytest.mark.parametrize("offset", [0.0, 1e-2])
    def test_fig5_run_bit_for_bit(self, spiral_params, offset):
        # the fig5 start on M_2, and the same start moved off the manifold
        st, _ = lift(manifold_spec(3, 2), kappa1=2.894, rho1=1.0)
        vec = st.to_vector()
        vec[2:] += offset * np.sin(np.arange(vec.size - 2))
        state0 = PureShapeState.from_vector(vec, 3)
        traj = integrate_pure_shape(state0, spiral_params, T=1.0, dt=2e-3)
        times, rows, flags = _reference_integrate_pure_shape(
            state0, spiral_params, T=1.0, dt=2e-3)
        assert same_bits(traj.t, times)
        assert same_bits(traj.states, rows)
        assert traj.a5_flags == flags

    def test_last_agent_negative_zero_reads_positive(self,
                                                     reference_params):
        # 2*kappa1 + kappa~_n is -0; kappa_n+ adds 2 * 0.0 and reads +0,
        # which leaves d phi_b of agent n at -0 and d psi of agent n at -0
        z = np.full(3, -0.0)
        st = PureShapeState(-0.0, 1.0, z.copy(), z.copy(), z.copy(),
                            np.ones(3), np.ones(3))
        rates = pure_shape_derivative(st, reference_params)
        assert same_bits(rates.to_vector(),
                         _oracle_rates(st, reference_params))
        assert np.array_equal(np.signbit(rates.phi_b),
                              [False, False, True])
        assert np.array_equal(np.signbit(rates.psi), [False, False, True])

    def test_guard_nan_propagates(self):
        # psi of agent 3 enters agent 2's half-angles: the NaN sits past
        # the first agent, where Python's min would skip it
        st, _ = lift(manifold_spec(4, 1), kappa1=0.3, rho1=1.0)
        st.psi[2] = np.nan
        assert all(math.isnan(g) for g in a5_guard_values(st))
        assert all(math.isnan(g) for g in _oracle_guards(st))

    def test_zero_divisor_and_infinity_follow_ieee(self, reference_params):
        # a zero ratio divides by zero and an infinite angle has no sine:
        # the results are the oracle's infinities and NaNs (a NaN's sign
        # and payload are the hardware's), not a Python error
        def same_or_both_nan(a, b):
            nan = np.isnan(a)
            return (np.array_equal(nan, np.isnan(b))
                    and same_bits(a[~nan], b[~nan]))

        st, _ = lift(manifold_spec(3, 1), kappa1=0.3, rho1=1.0)
        st.rho_tb[1] = 0.0
        st.rho_t[2] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = pure_shape_derivative(st, reference_params).to_vector()
            assert same_or_both_nan(rates, _oracle_rates(st, reference_params))
            assert np.isinf(rates).any()
            st.kappa_t[0] = np.inf
            assert same_or_both_nan(
                pure_shape_derivative(st, reference_params).to_vector(),
                _oracle_rates(st, reference_params))
            assert same_or_both_nan(np.array(a5_guard_values(st)),
                                    np.array(_oracle_guards(st)))

    def test_scalar_wrap_equals_wrap_angle(self):
        # the post-step re-wraps with Python's float %, which must round
        # as np.mod does, boundary and far values included
        rng = np.random.default_rng(8)
        pi = np.pi
        angles = np.concatenate([
            [0.0, -0.0, pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 1e6,
             -1e6, 1e300, -1e300, 5e-324, -5e-324,
             np.nextafter(pi, 0.0), np.nextafter(pi, 4.0),
             np.nextafter(-pi, 0.0), np.nextafter(-pi, -4.0)],
            rng.uniform(-4 * pi, 4 * pi, 100_000),
            rng.uniform(-1e6, 1e6, 1_000)])
        wrap = compile(_wrap_source("a"), "<wrap>", "eval")
        namespace = pure_shape._kernel(3)
        assert same_bits(np.array([eval(wrap, namespace, {"a": a})
                                   for a in angles.tolist()]),
                         wrap_angle(angles))


class TestPureShapeTracedSteps:
    # a tracer wraps numerics.rk4_step: every step and every field
    # evaluation of a run must pass through it
    def test_each_step_and_field_call_goes_through_numerics(
            self, traced_step_counts, spiral_params):
        st, _ = lift(manifold_spec(3, 2), kappa1=2.894, rho1=1.0)
        integrate_pure_shape(st, spiral_params, T=0.05, dt=1e-3)
        assert traced_step_counts == {"steps": 50, "fields": 200}

    def test_each_reduced_step_is_one_call_of_four_evaluations(
            self, traced_step_counts, spiral_params):
        integrate_reduced(2.894, 1.0, spiral_params, 2, T=0.5, dt=1e-2)
        assert traced_step_counts == {"steps": 50, "fields": 200}


def test_reduced_run_equals_array_state_run(spiral_params):
    # the reduced state steps as a list of floats; the same field on an
    # array state, with the constants as _require_manifold gives them,
    # yields the same bits
    consts = _require_manifold(spiral_params, 2)
    times, rows = reference_rk4_integrate(
        lambda y: np.array(_reduced_rates(y[0], y[1], *consts)),
        np.array([2.894, 1.0]), 20.0, 1e-2, 3)
    t, kk, rr = integrate_reduced(2.894, 1.0, spiral_params, 2, T=20.0,
                                  dt=1e-2, record_every=3)
    assert same_bits(t, times)
    assert same_bits(kk, rows[:, 0]) and same_bits(rr, rows[:, 1])


class TestManifoldSpec:
    def test_three_agents_k2(self):
        spec = manifold_spec(3, 2)
        assert abs(spec.psi_const - (-np.pi / 3)) < 1e-15
        assert abs(spec.phi_const - (-np.pi / 6)) < 1e-15
        assert abs(spec.rho_tb_const - 0.57735) < 1e-5

    def test_symmetric_case(self):
        spec = manifold_spec(4, 2)
        assert spec.psi_const == 0.0
        assert spec.phi_const == 0.0
        assert abs(spec.rho_tb_const - 0.5) < 1e-15

    def test_invalid_indices(self):
        with pytest.raises(UndefinedManifoldError):
            manifold_spec(3, 0)
        with pytest.raises(UndefinedManifoldError):
            manifold_spec(3, 3)

    def test_lifted_states_satisfy_transformed_constraints(self):
        for n, k in [(3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]:
            st, _ = lift(manifold_spec(n, k), kappa1=0.3, rho1=2.0)
            closure, g1, g2 = pure_constraint_residuals(st)
            assert abs(closure) < 1e-10
            assert np.max(np.abs(g1)) < 1e-10
            assert np.max(np.abs(g2)) < 1e-10


class TestLift:
    def test_roundtrip_through_world(self):
        for n, k in [(3, 1), (3, 2), (5, 2)]:
            spec = manifold_spec(n, k)
            st, world = lift(spec, kappa1=1.1, rho1=0.8)
            st2 = to_pure_shape(extract_shape(world))
            assert abs(wrap_angle(st2.kappa1 - st.kappa1)) < 1e-9
            assert abs(st2.rho1 - st.rho1) < 1e-9
            assert np.max(spec.residuals(st2.to_vector())) < 1e-9

    def test_beacon_distance(self):
        spec = manifold_spec(3, 2)
        _, world = lift(spec, kappa1=0.5, rho1=1.0)
        dists = np.linalg.norm(world.positions - world.beacon, axis=1)
        assert np.max(np.abs(dists - 0.57735)) < 1e-5

    def test_shape_space_integration_stays_on_manifold(self,
                                                       reference_params):
        # full 5n shape dynamics route, not the transformed one
        spec = manifold_spec(3, 1)
        _, world = lift(spec, kappa1=np.pi / 3 + 0.4, rho1=1.4348)
        traj = integrate_shape(extract_shape(world), reference_params,
                               T=1.0, dt=1e-3, record_every=100)
        for idx in range(traj.t.size):
            st = to_pure_shape(traj.state_at(idx))
            assert np.max(spec.residuals(st.to_vector())) < 1e-5


class TestReducedDynamics:
    def test_rho_rate_zero_on_ray(self, reference_params):
        for rho1 in (0.3, 1.0, 7.5):
            _, drho = reduced_derivative(np.pi / 3, rho1, reference_params, 1)
            assert abs(drho) < 1e-15

    def test_both_rho_forms_agree(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            kappa1 = rng.uniform(-np.pi, np.pi)
            kpn = rng.uniform(0.1, np.pi - 0.1)
            # the rho1 rate depends on kappa1 and k*pi/n only
            _, drho = _reduced_rates(kappa1, 1.0, 1.0, 0.5, 0.0, 0.0, kpn)
            assert abs(drho
                       - _reduced_rho_rate_cos_form(kappa1, kpn)) < 1e-12

    def test_equilibrium_point(self):
        params = ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        dk1, dr1 = reduced_derivative(np.pi / 3, 0.71745, params, 1)
        assert abs(dk1) < 1e-4 and abs(dr1) < 1e-4

    def test_matches_transformed_dynamics_on_manifold(self,
                                                      reference_params):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = int(rng.integers(1, 3))
            spec = manifold_spec(3, k)
            kappa1 = float(rng.uniform(-np.pi, np.pi))
            rho1 = float(rng.uniform(0.4, 4.0))
            st, _ = lift(spec, kappa1, rho1)
            rates = pure_shape_derivative(st, reference_params)
            dk1, dr1 = reduced_derivative(kappa1, rho1, reference_params, k)
            assert abs(rates.kappa1 - dk1) < 1e-10
            assert abs(rates.rho1 - dr1) < 1e-10

    def test_scale_covariance_of_range_term(self, reference_params):
        # the rho-dependent part of kappa1' is proportional to 1/rho1
        kappa1 = 0.9

        def range_term(rho1):
            with_range, _ = reduced_derivative(kappa1, rho1,
                                               reference_params, 1)
            limit, _ = reduced_derivative(kappa1, 1e12, reference_params, 1)
            return with_range - limit

        assert abs(range_term(2.0) - 0.5 * range_term(1.0)) < 1e-12


class TestReducedEquilibrium:
    def test_a6_example(self):
        params = ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        eqs = reduced_equilibrium(params, 1)
        assert eqs is not None
        first = eqs[0]
        assert abs(first.rho1 - 0.71745) < 1e-4
        assert abs(first.kappa1 - np.pi / 3) < 1e-12
        assert first.stable and first.tag == "stable"
        assert not eqs[1].stable

    def test_gain_scaling(self):
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        eqs = reduced_equilibrium(params, 1)
        assert abs(eqs[0].rho1 - 1.43490) < 1e-4

    def test_absent_in_spiral_regime(self, spiral_params):
        assert reduced_equilibrium(spiral_params, 2) is None

    def test_tiny_radius_is_tagged(self):
        # rho1* = 2e-7 lies below the oracle's difference step h = 1e-6
        params = ControlParams.homogeneous(3, mu=1.0, lam=1e-7, alpha=0.0,
                                           alpha0=0.0)
        eqs = reduced_equilibrium(params, 1)
        assert [eq.tag for eq in eqs] == ["stable", "unstable"]
        assert abs(eqs[0].rho1 - 2e-7) < 1e-12
        assert all(eq.method == "linearization" for eq in eqs)

    def test_a6_inside_band_reads_marginal(self):
        # the A6 sign is 5e-11: above the sign test's old 1e-12 cut,
        # inside the 1e-9 trace band
        params = ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                           alpha=-np.pi / 6 + 1e-10,
                                           alpha0=0.0)
        rp = reduced_params(params, 1)
        sign = (math.sin(rp.gamma_kn * math.pi - rp.alpha0_plus)
                * math.cos(rp.gamma_kn * math.pi + rp.alpha0_minus))
        assert 1e-12 <= abs(sign) < 5e-10
        eqs = reduced_equilibrium(params, 1)
        assert [(eq.tag, eq.stable, eq.method) for eq in eqs] \
            == [("marginal", False, "a6-sign-test")] * 2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=ints(2, 11), k_frac=floats(0.0, 1.0), mu=floats(0.1, 5.0),
           lam=floats(0.01, 0.99), alpha=floats(-np.pi, np.pi),
           alpha0=floats(-np.pi, np.pi), a6=ints(0, 2))
    # the traces are -/+1.00000000606e-9, 6e-18 beyond the marginal band:
    # float central differences read them as marginal
    @example(n=2, k_frac=0.0, mu=0.1, lam=0.01, alpha=0.0, alpha0=1e-6, a6=1)
    def test_tags_match_central_difference_oracle(self, n, k_frac, mu, lam,
                                                  alpha, alpha0, a6):
        k = 1 + min(int(k_frac * (n - 1)), n - 2)
        if a6 == 0:
            mu, lam = 2.0, 0.5
        params = ControlParams.homogeneous(n, mu=mu, lam=lam, alpha=alpha,
                                           alpha0=alpha0)
        eqs = reduced_equilibrium(params, k)
        if eqs is None:
            return
        method = "a6-sign-test" if a6 == 0 else "linearization"
        for eq in eqs:
            assert eq.method == method
            if eq.tag != "marginal":
                assert _linearized_tag(_require_manifold(params, k),
                                       eq.kappa1, eq.rho1) \
                    == (eq.stable, eq.tag)

    def test_a6_tag_matches_numeric_linearization(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 15:
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n))
            params = ControlParams.homogeneous(
                n, mu=2.0, lam=0.5, alpha=float(rng.uniform(-np.pi, np.pi)),
                alpha0=float(rng.uniform(-np.pi, np.pi)))
            eqs = reduced_equilibrium(params, k)
            if eqs is None or any(e.tag == "marginal" for e in eqs):
                continue
            for eq in eqs:
                stable_num, tag_num = _linearized_tag(
                    _require_manifold(params, k), eq.kappa1, eq.rho1)
                if tag_num == "marginal":
                    break
                assert stable_num == eq.stable
            checked += 1


class TestInvariantRegion:
    def test_spiral_parameters_hold(self, spiral_params):
        check = invariant_region_check(spiral_params, 2)
        assert check.holds
        assert abs(check.value - (-0.35355)) < 1e-4

    def test_reference_parameters_do_not_hold(self, reference_params):
        check = invariant_region_check(reference_params, 1)
        assert not check.holds
        assert abs(check.value - 0.60355) < 1e-4

    def test_trajectories_stay_inside(self, spiral_params):
        check = invariant_region_check(spiral_params, 2)
        rng = np.random.default_rng(23)
        kpn = 2 * np.pi / 3
        for _ in range(8):
            kappa1 = kpn + rng.uniform(0.05, np.pi - 0.05)
            rho1 = rng.uniform(0.5, 3.0)
            _, kk, rr = integrate_reduced(kappa1, rho1, spiral_params, 2,
                                          T=50.0, dt=1e-2, record_every=10)
            offsets = wrap_angle(kk - kpn)
            assert np.all((offsets > 0) & (offsets < np.pi))
            assert np.all(rr > 0)
            assert check.contains(kk[-1], rr[-1])


class TestAsymptote:
    def test_spiral_prediction(self, spiral_params):
        assert abs(asymptote_prediction(spiral_params, 2) - 5 * np.pi / 6) \
            < 1e-12

    def test_numeric_limit(self, spiral_params):
        _, kk, rr = integrate_reduced(2 * np.pi / 3 + 0.8, 1.0,
                                      spiral_params, 2, T=150.0, dt=1e-2,
                                      record_every=100)
        assert abs(wrap_angle(kk[-1] - 5 * np.pi / 6)) < 0.02
        assert np.all(np.diff(rr) > 0)

    def test_requires_a6(self, reference_params):
        with pytest.raises(AssumptionError, match="A6"):
            asymptote_prediction(reference_params, 1)

    def test_requires_region_condition(self):
        params = ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        with pytest.raises(PreconditionError):
            asymptote_prediction(params, 1)

    def test_inconclusive_on_selector_boundary(self):
        # alpha0 - alpha = 5pi/6 puts the selector cosine at zero while
        # the region condition still holds with value exactly 0
        alpha = 2 * np.pi / 3
        params = ControlParams.homogeneous(3, mu=2.0, lam=0.5, alpha=alpha,
                                           alpha0=alpha + 5 * np.pi / 6)
        rp = reduced_params(params, 2)
        assert abs(np.cos(rp.gamma_kn * np.pi + rp.alpha0_minus)) < 1e-12
        with pytest.raises(InconclusiveError):
            asymptote_prediction(params, 2)

    def test_reduced_params_rejects_undefined_manifold(self, spiral_params):
        with pytest.raises(UndefinedManifoldError,
                           match="manifold index k = 7 outside 1..2"):
            reduced_params(spiral_params, 7)


class TestPortraitAndGuards:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(kappa_min=-4.0, kappa_max=1.0, kappa_samples=4,
                     rho_min=0.1, rho_max=1.0, rho_samples=4)
        with pytest.raises(ValueError):
            GridSpec(kappa_min=0.0, kappa_max=1.0, kappa_samples=4,
                     rho_min=1.0, rho_max=0.1, rho_samples=4)

    def test_field_vanishes_at_exact_equilibrium(self):
        params = ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        eq = reduced_equilibrium(params, 1)[0]
        dk1, dr1 = reduced_derivative(eq.kappa1, eq.rho1, params, 1)
        assert abs(dk1) < 1e-9 and abs(dr1) < 1e-9

    def test_field_positive_on_lower_boundary(self, spiral_params):
        # along kappa1 = k*pi/n the angular rate pushes into the strip
        kpn = 2 * np.pi / 3
        for rho1 in np.linspace(0.2, 20.0, 30):
            dk1, _ = reduced_derivative(kpn, rho1, spiral_params, 2)
            assert dk1 > 0

    def test_portrait_samples_and_trajectories(self, spiral_params):
        grid = GridSpec(kappa_min=-0.9 * np.pi, kappa_max=np.pi,
                        kappa_samples=7, rho_min=0.5, rho_max=5.0,
                        rho_samples=5)
        portrait = phase_portrait(spiral_params, 2, grid,
                                  seeds=[(2.9, 1.0), (2.4, 2.0)],
                                  T=40.0, dt=1e-2)
        assert portrait.d_kappa.shape == (7, 5)
        assert np.all(np.isfinite(portrait.d_kappa))
        for _, kk, rr in portrait.trajectories:
            assert abs(wrap_angle(kk[-1] - 5 * np.pi / 6)) < 0.1
            assert rr[-1] > rr[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=ints(2, 7), k_frac=floats(0.0, 1.0), mu=floats(0.1, 5.0),
           lam=floats(0.01, 0.99), alpha=floats(-np.pi, np.pi),
           alpha0=floats(-np.pi, np.pi), kappa_min=floats(-3.1, 0.0),
           kappa_span=floats(0.01, 3.1), kappa_samples=ints(2, 9),
           rho_min=floats(0.01, 2.0), rho_span=floats(0.01, 30.0),
           rho_samples=ints(2, 9))
    def test_grid_matches_numpy_form(self, n, k_frac, mu, lam, alpha,
                                     alpha0, kappa_min, kappa_span,
                                     kappa_samples, rho_min, rho_span,
                                     rho_samples):
        k = 1 + min(int(k_frac * (n - 1)), n - 2)
        params = ControlParams.homogeneous(n, mu=mu, lam=lam, alpha=alpha,
                                           alpha0=alpha0)
        grid = GridSpec(kappa_min=kappa_min,
                        kappa_max=kappa_min + kappa_span,
                        kappa_samples=kappa_samples, rho_min=rho_min,
                        rho_max=rho_min + rho_span, rho_samples=rho_samples)
        portrait = phase_portrait(params, k, grid)
        got = (portrait.kappa_grid, portrait.rho_grid, portrait.d_kappa,
               portrait.d_rho)
        assert all(same_bits(a, b)
                   for a, b in zip(got, _grid_rates_numpy(params, k, grid)))

    def test_portrait_rejects_undefined_manifold(self, spiral_params):
        grid = GridSpec(kappa_min=-3.0, kappa_max=3.0, kappa_samples=4,
                        rho_min=0.5, rho_max=5.0, rho_samples=4)
        with pytest.raises(UndefinedManifoldError,
                           match="manifold index k = 7 outside 1..2"):
            phase_portrait(spiral_params, 7, grid)

    def test_a5_guard_flags(self):
        # Phi = 2*kappa1 + psi_const; kappa1 = -psi_const/2 zeroes sin(Phi/2)
        spec = manifold_spec(3, 1)
        st, _ = lift(spec, kappa1=-spec.psi_const / 2.0, rho1=1.0)
        guards = a5_guard_values(st)
        assert min(guards) < 1e-6

    def test_a5_flags_recorded_along_run(self, reference_params):
        spec = manifold_spec(3, 1)
        st, _ = lift(spec, kappa1=np.pi / 3 + 0.4, rho1=1.5)
        traj = integrate_pure_shape(st, reference_params, T=20.0, dt=5e-3,
                                    record_every=100)
        assert len(traj.a5_flags) > 0
        # flag times and guard values bit for bit with the numpy oracle
        _, rows, flags = _reference_integrate_pure_shape(
            st, reference_params, T=20.0, dt=5e-3, record_every=100)
        assert same_bits(traj.states, rows)
        assert traj.a5_flags == flags


class TestKernel:
    """One generated pure-shape kernel per agent count, built from n
    alone."""

    FUNCTIONS = ("rates", "guards", "post")

    def test_built_once_per_n_across_runs(self, spiral_params,
                                          reference_params):
        pure_shape._kernel.cache_clear()
        st, _ = lift(manifold_spec(3, 2), kappa1=2.894, rho1=1.0)
        integrate_pure_shape(st, spiral_params, T=0.05, dt=1e-2)
        integrate_pure_shape(st, reference_params, T=0.05, dt=1e-2)
        a5_guard_values(st)
        info = pure_shape._kernel.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_parameter_sets_share_one_kernel(self, spiral_params,
                                             reference_params):
        st, _ = lift(manifold_spec(3, 1), kappa1=0.3, rho1=1.2)
        st.psi += [0.1, -0.2, 0.05]
        st.rho_tb *= [1.1, 0.9, 1.0]
        kernel = pure_shape._kernel(3)
        for params in (spiral_params, reference_params):
            assert same_bits(pure_shape_derivative(st, params).to_vector(),
                             _oracle_rates(st, params))
            assert pure_shape._kernel(3) is kernel

    def test_source_depends_on_n_alone(self):
        # every parameter value arrives as an argument and every number
        # by name, so the code holds no float
        kernel = pure_shape._kernel(3)
        for name in self.FUNCTIONS:
            assert not [c for c in kernel[name].__code__.co_consts
                        if isinstance(c, float)], name

    def test_traceback_names_the_kernel(self, reference_params):
        # a zero ratio rho~_2 divides by zero inside the kernel (the
        # scalar pass would rerun it on numpy scalars)
        st, _ = lift(manifold_spec(3, 1), kappa1=0.3, rho1=1.0)
        st.rho_t[1] = 0.0
        with pytest.raises(ZeroDivisionError) as err:
            pure_shape._kernel(3)["rates"](
                st.to_vector().tolist(),
                _constants(reference_params))
        entry = err.traceback[-1]
        assert str(entry.path) == "<pursuit_lab pure-shape n=3>"
        assert "sp1 = sin(hphi1) * cpsi1 / rt1" in str(entry.statement)

    def test_fallback_pass_leaves_the_kernel_untouched(self,
                                                       reference_params):
        # the numpy-scalar rerun gets np.sin and np.cos through a copy of
        # the kernel function; the kernel keeps math.sin and math.cos, so
        # the next float pass gives the bits it gave before the rerun
        kernel = pure_shape._kernel(3)
        const = _constants(reference_params)
        st, _ = lift(manifold_spec(3, 1), kappa1=0.3, rho1=1.0)
        v = st.to_vector().tolist()
        bad = list(v)
        bad[0] = math.inf
        passes = ((kernel["rates"], v, bad, (const,)),
                  (kernel["guards"], v[:8], bad[:8], ()))
        for fn, good, failing, args in passes:
            before = fn(good, *args)
            with np.errstate(invalid="ignore"):
                assert np.isnan(_scalar_pass(fn, failing, *args)).any()
            assert fn.__globals__["sin"] is math.sin
            assert fn.__globals__["cos"] is math.cos
            after = fn(good, *args)
            assert {type(x) for x in after} == {float}
            assert same_bits(np.array(after), np.array(before))


class TestCollisionTime:
    # heading inward from a small scale: rho1 reaches zero at t ~ 0.03
    KAPPA1 = -0.5
    RHO1 = 0.05

    def test_pure_shape_collision_carries_time(self, reference_params):
        st, _ = lift(manifold_spec(3, 1), kappa1=self.KAPPA1, rho1=self.RHO1)
        with pytest.raises(CollisionError) as err:
            integrate_pure_shape(st, reference_params, T=1.0, dt=1e-3)
        assert err.value.t is not None and 0.0 < err.value.t < 0.1

    def test_reduced_collision_carries_time(self, reference_params):
        with pytest.raises(CollisionError) as err:
            integrate_reduced(self.KAPPA1, self.RHO1, reference_params, 1,
                              T=1.0, dt=1e-3)
        assert err.value.t is not None and 0.0 < err.value.t < 0.1
        assert err.value.pair == (0, 1)


class TestReducedStart:
    @pytest.mark.parametrize("rho1", [-1.0, 0.0, np.nan])
    def test_out_of_domain_scale_is_a_precondition(
            self, traced_step_counts, reference_params, rho1):
        # a starting scale that is not positive never reached zero: it is
        # rejected before the first step, as reduced_derivative rejects it
        with pytest.raises(PreconditionError, match="rho1 must be positive"):
            integrate_reduced(0.3, rho1, reference_params, 1, T=1.0, dt=1e-3)
        assert traced_step_counts == {"steps": 0, "fields": 0}

    def test_portrait_seed_is_checked(self, spiral_params):
        grid = GridSpec(kappa_min=-3.0, kappa_max=3.0, kappa_samples=3,
                        rho_min=0.5, rho_max=5.0, rho_samples=3)
        with pytest.raises(PreconditionError):
            phase_portrait(spiral_params, 2, grid, seeds=[(2.894, 0.0)])
