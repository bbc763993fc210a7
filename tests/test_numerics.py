import numpy as np
import pytest
from scipy.linalg import expm

from pursuit_lab import ControlParams
from pursuit_lab.errors import IntegrationError, NumericError
from pursuit_lab.numerics import (characteristic_polynomial, cyclic_neighbors,
                                  eig5, poly_roots, rk4_integrate, rk4_step,
                                  step_count, wrap_angle)
from pursuit_lab.stability import block_triple, dk

from conftest import multiset_distance, same_bits


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_three_half_pi(self):
        assert abs(wrap_angle(1.5 * np.pi) - (-0.5 * np.pi)) < 1e-15

    def test_boundary_closed_at_pi(self):
        # the interval is (-pi, pi]: -pi maps to +pi
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(np.pi) == np.pi

    def test_array_and_periodicity(self):
        theta = np.linspace(-20, 20, 421)
        wrapped = wrap_angle(theta)
        assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
        assert np.allclose(np.sin(wrapped), np.sin(theta), atol=1e-12)
        assert np.allclose(np.cos(wrapped), np.cos(theta), atol=1e-12)


class TestRK4:
    def test_zero_field(self):
        state = np.array([1.0, -2.0, 0.5])
        out = rk4_step(lambda s: np.zeros_like(s), state, 0.1)
        assert np.array_equal(out, state)

    def test_constant_field_exact(self):
        c = np.array([3.0, -1.0])
        out = rk4_step(lambda s: c, np.array([1.0, 1.0]), 0.25)
        assert np.array_equal(out, np.array([1.0, 1.0]) + c * 0.25)

    def test_exponential_decay_single_step(self):
        # oracle: x(0.1) = exp(-0.1) = 0.90483742 (closed form)
        out = rk4_step(lambda s: -s, np.array([1.0]), 0.1)
        assert abs(out[0] - 0.9048375) < 1e-9       # the RK4 value itself
        assert abs(out[0] - np.exp(-0.1)) < 1e-7    # vs the exact solution

    def test_fifth_order_local_error(self):
        # halving dt shrinks one-step error by about 2**5 = 32
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        x0 = np.array([1.0, 0.25])

        def one_step_error(dt):
            exact = expm(a * dt) @ x0
            approx = rk4_step(lambda s: a @ s, x0, dt)
            return np.linalg.norm(approx - exact)

        ratio = one_step_error(0.2) / one_step_error(0.1)
        assert 25.0 < ratio < 40.0

    def test_nonfinite_derivative_names_index(self):
        def bad(s):
            return np.array([0.0, np.nan, 0.0])

        with pytest.raises(IntegrationError, match="index 1"):
            rk4_step(bad, np.zeros(3), 0.1)

    def test_nonfinite_later_stage_names_index_and_stage(self):
        calls = []

        def bad(s):
            calls.append(1)
            k = np.ones(4)
            if len(calls) == 3:
                k[2] = np.inf
            return k

        with pytest.raises(IntegrationError,
                           match=r"index 2 \(RK4 stage 3\)"):
            rk4_step(bad, np.zeros(4), 0.1)

    def test_opposite_infinities_name_first_index(self):
        # their sum is NaN, so the stage takes the exact check
        def bad(s):
            return np.array([1.0, np.inf, -np.inf])

        with np.errstate(invalid="ignore"), pytest.raises(
                IntegrationError, match=r"index 1 \(RK4 stage 1\)"):
            rk4_step(bad, np.zeros(3), 0.1)

    def test_finite_entries_with_overflowing_sum_pass(self):
        # the entries sum past the largest double; the step itself does not
        def big(s):
            return np.full(10, 2.5e307)

        with np.errstate(over="ignore"):
            state = rk4_step(big, np.zeros(10), 1.0)
        assert np.all(state == 2.5e307)

    def test_state_overflowing_to_inf_stops_the_run(self):
        # every stage is finite; their weighted sum overflows the state
        def big(s):
            return np.array([1e308, 0.0])

        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^non-finite state at t = 0\.5$"):
            rk4_integrate(big, np.zeros(2), 1.0, 0.5)

    def test_finite_state_with_overflowing_sum_runs_on(self):
        # the state's sum overflows, so each step takes the exact check
        y0 = np.array([1e308, 1e308, -1.0])
        with np.errstate(over="ignore"):
            times, samples = rk4_integrate(lambda s: np.zeros_like(s), y0,
                                           1.0, 0.25)
        assert times.size == 5
        assert np.array_equal(samples, np.tile(y0, (5, 1)))


class TestHorizon:
    @pytest.mark.parametrize("T,dt,steps", [
        (100.0, 1e-2, 10000), (20.0, 1e-3, 20000), (0.1, 1e-2, 10),
        (5.0, 0.01, 500), (0.5, 1e-3, 500), (0.6, 0.2, 3),
    ])
    def test_whole_horizons(self, T, dt, steps):
        assert step_count(T, dt) == steps

    @pytest.mark.parametrize("T,dt", [(1.0, 0.3), (1e-4, 1e-3)])
    def test_inexact_or_empty_horizon_rejected(self, T, dt):
        with pytest.raises(ValueError, match=f"T = {T:g}.*dt = {dt:g}"):
            rk4_integrate(lambda s: -s, np.array([1.0]), T, dt)

    def test_last_sample_lands_on_horizon(self):
        times, _ = rk4_integrate(lambda s: -s, np.array([1.0]), 0.6, 0.2,
                                 record_every=2)
        assert times.size == 3
        assert abs(times[-1] - 0.6) < 1e-15


class TestCyclicNeighbors:
    def test_gather_equals_roll(self):
        x = np.random.default_rng(0).normal(size=(3, 7))
        nxt, prv = cyclic_neighbors(7)
        assert np.array_equal(x[..., nxt], np.roll(x, -1, axis=-1))
        assert np.array_equal(x[..., prv], np.roll(x, 1, axis=-1))

    def test_cached_and_read_only(self):
        nxt, prv = cyclic_neighbors(5)
        assert cyclic_neighbors(5)[0] is nxt
        with pytest.raises(ValueError):
            prv[0] = 1


class TestPolyRoots:
    def test_x_squared_plus_one(self):
        roots = poly_roots([1.0, 0.0, 1.0])
        assert multiset_distance(roots, [1j, -1j]) < 1e-12

    def test_cubic_with_integer_roots(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        roots = poly_roots([1.0, -6.0, 11.0, -6.0])
        assert multiset_distance(roots, [1.0, 2.0, 3.0]) < 1e-10

    def test_reference_cubic_factor(self):
        # x^3 + 0.78656 x^2 + 0.72856 x; oracle: quadratic formula on the
        # deflated quadratic factor
        b, c = 0.78656, 0.72856
        disc = np.sqrt(complex(b * b - 4.0 * c))
        expected = [0.0, (-b + disc) / 2.0, (-b - disc) / 2.0]
        roots = poly_roots([1.0, b, c, 0.0])
        assert multiset_distance(roots, expected) < 1e-10
        assert multiset_distance(
            roots, [0.0, -0.39328 + 0.75756j, -0.39328 - 0.75756j]) < 1e-4

    def test_random_roundtrip(self):
        # expand from separated random roots, recover within 1e-8
        rng = np.random.default_rng(0)
        for _ in range(50):
            deg = int(rng.integers(2, 6))
            while True:
                roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
                sep = np.abs(roots[:, None] - roots[None, :])
                np.fill_diagonal(sep, np.inf)
                if sep.min() > 0.15:
                    break
            coeffs = np.poly(roots)
            assert multiset_distance(poly_roots(coeffs), roots) < 1e-8

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
            roots = poly_roots(coeffs)
            assert roots.size == 5
            scale = 1.0 + np.max(np.abs(coeffs))
            residuals = np.abs(np.polyval(coeffs, roots))
            assert np.max(residuals) < 1e-9 * scale

    def test_multiple_root_at_origin(self):
        roots = poly_roots([1.0, 0.0, 0.0])  # x^2
        assert multiset_distance(roots, [0.0, 0.0]) < 1e-7

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([2.0])
        with pytest.raises(ValueError):
            poly_roots([0.0, 1.0])

    def test_nonconvergence_raises(self):
        with pytest.raises(NumericError):
            poly_roots(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), max_iter=1)


class TestEig5:
    def test_identity(self):
        assert multiset_distance(eig5(np.eye(5)), np.ones(5)) < 1e-12

    def test_diagonal(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        assert multiset_distance(eig5(m), [1, 2, 3, 4, 5]) < 1e-10

    def test_reference_mode_zero_block(self, reference_params):
        blocks, _ = block_triple(reference_params, 1)
        eigs = eig5(dk(blocks, 0, 3))
        expected = [0.0, 1.20711j, -1.20711j,
                    -0.39328 + 0.75756j, -0.39328 - 0.75756j]
        assert multiset_distance(eigs, expected) < 1e-4

    def test_matches_charpoly_route(self):
        # cross-route: np.poly builds the characteristic polynomial via
        # LAPACK eigenvalues, independent of the Faddeev-LeVerrier path
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            assert multiset_distance(eig5(m), poly_roots(np.poly(m))) < 1e-6

    def test_charpoly_matches_numpy(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        assert np.max(np.abs(characteristic_polynomial(m) - np.poly(m))) \
            < 1e-10

    def test_nonfinite_rejected(self):
        m = np.zeros((5, 5))
        m[2, 2] = np.inf
        with pytest.raises(NumericError):
            eig5(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            eig5(np.eye(4))


def _sweeps(matrix):
    """Sweeps the root iteration of one matrix takes on its own."""
    coeffs = characteristic_polynomial(matrix)
    for max_iter in range(1, 100):
        try:
            poly_roots(coeffs, max_iter=max_iter)
            return max_iter
        except NumericError:
            pass
    raise AssertionError("no convergence within 100 sweeps")


class TestStacks:
    """Leading axes: every member is computed exactly as alone."""

    def _stack(self):
        params = ControlParams.homogeneous(7, mu=1.3, lam=0.4,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        blocks, _ = block_triple(params, 1)
        rng = np.random.default_rng(5)
        return np.stack([
            dk(blocks, 2, 7),                    # generic mode block
            np.diag([0.0, 1.0, 2.0, 3.0, 4.0]),  # deflates a zero root
            np.eye(5),                           # quintuple-root polish
            dk(blocks, 0, 7),
            rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
            np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
        ]).astype(complex)

    def test_rows_converge_at_different_sweeps(self):
        assert len({_sweeps(m) for m in self._stack()}) > 1

    def test_eig5_rows_equal_single_calls(self):
        stack = self._stack()
        single = np.stack([eig5(m) for m in stack])
        assert same_bits(eig5(stack), single)

    def test_any_leading_shape(self):
        stack = self._stack().reshape(2, 3, 5, 5)
        eigs = eig5(stack)
        assert eigs.shape == (2, 3, 5)
        for i in range(2):
            for j in range(3):
                assert same_bits(eigs[i, j], eig5(stack[i, j]))

    def test_max_iter_counts_per_row(self):
        stack = self._stack()
        coeffs = characteristic_polynomial(stack)
        most = max(_sweeps(m) for m in stack)
        roots = poly_roots(coeffs, max_iter=most)
        assert same_bits(roots, eig5(stack))
        with pytest.raises(NumericError):
            poly_roots(coeffs, max_iter=most - 1)

    def test_poly_rows_equal_single_calls(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        rows[1, -1] = 0.0       # one zero root
        rows[2, -3:] = 0.0      # deflates to degree 1
        rows[3, 1:] = 0.0       # all roots at the origin
        rows[4] = np.poly([1.0, 1.0, 1.0, 2.0])   # triple-root polish
        rows[5] = np.poly([0.5j, 0.5j, -1.0, 2.0])
        single = np.stack([poly_roots(r) for r in rows])
        assert same_bits(poly_roots(rows), single)

    def test_charpoly_rows_equal_single_calls(self):
        stack = self._stack()
        single = np.stack([characteristic_polynomial(m) for m in stack])
        assert same_bits(characteristic_polynomial(stack), single)

    def test_nonfinite_member_rejected(self):
        stack = self._stack()
        stack[3, 1, 2] = np.nan
        with pytest.raises(NumericError):
            eig5(stack)

    def test_one_sweep_rejected(self):
        coeffs = characteristic_polynomial(self._stack())
        with pytest.raises(NumericError):
            poly_roots(coeffs, max_iter=1)

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            eig5(np.zeros((3, 4, 4)))

    def test_zero_leading_coefficient_in_any_row_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])

    @pytest.mark.parametrize("n", [17, 50])
    def test_mode_block_stack(self, n):
        params = ControlParams.homogeneous(n, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        blocks, _ = block_triple(params, 1)
        stack = dk(blocks, np.arange(n), n)
        assert same_bits(stack,
                         np.stack([dk(blocks, k, n) for k in range(n)]))
        # the root of unity as the scalar formula on Python numbers gives
        # it (a real division by n), not as a complex array division
        for k in range(n):
            w = np.exp(2j * np.pi * k / n)
            expected = (blocks.A0.astype(complex) + w * blocks.A1
                        + np.conj(w) * blocks.Am1)
            assert same_bits(stack[k], expected)
