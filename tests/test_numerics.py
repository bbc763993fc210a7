import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from pursuit_lab import ControlParams, abd, cubic_coeffs, numerics
from pursuit_lab.errors import IntegrationError, NumericError
from pursuit_lab.numerics import (cyclic_neighbors, eig5, poly_roots,
                                  rk4_integrate, rk4_step, step_count,
                                  wrap_angle)
from pursuit_lab.stability import _cubic_roots, block_triple, dk

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


class TestListState:
    """A list state steps in Python floats: the array path's operations
    in its order, its stage gates and its state gate."""

    def test_nonfinite_stage_names_index_and_stage(self):
        calls = []

        def bad(s):
            calls.append(1)
            k = [1.0] * 4
            if len(calls) == 3:
                k[2] = math.inf
            return k

        with pytest.raises(IntegrationError,
                           match=r"^non-finite derivative entry at index 2 "
                                 r"\(RK4 stage 3\)$"):
            rk4_step(bad, [0.0] * 4, 0.1)
        assert len(calls) == 3

    def test_opposite_infinities_name_first_index(self):
        # their sum is NaN, so the stage takes the exact check
        with pytest.raises(IntegrationError,
                           match=r"index 1 \(RK4 stage 1\)"):
            rk4_step(lambda s: [1.0, math.inf, -math.inf], [0.0] * 3, 0.1)

    def test_finite_entries_with_overflowing_sum_run_on(self):
        # the entries sum past the largest double; the step itself does not
        state = rk4_step(lambda s: [2.5e307] * 10, [0.0] * 10, 1.0)
        assert state == [2.5e307] * 10
        with np.errstate(over="ignore"):
            assert same_bits(np.array(state),
                             rk4_step(lambda s: np.full(10, 2.5e307),
                                      np.zeros(10), 1.0))

    def test_state_overflowing_to_inf_stops_the_run(self):
        with pytest.raises(NumericError,
                           match=r"^non-finite state at t = 0\.5$"):
            rk4_integrate(lambda s: [1e308, 0.0], [0.0, 0.0], 1.0, 0.5)

    def test_finite_state_with_overflowing_sum_runs_on(self):
        y0 = [1e308, 1e308, -1.0]
        times, samples = rk4_integrate(lambda s: [0.0] * 3, y0, 1.0, 0.25)
        assert times.size == 5
        assert same_bits(samples, np.tile(y0, (5, 1)))

    def test_integrate_from_list_equals_array(self):
        seen = []

        def post_list(y, t):
            seen.append(type(y))
            y[0] = math.fmod(y[0], 1.0)
            return y

        def post_array(y, t):
            y[0] = np.fmod(y[0], 1.0)
            return y

        def field(s):
            return [math.sin(s[1]) * s[2], s[0] - s[2] * s[2],
                    math.cos(s[0] + s[1])]

        args = (0.6, 0.02)
        got = rk4_integrate(field, [0.9, -0.4, 2], *args, record_every=7,
                            post_step=post_list)
        want = rk4_integrate(lambda s: np.array(field(s.tolist())),
                             np.array([0.9, -0.4, 2.0]), *args,
                             record_every=7, post_step=post_array)
        assert set(seen) == {list} and len(seen) == 30
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])
        assert got[1].shape == (6, 3)


@st.composite
def _scalar_field(draw):
    """A nonlinear field on Python floats, of dimension 1-52: entry i is
    a_i sin(y_p(i)) + b_i y_i y_q(i) + c_i cos(y_i), and a start."""
    d = draw(st.integers(1, 52))
    coeff = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
    index = st.lists(st.integers(0, d - 1), min_size=d, max_size=d)
    a, b, c = draw(coeff), draw(coeff), draw(coeff)
    p, q = draw(index), draw(index)
    y0 = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))

    def field(y):
        return [a[i] * math.sin(y[p[i]]) + b[i] * y[i] * y[q[i]]
                + c[i] * math.cos(y[i]) for i in range(d)]

    return field, y0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_scalar_field(), st.floats(1e-4, 0.5))
def test_list_step_equals_array_step(case, dt):
    field, y0 = case
    got = rk4_step(field, list(y0), dt)
    assert type(got) is list
    want = rk4_step(lambda y: np.array(field(y.tolist())), np.array(y0), dt)
    assert same_bits(np.array(got), want)


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


def _table(rows):
    return np.array(rows, dtype=complex)


class TestPolyRoots:
    def test_x_squared_plus_one(self):
        roots = poly_roots(_table([[1.0, 0.0, 1.0]]))[0]
        assert multiset_distance(roots, [1j, -1j]) < 1e-12

    def test_cubic_with_integer_roots(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        roots = poly_roots(_table([[1.0, -6.0, 11.0, -6.0]]))[0]
        assert multiset_distance(roots, [1.0, 2.0, 3.0]) < 1e-10

    def test_random_roundtrip(self):
        # expand from separated random roots, recover within 1e-8
        rng = np.random.default_rng(0)
        expected = []
        while len(expected) < 50:
            roots = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3)
            sep = np.abs(roots[:, None] - roots[None, :])
            np.fill_diagonal(sep, np.inf)
            if sep.min() > 0.15:
                expected.append(roots)
        got = poly_roots(np.array([np.poly(r) for r in expected]))
        for roots, want in zip(got, expected):
            assert multiset_distance(roots, want) < 1e-8

    def test_residual_contract(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
        coeffs[:, 0] = 1.0
        roots = poly_roots(coeffs)
        assert roots.shape == (20, 3)
        for row, z in zip(coeffs, roots):
            scale = 1.0 + np.max(np.abs(row))
            assert np.max(np.abs(np.polyval(row, z))) < 1e-9 * scale

    def test_reference_cubic_factor(self):
        # x^3 + 0.78656 x^2 + 0.72856 x; its zero root is the spectrum's
        # cubic solver's to split off.  Oracle: the quadratic formula on
        # the deflated quadratic factor
        b, c = 0.78656, 0.72856
        disc = np.sqrt(complex(b * b - 4.0 * c))
        expected = [0.0, (-b + disc) / 2.0, (-b - disc) / 2.0]
        roots = _cubic_roots(_table([[1.0, b, c, 0.0]]))[0]
        assert multiset_distance(roots, expected) < 1e-10
        assert multiset_distance(
            roots, [0.0, -0.39328 + 0.75756j, -0.39328 - 0.75756j]) < 1e-4

    def test_multiple_root_at_origin(self):
        roots = _cubic_roots(_table([[1.0, 0.0, 0.0, 0.0]]))[0]  # x^3
        assert multiset_distance(roots, [0.0, 0.0, 0.0]) < 1e-7

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericError):
            poly_roots(_table([[1.0, 2.0, 3.0, 4.0]]))


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
        # cross-route: the roots of the characteristic polynomial
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            assert multiset_distance(eig5(m), np.roots(np.poly(m))) < 1e-6

    def test_nonfinite_rejected(self):
        m = np.zeros((5, 5))
        m[2, 2] = np.inf
        with pytest.raises(NumericError):
            eig5(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            eig5(np.eye(4))


_SPREAD = st.just(0.0) | st.floats(-10.0, -1.0).map(lambda e: 10.0 ** e)
_TURN = st.floats(0.0, 2.0 * np.pi)


@st.composite
def _cubic_row(draw):
    """The roots of one monic cubic, and which of them stand alone.

    Three anchors at least 0.5 apart; a separated row takes all three, a
    clustered pair puts a second root within 0.1 of the first anchor (or
    on it), a near-triple puts two there."""
    r0 = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    turn = draw(_TURN)
    r1 = r0 + draw(st.floats(0.5, 2.0)) * np.exp(1j * turn)
    r2 = r0 + draw(st.floats(0.5, 2.0)) * np.exp(
        1j * (turn + draw(st.floats(0.5 * np.pi, 1.5 * np.pi))))

    def near():
        return r0 + draw(_SPREAD) * np.exp(1j * draw(_TURN))

    kind = draw(st.sampled_from(["separated", "pair", "near-triple"]))
    if kind == "separated":
        return [r0, r1, r2], [r0, r1, r2]
    if kind == "pair":
        return [r0, near(), r1], [r1]
    return [r0, near(), near()], []


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(_cubic_row(), min_size=1, max_size=6))
def test_table_equals_single_calls_and_lapack(rows):
    table = np.array([np.poly(roots) for roots, _ in rows])
    assume(np.all(table[:, 3] != 0))
    got = poly_roots(table)
    assert same_bits(got, np.stack([poly_roots(row[None])[0]
                                    for row in table]))
    for row, z, (_, alone) in zip(table, got, rows):
        tol = 1e-9 * (1.0 + np.max(np.abs(row)))
        assert np.max(np.abs(np.polyval(row, z))) < tol
        lapack = np.roots(row)
        # a lone root is well conditioned: both solvers find it
        for r in alone:
            ours = z[np.argmin(np.abs(z - r))]
            assert abs(ours - lapack[np.argmin(np.abs(lapack - r))]) < tol


def _sweeps(monkeypatch, row):
    """Sweeps the root iteration of one cubic takes on its own."""
    for sweeps in range(1, 100):
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", sweeps)
        try:
            poly_roots(row[None])
            return sweeps
        except NumericError:
            pass
    raise AssertionError("no convergence within 100 sweeps")


class TestStacks:
    """Tables: every row is computed exactly as it would be alone."""

    def _table(self):
        params = ControlParams.homogeneous(7, mu=1.3, lam=0.4,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        rng = np.random.default_rng(5)
        random = np.ones(4, dtype=complex)
        random[1:] = rng.normal(size=3) + 1j * rng.normal(size=3)
        return np.stack([
            cubic_coeffs(params, 1, 2).polynomial(params.mu,
                                                  abd(params, 1).a),
            np.poly([1.0, 1.0, 1.0]),          # triple-root polish
            np.poly([0.5j, 0.5j, -1.0]),       # double-root polish
            random,
            np.poly([1.0, 2.0, 3.0]),
        ]).astype(complex)

    def _stack(self):
        params = ControlParams.homogeneous(7, mu=1.3, lam=0.4,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        blocks, _ = block_triple(params, 1)
        rng = np.random.default_rng(5)
        return np.stack([
            dk(blocks, 2, 7),
            np.diag([0.0, 1.0, 2.0, 3.0, 4.0]),
            np.eye(5),
            dk(blocks, 0, 7),
            rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
            np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
        ]).astype(complex)

    def test_rows_converge_at_different_sweeps(self, monkeypatch):
        assert len({_sweeps(monkeypatch, row)
                    for row in self._table()}) > 1

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

    def test_max_iter_counts_per_row(self, monkeypatch):
        table = self._table()
        most = max(_sweeps(monkeypatch, row) for row in table)
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", most)
        roots = poly_roots(table)
        assert same_bits(roots, np.stack([poly_roots(row[None])[0]
                                          for row in table]))
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", most - 1)
        with pytest.raises(NumericError):
            poly_roots(table)

    def test_poly_rows_equal_single_calls(self):
        table = self._table()
        single = np.stack([poly_roots(row[None])[0] for row in table])
        assert same_bits(poly_roots(table), single)

    def test_nonfinite_member_rejected(self):
        stack = self._stack()
        stack[3, 1, 2] = np.nan
        with pytest.raises(NumericError):
            eig5(stack)

    def test_one_sweep_rejected(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericError):
            poly_roots(self._table())

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            eig5(np.zeros((3, 4, 4)))

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
