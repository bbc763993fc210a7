import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pursuit_lab import (ControlParams, abd, block_triple, char_poly,
                         corollary_checks, cubic_coeffs, dk, routh_necessary,
                         shape_derivative, spectrum_report, stability)
from pursuit_lab import equilibrium_shape, leftmost_equilibrium
from pursuit_lab.errors import (AssumptionError, EquilibriumNotFoundError,
                                NumericError, PursuitLabError,
                                SingularModeError)
from pursuit_lab.numerics import characteristic_polynomial, eig5, wrap_angle
from pursuit_lab.shape_space import ShapeState
from pursuit_lab.stability import routh_conditions

from conftest import (assemble_block_circulant, multiset_distance,
                      reference_equilibrium, same_bits)


def _random_admissible(rng):
    """Random parameters admitting the ccw leftmost-branch equilibrium."""
    while True:
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n))
        params = ControlParams.homogeneous(
            n, mu=1.0, lam=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(-np.pi, np.pi)),
            alpha0=float(rng.uniform(-np.pi, np.pi)))
        try:
            abd(params, m)
        except (EquilibriumNotFoundError, SingularModeError):
            continue
        return params, m


class TestABD:
    def test_reference_values(self, reference_params):
        co = abd(reference_params, 1)
        assert abs(co.a - 1.20711) < 1e-4
        assert abs(co.b - 0.78656) < 1e-4
        assert abs(co.d - 1.45711) < 1e-4
        assert abs(co.alpha_star - np.pi / 6) < 1e-12

    def test_lambda_to_one_limit(self):
        params = ControlParams.homogeneous(3, mu=1.0, lam=1.0 - 1e-9,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        co = abd(params, 1)
        assert abs(co.a - np.cos(np.pi / 4)) < 1e-6
        assert abs(co.b - np.sin(np.pi / 4)) < 1e-6

    def test_zero_angles(self):
        # alpha = m*pi/n makes alpha* = 0
        params = ControlParams.homogeneous(4, mu=1.0, lam=0.3,
                                           alpha=np.pi / 4, alpha0=0.0)
        co = abd(params, 1)
        assert abs(co.a - 1.0) < 1e-12
        assert abs(co.b - 0.7) < 1e-12
        assert abs(co.d - (1.0 + 0.7 / np.tan(np.pi / 4))) < 1e-12

    def test_singular_mode(self, reference_params):
        with pytest.raises(SingularModeError):
            abd(reference_params, 3)

    def test_nonexistence(self):
        # a = cos(pi) + (1/lam - 1) sin(0) = -1
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.5,
                                           alpha=np.pi / 3, alpha0=np.pi)
        with pytest.raises(EquilibriumNotFoundError):
            abd(params, 1)

    def test_marginal_band_reads_no_equilibrium(self):
        # a = cos(pi/4) + sin(alpha*) = 5e-10 puts the radius margin
        # lambda * a inside the enumeration's 1e-9 marginal band: abd,
        # routh_necessary, the sweep and leftmost_equilibrium all read
        # no equilibrium
        a_star = np.arcsin(5e-10 - np.cos(np.pi / 4))
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.5,
                                           alpha=np.pi / 3 - a_star,
                                           alpha0=np.pi / 4)
        a = np.cos(np.pi / 4) + np.sin(
            wrap_angle(np.pi / 3 - params.alpha[0]))
        assert 0.0 < a < 1e-9
        with pytest.raises(EquilibriumNotFoundError, match="marginal band"):
            abd(params, 1)
        with pytest.raises(EquilibriumNotFoundError):
            routh_necessary(params, 1)
        assert leftmost_equilibrium(params, 1) is None
        exists, verdict, worst = stability.sweep(params, 1, "alpha",
                                                 params.alpha[:1])
        assert not exists[0] and not verdict[0] and np.isnan(worst[0])

    def test_requires_common_alpha(self):
        params = ControlParams.homogeneous(
            3, mu=1.0, lam=0.5, alpha=[0.5, 0.52, 0.5], alpha0=np.pi / 4)
        with pytest.raises(AssumptionError, match="A4"):
            abd(params, 1)


class TestBlocks:
    def test_reference_q_values(self, reference_params):
        _, q = block_triple(reference_params, 1)
        assert abs(q.q1 - 0.84127) < 1e-4
        assert abs(q.q2 - 0.34847) < 1e-4
        assert abs(q.q3 - 0.43301) < 1e-4
        assert abs(q.q4 - (-1.45711)) < 1e-4
        assert abs(q.q5 - (-0.35355)) < 1e-4

    def test_q4_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            params, m = _random_admissible(rng)
            co = abd(params, m)
            _, q = block_triple(params, m)
            assert abs(q.q4 + params.mu ** 2 * co.a ** 2) \
                <= 1e-12 * abs(q.q4)

    def test_sparsity_patterns(self, reference_params):
        blocks, q = block_triple(reference_params, 1)
        # next-neighbor coupling acts only through the theta column
        nonzero_cols = np.nonzero(np.any(blocks.A1 != 0, axis=0))[0]
        assert nonzero_cols.tolist() == [2]
        expected = [np.sin(np.pi / 3), -0.5 * q.q2, 0.5 * q.q2, 0.0,
                    0.5 * q.q2]
        assert np.allclose(blocks.A1[:, 2], expected, atol=1e-14)
        # previous-neighbor coupling acts only through the theta row
        nonzero_rows = np.nonzero(np.any(blocks.Am1 != 0, axis=1))[0]
        assert nonzero_rows.tolist() == [2]
        assert np.allclose(blocks.Am1[2], [-q.q1, q.q2, 0, 0, 0], atol=1e-14)
        # self block: rho row is (0, sin(m pi/n), 0, 0, 0)
        assert np.allclose(blocks.A0[0], [0, np.sin(np.pi / 3), 0, 0, 0],
                           atol=1e-14)
        assert np.allclose(blocks.A0[3], [0, 0, 0, 0, 1.0], atol=1e-14)


class TestModeBlocks:
    def test_k_zero_is_real_sum(self, reference_params):
        blocks, _ = block_triple(reference_params, 1)
        d0 = dk(blocks, 0, 3)
        assert np.max(np.abs(d0.imag)) < 1e-14
        assert np.allclose(d0.real, blocks.A0 + blocks.A1 + blocks.Am1)

    def test_half_mode_for_even_n(self):
        params = ControlParams.homogeneous(4, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        blocks, _ = block_triple(params, 1)
        d2 = dk(blocks, 2, 4)
        assert np.max(np.abs(d2.imag)) < 1e-12
        assert np.allclose(d2.real, blocks.A0 - blocks.A1 - blocks.Am1)

    def test_union_matches_assembled_spectrum(self, reference_params):
        blocks, _ = block_triple(reference_params, 1)
        big = assemble_block_circulant(blocks, 3)
        lapack = np.linalg.eigvals(big)
        ours = np.concatenate([eig5(dk(blocks, k, 3)) for k in range(3)])
        assert multiset_distance(lapack, ours) < 1e-6


class TestCharPoly:
    def test_reference_mode_zero_factoring(self, reference_params):
        co = abd(reference_params, 1)
        coeffs = char_poly(reference_params, 1, 0)
        factored = np.polymul([1.0, 0.0, co.a ** 2],
                              [1.0, co.b, reference_params.lam * co.a ** 2,
                               0.0])
        assert np.max(np.abs(coeffs - factored)) < 1e-12
        assert abs(co.b - 0.78656) < 1e-4
        assert abs(reference_params.lam * co.a ** 2 - 0.72856) < 1e-4

    def test_matches_determinant_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params, m = _random_admissible(rng)
            blocks, _ = block_triple(params, m)
            for k in range(params.n):
                closed = char_poly(params, m, k)
                direct = characteristic_polynomial(dk(blocks, k, params.n))
                assert np.max(np.abs(closed - direct)) < 1e-8

    def test_roots_match_eigenvalues(self, reference_params):
        from pursuit_lab.numerics import poly_roots
        blocks, _ = block_triple(reference_params, 1)
        for k in range(3):
            roots = poly_roots(char_poly(reference_params, 1, k))
            eigs = eig5(dk(blocks, k, 3))
            assert multiset_distance(roots, eigs) < 1e-6

    def test_constraint_pair_is_always_a_factor(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            params, m = _random_admissible(rng)
            co = abd(params, m)
            for k in range(params.n):
                coeffs = char_poly(params, m, k)
                for root in (1j * params.mu * co.a, -1j * params.mu * co.a):
                    scale = 1.0 + np.max(np.abs(coeffs))
                    assert abs(np.polyval(coeffs, root)) < 1e-10 * scale


class TestCubic:
    def test_mode_zero_values(self, reference_params):
        co = abd(reference_params, 1)
        cc = cubic_coeffs(reference_params, 1, 0)
        assert (cc.c_t, cc.c_h) == (co.b, 0.0)
        assert abs(cc.d_t - reference_params.lam * co.a) < 1e-15
        assert cc.d_h == 0.0 and cc.e_t == 0.0 and cc.e_h == 0.0

    def test_half_mode_values(self):
        params = ControlParams.homogeneous(4, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        co = abd(params, 1)
        cc = cubic_coeffs(params, 1, 2)
        assert cc.c_h == pytest.approx(0.0, abs=1e-15)
        assert cc.d_h == pytest.approx(0.0, abs=1e-15)
        assert cc.e_h == pytest.approx(0.0, abs=1e-15)
        cot_m = 1.0 / np.tan(np.pi / 4)
        assert abs(cc.c_t - (co.b + co.a * 0.5 * cot_m)) < 1e-12
        assert abs(cc.d_t - co.d) < 1e-12
        assert abs(cc.e_t - 0.5 * np.cos(co.alpha_star)) < 1e-12

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            params, m = _random_admissible(rng)
            co = abd(params, m)
            k = int(rng.integers(0, params.n))
            cubic = cubic_coeffs(params, m, k).polynomial(params.mu, co.a)
            quintic = np.polymul(
                [1.0, 0.0, (params.mu * co.a) ** 2], cubic)
            assert np.max(np.abs(quintic - char_poly(params, m, k))) < 1e-10


class TestRouth:
    def test_agrees_with_eigenvalues_both_directions(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 50:
            params, m = _random_admissible(rng)
            verdict = routh_necessary(params, m).overall
            worst = spectrum_report(params, m).max_informative_real()
            if abs(worst) < 1e-9:
                continue
            assert verdict == (worst < 0.0), (params, m)
            checked += 1

    def test_gain_invariance(self, reference_params):
        verdicts = []
        for mu in (0.5, 1.0, 2.0, 10.0):
            params = ControlParams.homogeneous(3, mu=mu, lam=0.5,
                                               alpha=np.pi / 6,
                                               alpha0=np.pi / 4)
            verdicts.append(routh_necessary(params, 1).overall)
        assert verdicts == [True] * 4

    def test_mode_zero_third_condition_vacuous(self, reference_params):
        verdict = routh_necessary(reference_params, 1)
        # conditions 1-2 alone decide mode 0
        assert verdict.values[0, 2] == 0.0
        assert verdict.passed[0] == (verdict.values[0, :2] > 0.0).all()
        assert any("k=0" in note for note in verdict.notes)


class TestCorollaries:
    def test_reference_passes(self, reference_params):
        rep = corollary_checks(reference_params, 1)
        assert abs(rep.b_value - 0.78656) < 1e-4
        assert rep.b_positive and rep.passed
        assert not rep.even_n

    def test_necessary_implies_corollaries(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            params, m = _random_admissible(rng)
            if routh_necessary(params, m).overall:
                assert corollary_checks(params, m).passed

    def test_negative_b_fails_everything(self):
        # heavy beacon weighting with alpha0 = -pi/2 makes b < 0
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.9,
                                           alpha=np.pi / 6, alpha0=-np.pi / 2)
        rep = corollary_checks(params, 1)
        assert rep.b_value < 0 and not rep.passed
        assert not routh_necessary(params, 1).overall


class TestSpectrum:
    def test_reference_grouping(self, reference_params):
        rep = spectrum_report(reference_params, 1)
        assert rep.ok
        assert rep.constraint.size == 7 and rep.informative.size == 8
        assert np.max(np.abs(rep.constraint.real)) < 1e-6
        # the n pairs +/- j*mu*a plus one zero root
        assert multiset_distance(
            rep.constraint,
            [0.0] + [1.20711j, -1.20711j] * 3) < 1e-4

    def test_informative_scales_linearly_in_gain(self):
        base = ControlParams.homogeneous(3, mu=1.0, lam=0.5, alpha=np.pi / 6,
                                         alpha0=np.pi / 4)
        double = ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        a = spectrum_report(base, 1)
        b = spectrum_report(double, 1)
        assert a.constraint.size == b.constraint.size
        scale = np.max(np.abs(b.informative))
        assert multiset_distance(2.0 * a.informative, b.informative) \
            < 1e-6 * scale


# Informative roots of the mode blocks, computed once in mpmath at 100
# digits from the exact parameters (see the file's "about"): the shipped
# reference config at n = 3 and 50, the sweep rows whose last digits
# depend on the root route, a winding-4 set at n = 11, the near-triple
# root at n = 31, a k = 0 root 2e-6 from the exact zero (a = 9e-4) and
# random sets.  The largest real part must lie within
# 1e-14 (1 + mu); each mode's roots within 1e-14 of its largest root,
# since the n = 31 roots reach |z| = 808, where one ulp is 1.1e-13.
_REFERENCE = json.loads(Path(__file__).with_name(
    "spectrum_reference.json").read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", _REFERENCE,
                         ids=[case["name"] for case in _REFERENCE])
def test_spectrum_matches_high_precision_reference(case):
    params = ControlParams.homogeneous(
        case["n"], mu=case["mu"], lam=case["lam"], alpha=case["alpha"],
        alpha0=case["alpha0"])
    report = spectrum_report(params, case["m"])
    assert abs(report.max_informative_real()
               - float(case["max_informative_real"])) \
        <= 1e-14 * (1.0 + params.mu)
    for (_, got), ref in zip(report.by_mode, case["informative"],
                             strict=True):
        ref = np.array([complex(float(re), float(im)) for re, im in ref])
        assert multiset_distance(got, ref) \
            <= 1e-14 * (1.0 + np.max(np.abs(ref)))


class TestJacobian:
    def test_linearization_matches_finite_difference(self, reference_params):
        eq = reference_equilibrium(reference_params)
        shape = equilibrium_shape(eq, reference_params)
        vec0 = shape.to_vector()
        n = reference_params.n

        def field(v):
            return shape_derivative(ShapeState.from_vector(v, n),
                                    reference_params).to_vector()

        h = 1e-6
        jac = np.zeros((5 * n, 5 * n))
        for j in range(5 * n):
            probe = np.zeros(5 * n)
            probe[j] = h
            jac[:, j] = (field(vec0 + probe) - field(vec0 - probe)) / (2 * h)
        blocks, _ = block_triple(reference_params, 1)
        assert np.max(np.abs(jac - assemble_block_circulant(blocks, n))) \
            < 1e-5


# The per-mode scalar forms that the array code replaced, kept as oracles:
# the array forms must reproduce them bit for bit.

def _oracle_cubic(params, m, k):
    co = abd(params, m)
    lam = params.lam
    n = params.n
    a, b, d = co.a, co.b, co.d
    cot_m = 1.0 / np.tan(m * np.pi / n)
    sk = np.sin(k * np.pi / n)
    ck = np.cos(k * np.pi / n)
    cos_star = np.cos(co.alpha_star)
    return (float(b + a * (1.0 - lam) * sk ** 2 * cot_m),
            float(a * (1.0 - lam) * sk * ck * cot_m),
            float(d * sk ** 2 + lam * a * ck ** 2),
            float((lam * a - d) * sk * ck),
            float((1.0 - lam) * cos_star * sk ** 2),
            float((1.0 - lam) * cos_star * sk * ck))


def _oracle_routh(params, m, k):
    a = abd(params, m).a
    c_t, c_h, d_t, d_h, e_t, e_h = _oracle_cubic(params, m, k)
    cond1 = c_t
    cond2 = c_t * (c_t * d_t - a * e_t) - d_h * (c_t * c_h + a * d_h)
    gamma = c_t * (c_t * d_t - c_h * d_h) - a * (d_h * d_h + c_t * e_t)
    lam_k = c_t * (c_h * e_t - c_t * e_h) + a * d_h * e_t
    cond3 = gamma ** 2 * e_t + gamma * lam_k * d_h - lam_k ** 2 * c_t
    return float(cond1), float(cond2), float(cond3)


def _check_against_oracles(params, m):
    n = params.n
    expected = [_oracle_routh(params, m, k) for k in range(n)]
    table = cubic_coeffs(params, m, np.arange(n))
    for k in range(n):
        ref = _oracle_cubic(params, m, k)
        single = cubic_coeffs(params, m, k)
        got = (single.c_t, single.c_h, single.d_t, single.d_h, single.e_t,
               single.e_h)
        assert all(type(v) is float for v in got) and single.k == k
        assert same_bits(got, ref)
        assert same_bits([table.c_t[k], table.c_h[k], table.d_t[k],
                          table.d_h[k], table.e_t[k], table.e_h[k]], ref)
        assert same_bits(routh_conditions(params, m, k), expected[k])
    assert same_bits(np.stack(routh_conditions(params, m, np.arange(n)),
                              axis=-1), expected)
    verdict = routh_necessary(params, m)
    passed = []
    assert verdict.values.shape == (n, 3) and verdict.passed.shape == (n,)
    for k in range(n):
        applicable = (True, True, k != 0)
        passed.append(all(v > 0.0 for v, app in zip(expected[k], applicable)
                          if app))
        assert same_bits(verdict.values[k], expected[k])
        assert verdict.passed[k] == passed[-1]
    assert verdict.overall is all(passed)
    # the spectrum: each mode's closed-form constraint pair, then the
    # polished roots of its cubic solved on its own
    report = spectrum_report(params, m)
    a = abd(params, m).a
    pair = [complex(0.0, params.mu * a), complex(0.0, -params.mu * a)]
    diagnostics = []
    assert len(report.by_mode) == n
    for k, (constraint, informative) in enumerate(report.by_mode):
        roots = stability._cubic_roots(
            cubic_coeffs(params, m, k).polynomial(params.mu, a)[None])[0]
        expected = np.concatenate([pair, roots])
        if k == 0:
            # the cubic's exact zero root joins the constraint pair
            assert roots[2] == 0.0
            expected = expected[[0, 1, 4, 2, 3]]
        assert constraint.size == (3 if k == 0 else 2)
        assert same_bits(np.concatenate([constraint, informative]), expected)
        diagnostics += [f"k={k}: informative eigenvalue {z:.6g} is within "
                        "the imaginary-axis band (borderline)"
                        for z in informative if abs(z.real) < 1e-6]
    assert report.diagnostics == diagnostics
    return report


class TestArrayFormsMatchScalarOracles:
    """One abd per winding and all modes in one array pass reproduce the
    per-mode scalar code bit for bit: coefficients, condition values,
    verdicts, and the spectrum against a solve of each mode's cubic on
    its own, with its diagnostics."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(n=st.integers(2, 60), m_frac=st.floats(0.0, 1.0),
           mu=st.floats(0.1, 10.0), lam=st.floats(0.01, 0.99),
           alpha=st.floats(-np.pi, np.pi), alpha0=st.floats(-np.pi, np.pi))
    def test_random_parameters(self, n, m_frac, mu, lam, alpha, alpha0):
        m = min(n - 1, 1 + int(m_frac * (n - 1)))
        params = ControlParams.homogeneous(n, mu=mu, lam=lam, alpha=alpha,
                                           alpha0=alpha0)
        try:
            abd(params, m)
        except (EquilibriumNotFoundError, SingularModeError):
            assume(False)
        _check_against_oracles(params, m)

    def test_pow_trap(self):
        # here gamma ** 2 (libm pow) and gamma * gamma round apart at k = 1,
        # so an array square would move the third condition
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.32, alpha=-2.06,
                                           alpha0=-0.44)
        cc = cubic_coeffs(params, 1, 1)
        a = abd(params, 1).a
        gamma = (cc.c_t * (cc.c_t * cc.d_t - cc.c_h * cc.d_h)
                 - a * (cc.d_h * cc.d_h + cc.c_t * cc.e_t))
        lam_k = (cc.c_t * (cc.c_h * cc.e_t - cc.c_t * cc.e_h)
                 + a * cc.d_h * cc.e_t)
        squared = (gamma * gamma * cc.e_t + gamma * lam_k * cc.d_h
                   - lam_k * lam_k * cc.c_t)
        assert squared != _oracle_routh(params, 1, 1)[2]
        _check_against_oracles(params, 1)

    def test_borderline_informative_eigenvalue(self):
        # alpha0 = -pi/3 makes b = 0 up to rounding: the k = 0 informative
        # pair sits on the imaginary axis
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6,
                                           alpha0=-np.pi / 3)
        report = _check_against_oracles(params, 1)
        assert any("borderline" in d for d in report.diagnostics)


class TestSingleMode:
    def test_single_mode_is_python_floats(self, reference_params):
        cc = cubic_coeffs(reference_params, 1, 2)
        assert type(cc.k) is int and type(cc.c_t) is float
        assert all(type(v) is float
                   for v in routh_conditions(reference_params, 1, 2))

    def test_any_integer_k_as_the_scalar_form(self, reference_params):
        ks = np.array([-1, 3, 7])
        table = cubic_coeffs(reference_params, 1, ks)
        values = np.stack(routh_conditions(reference_params, 1, ks), axis=-1)
        for i, k in enumerate(ks.tolist()):
            ref = _oracle_cubic(reference_params, 1, k)
            assert same_bits([getattr(table, name)[i] for name in
                              ("c_t", "c_h", "d_t", "d_h", "e_t", "e_h")],
                             ref)
            assert same_bits(values[i], _oracle_routh(reference_params, 1, k))

    def test_modes_of_a_table(self, reference_params):
        table = cubic_coeffs(reference_params, 1, np.arange(3))
        assert table.modes() == [cubic_coeffs(reference_params, 1, k)
                                 for k in range(3)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(2, 10), m_frac=st.floats(0.0, 1.0),
       mu=st.floats(0.1, 10.0), lam=st.floats(0.01, 0.99),
       alpha=st.floats(-np.pi, np.pi), alpha0=st.floats(-np.pi, np.pi))
def test_spectrum_matches_lapack(n, m_frac, mu, lam, alpha, alpha0):
    # the factored spectrum against LAPACK on the assembled 5n x 5n
    # Jacobian; draws with an informative root in the imaginary-axis band
    # or within 1e-4 of another eigenvalue (ill-conditioned there) are
    # skipped
    m = min(n - 1, 1 + int(m_frac * (n - 1)))
    params = ControlParams.homogeneous(n, mu=mu, lam=lam, alpha=alpha,
                                       alpha0=alpha0)
    try:
        report = spectrum_report(params, m)
    except (EquilibriumNotFoundError, SingularModeError):
        assume(False)
    ours = np.concatenate([report.constraint, report.informative])
    gaps = np.abs(report.informative[:, None] - ours[None, :])
    assume(report.ok and np.sort(gaps, axis=1)[:, 1].min() >= 1e-4)
    lapack = np.linalg.eigvals(
        assemble_block_circulant(block_triple(params, m)[0], n))
    assert multiset_distance(lapack, ours) < 1e-6 * (1.0 + report.mu_a)
    assert int(np.sum(np.abs(lapack.real) < 1e-6)) == 2 * n + 1


# Sets whose k = 0 cubic has clustered roots, which poly_roots merges
# onto one double root: lambda = 1e-6 puts a root 1e-6 from the exact
# zero, a = 9e-4 one 2e-6 from it, and this alpha0 makes b^2 = 4 a^2
# lambda, a double root of the k = 0 quadratic factor.
_CLUSTERED = {
    "lambda=1e-6": (ControlParams.homogeneous(
        4, mu=1.0, lam=1e-6, alpha=np.pi / 4, alpha0=0.0), 1),
    "a=9e-4": (ControlParams.homogeneous(
        5, mu=3.24246755019641, lam=0.311344903499569,
        alpha=-1.3846200621277953, alpha0=1.2836472085688468), 3),
    "k=0 double root": (ControlParams.homogeneous(
        3, mu=1.0, lam=0.5, alpha=np.pi / 6,
        alpha0=1.4147212834849514), 1),
}


@pytest.mark.parametrize("name", list(_CLUSTERED))
def test_clustered_mode_zero_roots(name):
    params, m = _CLUSTERED[name]
    report = spectrum_report(params, m)
    ours = np.concatenate([report.constraint, report.informative])
    lapack = np.linalg.eigvals(
        assemble_block_circulant(block_triple(params, m)[0], params.n))
    assert multiset_distance(lapack, ours) < 1e-6 * (1.0 + report.mu_a)
    # the exact zero joins the constraint pair, and the informative pair
    # has the sum and product of the quadratic factor's roots
    constraint, informative = report.by_mode[0]
    mu_a = report.mu_a
    assert same_bits(constraint, np.array([complex(0.0, mu_a),
                                           complex(0.0, -mu_a), 0j]))
    cubic = cubic_coeffs(params, m, 0).polynomial(params.mu,
                                                  abd(params, m).a)
    assert cubic[3] == 0
    assert abs(informative.sum() + cubic[1]) <= 1e-15 * abs(cubic[1])
    assert abs(informative.prod() - cubic[2]) <= 1e-15 * abs(cubic[2])


def test_cubic_roots_split_a_merged_pair():
    # poly_roots merges the two roots 1e-6 apart onto one double root;
    # the quadratic left by the third root holds them apart again
    true = np.array([1.0 + 1.0j, 1.0 + 1.0j + 1e-6, -2.0 + 0.5j])
    table = np.poly(true)[None]
    merged = stability.poly_roots(table)[0]
    assert np.sum(merged[:, None] == merged[None, :]) == 5
    assert multiset_distance(stability._cubic_roots(table)[0], true) < 1e-9


def _sweep_bounds(name):
    """Sweep ranges that cross the existence boundary; lambda ranges
    reach 0, 1 or past them, where ControlParams rejects the sample."""
    if name == "lam":
        return (st.sampled_from([0.0, -0.2])
                | st.floats(0.01, 0.99)), (st.sampled_from([1.0, 1.2])
                                          | st.floats(0.01, 0.99))
    return st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)


class TestSweep:
    """Every row of the array sweep equals the scalar analysis of a
    ControlParams built for its sample."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data(), n=st.integers(2, 12),
           name=st.sampled_from(["alpha", "alpha0", "lam"]),
           m=st.integers(-3, 14), samples=st.integers(1, 24),
           lam=st.floats(0.05, 0.95), alpha=st.floats(-np.pi, np.pi),
           alpha0=st.floats(-np.pi, np.pi))
    def test_rows_equal_scalar_reports(self, data, n, name, m, samples, lam,
                                       alpha, alpha0):
        start, stop = (data.draw(bound) for bound in _sweep_bounds(name))
        values = np.linspace(start, stop, samples)
        base = ControlParams.homogeneous(n, mu=1.7, lam=lam, alpha=alpha,
                                         alpha0=alpha0)
        exists, verdict, worst = stability.sweep(base, m, name, values)
        assert exists.shape == verdict.shape == worst.shape == (samples,)
        for idx, value in enumerate(values):
            try:
                params = replace(base, **{name: value})
                expected = routh_necessary(params, m).overall
            except (PursuitLabError, ValueError):
                assert not exists[idx] and not verdict[idx]
                assert np.isnan(worst[idx])
                continue
            assert exists[idx] and verdict[idx] == expected
            real = spectrum_report(params, m).max_informative_real()
            assert format(worst[idx], ".12g") == format(real, ".12g")

    def test_unknown_parameter_rejected(self, reference_params):
        with pytest.raises(ValueError, match="cannot sweep 'mu'"):
            stability.sweep(reference_params, 1, "mu", np.array([1.0]))

    def test_failed_solve_reads_nan_and_leaves_others(self, monkeypatch):
        base = ControlParams.homogeneous(5, mu=1.0, lam=0.3, alpha=np.pi / 6,
                                         alpha0=0.2)
        values = np.array([0.1, 0.2, 0.3, 0.4])
        expected = stability.sweep(base, 1, "alpha0", values)
        poison = cubic_coeffs(replace(base, alpha0=0.3), 1, 1).polynomial(
            1.0, abd(replace(base, alpha0=0.3), 1).a)
        solve = stability.poly_roots

        def failing(table):
            if any(np.array_equal(row, poison)
                   for row in table.reshape(-1, 4)):
                raise NumericError("no convergence")
            return solve(table)

        monkeypatch.setattr(stability, "poly_roots", failing)
        exists, verdict, worst = stability.sweep(base, 1, "alpha0", values)
        assert np.array_equal(exists, expected[0])
        assert np.array_equal(verdict, expected[1])
        assert np.isnan(worst[2]) and not np.isnan(expected[2][2])
        assert same_bits(np.delete(worst, 2), np.delete(expected[2], 2))


@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_spectrum_report_solves_only_the_nonzero_cubics(n, monkeypatch):
    # one root solve over the n - 1 cubics of modes 1..n-1; the k = 0
    # cubic, whose constant term is exactly 0, is solved in closed form
    params = ControlParams.homogeneous(n, mu=1.0, lam=0.4, alpha=0.3,
                                       alpha0=0.5)
    calls = []
    solve = stability.poly_roots

    def counted(table):
        calls.append(table.shape)
        return solve(table)

    monkeypatch.setattr(stability, "poly_roots", counted)
    spectrum_report(params, 1)
    assert calls == [(n - 1, 4)]
