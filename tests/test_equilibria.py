import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pursuit_lab import (ControlParams, alpha_star, classify_degenerate,
                         constraint_residuals, enumerate_equilibria,
                         equilibrium_shape, extract_shape,
                         leftmost_equilibrium, shape_derivative)
from pursuit_lab.equilibria import (ALPHA_SUM_TOL, MARGINAL_BAND,
                                    STRICT_MARGIN, BranchAssignment,
                                    CirclingEquilibrium, DegenerateClass,
                                    _screen, _wrapped_alpha_star,
                                    embed_world,
                                    format_equilibrium_report)
from pursuit_lab.errors import (AssumptionError, DegenerateAlphaSumError,
                                DegenerateBranchError, EnumerationSizeError)
from pursuit_lab.numerics import cyclic_neighbors, wrap_angle

from conftest import reference_equilibrium, same_bits


def common_curvature(eq):
    """The common turning rate gamma = 2 sin(kappa_i)/rho_i of the orbit."""
    return 2.0 * np.sin(eq.kappa) / eq.rho


class TestAlphaStar:
    def test_leftmost_branch_formula(self, reference_params):
        # all sigma = +1 reduces to m*pi/n - mean(alpha)
        branch = BranchAssignment(sigma=(1, 1, 1), m=1)
        assert abs(alpha_star(branch, reference_params) - np.pi / 6) < 1e-12

    def test_two_agents(self):
        params = ControlParams.homogeneous(2, mu=1.0, lam=0.5,
                                           alpha=np.pi / 4, alpha0=0.3)
        value = alpha_star(BranchAssignment(sigma=(1, 1), m=1), params)
        assert abs(value - np.pi / 4) < 1e-12

    def test_mixed_alpha0_rejected_by_the_gate(self):
        params = ControlParams.homogeneous(3, alpha=0.2,
                                           alpha0=[0.1, 0.2, 0.3])
        with pytest.raises(AssumptionError,
                           match=r"^assumption\(s\) violated: A3 "):
            alpha_star(BranchAssignment(sigma=(1, 1, 1), m=1), params)

    def test_degenerate_branch_rejected(self):
        params = ControlParams.homogeneous(2, mu=1.0, lam=0.5, alpha=0.2,
                                           alpha0=0.3)
        with pytest.raises(DegenerateBranchError):
            alpha_star(BranchAssignment(sigma=(1, -1), m=0), params)


class TestEnumerate:
    def test_reference_equilibrium_values(self, reference_params):
        eq = reference_equilibrium(reference_params)
        assert np.max(np.abs(eq.kappa - np.pi / 3)) < 1e-9
        assert eq.kappa_b == np.pi / 2
        assert abs(eq.rho_b - 0.82843) < 1e-4
        assert np.max(np.abs(eq.rho - 1.43488)) < 1e-4

    def test_no_equilibria_when_radius_condition_fails(self):
        # lambda*cos(alpha0) dominates and is negative for every branch
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.9,
                                           alpha=np.pi / 6, alpha0=np.pi)
        assert enumerate_equilibria(params, direction=1) == []
        assert enumerate_equilibria(params, direction=-1) == []

    def test_winding_identity_and_margins(self, reference_params):
        for direction in (1, -1):
            for eq in enumerate_equilibria(reference_params, direction):
                total = np.sum(eq.kappa) - eq.branch.m * np.pi
                assert abs(wrap_angle(total)) < 1e-9
                assert np.all(eq.margins > 0)
                assert np.all(eq.rho > 0) and eq.rho_b > 0

    def test_fixed_points_and_equidistance(self, reference_params):
        for direction in (1, -1):
            for eq in enumerate_equilibria(reference_params, direction):
                shape = equilibrium_shape(eq, reference_params)
                assert shape_derivative(shape, reference_params).max_abs() \
                    < 1e-9
                assert constraint_residuals(shape).max_abs() < 1e-9
                assert np.max(np.abs(shape.rho_b - eq.rho_b)) == 0.0

    def test_common_curvature_identity(self, reference_params):
        eq = reference_equilibrium(reference_params)
        gamma = common_curvature(eq)
        assert np.max(np.abs(gamma - gamma[0])) < 1e-12
        assert abs(gamma[0] - eq.direction * 1.0 / eq.rho_b) < 1e-12

    def test_radius_scales_inversely_with_gain(self):
        radii = []
        for mu in (0.5, 1.0, 2.0):
            params = ControlParams.homogeneous(3, mu=mu, lam=0.5,
                                               alpha=np.pi / 6,
                                               alpha0=np.pi / 4)
            eq = reference_equilibrium(params)
            radii.append(eq.rho_b)
        assert abs(radii[0] - 2.0 * radii[1]) < 1e-12
        assert abs(radii[2] - 0.5 * radii[1]) < 1e-12

    def test_heterogeneous_alpha_supported(self):
        params = ControlParams.homogeneous(
            3, mu=1.0, lam=0.5, alpha=[np.pi / 6, np.pi / 7, np.pi / 8],
            alpha0=np.pi / 4)
        found = enumerate_equilibria(params, direction=1)
        assert found
        for eq in found:
            shape = equilibrium_shape(eq, params)
            assert shape_derivative(shape, params).max_abs() < 1e-9

    def test_direction_mirror(self, reference_params):
        ccw = enumerate_equilibria(reference_params, direction=1)
        cw = enumerate_equilibria(reference_params, direction=-1)
        assert len(ccw) == len(cw)
        key = lambda eq: (round(eq.rho_b, 10), tuple(np.round(
            np.sort(eq.rho), 10)))
        assert sorted(map(key, ccw)) == sorted(map(key, cw))
        assert all(eq.kappa_b == -np.pi / 2 for eq in cw)

    def test_alpha_sum_gate(self):
        params = ControlParams.homogeneous(3, mu=1.0, lam=0.5,
                                           alpha=np.pi / 3, alpha0=0.4)
        with pytest.raises(DegenerateAlphaSumError):
            enumerate_equilibria(params, direction=1)

    def test_enumeration_cap(self):
        params = ControlParams.homogeneous(17, mu=1.0, lam=0.5, alpha=0.1,
                                           alpha0=0.2)
        with pytest.raises(EnumerationSizeError):
            enumerate_equilibria(params, direction=1)


def _build_one(branch, a_star, direction, params, margins, marginal):
    """Reference build of one accepted candidate, its shape values
    formed on their own."""
    sigma = np.asarray(branch.sigma, dtype=float)
    kappa = wrap_angle((1.0 - sigma) * (np.pi / 2.0)
                       + sigma * a_star + params.alpha)
    theta = wrap_angle(np.pi - kappa[cyclic_neighbors(params.n)[1]])
    c1 = margins[0]
    rho_b = params.lam / (params.mu * c1)
    rho = 2.0 * rho_b * margins[1:]
    return CirclingEquilibrium(branch=branch, alpha_star=a_star,
                               direction=direction, kappa=kappa, theta=theta,
                               rho=rho, rho_b=float(rho_b),
                               margins=np.asarray(margins),
                               marginal=marginal)


def _per_candidate_build(params, direction, include_marginal):
    """Reference enumeration: the module's screen over each pattern's
    period window, then one :func:`_build_one` per accepted candidate,
    in sigma order, then m ascending."""
    n = params.n
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    M = bits.sum(axis=1)
    keep = 2 * M - n != 0
    sigma, M = bits[keep] * 2 - 1, M[keep]
    hits = []
    for m in range(2 * n):
        rows = np.flatnonzero(2 * np.abs(2 * M - n) > m)
        a_star = _wrapped_alpha_star(m, M[rows], n, params.alpha_sum())
        margins, marginal, take = _screen(a_star, sigma[rows], params,
                                          direction, include_marginal)
        hits += zip(rows[take].tolist(), [m] * len(take),
                    a_star[take].tolist(), margins[take],
                    marginal[take].tolist())
    hits.sort(key=lambda hit: hit[:2])
    return [_build_one(BranchAssignment(sigma=tuple(sigma[row].tolist()),
                                        m=m),
                       a_star, direction, params, margins, marginal)
            for row, m, a_star, margins, marginal in hits]


def _per_candidate_enumeration(params, direction, include_marginal):
    """Reference screen: one candidate (sigma, m) at a time, in
    itertools.product order of sigma, then m ascending."""
    alpha0 = params.alpha0[0]
    found = []
    for sigma in itertools.product((-1, 1), repeat=params.n):
        branch_m = [BranchAssignment(sigma=sigma, m=m)
                    for m in range(2 * params.n)]
        if 2 * branch_m[0].M - params.n == 0:
            continue
        seen = []
        for branch in branch_m:
            a_star = alpha_star(branch, params)
            if any(abs(wrap_angle(a_star - prev)) < 1e-12 for prev in seen):
                continue
            seen.append(a_star)
            c1 = (params.lam * np.cos(alpha0)
                  + (1.0 - params.lam) * direction * np.sin(a_star))
            c2 = direction * np.sin(a_star + np.asarray(sigma) * params.alpha)
            margins = np.concatenate([[c1], c2])
            marginal = bool(np.min(np.abs(margins)) < MARGINAL_BAND)
            accepted = bool(np.all(margins > STRICT_MARGIN)) and not marginal
            if accepted or (marginal and include_marginal
                            and np.all(margins > 0.0)):
                found.append(_build_one(branch, a_star, direction, params,
                                        margins, marginal))
    return found


def _pairwise_dedup_enumeration(params, direction, include_marginal):
    """Reference enumeration: every sign pattern at every winding in
    0..2n-1, a pattern's alpha* screened only when no earlier screened
    winding of it gave a wrapped value within 1e-12."""
    n = params.n
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    M = bits.sum(axis=1)
    keep = 2 * M - n != 0
    sigma, M = bits[keep] * 2 - 1, M[keep]
    turn = sigma * params.alpha
    c1_base = params.lam * np.cos(params.alpha0[0])
    c1_gain = (1.0 - params.lam) * direction
    alpha_sum = params.alpha_sum()
    screened = []
    hits = []
    for m in range(2 * n):
        a_star = wrap_angle(((m + M - n) * np.pi - alpha_sum) / (2 * M - n))
        fresh = np.ones(a_star.shape, dtype=bool)
        for prev, prev_fresh in screened:
            fresh &= ~(prev_fresh
                       & (np.abs(wrap_angle(a_star - prev)) < 1e-12))
        screened.append((a_star, fresh))
        rows = np.flatnonzero(fresh)
        a_fresh = a_star[rows]
        c1 = c1_base + c1_gain * np.sin(a_fresh)
        c2 = np.sin(a_fresh[:, None] + turn[rows])
        c2 *= direction
        margins = np.concatenate([c1[:, None], c2], axis=1)
        marginal = np.abs(margins).min(axis=1) < MARGINAL_BAND
        take = (margins > STRICT_MARGIN).all(axis=1) & ~marginal
        if include_marginal:
            take |= marginal & (margins > 0.0).all(axis=1)
        hits += zip(rows[take].tolist(), [m] * int(take.sum()),
                    a_fresh[take].tolist(), margins[take],
                    marginal[take].tolist())
    hits.sort(key=lambda hit: hit[:2])
    return [_build_one(
                BranchAssignment(sigma=tuple(sigma[row].tolist()), m=m),
                a_star, direction, params, margins, marginal)
            for row, m, a_star, margins, marginal in hits]


def _draw_params(seed, n, kind):
    """Random A1-A3 parameters; "special" puts alpha on rational
    multiples of pi, so candidates fall in the marginal band, and
    "near-common" spreads alpha by up to 0.3 around a common value."""
    rng = np.random.default_rng(seed)
    if kind == "heterogeneous":
        alpha = rng.uniform(-np.pi, np.pi, n)
    elif kind == "near-common":
        alpha = rng.uniform(-np.pi, np.pi) + rng.uniform(-0.3, 0.3, n)
    elif kind == "special":
        alpha = np.pi * int(rng.integers(-5, 6)) / int(
            rng.choice([3, 4, 6, 12]))
    else:
        alpha = float(rng.uniform(-np.pi, np.pi))
    return ControlParams.homogeneous(
        n, mu=float(rng.uniform(0.2, 3.0)),
        lam=float(rng.uniform(0.05, 0.95)), alpha=alpha,
        alpha0=float(rng.uniform(-np.pi, np.pi)))


def _assert_same_equilibria(got, expected):
    assert [(e.branch.sigma, e.branch.m) for e in got] \
        == [(e.branch.sigma, e.branch.m) for e in expected]
    for g, e in zip(got, expected):
        assert all(type(s) is int for s in g.branch.sigma)
        assert type(g.alpha_star) is float
        assert same_bits(g.alpha_star, e.alpha_star)
        assert g.direction == e.direction
        assert g.marginal is e.marginal
        for name in ("kappa", "theta", "rho", "rho_b", "margins"):
            assert same_bits(getattr(g, name), getattr(e, name)), name


class TestLeftmost:
    """The closed-form leftmost branch equals the enumeration's all-plus
    equilibrium matched by alpha* (within 1e-12), or both reject."""

    @staticmethod
    def _check(params, m, found):
        n = params.n
        got = leftmost_equilibrium(params, m)
        a_star = alpha_star(BranchAssignment(sigma=(1,) * n, m=m), params)
        matches = [eq for eq in found if eq.branch.sigma == (1,) * n
                   and abs(eq.alpha_star - a_star) < 1e-12]
        if not matches:
            assert got is None
            return 0
        assert matches[0].branch.m == m % (2 * n)
        _assert_same_equilibria([got], matches[:1])
        return 1

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           kind=st.sampled_from(["common", "special", "heterogeneous",
                                 "near-common"]),
           m=st.integers(-40, 40))
    def test_matches_enumeration(self, seed, n, kind, m):
        params = _draw_params(seed, n, kind)
        if abs(np.sin(params.alpha_sum())) <= ALPHA_SUM_TOL:
            # the enumeration stops at this gate; the closed form does not
            leftmost_equilibrium(params, m)
            return
        self._check(params, m, enumerate_equilibria(params, 1))

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_every_winding(self, n):
        params = ControlParams.homogeneous(n, mu=1.3, lam=0.4, alpha=0.35,
                                           alpha0=-0.6)
        found = enumerate_equilibria(params, 1)
        assert sum(self._check(params, m, found)
                   for m in range(-2 * n, 4 * n)) > n

    def test_reference_equilibrium(self, reference_params):
        for m in (1, 7, -5):
            _assert_same_equilibria(
                [leftmost_equilibrium(reference_params, m)],
                [reference_equilibrium(reference_params)])

    def test_needs_no_cap_or_alpha_sum_gate(self):
        # n = 17 exceeds the enumeration cap; alpha = 0 zeroes
        # sin(sum alpha), which stops the enumeration
        for n, alpha in ((17, 0.1), (3, 0.0)):
            params = ControlParams.homogeneous(n, mu=1.0, lam=0.5,
                                               alpha=alpha, alpha0=0.2)
            eq = leftmost_equilibrium(params, 1)
            rates = shape_derivative(equilibrium_shape(eq, params), params)
            assert rates.max_abs() < 1e-9

    def test_rejected_winding(self, reference_params):
        # m = 4: alpha* = (4pi - pi/2)/3 wraps to -5pi/6, so the chord
        # margin sin(alpha* + alpha) = sin(-2pi/3) is negative
        assert leftmost_equilibrium(reference_params, 4) is None
        assert not [eq for eq in enumerate_equilibria(reference_params, 1)
                    if eq.branch.sigma == (1, 1, 1) and eq.branch.m == 4]


class TestScreenOracle:
    """The vectorised screen over each pattern's period window reproduces
    the per-candidate screen and the pairwise comparison of every winding
    against the earlier ones bit for bit: same branches in the same
    order, same values."""

    def _check(self, params, direction, include_marginal,
               oracle=_per_candidate_enumeration):
        if abs(np.sin(params.alpha_sum())) <= ALPHA_SUM_TOL:
            with pytest.raises(DegenerateAlphaSumError):
                enumerate_equilibria(params, direction, include_marginal)
            return
        _assert_same_equilibria(
            enumerate_equilibria(params, direction, include_marginal),
            oracle(params, direction, include_marginal))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           kind=st.sampled_from(["common", "special", "heterogeneous"]),
           direction=st.sampled_from([1, -1]),
           include_marginal=st.booleans())
    def test_matches_per_candidate_screen(self, seed, n, kind, direction,
                                          include_marginal):
        self._check(_draw_params(seed, n, kind), direction, include_marginal)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 11),
           kind=st.sampled_from(["common", "special", "heterogeneous"]),
           direction=st.sampled_from([1, -1]),
           include_marginal=st.booleans())
    def test_matches_pairwise_dedup(self, seed, n, kind, direction,
                                    include_marginal):
        self._check(_draw_params(seed, n, kind), direction, include_marginal,
                    oracle=_pairwise_dedup_enumeration)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10),
           kind=st.sampled_from(["common", "special", "heterogeneous"]),
           direction=st.sampled_from([1, -1]),
           include_marginal=st.booleans())
    def test_array_build_matches_per_candidate_build(self, seed, n, kind,
                                                     direction,
                                                     include_marginal):
        # the shape values of all accepted rows, formed in one array
        # pass, equal the build of each candidate on its own
        self._check(_draw_params(seed, n, kind), direction, include_marginal,
                    oracle=_per_candidate_build)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_marginal_branches_of_even_n(self, n):
        # even n skips the 2M - n = 0 patterns; alpha = pi/6 puts some
        # branches in the marginal band
        params = ControlParams.homogeneous(n, mu=1.0, lam=0.5,
                                           alpha=np.pi / 6, alpha0=np.pi / 4)
        found = enumerate_equilibria(params, 1, include_marginal=True)
        assert any(eq.marginal for eq in found)
        assert all(2 * eq.branch.M != n for eq in found)
        for direction in (1, -1):
            for include_marginal in (False, True):
                self._check(params, direction, include_marginal)


class TestEmbedding:
    def test_roundtrip(self, reference_params):
        for direction in (1, -1):
            for eq in enumerate_equilibria(reference_params, direction):
                world = embed_world(eq, beacon=(0.5, -0.25), base_angle=0.3)
                shape = extract_shape(world)
                target = equilibrium_shape(eq, reference_params)
                assert np.max(np.abs(shape.rho - target.rho)) < 1e-9
                assert np.max(np.abs(shape.rho_b - target.rho_b)) < 1e-9
                for f in ("kappa", "theta", "kappa_b"):
                    assert np.max(np.abs(wrap_angle(
                        getattr(shape, f) - getattr(target, f)))) < 1e-9


class TestDegenerate:
    def test_continuum(self):
        params = ControlParams.homogeneous(2, mu=1.0, lam=0.5,
                                           alpha=[np.pi / 3, 2 * np.pi / 3],
                                           alpha0=0.4)
        assert classify_degenerate(params) is DegenerateClass.CONTINUUM

    def test_no_branch_equilibria(self):
        params = ControlParams.homogeneous(2, mu=1.0, lam=0.5,
                                           alpha=[np.pi / 4, np.pi / 4],
                                           alpha0=0.4)
        assert classify_degenerate(params) \
            is DegenerateClass.NO_BRANCH_EQUILIBRIA

    def test_odd_n_not_applicable(self, reference_params):
        assert classify_degenerate(reference_params) \
            is DegenerateClass.NOT_APPLICABLE


def test_report_contains_records(reference_params):
    found = enumerate_equilibria(reference_params, direction=1)
    text = format_equilibrium_report(found, reference_params,
                                     direction_label="counter-clockwise")
    assert "sigma" in text and "rho_b" in text
    assert "0.828427" in text
