import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pursuit_lab import ControlParams


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and "test_acceptance" in item.nodeid:
        status = "PASS" if report.passed else "FAIL"
        label = item.name.replace("test_", "")
        print(f"\nACCEPTANCE {label}: {status} ({report.duration:.1f}s)")


def multiset_distance(a, b):
    """Max matched distance between two complex multisets (Hungarian)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def same_bits(a, b):
    """True when a and b have the same shape and dtype and the same bit
    pattern in every element, so -0.0 and +0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(np.ascontiguousarray(a).reshape(-1).view(np.uint64),
                          np.ascontiguousarray(b).reshape(-1).view(np.uint64))


def assemble_block_circulant(blocks, n):
    """The explicit 5n x 5n block-circulant Jacobian circ(A0, A1, 0, ...,
    A-1) of a :class:`~pursuit_lab.stability.BlockTriple`: row block i
    carries A0 on the diagonal, A1 at block i+1 and A-1 at block i-1
    (indices mod n)."""
    big = np.zeros((5 * n, 5 * n))
    for i in range(n):
        big[5 * i:5 * i + 5, 5 * i:5 * i + 5] = blocks.A0
        j = (i + 1) % n
        big[5 * i:5 * i + 5, 5 * j:5 * j + 5] = blocks.A1
        j = (i - 1) % n
        big[5 * i:5 * i + 5, 5 * j:5 * j + 5] = blocks.Am1
    return big


@pytest.fixture
def reference_params():
    """n=3, mu=1, lambda=1/2, alpha=pi/6, alpha0=pi/4 (winding m=1)."""
    return ControlParams.homogeneous(3, mu=1.0, lam=0.5, alpha=np.pi / 6,
                                     alpha0=np.pi / 4)


@pytest.fixture
def fig2_params():
    alpha = [np.pi / 6] * 3 + [np.pi / 7] * 3 + [np.pi / 8] * 4
    return ControlParams.homogeneous(10, mu=1.0, lam=0.5, alpha=alpha,
                                     alpha0=np.pi / 4)


@pytest.fixture
def spiral_params():
    """n=3 spiral-regime parameters (no reduced equilibrium at k=2)."""
    return ControlParams.homogeneous(3, mu=2.0, lam=0.5,
                                     alpha=7 * np.pi / 12,
                                     alpha0=11 * np.pi / 12)


def reference_equilibrium(params):
    """The canonical leftmost-branch ccw equilibrium of the reference
    parameters (sigma all +1, winding 1)."""
    from pursuit_lab import enumerate_equilibria
    matches = [eq for eq in enumerate_equilibria(params, direction=1)
               if eq.branch.sigma == (1, 1, 1) and eq.branch.m == 1]
    assert len(matches) == 1
    return matches[0]
