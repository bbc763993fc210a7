"""Shared numerical kernels.

The fixed-step RK4 step and the one driver loop every integrator runs
through, the step count of a horizon, cyclic neighbour indices, angle
normalization (of arrays and of one float), the scalar pass that runs
a field in Python floats with an IEEE fallback, the roots of tables of
monic polynomials (Aberth-Ehrlich simultaneous iteration), which solves
the cubic factors of the spectrum, and LAPACK eigenvalues of stacked
5x5 complex blocks.
All functions are pure.

Conventions used package-wide:

* state vectors are 1-D float arrays of fixed length; a state whose
  field runs in scalar math is a Python list of floats instead, and
  ``rk4_step`` and ``rk4_integrate`` step it as a list, bit for bit as
  they step the same state as an array;
* a polynomial table holds one monic polynomial per row, complex
  coefficients highest degree first, and each row is solved exactly as
  it would be alone;
* angles are stored wrapped to (-pi, pi] and compared circularly.
"""

import functools
import math
from array import array

import numpy as np

from .errors import CollisionError, IntegrationError, NumericError

# Default fixed step for all integrations (deterministic, reproducible).
DEFAULT_DT = 1e-3
# Relative distance of T / dt from a whole number accepted as a whole
# step count (absorbs the roundoff of decimal horizons and steps).
_HORIZON_TOL = 1e-9
# Aberth step test: a row stops once its largest step is below this,
# relative to 1 + its largest root estimate.
_STEP_TOL = 1e-14
# Aberth sweeps a row may take before poly_roots gives up on it.
_MAX_SWEEPS = 500


def step_count(T, dt):
    """The number of fixed steps dt that lands exactly on the horizon T.

    Raises ValueError, naming T and dt, when dt is not positive, when
    T / dt rounds to zero steps, or when T / dt is more than a relative
    1e-9 off a whole number (the run would stop short of, or past, T).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    ratio = T / dt
    steps = int(round(ratio))
    if steps < 1:
        raise ValueError(f"horizon T = {T:g} rounds to no step of "
                         f"dt = {dt:g}")
    if abs(ratio - steps) > _HORIZON_TOL * ratio:
        raise ValueError(f"horizon T = {T:g} is not a whole number of "
                         f"steps dt = {dt:g} (T / dt = {ratio:.12g})")
    return steps


@functools.lru_cache(maxsize=None)
def cyclic_neighbors(n):
    """Read-only index arrays of each agent's successor and predecessor
    in the cycle of n agents.

    Gathering ``x[..., nxt]`` equals ``np.roll(x, -1, axis=-1)`` (and
    ``prv`` a roll by +1) bit for bit, without np.roll's per-call
    overhead.
    """
    nxt, prv = np.roll(np.arange(n), -1), np.roll(np.arange(n), 1)
    nxt.setflags(write=False)
    prv.setflags(write=False)
    return nxt, prv


def wrap_angle(theta):
    """Wrap an angle (scalar or array) to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


def _wrap(angle):
    """``wrap_angle`` of one float, bit for bit: Python's float % rounds
    as np.mod does (fmod, then the divisor's sign)."""
    return math.pi - (math.pi - angle) % (2.0 * math.pi)


def _scalar_pass(fn, values, *args):
    """``fn(values, *args, sin, cos)`` on the list of floats ``values``,
    with math.sin and math.cos.

    Where a float operation raises instead of rounding (a zero divisor,
    the sine or cosine of an infinity), the same pass runs again on
    numpy scalars with np.sin and np.cos: their IEEE results (inf, nan,
    with numpy's warning) are those the array form gives.
    """
    try:
        return fn(values, *args, math.sin, math.cos)
    except (ZeroDivisionError, ValueError):
        return fn([np.float64(v) for v in values], *args, np.sin, np.cos)


def _check_finite(k, stage):
    if not np.isfinite(k).all():
        bad = int(np.argmin(np.isfinite(k)))
        raise IntegrationError(
            f"non-finite derivative entry at index {bad} (RK4 stage {stage})"
        )


def rk4_step(field, state, dt):
    """Advance ``state`` by one classical 4th-order Runge-Kutta step.

    Parameters
    ----------
    field : callable
        Maps a state vector to its time derivative (autonomous system).
    state : ndarray or list of float
        Current state.  A list is stepped entry by entry in Python
        floats, and its field takes and returns lists; every entry takes
        the array form's operations in its order, so the result has the
        same bits.
    dt : float
        Step size, > 0.

    Returns
    -------
    ndarray or list of float
        The state after one step, of the type of ``state``.
        Deterministic for fixed inputs.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    # Each stage is gated by the finiteness of its sum: a non-finite entry
    # always makes the sum non-finite, and a finite sum that overflows
    # only takes the exact check, which passes.
    if isinstance(state, list):
        half = 0.5 * dt
        k1 = field(state)
        if not math.isfinite(sum(k1)):
            _check_finite(k1, 1)
        k2 = field([y + half * k for y, k in zip(state, k1)])
        if not math.isfinite(sum(k2)):
            _check_finite(k2, 2)
        k3 = field([y + half * k for y, k in zip(state, k2)])
        if not math.isfinite(sum(k3)):
            _check_finite(k3, 3)
        k4 = field([y + dt * k for y, k in zip(state, k3)])
        if not math.isfinite(sum(k4)):
            _check_finite(k4, 4)
        sixth = dt / 6.0
        return [y + sixth * (a + 2.0 * b + 2.0 * c + d)
                for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
    k1 = np.asarray(field(state), dtype=float)
    if not math.isfinite(np.add.reduce(k1, axis=None)):
        _check_finite(k1, 1)
    k2 = np.asarray(field(state + (0.5 * dt) * k1), dtype=float)
    if not math.isfinite(np.add.reduce(k2, axis=None)):
        _check_finite(k2, 2)
    k3 = np.asarray(field(state + (0.5 * dt) * k2), dtype=float)
    if not math.isfinite(np.add.reduce(k3, axis=None)):
        _check_finite(k3, 3)
    k4 = np.asarray(field(state + dt * k3), dtype=float)
    if not math.isfinite(np.add.reduce(k4, axis=None)):
        _check_finite(k4, 4)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(field, y0, T, dt, record_every=1, post_step=None):
    """Fixed-step RK4 trajectory of an autonomous field.

    Runs ``step_count(T, dt)`` steps from ``y0``, so the last sample
    sits exactly at T (a horizon that is not a whole number of steps is
    rejected with ValueError).  After each step the state
    must be finite (else :class:`NumericError`); then ``post_step(y, t)``,
    when given, returns the state to carry on with (re-wrapped,
    renormalized, checked).  A list ``y0`` is stepped as a list of floats
    (see :func:`rk4_step`), and ``post_step`` gets and returns that list;
    the samples are the same float array either way.  The state is
    sampled at t = 0, every ``record_every`` steps and after the last
    step.  A :class:`CollisionError` raised by the field or by
    ``post_step`` without a time is re-raised carrying the time of the
    step.

    Returns
    -------
    times : ndarray, shape (m,)
    samples : ndarray, shape (m, len(y0))
    """
    n_steps = step_count(T, dt)
    scalar = isinstance(y0, list)
    if scalar:
        y = [float(v) for v in y0]
        # the samples of a list state, row after row, as raw doubles: a
        # copied list would keep a float object alive per entry
        samples = array("d", y)
    else:
        y = np.array(y0, dtype=float)
        samples = [y.copy()]
    times = [0.0]
    for step in range(1, n_steps + 1):
        t = step * dt
        try:
            y = rk4_step(field, y, dt)
            # the sum gate of rk4_step: only a non-finite sum takes the
            # exact check
            total = sum(y) if scalar else np.add.reduce(y, axis=None)
            if not math.isfinite(total) and not np.isfinite(y).all():
                raise NumericError(f"non-finite state at t = {t:.6g}")
            if post_step is not None:
                y = post_step(y, t)
        except CollisionError as err:
            if err.t is not None:
                raise
            raise CollisionError(str(err), pair=err.pair, t=t) from None
        if step % record_every == 0 or step == n_steps:
            times.append(t)
            if scalar:
                samples.fromlist(y)
            else:
                samples.append(y.copy())
    if scalar:
        samples = np.frombuffer(samples).reshape(len(times), len(y))
    return np.asarray(times), np.asarray(samples)


def _horner(coeffs, z):
    """Values of the polynomials ``coeffs`` (..., d+1) at the points
    ``z`` (..., r), row by row."""
    # out-of-place products: numpy's in-place complex multiply of a
    # length-1 array can round differently from the out-of-place one
    v = np.empty_like(z)
    v[...] = coeffs[..., :1]
    for i in range(1, coeffs.shape[-1]):
        v = v * z + coeffs[..., i:i + 1]
    return v


def _derivative_coeffs(coeffs):
    deg = coeffs.size - 1
    return coeffs[:-1] * np.arange(deg, 0, -1)


def _polish_clusters(coeffs, roots, scale):
    """Collapse root clusters onto polished multiple roots.

    The simultaneous iteration is only linearly convergent at a root of
    multiplicity c, stalling on a small star around it.  A c-fold root is
    a simple (well-conditioned) root of the (c-1)-th derivative, so each
    cluster centroid is Newton-polished there; the collapse is kept only
    when the full polynomial residual confirms a genuine multiple root
    (close-but-distinct roots fail that check and are left alone).
    """
    n = roots.size
    # generous radius: the stall star of a degree-5 quintuple root reaches
    # ~3e-3; false merges are rejected by the residual check below
    tol = 1e-2 * (1.0 + np.max(np.abs(roots)))
    used = np.zeros(n, dtype=bool)
    out = roots.copy()
    for i in range(n):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        queue = [i]
        while queue:
            a = queue.pop()
            for j in range(n):
                if not used[j] and abs(out[a] - out[j]) < tol:
                    used[j] = True
                    group.append(j)
                    queue.append(j)
        c = len(group)
        if c < 2:
            continue
        dc = coeffs
        for _ in range(c - 1):
            dc = _derivative_coeffs(dc)
        d1 = _derivative_coeffs(dc)
        z = out[group].mean()
        for _ in range(60):
            dv = _horner(d1, np.array([z]))[0]
            if dv == 0:
                break
            step = _horner(dc, np.array([z]))[0] / dv
            z = z - step
            if abs(step) <= 1e-15 * (1.0 + abs(z)):
                break
        if abs(_horner(coeffs, np.array([z]))[0]) <= 1e-12 * scale:
            out[group] = z
    return out


def _aberth(c, residual_tol):
    """Aberth-Ehrlich sweeps on the monic rows ``c`` (B, n+1), n >= 2.

    Every row runs its own iteration: it stops updating at the sweep
    where its own residual or step test passes, so it takes exactly the
    sweeps it would take alone.  Raises NumericError if any row is still
    iterating after ``_MAX_SWEEPS`` sweeps.
    """
    n = c.shape[1] - 1
    dc = c[:, :-1] * np.arange(n, 0, -1)
    radius = 1.0 + np.max(np.abs(c[:, 1:]), axis=1)
    angles = 2.0 * np.pi * (np.arange(n) + 0.25) / n + 0.4
    z = radius[:, None] * np.exp(1j * angles)
    # the rows still iterating: their indices into z, current estimates,
    # residual tolerances and coefficients
    live, za, tol = np.arange(c.shape[0]), z.copy(), residual_tol

    def freeze(stop):
        nonlocal live, za, tol, c, dc
        z[live[stop]] = za[stop]
        keep = ~stop
        live, za, tol = live[keep], za[keep], tol[keep]
        c, dc = c[keep], dc[keep]
        return keep

    for _ in range(_MAX_SWEEPS):
        pv = _horner(c, za)
        converged = np.abs(pv).max(axis=1) <= tol
        if converged.any():
            pv = pv[freeze(converged)]
            if not live.size:
                break
        dv = _horner(dc, za)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = za[:, :, None] - za[:, None, :]
        diff.reshape(live.size, n * n)[:, ::n + 1] = np.inf
        s = (1.0 / diff).sum(axis=2)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        delta = w / denom
        za = za - delta
        done = (np.abs(delta).max(axis=1)
                <= _STEP_TOL * (1.0 + np.abs(za).max(axis=1)))
        if done.any():
            freeze(done)
            if not live.size:
                break
    if live.size:
        raise NumericError(
            "polynomial root iteration did not converge in "
            f"{_MAX_SWEEPS} sweeps"
        )
    return z


def poly_roots(c):
    """The roots of the monic polynomials ``c`` (B, d+1), d >= 2, one per
    row, highest degree first, each with a nonzero constant term: a
    (B, d) array, residuals below ``1e-9 * (1 + max |coefficient|)``.

    Aberth-Ehrlich simultaneous iteration from estimates on a circle
    inside the Cauchy root bound, with an angular offset that breaks
    symmetric stalling; root clusters left by multiple roots are then
    collapsed onto a polished multiple root.  Each row is solved exactly
    as it would be alone.  Raises NumericError if any row has not
    converged after ``_MAX_SWEEPS`` sweeps.
    """
    c = np.asarray(c, dtype=complex)
    if not c.shape[0]:
        return np.empty((0, c.shape[1] - 1), dtype=complex)
    scale = 1.0 + np.max(np.abs(c), axis=1)
    roots = _aberth(c, 1e-13 * scale)
    # Only a row with two roots inside twice the cluster radius of
    # _polish_clusters can have a cluster; the others are left as they are.
    radius = 1e-2 * (1.0 + np.max(np.abs(roots), axis=1))
    gap = np.abs(roots[:, :, None] - roots[:, None, :])
    diag = np.arange(roots.shape[1])
    gap[:, diag, diag] = np.inf
    for row in np.flatnonzero(
            (gap < 2.0 * radius[:, None, None]).any(axis=(1, 2))):
        roots[row] = _polish_clusters(c[row], roots[row], float(scale[row]))
    return roots


def eig5(matrix):
    """The 5 eigenvalues of each 5x5 complex matrix of a (..., 5, 5)
    stack, as a (..., 5) array, from LAPACK (``np.linalg.eigvals``).

    Off the analysis path, which solves the factored cubics; the
    benchmark tracer (``benchmarks/spans.py``) wraps it by name.  Raises
    NumericError when any member has a non-finite entry.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.shape[-2:] != (5, 5):
        raise ValueError("eig5 expects 5x5 matrices")
    if not np.isfinite(a).all():
        raise NumericError("matrix has non-finite entries")
    return np.linalg.eigvals(a)
