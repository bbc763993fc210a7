"""The three benchmark workloads of pursuit-lab.

Each workload is built from ``(root, seed, scale)`` alone: ``root`` is the
checkout, ``seed`` makes every input and ``scale`` shrinks horizons and
sizes (1.0 in a measured run; small values only for the smoke test).
Building a workload is the set-up that ``setup_s`` times.  ``run_pass``
does one timed pass and returns its items; ``check`` then checks the
items against the acceptance tolerances and returns one message per
failed item; ``finish`` runs the checks that need the whole run.

The workloads call only the top-level ``pursuit_lab`` exports, public
module functions and ``cli.main``/``cli.parse_config``, and look each one
up at call time, so a tracer installed from outside sees every call.

* ``ensemble``: independent full-space runs of the fig. 2 system.  Almost
  all the work is ``full_space`` and ``numerics.rk4_step``; the analysis
  layers stay idle.
* ``solo``: the shipped n = 3 trajectory configs through ``cli.main``, at a
  fixed fraction of their length.  Single runs, so the per-step overhead of
  the shape-space and pure-shape fields, the per-step guards, recording
  and CSV output is what costs.
* ``atlas``: parameter-space analysis with no integrator: Routh verdicts
  and grouped spectra over a seeded grid, branch enumeration, and the CLI
  ``stability``, ``equilibria`` and ``sweep`` modes.
"""

import contextlib
import io
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pursuit_lab as pl
from pursuit_lab import cli

# Outcomes of valid physics: counted per layer, never as failures.
TYPED_OUTCOMES = ("CollisionError", "EquilibriumNotFoundError",
                  "DegenerateAlphaSumError")
# CLI exit code of a collision abort (the only typed outcome in `solo`).
COLLISION_EXIT = 4

# Acceptance tolerances and reference values (criteria 01-10).
RESIDUAL_TOL = 1e-6          # 04: constraint residuals
TWO_ROUTE_TOL = 1e-4         # 03: full-space vs shape-space
CONVERGE_SPREAD = 1e-3       # 01: rho_b spread over the last 10 time units
CONVERGE_HEADING = 1e-2      # 01: | |kappa_b| - pi/2 |
CONVERGE_HORIZON = 100.0     # 01: run length
CONVERGE_COHORT = 4          # long members needed before 01 is checked
MANIFOLD_TOL = 1e-5          # 08: manifold residual
SPIRAL_TOL = 1e-3            # 10: shape kept up to similarity
EQUILIBRIUM_RATE_TOL = 1e-9  # 02: shape rates at a closed-form equilibrium
REF_RHO_B = 0.82843          # 02: reference equilibrium beacon range
REF_RHO_B_TOL = 1e-4
REF_ASYMPTOTE = 5 * math.pi / 6   # 09: fig. 5 heading asymptote
ASYMPTOTE_TOL = 1e-9
VERDICT_BAND = 1e-9          # 07: eigenvalues closer to the axis are skipped
CSV_TOL = 1e-9               # values written with 12 significant digits


@dataclass
class Item:
    """One unit of work of a pass and what its check needs."""

    latency_s: float
    outcome: str = "ok"   # "ok", a typed outcome, or "error: ..."
    steps: int = 0        # RK4 steps completed
    data: object = None
    latency_item: bool = True   # counts in the item latency figures


def _timed(fn, *args, **kwargs):
    """Run ``fn``; return (seconds, result, outcome)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
        outcome = "ok"
    except Exception as err:  # classified below, never hidden
        result = None
        name = type(err).__name__
        outcome = name if name in TYPED_OUTCOMES else f"error: {name}: {err}"
    return time.perf_counter() - start, result, outcome


def _read_csv(path):
    """Columns of a pursuit-lab CSV by header name (comment lines skipped)."""
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def _positions(cols, n):
    return np.stack([np.stack([cols[f"r{i}_x"], cols[f"r{i}_y"]], axis=-1)
                     for i in range(1, n + 1)], axis=1)


def _wrap(angle):
    return np.pi - np.mod(np.pi - angle, 2.0 * np.pi)


class _CliWorkload:
    """Runs ``cli.main`` for prepared argument lists."""

    def __init__(self, out_root):
        self.out_root = Path(out_root)
        self.bytes_written = 0

    def _cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            elapsed, code, outcome = _timed(cli.main, argv)
        if outcome == "ok" and code == COLLISION_EXIT:
            outcome = "CollisionError"
        elif outcome == "ok" and code != 0:
            outcome = f"error: exit {code}: {sink.getvalue().strip()}"
        return elapsed, outcome

    def _count_bytes(self, out):
        self.bytes_written += sum(p.stat().st_size for p in Path(out).iterdir())


class Ensemble:
    """Independent full-space runs of the fig. 2 system (n = 10, mixed
    bearings, alpha0 = pi/4) from seeded ``random_world`` states.

    Each pass advances every member by ``SEGMENT`` time units from where
    the previous pass left it, with the config's sparse recording, and
    extracts the shape trajectory.  Every step costs the same wherever the
    member is, so passes are equal work, and within one run the members
    can reach criterion 01's horizon for its convergence check.
    """

    name = "ensemble"
    throughput = "steps"
    MEMBERS = 4
    SEGMENT = 5.0
    TWO_ROUTE_T = 0.5
    TWO_ROUTE_DT = 1e-3

    def __init__(self, root, seed, scale, out_root=None):
        cfg = cli.parse_config(str(Path(root) / "configs" / "fig2.cfg"),
                               "simulate")
        self.params = cfg.params
        self.dt = cfg.dt
        self.record_every = cfg.record_every
        self.segment = self.SEGMENT * scale
        self.two_route_t = self.TWO_ROUTE_T * scale
        rng = np.random.default_rng(seed)
        self.worlds = [pl.random_world(self.params.n, seed=int(s))
                       for s in rng.integers(0, 2**63 - 1, size=self.MEMBERS)]
        self.clock = [0.0] * self.MEMBERS
        self.tail = [[] for _ in range(self.MEMBERS)]
        self.collisions = 0

    def run_pass(self):
        items = []
        for i, world in enumerate(self.worlds):
            if world is None:
                continue
            start = time.perf_counter()
            try:
                traj = pl.simulate(world, self.params, self.segment, self.dt,
                                   record_every=self.record_every)
                shape = pl.full_space.extract_shape_trajectory(traj)
                self.worlds[i] = traj.world_at(-1)
            except pl.errors.CollisionError as err:
                self.worlds[i] = None
                steps = int(round((err.t or 0.0) / self.dt))
                items.append(Item(time.perf_counter() - start,
                                  "CollisionError", steps))
                continue
            except Exception as err:  # an untyped failure: counted
                self.worlds[i] = None
                items.append(Item(time.perf_counter() - start,
                                  f"error: {type(err).__name__}: {err}"))
                continue
            items.append(Item(time.perf_counter() - start, "ok",
                              int(round(traj.t[-1] / self.dt)),
                              (i, traj.t, shape)))
        return items

    def check(self, items):
        failures = []
        for item in items:
            if item.outcome == "CollisionError":
                self.collisions += 1
                continue
            if item.outcome != "ok":
                failures.append(item.outcome)
                continue
            i, t, shape = item.data
            item.data = None
            worst = max(
                pl.constraint_residuals(
                    pl.ShapeState(*(a[k].copy() for a in shape))).max_abs()
                for k in range(0, t.size, 10))
            if not worst < RESIDUAL_TOL:
                failures.append(f"member {i}: constraint residual "
                                f"{worst:.3e} at t = {self.clock[i]:.6g}")
            # rho_b and kappa_b of the last 10 time units, for criterion 01
            self.tail[i].append((self.clock[i] + t, shape[3], shape[4]))
            self.clock[i] += float(t[-1])
            while self.tail[i][0][0][-1] < self.clock[i] - 10.0:
                self.tail[i].pop(0)
        return failures

    def finish(self):
        """Criterion 03 on the first live member's current state, and
        criterion 01 on members that ran at least its horizon.

        About one random fig. 2 start in six settles on a non-circling
        motion instead, so a single member that does not converge is
        valid physics; the check fails when four or more members ran long
        enough and none of them converged (odds about 1 in 1000).
        """
        failures = []
        live = [i for i, w in enumerate(self.worlds) if w is not None]
        if live:
            world = self.worlds[live[0]]
            _, gap, outcome = _timed(self._two_route_gap, world)
            if outcome != "ok" or not gap < TWO_ROUTE_TOL:
                failures.append(f"two-route check: {outcome} gap {gap}")
        long_enough = [i for i in live if self.clock[i] >= CONVERGE_HORIZON]
        converged = [i for i in long_enough if self._converged(i)]
        if len(long_enough) >= CONVERGE_COHORT and not converged:
            failures.append(f"none of {len(long_enough)} members converged "
                            f"to circling by t = {CONVERGE_HORIZON:g}")
        summary = {"members": self.MEMBERS, "collisions": self.collisions,
                   "run_long_enough": len(long_enough),
                   "converged": len(converged),
                   "member_time": min(self.clock)}
        return failures, 2 if live else 1, summary

    def _two_route_gap(self, world):
        full = pl.simulate(world, self.params, self.two_route_t,
                           self.TWO_ROUTE_DT, record_every=50)
        route = pl.integrate_shape(pl.extract_shape(world), self.params,
                                   self.two_route_t, self.TWO_ROUTE_DT,
                                   record_every=50)
        rho, kappa, theta, rho_b, kappa_b = \
            pl.full_space.extract_shape_trajectory(full)
        return max(np.max(np.abs(rho - route.rho)),
                   np.max(np.abs(rho_b - route.rho_b)),
                   np.max(np.abs(_wrap(kappa - route.kappa))),
                   np.max(np.abs(_wrap(theta - route.theta))),
                   np.max(np.abs(_wrap(kappa_b - route.kappa_b))))

    def _converged(self, i):
        t = np.concatenate([seg[0] for seg in self.tail[i]])
        rho_b = np.concatenate([seg[1] for seg in self.tail[i]])
        kappa_b = self.tail[i][-1][2]
        tail = rho_b[t >= t[-1] - 10.0]
        spread = tail.std() / tail.mean()
        heading = np.max(np.abs(np.abs(kappa_b[-1]) - np.pi / 2))
        return spread < CONVERGE_SPREAD and heading < CONVERGE_HEADING


class Solo(_CliWorkload):
    """The shipped n = 3 trajectory configs through ``cli.main``, each at
    ``LENGTH`` of its shipped horizon (dt and recording as shipped)."""

    name = "solo"
    throughput = "steps"
    LENGTH = 1 / 25
    # (mode, config, shipped horizon)
    RUNS = (("simulate", "reference.cfg", 10.0),
            ("shape-sim", "reference.cfg", 5.0),
            ("simulate", "fig4.cfg", 20.0),
            ("pure-shape", "fig5.cfg", 50.0),
            ("portrait", "fig5.cfg", 60.0))
    KAPPA1 = 2.894      # fig4/fig5 start heading; jittered per seed
    KAPPA1_JITTER = 0.05

    def __init__(self, root, seed, scale, out_root):
        super().__init__(out_root)
        rng = np.random.default_rng(seed)
        self.runs = []
        for idx, (mode, config, horizon) in enumerate(self.RUNS):
            path = Path(root) / "configs" / config
            out = self.out_root / f"{idx}-{mode}-{path.stem}"
            run_seed = int(rng.integers(0, 2**31))
            overrides = [f"{mode}.t={horizon * self.LENGTH * scale!r}"]
            if config == "fig4.cfg" or mode == "pure-shape":
                kappa1 = self.KAPPA1 + rng.uniform(-self.KAPPA1_JITTER,
                                                   self.KAPPA1_JITTER)
                overrides.append(f"{mode}.kappa1={kappa1!r}")
            cfg = cli.parse_config(str(path), mode, overrides=overrides,
                                   out_dir=str(out), seed=run_seed)
            argv = [mode, "--config", str(path), "--out", str(out),
                    "--seed", str(run_seed)]
            for item in overrides:
                argv += ["--override", item]
            self.runs.append((cfg, argv, self._initial_state(cfg)))

    @staticmethod
    def _initial_state(cfg):
        """The state each run starts from, as the checks expect it."""
        params = cfg.params
        if cfg.mode == "shape-sim":
            return pl.extract_shape(pl.random_world(params.n, seed=cfg.seed))
        if cfg.mode == "simulate" and cfg.initial == "equilibrium":
            eq = next(e for e in pl.enumerate_equilibria(params, 1)
                      if e.branch.sigma == (1,) * params.n
                      and e.branch.m == cfg.m)
            return pl.equilibria.embed_world(eq)
        if cfg.mode in ("simulate", "pure-shape"):
            return pl.lift(pl.manifold_spec(params.n, cfg.k), cfg.kappa1,
                           cfg.rho1)[1]
        return None

    def run_pass(self):
        items = []
        for cfg, argv, initial in self.runs:
            elapsed, outcome = self._cli(argv)
            steps = int(round(cfg.T / cfg.dt)) * max(1, len(cfg.seeds))
            items.append(Item(elapsed, outcome,
                              steps if outcome == "ok" else 0,
                              (cfg, initial)))
        return items

    def check(self, items):
        failures = []
        for item in items:
            cfg, initial = item.data
            if item.outcome in TYPED_OUTCOMES:
                continue
            if item.outcome != "ok":
                failures.append(f"{cfg.mode}: {item.outcome}")
                continue
            self._count_bytes(cfg.out_dir)
            problem = getattr(self, "_check_" + cfg.mode.replace("-", "_"))(
                cfg, initial)
            if problem:
                failures.append(f"{cfg.mode} {cfg.out_dir.name}: {problem}")
        return failures

    def finish(self):
        return [], 0, {"configs": len(self.runs)}

    @staticmethod
    def _rows_expected(cfg):
        steps = int(round(cfg.T / cfg.dt))
        return len(range(0, steps + 1, cfg.record_every)) + \
            (steps % cfg.record_every != 0)

    def _check_simulate(self, cfg, initial):
        cols = _read_csv(cfg.out_dir / "trajectory.csv")
        n = cfg.params.n
        pos = _positions(cols, n)
        beacon = np.stack([cols["beacon_x"], cols["beacon_y"]], axis=-1)
        if cols["t"].size != self._rows_expected(cfg):
            return f"{cols['t'].size} rows"
        if not np.all(np.isfinite(pos)):
            return "non-finite positions"
        if np.max(np.abs(pos[0] - initial.positions)) > CSV_TOL:
            return "first row is not the initial state"
        rho_b = np.hypot(*np.moveaxis(beacon[:, None, :] - pos, -1, 0))
        if cfg.initial == "equilibrium":
            worst = np.max(np.abs(rho_b - REF_RHO_B))
            return None if worst < REF_RHO_B_TOL else \
                f"beacon range off the equilibrium by {worst:.3e}"
        chase = np.hypot(*np.moveaxis(np.roll(pos, -1, axis=1) - pos, -1, 0))
        rho1 = chase[:, 0]
        rho_tb = 1.0 / (2.0 * np.sin(cfg.k * np.pi / n))
        if np.max(np.abs(chase / rho1[:, None] - 1.0)) >= SPIRAL_TOL:
            return "chase ranges not equal"
        if np.max(np.abs(rho_b / rho1[:, None] - rho_tb)) >= SPIRAL_TOL:
            return "beacon ratio off the manifold"
        if not np.all(np.diff(rho1) > 0):
            return "spiral scale not increasing"
        return None

    def _check_shape_sim(self, cfg, initial):
        cols = _read_csv(cfg.out_dir / "shape.csv")
        if cols["t"].size != self._rows_expected(cfg):
            return f"{cols['t'].size} rows"
        worst = max(np.max(np.abs(cols[c]))
                    for c in ("g0", "max_abs_g1", "max_abs_g2"))
        if not worst < RESIDUAL_TOL:
            return f"residual column reaches {worst:.3e}"
        first = np.array([cols[f"rho_{i}"][0]
                          for i in range(1, cfg.params.n + 1)])
        if np.max(np.abs(first - initial.rho)) > CSV_TOL:
            return "first row is not the initial shape"
        return None

    def _check_pure_shape(self, cfg, initial):
        cols = _read_csv(cfg.out_dir / "pure_shape.csv")
        if cols["t"].size != self._rows_expected(cfg):
            return f"{cols['t'].size} rows"
        worst = np.max(np.abs(cols["manifold_residual"]))
        if not worst < MANIFOLD_TOL:
            return f"manifold residual reaches {worst:.3e}"
        text = (cfg.out_dir / "pure_shape.txt").read_text()
        match = re.search(r"predicted heading asymptote = (\S+) rad", text)
        if match is None:
            return "no asymptote line"
        if abs(float(match.group(1)) - REF_ASYMPTOTE) > ASYMPTOTE_TOL:
            return f"asymptote {match.group(1)} is not 5pi/6"
        return None

    def _check_portrait(self, cfg, initial):
        grid = _read_csv(cfg.out_dir / "grid.csv")
        if grid["kappa1"].size != (cfg.grid.kappa_samples
                                   * cfg.grid.rho_samples):
            return "grid size"
        if not all(np.all(np.isfinite(v)) for v in grid.values()):
            return "non-finite field samples"
        strip_low = cfg.k * np.pi / cfg.params.n
        for idx in range(len(cfg.seeds)):
            traj = _read_csv(cfg.out_dir / f"traj_{idx:02d}.csv")
            offsets = _wrap(traj["kappa1"] - strip_low)
            if not np.all((offsets > 0) & (offsets < np.pi)):
                return f"trajectory {idx} left the invariant strip"
            if not np.all(np.diff(traj["rho1"]) > 0):
                return f"trajectory {idx}: rho1 not increasing"
        return None


class Atlas(_CliWorkload):
    """Parameter-space analysis; no integrator runs.

    * A stratified seeded draw over (alpha, alpha0) cells at each n of
      ``GRID``, with lambda drawn per point; every point gets a Routh
      verdict and a grouped spectrum at winding 1.  Points come in pairs
      (alpha, alpha0) and (alpha + pi, alpha0 + pi) with one lambda, which
      flips the sign of the existence coefficient a, so exactly half of
      the points take the fast reject path (no equilibrium) whatever the
      seed, and the work of a pass does not depend on it.
    * ``enumerate_equilibria`` (counter-clockwise) at each n of
      ``ENUM_SIZES`` with seeded per-agent bearings, redrawn until
      |sin(sum alpha)| > 0.1 so the closed form applies.
    * The CLI ``stability`` and ``equilibria`` modes on the reference
      config and ``sweep`` on the benchmark's own config.
    """

    name = "atlas"
    throughput = "points"
    GRID = ((3, 8), (10, 6), (50, 4))   # (n, cells per axis)
    ENUM_SIZES = (4, 7, 10)
    CLI_RUNS = (("stability", "configs/reference.cfg"),
                ("equilibria", "configs/reference.cfg"),
                ("sweep", "benchmarks/atlas_sweep.cfg"))
    WINDING = 1

    def __init__(self, root, seed, scale, out_root):
        super().__init__(out_root)
        rng = np.random.default_rng(seed)
        self.points = []
        for n, cells in self.GRID:
            cells = 2 * max(1, int(round(cells / 2 * math.sqrt(scale))))
            width = 2 * np.pi / cells
            for i in range(cells // 2):
                for j in range(cells):
                    lam = rng.uniform(0.05, 0.95)
                    alpha = -np.pi + (i + rng.uniform()) * width
                    alpha0 = -np.pi + (j + rng.uniform()) * width
                    for shift in (0.0, np.pi):
                        self.points.append(pl.ControlParams.homogeneous(
                            n, mu=1.0, lam=lam, alpha=alpha + shift,
                            alpha0=_wrap(alpha0 + shift)))
        self.enum_params = []
        for n in self.ENUM_SIZES:
            while True:
                alpha = rng.uniform(-np.pi / 2, np.pi / 2, size=n)
                if abs(np.sin(alpha.sum())) > 0.1:
                    break
            self.enum_params.append(pl.ControlParams.homogeneous(
                n, mu=1.0, lam=rng.uniform(0.2, 0.8), alpha=alpha,
                alpha0=rng.uniform(-np.pi, np.pi)))
        self.cli_runs = []
        for mode, config in self.CLI_RUNS:
            path = Path(root) / config
            out = self.out_root / mode
            cfg = cli.parse_config(str(path), mode, out_dir=str(out),
                                   seed=seed)
            argv = [mode, "--config", str(path), "--out", str(out),
                    "--seed", str(seed)]
            self.cli_runs.append((cfg, argv))
        self.exists = 0
        self.classified = 0

    def _classify(self, params):
        verdict = pl.routh_necessary(params, self.WINDING)
        return verdict, pl.spectrum_report(params, self.WINDING)

    def run_pass(self):
        items = []
        for params in self.points:
            elapsed, result, outcome = _timed(self._classify, params)
            items.append(Item(elapsed, outcome, 0, ("point", params, result)))
        for params in self.enum_params:
            elapsed, result, outcome = _timed(pl.enumerate_equilibria,
                                              params, 1)
            items.append(Item(elapsed, outcome, 0, ("enum", params, result),
                              latency_item=False))
        for cfg, argv in self.cli_runs:
            elapsed, outcome = self._cli(argv)
            items.append(Item(elapsed, outcome, 0, ("cli", cfg, None),
                              latency_item=False))
        return items

    def check(self, items):
        failures = []
        for item in items:
            kind, subject, result = item.data
            item.data = (kind, None, None)
            if item.outcome in TYPED_OUTCOMES:
                if kind == "point":
                    self.classified += 1
                continue
            if item.outcome != "ok":
                failures.append(f"{kind}: {item.outcome}")
                continue
            if kind == "point":
                self.classified += 1
                self.exists += 1
                problem = self._check_point(subject, *result)
            elif kind == "enum":
                problem = self._check_enum(subject, result)
            else:
                self._count_bytes(subject.out_dir)
                problem = getattr(self, "_check_" + subject.mode)(subject)
            if problem:
                failures.append(f"{kind}: {problem}")
        return failures

    def finish(self):
        return [], 0, {"points": len(self.points),
                       "exists_share": self.exists / max(1, self.classified)}

    @staticmethod
    def _check_point(params, verdict, spectrum):
        n = params.n
        if (spectrum.constraint.size != 2 * n + 1
                or spectrum.informative.size != 3 * n - 1):
            return (f"spectrum split {spectrum.constraint.size} / "
                    f"{spectrum.informative.size}")
        worst = spectrum.max_informative_real()
        if abs(worst) >= VERDICT_BAND and verdict.overall != (worst < 0.0):
            return (f"Routh verdict {verdict.overall} against max "
                    f"informative Re {worst:.3e}")
        return None

    @staticmethod
    def _check_enum(params, found):
        for eq in found:
            if not np.all(eq.margins > 0.0):
                return "accepted branch with a non-positive margin"
            rate = pl.shape_derivative(pl.equilibrium_shape(eq, params),
                                       params).max_abs()
            if not rate < EQUILIBRIUM_RATE_TOL:
                return f"shape rate {rate:.3e} at an equilibrium"
        return None

    @staticmethod
    def _check_equilibria(cfg):
        text = (cfg.out_dir / "equilibria.txt").read_text()
        sigma = "+" * cfg.params.n
        head = f"sigma = {sigma}  m = 1  direction = ccw"
        for block in text.split("\nequilibrium ")[1:]:
            if head in block:
                rho_b = float(re.search(r"rho_b\s+= (\S+)", block).group(1))
                if abs(rho_b - REF_RHO_B) >= REF_RHO_B_TOL:
                    return f"reference rho_b {rho_b}"
                return None
        return "reference equilibrium missing"

    @staticmethod
    def _check_stability(cfg):
        cols = _read_csv_text(cfg.out_dir / "spectrum.csv")
        n = cfg.params.n
        groups = [row[3] for row in cols]
        if (groups.count("constraint") != 2 * n + 1
                or groups.count("informative") != 3 * n - 1):
            return "spectrum split"
        worst = max(float(row[1]) for row in cols if row[3] == "informative")
        text = (cfg.out_dir / "stability.txt").read_text()
        passed = "necessary conditions verdict: PASS" in text
        if abs(worst) >= VERDICT_BAND and passed != (worst < 0.0):
            return f"verdict {passed} against max informative Re {worst}"
        return None

    @staticmethod
    def _check_sweep(cfg):
        rows = _read_csv_text(cfg.out_dir / "sweep.csv")
        if len(rows) != cfg.sweep_samples:
            return f"{len(rows)} rows"
        for index, _, exists, verdict, worst in rows:
            if exists == "1":
                worst = float(worst)
                if abs(worst) >= VERDICT_BAND and (verdict == "1") != (
                        worst < 0.0):
                    return f"row {index}: verdict against Re {worst}"
        return None


def _read_csv_text(path):
    """Rows of a CSV with text columns, header and comments skipped."""
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


WORKLOADS = {w.name: w for w in (Ensemble, Solo, Atlas)}
