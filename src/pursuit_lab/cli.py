"""Command-line front end: ``pursuit-lab <mode> --config <file>``.

Configuration is plain ``key = value`` text with one section per concern
([system] plus a section per mode).  Angles accept raw radians or
pi-multiple suffix notation ("11/12pi", "-1/2pi", "0.25pi"); per-agent
lists use commas with an optional repeat count ("1/6pi*3, 1/7pi*3").
Outputs are deterministic for a fixed config and seed, and every run
writes a manifest listing its artifacts with their provenance.

Exit codes: 0 success, 2 configuration, 3 numeric, 4 collision,
5 precondition.
"""

import argparse
import configparser
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import equilibria, full_space, pure_shape, shape_space, stability
from .errors import (AssumptionError, ConfigError, DegenerateAlphaSumError,
                     PursuitLabError)
from .numerics import DEFAULT_DT, step_count
from .params import (ControlParams, require_analysis_assumptions,
                     require_shape_assumptions)

MODES = ("simulate", "shape-sim", "equilibria", "stability", "pure-shape",
         "portrait", "sweep")

_SYSTEM_KEYS = {"n", "mu", "mu_b", "lambda", "alpha", "alpha0", "nu"}
_MODE_KEYS = {
    "simulate": {"t", "dt", "seed", "initial", "m", "k", "kappa1", "rho1",
                 "record_every"},
    "shape-sim": {"t", "dt", "seed", "initial", "m", "k", "kappa1", "rho1",
                  "record_every"},
    "equilibria": {"direction"},
    "stability": {"m"},
    "pure-shape": {"k", "kappa1", "rho1", "t", "dt", "record_every"},
    "portrait": {"k", "kappa_min", "kappa_max", "kappa_samples", "rho_min",
                 "rho_max", "rho_samples", "seeds", "t", "dt"},
    "sweep": {"parameter", "start", "stop", "samples", "m"},
}
# The homogeneity assumptions each mode requires (simulate from an
# equilibrium also requires A1-A3), and the config key that carries each
# assumption (named in the error).
_MODE_ASSUMPTIONS = {
    "shape-sim": require_shape_assumptions,
    "equilibria": require_shape_assumptions,
    "stability": require_analysis_assumptions,
    "pure-shape": require_analysis_assumptions,
    "portrait": require_analysis_assumptions,
    "sweep": require_analysis_assumptions,
}
_ASSUMPTION_KEYS = {"A1": "nu", "A2": "mu_b", "A3": "alpha0", "A4": "alpha"}


def parse_angle(text, key="angle"):
    """Parse radians or pi-suffix notation ("11/12pi", "pi", "-0.5pi");
    nan and +-inf are rejected, naming ``key``."""
    s = str(text).strip().lower().replace(" ", "")
    try:
        if s.endswith("pi"):
            head = s[:-2]
            if head in ("", "+"):
                factor = 1.0
            elif head == "-":
                factor = -1.0
            elif "/" in head:
                num, den = head.split("/")
                factor = float(num if num not in ("", "-") else num + "1") \
                    / float(den)
            else:
                factor = float(head)
            value = factor * math.pi
        else:
            value = float(s)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key}: cannot parse angle value {text!r}") \
            from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite angle, got {text!r}")
    return value


def parse_angle_list(text, n, key):
    """Comma list of angles with optional '*count' repeats, broadcast
    when a single value is given."""
    items = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            value_text, count_text = chunk.rsplit("*", 1)
            try:
                count = int(count_text)
            except ValueError:
                raise ConfigError(
                    f"{key}: bad repeat count in {chunk!r}") from None
        else:
            value_text, count = chunk, 1
        items.extend([parse_angle(value_text, key)] * count)
    if len(items) == 1:
        items = items * n
    if len(items) != n:
        raise ConfigError(
            f"{key}: expected {n} entries (or one to broadcast), got "
            f"{len(items)}")
    return items


@dataclass
class RunConfig:
    """A fully validated run request."""

    mode: str
    params: ControlParams
    out_dir: Path
    seed: int = 0
    T: float = 20.0
    dt: float = DEFAULT_DT
    record_every: int = 1
    initial: str = "random"
    m: int = 1
    k: int = 1
    kappa1: float = 0.0
    rho1: float = 1.0
    direction: str = "both"
    grid: pure_shape.GridSpec = None
    seeds: tuple = ()
    sweep_parameter: str = "alpha0"
    sweep_start: float = 0.0
    sweep_stop: float = math.pi
    sweep_samples: int = 16
    canonical: str = ""

    def config_hash(self):
        return hashlib.sha256(self.canonical.encode()).hexdigest()[:16]


def _get(section, key, default=None):
    if section is None or key not in section:
        return default
    return section[key]


def _require(section, key, mode):
    if section is None or key not in section:
        raise ConfigError(f"missing required key '{key}' for mode {mode}")
    return section[key]


def _check_unknown_keys(parser, mode):
    for name in parser.sections():
        if name == "system":
            allowed = _SYSTEM_KEYS
        elif name in MODES:
            allowed = _MODE_KEYS[name]
        else:
            raise ConfigError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in allowed:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")


def _number(value, key, kind=float):
    try:
        out = kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {what}, got {value!r}") \
            from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return out


def _positive(value, key, kind=float):
    out = _number(value, key, kind)
    if out <= 0:
        raise ConfigError(f"{key}: must be positive, got {out}")
    return out


def parse_config(path, mode, overrides=(), out_dir="out", seed=None):
    """Load, override and validate a run configuration.

    Overrides take ``section.key=value`` or bare ``key=value`` (system
    first, then the mode section).  Every failure names the exact key.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of "
                          + ", ".join(MODES))
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if "." in key:
            section, bare = key.split(".", 1)
        elif key in _SYSTEM_KEYS:
            section, bare = "system", key
        else:
            section, bare = mode, key
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][bare] = value.strip()
    _check_unknown_keys(parser, mode)

    if "system" not in parser:
        raise ConfigError("missing [system] section")
    system = parser["system"]
    n = _number(_require(system, "n", "system"), "n", kind=int)
    mu = _number(_require(system, "mu", "system"), "mu")
    lam = _number(_require(system, "lambda", "system"), "lambda")
    alpha = parse_angle_list(_require(system, "alpha", "system"), n, "alpha")
    alpha0 = parse_angle_list(_require(system, "alpha0", "system"), n,
                              "alpha0")
    nu = [_number(v, "nu") for v in str(_get(system, "nu", "1")).split(",")]
    mub_text = _get(system, "mu_b")
    mu_b = mu if mub_text is None else [
        _number(v, "mu_b") for v in str(mub_text).split(",")]
    try:
        params = ControlParams(n=n, mu=mu, lam=lam, alpha=alpha,
                               alpha0=alpha0, mu_b=mu_b, nu=nu)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    section = parser[mode] if parser.has_section(mode) else None
    cfg = RunConfig(mode=mode, params=params, out_dir=Path(out_dir))
    initial = str(_get(section, "initial", cfg.initial)).strip()
    gate = _MODE_ASSUMPTIONS.get(mode)
    if mode == "simulate" and initial == "equilibrium":
        gate = require_shape_assumptions
    if gate is not None:
        try:
            gate(params)
        except AssumptionError as err:
            raise ConfigError(f"{_ASSUMPTION_KEYS[err.failed[0]]}: mode "
                              f"{mode}: {err}") from None

    cfg.seed = _number(seed if seed is not None
                       else _get(section, "seed") or cfg.seed, "seed",
                       kind=int)
    cfg.T = _positive(_get(section, "t", cfg.T), "t")
    cfg.dt = _positive(_get(section, "dt", cfg.dt), "dt")
    try:
        step_count(cfg.T, cfg.dt)
    except ValueError as err:
        raise ConfigError(f"t: {err}") from None
    cfg.record_every = int(_positive(
        _get(section, "record_every", cfg.record_every), "record_every",
        kind=int))

    if mode in ("simulate", "shape-sim"):
        cfg.initial = initial
        if cfg.initial not in ("random", "equilibrium", "manifold"):
            raise ConfigError(
                f"initial: expected random|equilibrium|manifold, got "
                f"{cfg.initial!r}")
        if cfg.initial == "equilibrium":
            cfg.m = _number(_require(section, "m", mode), "m", kind=int)
        if cfg.initial == "manifold":
            cfg.k = _number(_require(section, "k", mode), "k", kind=int)
            cfg.kappa1 = parse_angle(_require(section, "kappa1", mode),
                                     "kappa1")
            cfg.rho1 = _positive(_require(section, "rho1", mode), "rho1")
    elif mode == "equilibria":
        cfg.direction = str(_get(section, "direction",
                                 cfg.direction)).strip()
        if cfg.direction not in ("ccw", "cw", "both"):
            raise ConfigError("direction: expected ccw|cw|both")
    elif mode == "stability":
        cfg.m = _number(_require(section, "m", mode), "m", kind=int)
    elif mode == "pure-shape":
        cfg.k = _number(_require(section, "k", mode), "k", kind=int)
        cfg.kappa1 = parse_angle(_get(section, "kappa1", cfg.kappa1),
                                 "kappa1")
        cfg.rho1 = _positive(_get(section, "rho1", cfg.rho1), "rho1")
    elif mode == "portrait":
        cfg.k = _number(_require(section, "k", mode), "k", kind=int)
        try:
            cfg.grid = pure_shape.GridSpec(
                kappa_min=parse_angle(_require(section, "kappa_min", mode),
                                      "kappa_min"),
                kappa_max=parse_angle(_require(section, "kappa_max", mode),
                                      "kappa_max"),
                kappa_samples=_number(
                    _require(section, "kappa_samples", mode),
                    "kappa_samples", kind=int),
                rho_min=_positive(_require(section, "rho_min", mode),
                                  "rho_min"),
                rho_max=_positive(_get(section, "rho_max", 50.0),
                                  "rho_max"),
                rho_samples=_number(_require(section, "rho_samples", mode),
                                    "rho_samples", kind=int))
        except ValueError as err:
            raise ConfigError(f"portrait grid: {err}") from None
        seeds = []
        seeds_text = _get(section, "seeds", "")
        for chunk in str(seeds_text).split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ConfigError(
                    f"seeds: expected kappa1:rho1 pairs, got {chunk!r}")
            ka, rh = chunk.split(":", 1)
            seeds.append((parse_angle(ka, "seeds"),
                          _positive(rh, "seeds")))
        cfg.seeds = tuple(seeds)
    elif mode == "sweep":
        cfg.sweep_parameter = str(_get(section, "parameter",
                                       cfg.sweep_parameter)).strip()
        if cfg.sweep_parameter not in ("alpha0", "alpha", "lambda"):
            raise ConfigError("parameter: expected alpha0|alpha|lambda")
        cfg.sweep_start = parse_angle(_get(section, "start",
                                           cfg.sweep_start), "start")
        cfg.sweep_stop = parse_angle(_get(section, "stop", cfg.sweep_stop),
                                     "stop")
        cfg.sweep_samples = int(_positive(
            _get(section, "samples", cfg.sweep_samples), "samples",
            kind=int))
        cfg.m = _number(_require(section, "m", mode), "m", kind=int)

    canon = [f"mode={mode}", f"seed={cfg.seed}"]
    for name in sorted(parser.sections()):
        for key in sorted(parser[name]):
            canon.append(f"{name}.{key}={parser[name][key]}")
    cfg.canonical = "\n".join(canon)
    return cfg


def _initial_world(cfg):
    if cfg.initial == "random":
        return full_space.random_world(cfg.params.n, seed=cfg.seed)
    if cfg.initial == "equilibrium":
        eq = equilibria.leftmost_equilibrium(cfg.params, cfg.m)
        if eq is None:
            raise ConfigError(
                f"m={cfg.m}: no counter-clockwise leftmost-branch "
                "equilibrium for these parameters")
        return equilibria.embed_world(eq)
    spec = pure_shape.manifold_spec(cfg.params.n, cfg.k)
    _, world = pure_shape.lift(spec, cfg.kappa1, cfg.rho1)
    return world


def _write_manifest(cfg, artifacts):
    path = cfg.out_dir / "manifest.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# artifact provenance: name, mode, config hash, seed\n")
        for name in artifacts:
            fh.write(f"{name}\tmode={cfg.mode}\t"
                     f"config_sha256={cfg.config_hash()}\tseed={cfg.seed}\n")
    return path


def _write_csv(path, notes, columns, table, fmt="%.12g"):
    """Write one CSV artifact: a ``# `` line per note, the header, then
    the rows of the 2-D ``table``.  ``fmt`` is one printf format for every
    column or a list with one per column."""
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(f"# {note}\n")
        fh.write(",".join(columns) + "\n")
        np.savetxt(fh, table, fmt=fmt, delimiter=",")
    return path.name


def _agent_columns(n, *patterns):
    """Per-agent column names: each pattern for agent 1, then agent 2..."""
    return [p.format(i) for i in range(1, n + 1) for p in patterns]


def run(cfg):
    """Execute a validated configuration; returns artifact paths."""
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    # the header note of the two trajectory modes
    run_note = (f"mode={cfg.mode} initial={cfg.initial} T={cfg.T:.12g} "
                f"dt={cfg.dt:.12g}")
    if cfg.mode == "simulate":
        world = _initial_world(cfg)
        traj = full_space.simulate(world, cfg.params, cfg.T, cfg.dt,
                                   record_every=cfg.record_every)
        n = traj.n
        heading = np.arctan2(traj.headings[..., 1], traj.headings[..., 0])
        agents = np.concatenate([traj.positions, heading[..., None]], axis=-1)
        table = np.column_stack([
            traj.t, agents.reshape(len(traj.t), -1),
            np.broadcast_to(traj.beacon, (len(traj.t), 2)), traj.controls])
        artifacts.append(_write_csv(
            out / "trajectory.csv",
            ["full-space trajectory; positions in length units, headings "
             "in radians wrapped to (-pi, pi], u in 1/length",
             f"seed = {cfg.seed}", run_note],
            ["t"] + _agent_columns(n, "r{}_x", "r{}_y", "heading_{}")
            + ["beacon_x", "beacon_y"] + _agent_columns(n, "u_{}"),
            table))
    elif cfg.mode == "shape-sim":
        world = _initial_world(cfg)
        shape0 = full_space.extract_shape(world)
        traj = shape_space.integrate_shape(shape0, cfg.params, cfg.T, cfg.dt,
                                           record_every=cfg.record_every)
        blocks = np.stack([traj.rho, traj.kappa, traj.theta, traj.rho_b,
                           traj.kappa_b], axis=-1)
        artifacts.append(_write_csv(
            out / "shape.csv",
            ["shape-space trajectory; lengths in length units, angles in "
             "radians wrapped to (-pi, pi]", run_note],
            ["t"] + _agent_columns(traj.n, "rho_{}", "kappa_{}", "theta_{}",
                                   "rho_{}b", "kappa_{}b")
            + ["g0", "max_abs_g1", "max_abs_g2"],
            np.column_stack([traj.t, blocks.reshape(len(traj.t), -1),
                             traj.residuals])))
    elif cfg.mode == "equilibria":
        chunks = []
        directions = {"ccw": [1], "cw": [-1], "both": [1, -1]}[cfg.direction]
        for direction in directions:
            label = "counter-clockwise" if direction == 1 else "clockwise"
            try:
                found = equilibria.enumerate_equilibria(cfg.params, direction)
                chunks.append(equilibria.format_equilibrium_report(
                    found, cfg.params, direction_label=label))
            except DegenerateAlphaSumError as err:
                verdict = equilibria.classify_degenerate(cfg.params)
                chunks.append(
                    f"direction: {label}\nunclassified: {err}\n"
                    f"degenerate-branch classification: {verdict.value}\n")
        (out / "equilibria.txt").write_text("\n".join(chunks),
                                            encoding="utf-8")
        artifacts.append("equilibria.txt")
    elif cfg.mode == "stability":
        spectrum = stability.spectrum_report(cfg.params, cfg.m)
        verdict = stability.routh_necessary(cfg.params, cfg.m)
        (out / "stability.txt").write_text(
            stability.format_stability_report(cfg.params, verdict, spectrum),
            encoding="utf-8")
        artifacts.append("stability.txt")
        rows = [(k, z.real, z.imag, group)
                for k, pair in enumerate(spectrum.by_mode)
                for group, values in zip(("constraint", "informative"), pair)
                for z in values]
        artifacts.append(_write_csv(
            out / "spectrum.csv",
            ["eigenvalues of the block-circulant linearization; group is "
             "'constraint' or 'informative'"],
            ["k", "re", "im", "group"], np.array(rows, dtype=object),
            ["%d", "%.12g", "%.12g", "%s"]))
    elif cfg.mode == "pure-shape":
        spec = pure_shape.manifold_spec(cfg.params.n, cfg.k)
        state0, _ = pure_shape.lift(spec, cfg.kappa1, cfg.rho1)
        traj = pure_shape.integrate_pure_shape(
            state0, cfg.params, cfg.T, cfg.dt, record_every=cfg.record_every)
        artifacts.append(_write_csv(
            out / "pure_shape.csv",
            ["transformed-dynamics trajectory on the invariant manifold; "
             "residual = max deviation from the manifold constants"],
            ["t", "kappa1", "rho1", "manifold_residual"],
            np.column_stack([traj.t, traj.kappa1, traj.rho1,
                             np.max(spec.residuals(traj.states), axis=-1)])))
        lines = [f"manifold k = {cfg.k} of n = {cfg.params.n}",
                 f"psi = {spec.psi_const:.12g}, phi_b = "
                 f"{spec.phi_const:.12g}, rho_b ratio = "
                 f"{spec.rho_tb_const:.12g}"]
        eqs = pure_shape.reduced_equilibrium(cfg.params, cfg.k)
        if eqs is None:
            lines.append("reduced circling equilibrium: none")
        else:
            for eq in eqs:
                lines.append(f"reduced equilibrium kappa1 = {eq.kappa1:.12g}"
                             f" rho1 = {eq.rho1:.12g} [{eq.tag}, {eq.method}]")
        region = pure_shape.invariant_region_check(cfg.params, cfg.k)
        lines.append(f"invariant-region condition value = "
                     f"{region.value:.12g} -> "
                     + ("holds" if region.holds else "does not hold"))
        if region.holds:
            try:
                asym = pure_shape.asymptote_prediction(cfg.params, cfg.k)
                lines.append(f"predicted heading asymptote = {asym:.12g} rad"
                             f" ({asym / math.pi:.6f} pi)")
            except PursuitLabError as err:
                lines.append(f"asymptote prediction unavailable: {err}")
        lines.append(f"a5 guard flags along run: {len(traj.a5_flags)}")
        (out / "pure_shape.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
        artifacts.append("pure_shape.txt")
    elif cfg.mode == "portrait":
        portrait = pure_shape.phase_portrait(cfg.params, cfg.k, cfg.grid,
                                             seeds=cfg.seeds, T=cfg.T,
                                             dt=cfg.dt)
        artifacts.append(_write_csv(
            out / "grid.csv", ["reduced-dynamics vector field samples"],
            ["kappa1", "rho1", "dkappa1", "drho1"],
            np.column_stack([portrait.kappa_grid.ravel(),
                             portrait.rho_grid.ravel(),
                             portrait.d_kappa.ravel(),
                             portrait.d_rho.ravel()])))
        for idx, trajectory in enumerate(portrait.trajectories):
            artifacts.append(_write_csv(
                out / f"traj_{idx:02d}.csv", ["reduced-dynamics trajectory"],
                ["t", "kappa1", "rho1"], np.column_stack(trajectory)))
    elif cfg.mode == "sweep":
        # a sample that is rejected or has no equilibrium reads as
        # non-existent; one whose own solve fails reads nan
        values = np.linspace(cfg.sweep_start, cfg.sweep_stop,
                             cfg.sweep_samples)
        name = "lam" if cfg.sweep_parameter == "lambda" \
            else cfg.sweep_parameter
        exists, verdict, worst = stability.sweep(cfg.params, cfg.m, name,
                                                 values)
        artifacts.append(_write_csv(
            out / "sweep.csv",
            [f"sweep over {cfg.sweep_parameter}, winding m = {cfg.m}"],
            ["index", "value", "exists", "verdict", "max_informative_re"],
            np.column_stack([np.arange(values.size), values, exists,
                             verdict, worst]),
            ["%d", "%.12g", "%d", "%d", "%.12g"]))
    artifacts.append(_write_manifest(cfg, artifacts).name)
    return [out / name for name in artifacts]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pursuit-lab",
        description="Simulation and analysis laboratory for "
                    "beacon-referenced cyclic pursuit collectives.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override (u64)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="config override, repeatable")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config, args.mode, overrides=args.override,
                           out_dir=args.out, seed=args.seed)
        artifacts = run(cfg)
    except PursuitLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
