import hashlib
from pathlib import Path

import numpy as np
import pytest

from pursuit_lab import (ControlParams, cli, extract_shape,
                         routh_necessary, shape_derivative, spectrum_report,
                         stability)
from pursuit_lab.errors import ConfigError, NumericError

CONFIG_DIR = __file__.rsplit("/", 2)[0] + "/configs"


class TestAngleParsing:
    @pytest.mark.parametrize("text,expected", [
        ("11/12pi", 11 * np.pi / 12),
        ("pi", np.pi),
        ("-1/2pi", -np.pi / 2),
        ("0.25pi", 0.25 * np.pi),
        ("0.785", 0.785),
        ("-pi", -np.pi),
    ])
    def test_values(self, text, expected):
        assert abs(cli.parse_angle(text) - expected) < 1e-15

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            cli.parse_angle("pie", key="alpha")

    def test_list_with_repeats(self):
        values = cli.parse_angle_list("1/6pi*3, 1/7pi*3, 1/8pi*4", 10,
                                      "alpha")
        assert len(values) == 10
        assert abs(values[0] - np.pi / 6) < 1e-15
        assert abs(values[5] - np.pi / 7) < 1e-15
        assert abs(values[9] - np.pi / 8) < 1e-15

    def test_list_broadcast_and_mismatch(self):
        assert len(cli.parse_angle_list("0.3", 5, "alpha")) == 5
        with pytest.raises(ConfigError, match="alpha"):
            cli.parse_angle_list("0.1, 0.2", 5, "alpha")


class TestParseConfig:
    def test_fig2_config(self):
        cfg = cli.parse_config(f"{CONFIG_DIR}/fig2.cfg", "simulate")
        assert cfg.params.n == 10
        assert cfg.params.lam == 0.5
        assert cfg.params.mu == 1.0
        assert abs(cfg.params.alpha[0] - np.pi / 6) < 1e-15
        assert abs(cfg.params.alpha[9] - np.pi / 8) < 1e-15
        assert cfg.T == 100.0 and cfg.dt == 0.01

    def test_unit_lambda_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            cli.parse_config(f"{CONFIG_DIR}/fig2.cfg", "simulate",
                             overrides=["lambda=1.0"])

    def test_missing_k_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nn = 3\nmu = 1\nlambda = 0.5\n"
                        "alpha = 1/6pi\nalpha0 = 1/4pi\n\n[pure-shape]\n"
                        "t = 1\n")
        with pytest.raises(ConfigError, match="'k'"):
            cli.parse_config(path, "pure-shape")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wibble"):
            cli.parse_config(f"{CONFIG_DIR}/fig2.cfg", "simulate",
                             overrides=["wibble=3"])

    def test_mode_assumption_validation(self):
        # stability needs a common alpha; fig2's alpha list is mixed
        with pytest.raises(ConfigError, match="alpha"):
            cli.parse_config(f"{CONFIG_DIR}/fig2.cfg", "stability",
                             overrides=["stability.m=1"])

    @pytest.mark.parametrize("override,key", [
        ("nu=1.5", "nu"),
        ("mu_b=2", "mu_b"),
        ("alpha0=0.1, 0.2, 0.3", "alpha0"),
        ("alpha=0.1, 0.2, 0.3", "alpha"),
    ])
    def test_assumption_error_names_key(self, tmp_path, capsys, override,
                                        key):
        code = cli.main(["stability", "--config",
                         f"{CONFIG_DIR}/reference.cfg", "--out",
                         str(tmp_path), "--override", override])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_workers_key_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            cli.parse_config(f"{CONFIG_DIR}/sweep_alpha0.cfg", "sweep",
                             overrides=["workers=2"])

    def test_seed_override_wins(self):
        cfg = cli.parse_config(f"{CONFIG_DIR}/reference.cfg", "shape-sim",
                               seed=77)
        assert cfg.seed == 77


class TestRun:
    def test_equilibria_mode_report(self, tmp_path):
        cfg = cli.parse_config(f"{CONFIG_DIR}/reference.cfg", "equilibria",
                               out_dir=tmp_path)
        artifacts = cli.run(cfg)
        report = (tmp_path / "equilibria.txt").read_text()
        assert "0.828427" in report          # the circling radius
        assert "1.0471975512" in report      # kappa = pi/3
        assert (tmp_path / "manifest.txt").exists()
        assert all(p.exists() for p in artifacts)

    def test_stability_mode_artifacts(self, tmp_path):
        cfg = cli.parse_config(f"{CONFIG_DIR}/reference.cfg", "stability",
                               out_dir=tmp_path)
        cli.run(cfg)
        report = (tmp_path / "stability.txt").read_text()
        assert "verdict: PASS" in report
        rows = [ln for ln in
                (tmp_path / "spectrum.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 15  # header plus 5n eigenvalues
        assert sum("constraint" in r for r in rows) == 7
        assert sum("informative" in r for r in rows) == 8

    def test_sweep_mode_rows(self, tmp_path):
        cfg = cli.parse_config(f"{CONFIG_DIR}/sweep_alpha0.cfg", "sweep",
                               out_dir=tmp_path)
        cli.run(cfg)
        rows = [ln for ln in
                (tmp_path / "sweep.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 64
        # verdict column is 0/1 and order follows the sample index
        indices = [int(r.split(",")[0]) for r in rows[1:]]
        assert indices == list(range(64))

    def test_deterministic_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = cli.parse_config(f"{CONFIG_DIR}/reference.cfg",
                                   "shape-sim", out_dir=out,
                                   overrides=["t=0.5"])
            cli.run(cfg)
        assert (out_a / "shape.csv").read_bytes() \
            == (out_b / "shape.csv").read_bytes()
        assert (out_a / "manifest.txt").read_bytes() \
            == (out_b / "manifest.txt").read_bytes()

    def test_portrait_mode(self, tmp_path):
        cfg = cli.parse_config(f"{CONFIG_DIR}/fig5.cfg", "portrait",
                               out_dir=tmp_path,
                               overrides=["t=5", "kappa_samples=5",
                                          "rho_samples=4"])
        cli.run(cfg)
        grid_rows = [ln for ln in
                     (tmp_path / "grid.csv").read_text().splitlines()
                     if ln and not ln.startswith("#")]
        assert len(grid_rows) == 1 + 20
        assert (tmp_path / "traj_00.csv").exists()
        assert (tmp_path / "traj_03.csv").exists()


# SHA-256 of every artifact of each shipped config/mode run at a short
# horizon ``t`` (None: the mode has no horizon), recorded before the four
# integrators shared one RK4 driver and one steering law; the stability
# and sweep artifacts re-recorded when the spectrum became the closed-form
# constraint pair plus the polished cubic roots.
SHIPPED_OUTPUTS = [
    (("fig2", "simulate", "1"), {
        "manifest.txt":
            "2838182d4acc729d348ce8de877b7e30ae1af12d8c73167b0532bf6d1904520e",
        "trajectory.csv":
            "078b6cfe9d74908090f31d15378d03f60bb5c79057401ca0f9a63b37d2eb6e89",
    }),
    (("fig4", "simulate", "0.2"), {
        "manifest.txt":
            "f82e97bca9e791037526d39ba4f086e0140a1b77b1c34848b58dfe39c0bea7ac",
        "trajectory.csv":
            "2ce103d912e7c586d0b0cd1df8a4ec4d2c95e456a32acd7ae0bd04ec2d7e382e",
    }),
    (("fig5", "pure-shape", "0.4"), {
        "manifest.txt":
            "00f285d5aff27129c639a341ab8e4fb8482db2173c0e929d94f992bd0843245c",
        "pure_shape.csv":
            "57b5f75844fc89c2acaf9d8f939187a2bcbb1fe442d7eb65122037ee18af65ce",
        "pure_shape.txt":
            "4ca33ef09a371482448167fe6ad525bacbd9d94c980822cfd1efe3a62b075032",
    }),
    (("fig5", "portrait", "2"), {
        "grid.csv":
            "843513fd454da75748071dfc068e55774ba3339b88b19f6cffc8b34bf8d5b968",
        "manifest.txt":
            "80d421298d0be63f2488c9ce1d4f2966e789b781f5ea8cbdbe978ce453d53c02",
        "traj_00.csv":
            "02546df442302f0497fc6f2771a99a348b9bc2d8cc146298475964839f783fa4",
        "traj_01.csv":
            "123dd354457a440b311f9c3eb5ea7b0733f25bb728f7ca1e06bec72f960c6a2e",
        "traj_02.csv":
            "6e4f0c85ce3570228699b3a2fb7d72ad6c7326290f0f190fc0127ae87c9b27c3",
        "traj_03.csv":
            "15a933ccdd0b069b191f81d62682d42b6b48da5f0f6dc3a31c9259a65f695cf6",
    }),
    (("reference", "simulate", "0.2"), {
        "manifest.txt":
            "0bbd5da14532119952cca973ef02baf5d32076d53d7056aa2cf108903beaac24",
        "trajectory.csv":
            "827d7244d662ae2e588878054e823639da4f68c9a30875fd1229b816539e23bd",
    }),
    (("reference", "shape-sim", "0.2"), {
        "manifest.txt":
            "6e9c762b71b5eca1e0981deb15b98c844bb64ea8c9513474915ee7cccad1c50c",
        "shape.csv":
            "7d5a969b836c387115ddf4b40efac46497d04f469cd4ccfd70850fe6576b48e1",
    }),
    (("reference", "equilibria", None), {
        "equilibria.txt":
            "452a986cce97ddf139abb6988e1ef717627d225a8642d7a75dede3a2f3ef54a0",
        "manifest.txt":
            "cbd98de0222002d32f6aaace5b3d80014fd0cfeb9ce7ce12293a8a8d73d80f33",
    }),
    (("reference", "stability", None), {
        "manifest.txt":
            "df28e9417ac1087ec3b3a84f1f3a2442dd2c0ebf2b203d6498276aae084d29df",
        "spectrum.csv":
            "6e64c351fbc77202f32316f1b8bf506a9f7333dfa9b95494911b8cbffa9e56e3",
        "stability.txt":
            "3dea026b13a93a5baeefbed9411dbc86532a26189e342d181aff7420fde87b4a",
    }),
    (("reference", "pure-shape", "0.4"), {
        "manifest.txt":
            "be2ecac3d32dfb674ca361f49030144b839ff17687cb3287e9cbc7c40d2000d3",
        "pure_shape.csv":
            "d439e93dcae6a46b66bf7bc3241765eafa5b351234b89582d9b54e874cfe552e",
        "pure_shape.txt":
            "177bfd52d4f46aaef0766900aa7e830490f1892b64bd7e573b5897e6e4d7d7da",
    }),
    (("sweep_alpha0", "sweep", None), {
        "manifest.txt":
            "824c5fe24fd623d9b143758ce7b13734190e88b58a3e738bdca4bd5019909568",
        "sweep.csv":
            "c3cb8ddf003738f408c8901782ca54eea51670f13d58e3da199f94c297bca3f1",
    }),
]


def test_shipped_outputs_unchanged(tmp_path):
    changed = []
    for (config, mode, t), expected in SHIPPED_OUTPUTS:
        out = tmp_path / f"{config}_{mode}"
        argv = [mode, "--config", f"{CONFIG_DIR}/{config}.cfg", "--out",
                str(out)]
        if t is not None:
            argv += ["--override", f"t={t}"]
        assert cli.main(argv) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
        assert sorted(got) == sorted(expected)
        changed += [f"{config} {mode}: {name}" for name in expected
                    if got[name] != expected[name]]
    assert not changed


# SHA-256 of the analysis artifacts at larger n than the shipped
# configs reach, recorded before the spectrum and the branch screen were
# batched (the stability artifacts re-recorded with the factored
# spectrum): n = 50 exercises every mode root of unity, n = 7 gives
# 2**7 sign patterns.
LARGER_N_OUTPUTS = [
    (("stability", "n=50"), {
        "manifest.txt":
            "14601b4f35f982d3d3b35073c0da13501cedf8f4c212ed70254b24db01b57692",
        "spectrum.csv":
            "f8f82ed489c282c143ae3a8d4065bb378f1104818a6a37d0a0c606f09eb83f8c",
        "stability.txt":
            "8b79ce3d4d15197fc624675beb48362d0a98abb0245b145298902c5e0f920be9",
    }),
    (("equilibria", "n=7"), {
        "equilibria.txt":
            "a7a41ce3bb6fd02db7eca0c164a2c3090eda483f814ee1f4ebc62b9007d119fc",
        "manifest.txt":
            "34743ce2efe524f098c7a5583f5dcff757df1ed38646fcc8c20ea24cf337cfec",
    }),
]


def test_larger_n_analysis_outputs_unchanged(tmp_path):
    changed = []
    for (mode, override), expected in LARGER_N_OUTPUTS:
        out = tmp_path / mode
        assert cli.main([mode, "--config", f"{CONFIG_DIR}/reference.cfg",
                         "--out", str(out), "--override", override]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
        assert sorted(got) == sorted(expected)
        changed += [f"{mode} {override}: {name}" for name in expected
                    if got[name] != expected[name]]
    assert not changed


# SHA-256 of shape-space and pure-shape runs at larger n than the
# shipped configs reach, recorded before both integrators worked on the
# packed state: n >= 8 takes the row-wise sums of the constraint
# residuals through numpy's pairwise summation.
PACKED_STATE_OUTPUTS = [
    (("shape-sim", "reference", ("n=10", "t=0.2")), {
        "manifest.txt":
            "6fffe8b50c5c688f97ce3856b8d015104d101aa6c6046ec3fed4f5c2585ae070",
        "shape.csv":
            "1af197e2683953f5ad219202b31ca0ce95228d25bd4d2c1138a7b874a49a7f19",
    }),
    (("shape-sim", "reference", ("n=17", "seed=5", "t=0.2")), {
        "manifest.txt":
            "e69693895c4dae396120e4d8e178b6b0f49c416434a18142e88a9c153c4329e4",
        "shape.csv":
            "6d0b10860f62945a9106e40200a4febc0fa98af7f41989edc60933ffc0df1db7",
    }),
    (("pure-shape", "reference", ("n=10", "k=3", "t=0.4")), {
        "manifest.txt":
            "1acef8dab8a6cbbbe42885676403af88a8a91bb8a3da1d3e360e6f666bd19848",
        "pure_shape.csv":
            "2f50024b8a8dc1628c87ea4a666cd348c172e3f60073952158e4d2d2995bdd32",
        "pure_shape.txt":
            "7fdafc0c89f08bc6e0aa67423c66de6fd9d68c92e3998f5116e4cf691f663f39",
    }),
    (("pure-shape", "fig5", ("n=7", "k=5", "t=0.4")), {
        "manifest.txt":
            "0834ddcf0f3031d86f7ef9f397c4d4273aa69b3c0376bf01224f903a46b26c1e",
        "pure_shape.csv":
            "402e2697db9e535ed98c8e83d8b2f4c66839f51178a3f6ebaa2f0101966ce446",
        "pure_shape.txt":
            "4639fdfe5054756fc39e38da1d038c49c0ff9a561b79f1aea56dbc0bded8bea0",
    }),
]


@pytest.mark.parametrize("run,expected", PACKED_STATE_OUTPUTS,
                         ids=["shape-n10", "shape-n17", "pure-n10",
                              "pure-fig5-n7"])
def test_packed_state_outputs_unchanged(tmp_path, run, expected):
    mode, config, overrides = run
    argv = [mode, "--config", f"{CONFIG_DIR}/{config}.cfg", "--out",
            str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == expected


# SHA-256 of the runs that reach the equilibrium start, the branch
# enumeration at n = 11 (2**11 sign patterns) and the A6 tags of an
# existing reduced equilibrium, recorded while the start searched the
# full enumeration and the tags came from the sign test.
CLOSED_FORM_OUTPUTS = [
    (("simulate", "reference", ("n=11", "t=0.2")), {
        "manifest.txt":
            "a1675974fba57cfab8ce32717d8e1ad734b8db3a834341fc5e29beeaf24c3418",
        "trajectory.csv":
            "8e0e04bd879352081606cba238fbd17d78fa6a4ee03282b7d330b9b426b89b56",
    }),
    (("shape-sim", "reference",
      ("initial=equilibrium", "m=1", "n=11", "t=0.2")), {
        "manifest.txt":
            "8298358e1804132ca0dd70143c661e604283de774d386821fe1fb6e3ee0e7f13",
        "shape.csv":
            "48a268bc17404c3c23803d4c5fb87a55bfb67439196c289ae83e5cdc67853595",
    }),
    (("equilibria", "reference", ("n=11",)), {
        "equilibria.txt":
            "8e578b6f26e1e0c86d6da785a9a044c241d9e8301c6ee818067bc7fb20ffd76f",
        "manifest.txt":
            "f8f76f4cb515dbc1773045052bd56d2c2096790e643b041978d0ba96d6098b03",
    }),
    (("pure-shape", "reference", ("mu=2", "t=0.2")), {
        "manifest.txt":
            "2904e9cc2b3d90bd3ccedc0c285d545cbc651ae11cd5dfb2e5701f5255f897d3",
        "pure_shape.csv":
            "df5bdff1423207d68898e95407232b05fb45764c90a3f990884c2a1853d7af56",
        "pure_shape.txt":
            "ce3b2b33d74b8320abd407bc0b04382ef7dd028ab73291f8378d4489e56f698f",
    }),
]


@pytest.mark.parametrize("run,expected", CLOSED_FORM_OUTPUTS,
                         ids=["simulate-eq-n11", "shape-eq-n11",
                              "equilibria-n11", "pure-a6"])
def test_closed_form_outputs_unchanged(tmp_path, run, expected):
    mode, config, overrides = run
    argv = [mode, "--config", f"{CONFIG_DIR}/{config}.cfg", "--out",
            str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == expected


# SHA-256 of sweep runs that mix existing rows with rejected ones,
# recorded before the sweep became one pass (sweep.csv re-recorded when
# the spectrum became the factored cubic solve):
# a lambda range whose endpoints ControlParams rejects, an alpha range at
# n = 10, and n = 50 with 96 samples.
SWEEP_OUTPUTS = [
    (("parameter=lambda", "start=0", "stop=1", "samples=41"), {
        "manifest.txt":
            "edc0e66fd00860fd82b269ddab0a8974cbeb7b7b63006bf8632fe8e69556e1af",
        "sweep.csv":
            "96e71d174c0be8afc4aaa377b7fd0f953e549a07ce3931ce08eba9c06e122e3c",
    }),
    (("parameter=alpha", "start=-pi", "stop=pi", "samples=48", "n=10"), {
        "manifest.txt":
            "91f8c6c5e7368ed29d0d0a9d0fb11848b769a8cb46311693b8fa1bb0e4b34c7e",
        "sweep.csv":
            "b725b64a6fb0ff445750447d7cfc2d6a48568680d8b6abe39bdef7038e2ee327",
    }),
    (("samples=96", "n=50"), {
        "manifest.txt":
            "8c2e4a84d69d90ff264f4a2dd631702a60d5deebba119dfc03dd1be1f156bc3e",
        "sweep.csv":
            "d744f2753625ad63ee1f705da32c7c957750849412c0f73ac3bca51cf461356a",
    }),
]


@pytest.mark.parametrize("overrides,expected", SWEEP_OUTPUTS,
                         ids=["lambda", "alpha-n10", "n50"])
def test_sweep_outputs_unchanged(tmp_path, overrides, expected):
    argv = ["sweep", "--config", f"{CONFIG_DIR}/sweep_alpha0.cfg", "--out",
            str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert cli.main(argv) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert {row.split(",")[2] for row in rows} == {"0", "1"}
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == expected


# n = 31, mu = 3, alpha = -1, alpha0 = 0 at lambda = 1/32 and winding 1:
# in the mode blocks k = 1 and 30 a cubic root meets the constraint root
# +/-j mu a (a near-triple eigenvalue of D_k, where an eigen-solve of the
# block stalls); the cubic gives it on the imaginary axis.
NEAR_TRIPLE = ("[system]\nn = 31\nmu = 3\nlambda = 0.03125\nalpha = -1\n"
               "alpha0 = 0\n")


def test_sweep_failed_solve_keeps_existence(tmp_path, monkeypatch):
    # every row reads its own spectrum_report, the near-triple root of
    # lambda = 1/32 included; a sample whose own cubic solve fails keeps
    # its equilibrium and Routh verdict with a nan real part, and the
    # other rows are computed as on their own
    config = tmp_path / "sweep.cfg"
    config.write_text(NEAR_TRIPLE + "\n[sweep]\nparameter = lambda\n"
                      "start = 0.03125\nstop = 0.5\nsamples = 4\nm = 1\n")
    lams = np.linspace(0.03125, 0.5, 4)
    samples = [ControlParams.homogeneous(31, mu=3.0, lam=lam, alpha=-1.0,
                                         alpha0=0.0) for lam in lams]
    expected = [
        f"{idx},{lam:.12g},1,{int(routh_necessary(params, 1).overall)},"
        f"{spectrum_report(params, 1).max_informative_real():.12g}"
        for idx, (lam, params) in enumerate(zip(lams, samples))]

    def sweep_rows(out):
        assert cli.main(["sweep", "--config", str(config), "--out",
                         str(out)]) == 0
        return (out / "sweep.csv").read_text().splitlines()[2:]

    assert sweep_rows(tmp_path / "plain") == expected
    assert expected[0].startswith("0,0.03125,1,1,")

    poison = stability.cubic_coeffs(samples[2], 1, 1).polynomial(
        3.0, stability.abd(samples[2], 1).a)
    solve = stability.poly_roots

    def failing(table):
        if any(np.array_equal(row, poison) for row in table.reshape(-1, 4)):
            raise NumericError("no convergence")
        return solve(table)

    monkeypatch.setattr(stability, "poly_roots", failing)
    with pytest.raises(NumericError):
        spectrum_report(samples[2], 1)
    rows = sweep_rows(tmp_path / "failed")
    assert rows[2] == expected[2].rsplit(",", 1)[0] + ",nan"
    assert rows[:2] + rows[3:] == expected[:2] + expected[3:]


def test_sweep_is_one_pass(tmp_path, monkeypatch):
    # the whole sweep makes one root solve and builds no ControlParams
    # past the config's own
    solves, builds = [], []
    solve = stability.poly_roots
    post_init = ControlParams.__post_init__

    def counted_solve(table):
        solves.append(table.shape)
        return solve(table)

    def counted_post_init(self):
        builds.append(self.n)
        post_init(self)

    monkeypatch.setattr(stability, "poly_roots", counted_solve)
    monkeypatch.setattr(ControlParams, "__post_init__", counted_post_init)
    assert cli.main(["sweep", "--config", f"{CONFIG_DIR}/sweep_alpha0.cfg",
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    existing = sum(row.split(",")[2] == "1" for row in rows)
    assert 0 < existing < len(rows)
    assert builds == [3]
    # the k = 0 cubic of each sample is solved in closed form
    assert solves == [(existing * 2, 4)]


def test_stability_evaluates_abd_twice(tmp_path, monkeypatch):
    # one abd for the spectrum and one for the Routh verdict; the report
    # reads the verdict's own
    calls = []
    abd = stability.abd

    def counted_abd(params, m):
        calls.append(m)
        return abd(params, m)

    monkeypatch.setattr(stability, "abd", counted_abd)
    assert cli.main(["stability", "--config", f"{CONFIG_DIR}/reference.cfg",
                     "--out", str(tmp_path)]) == 0
    assert calls == [1, 1]


def test_only_the_cli_writes_files():
    # every artifact is written by the CLI; the library only computes
    package = Path(cli.__file__).parent
    writers = [path.name for path in sorted(package.glob("*.py"))
               if "open(" in path.read_text()
               or "write_text" in path.read_text()]
    assert writers == ["cli.py"]


def test_stability_near_triple_root(tmp_path):
    config = tmp_path / "stability.cfg"
    config.write_text(NEAR_TRIPLE + "\n[stability]\nm = 1\n")
    assert cli.main(["stability", "--config", str(config), "--out",
                     str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "stability.txt").read_text()
    diagnostics = [line for line in text.splitlines()
                   if line.startswith("diagnostic: ")]
    assert [d.split(":")[1].strip() for d in diagnostics] == ["k=1", "k=30"]
    assert all("(borderline)" in d for d in diagnostics)
    assert text.endswith("necessary conditions verdict: PASS\n")


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        code = cli.main(["equilibria", "--config",
                         f"{CONFIG_DIR}/reference.cfg", "--out",
                         str(tmp_path)])
        assert code == 0
        assert "equilibria.txt" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", f"{CONFIG_DIR}/fig2.cfg",
                         "--out", str(tmp_path), "--override", "lambda=1.0"])
        assert code == 2

    def test_horizon_below_one_step_exit_code(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config",
                         f"{CONFIG_DIR}/reference.cfg", "--out",
                         str(tmp_path), "--override", "t=0.0004"])
        assert code == 2
        assert "t: horizon T = 0.0004" in capsys.readouterr().err

    def test_inexact_horizon_names_t(self):
        with pytest.raises(ConfigError, match="^t: horizon T = 1 "):
            cli.parse_config(f"{CONFIG_DIR}/reference.cfg", "simulate",
                             overrides=["t=1", "dt=0.3"])

    @pytest.mark.parametrize("mode,config,overrides,key", [
        ("simulate", "reference", ["seed=abc"], "seed"),
        ("simulate", "reference", ["initial=equilibrium", "m=x"], "m"),
        ("simulate", "reference",
         ["initial=manifold", "k=x", "kappa1=0", "rho1=1"], "k"),
        ("portrait", "fig5", ["kappa_samples=2.5"], "kappa_samples"),
        ("portrait", "fig5", ["rho_samples=x"], "rho_samples"),
    ], ids=["seed", "m", "k", "kappa_samples", "rho_samples"])
    def test_non_integer_key_exit_code(self, tmp_path, capsys, mode,
                                       config, overrides, key):
        argv = [mode, "--config", f"{CONFIG_DIR}/{config}.cfg", "--out",
                str(tmp_path)]
        for item in overrides:
            argv += ["--override", item]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {key}: expected an integer")

    @pytest.mark.parametrize("override,key", [
        ("nu=1.5", "nu"),
        ("mu_b=2", "mu_b"),
        ("alpha0=0.1, 0.2, 0.3", "alpha0"),
    ])
    def test_equilibrium_start_assumptions_exit_code(self, tmp_path, capsys,
                                                     override, key):
        # reference.cfg starts simulate from an equilibrium, whose
        # enumeration needs A1-A3
        code = cli.main(["simulate", "--config",
                         f"{CONFIG_DIR}/reference.cfg", "--out",
                         str(tmp_path), "--override", override])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {key}: mode simulate: assumption(s) violated: ")

    def test_equilibrium_start_beyond_enumeration_cap(self, tmp_path):
        # the leftmost branch is closed form, so 2**17 sign patterns are
        # never enumerated
        assert cli.main(["simulate", "--config",
                         f"{CONFIG_DIR}/reference.cfg", "--out",
                         str(tmp_path), "--override", "n=17",
                         "--override", "t=0.2"]) == 0

    def test_equilibrium_start_with_zero_alpha_sum(self, tmp_path):
        # sin(sum alpha) = 0 stops the enumeration, not the leftmost branch
        cfg = cli.parse_config(f"{CONFIG_DIR}/reference.cfg", "simulate",
                               overrides=["alpha=0", "t=0.2"],
                               out_dir=tmp_path)
        shape = extract_shape(cli._initial_world(cfg))
        assert shape_derivative(shape, cfg.params).max_abs() < 1e-9
        assert all(p.exists() for p in cli.run(cfg))

    def test_random_start_needs_no_assumptions(self):
        cfg = cli.parse_config(f"{CONFIG_DIR}/reference.cfg", "simulate",
                               overrides=["initial=random", "nu=1.5",
                                          "alpha0=0.1, 0.2, 0.3"])
        assert cfg.params.nu[0] == 1.5

    def test_portrait_undefined_manifold_exit_code(self, tmp_path, capsys):
        code = cli.main(["portrait", "--config", f"{CONFIG_DIR}/fig5.cfg",
                         "--out", str(tmp_path), "--override", "k=7",
                         "--override", "seeds="])
        assert code == 5
        assert capsys.readouterr().err.startswith(
            "error: manifold index k = 7 outside 1..2")
        assert not (tmp_path / "grid.csv").exists()

    def test_precondition_exit_code(self, tmp_path, capsys):
        # m = 3 makes sin(m*pi/n) = 0 for n = 3: singular mode
        code = cli.main(["stability", "--config",
                         f"{CONFIG_DIR}/reference.cfg", "--out",
                         str(tmp_path), "--override", "stability.m=3"])
        assert code == 5
