import csv
import io
import math
import os
import warnings

import pytest
from scipy.integrate import IntegrationWarning

from fso_adapt import cli
from fso_adapt.adapt import SnrSpec, solve_cutoff_discrete
from fso_adapt.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
    parse_config_file,
)
from oracle import inv_above_tight, tail_tight


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# link setup\n"
            "turbulence.sigma_r2 = 0.4\n"
            "pointing.enabled = false  # turbulence only\n"
            "\n"
            "mc.seed = 99\n"
        )
        values = parse_config_file(str(p))
        assert values == {
            "turbulence.sigma_r2": 0.4,
            "pointing.enabled": False,
            "mc.seed": 99,
        }

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("no.such.key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(p))

    def test_bad_line_reports_location(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("turbulence.sigma_r2 = 0.4\njust words\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file("/nonexistent/run.cfg")

    def test_set_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("mc.seed = 1\n")
        cfg = RunConfig.load(str(p), ["mc.seed=2"])
        assert cfg["mc.seed"] == 2

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, ["snr.step_db=0"])
        with pytest.raises(ConfigError):
            RunConfig.load(None, ["snr.start_db=10", "snr.stop_db=5"])

    def test_snr_grid(self):
        cfg = RunConfig.load(None, ["snr.start_db=0", "snr.stop_db=10", "snr.step_db=5"])
        assert cfg.snr_grid() == [0.0, 5.0, 10.0]

    def test_workers_env_override(self, monkeypatch):
        import argparse

        monkeypatch.setenv("FSO_ADAPT_WORKERS", "7")
        cfg = RunConfig.load(None, None)
        mc = cfg.mc(argparse.Namespace(workers=None, samples=None, seed=None))
        assert mc.workers == 7
        # an explicit flag still wins over the environment
        mc = cfg.mc(argparse.Namespace(workers=2, samples=None, seed=None))
        assert mc.workers == 2

    def test_bad_workers_env_is_config_error(self, monkeypatch):
        import argparse

        monkeypatch.setenv("FSO_ADAPT_WORKERS", "many")
        cfg = RunConfig.load(None, None)
        with pytest.raises(ConfigError, match="FSO_ADAPT_WORKERS"):
            cfg.mc(argparse.Namespace(workers=None, samples=None, seed=None))


class TestParamsCommand:
    def test_weak_turbulence_values(self, capsys):
        code, out, _ = run_cli(
            ["params", "--set", "turbulence.sigma_r2=0.4"], capsys
        )
        assert code == EXIT_OK
        rows = dict(r for r in read_csv(out)[1:])
        assert rows["alpha"] == "6.8755"
        assert rows["beta"] == "5.3384"
        assert rows["xi"] == "1.7808"
        assert rows["a0"] == "0.7180"
        assert rows["model"] == "GG_POINTING"

    def test_pointing_disabled(self, capsys):
        code, out, _ = run_cli(
            ["params", "--set", "turbulence.sigma_r2=2.0", "--set", "pointing.enabled=no"],
            capsys,
        )
        assert code == EXIT_OK
        rows = dict(r for r in read_csv(out)[1:])
        assert rows["model"] == "GG_ONLY"
        assert "xi" not in rows
        assert rows["alpha"] == "3.9929"

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "params.csv"
        code, out, _ = run_cli(
            ["params", "--set", "turbulence.sigma_r2=1.0", "--out", str(dest)], capsys
        )
        assert code == EXIT_OK and out == ""
        rows = dict(r for r in read_csv(dest.read_text())[1:])
        assert rows["alpha"] == "4.3939"


class TestAseCommand:
    def test_sweep_columns_and_ordering(self, capsys):
        code, out, _ = run_cli(
            [
                "ase",
                "--set", "turbulence.sigma_r2=0.4",
                "--set", "snr.start_db=5",
                "--set", "snr.stop_db=25",
                "--set", "snr.step_db=10",
                "--samples", "5000",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == [
            "snr_db",
            "ase_limit",
            "ase_discrete",
            "ase_mc",
            "ase_mc_stderr",
            "high_snr_approx",
        ]
        assert [r[0] for r in rows[1:]] == ["5.0", "15.0", "25.0"]
        for r in rows[1:]:
            limit, disc, mc = float(r[1]), float(r[2]), float(r[3])
            assert 0.0 < disc < limit
            assert abs(mc - limit) < 0.2
        limits = [float(r[1]) for r in rows[1:]]
        assert limits == sorted(limits)


class TestRequiredSnrCommand:
    def test_spot_values(self, capsys):
        code, out, _ = run_cli(["required-snr", "--targets", "2"], capsys)
        assert code == EXIT_OK
        rows = read_csv(out)
        header, row = rows[0], rows[1]
        vals = dict(zip(header, row))
        assert vals["rb_bits"] == "2"
        assert float(vals["fixed_weak_nope_db"]) == pytest.approx(14.0, abs=0.2)
        assert float(vals["adaptive_weak_nope_db"]) == pytest.approx(10.7, abs=0.2)
        assert float(vals["fixed_strong_pe_db"]) == pytest.approx(26.3, abs=0.2)
        assert float(vals["adaptive_strong_pe_db"]) == pytest.approx(17.0, abs=0.2)

    def test_failed_row_is_nan(self, capsys):
        # no SNR in the fixed-rate bracket reaches 40 bits/s/Hz; row 2 still runs
        code, out, err = run_cli(["required-snr", "--targets", "2,40"], capsys)
        assert code == EXIT_NUMERIC
        rows = read_csv(out)
        assert rows[1][:4] == ["2", "14.0", "10.7", "20.3"]
        assert rows[2] == ["40"] + ["nan"] * 8
        assert "rb_bits=40" in err

    def test_narrow_jitter(self, capsys):
        # xi2 = 317 at sigma_r2 = 0.4: the fixed-rate bracket needs the
        # Laplace transform near 1 at small s, not an underflowed 0
        argv = ["required-snr", "--set", "geometry.jitter_sigma_m=0.001", "--targets", "2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert read_csv(out)[1] == "2,14.0,10.7,20.3,11.2,15.4,12.1,25.5,16.4".split(",")

    def test_bad_target_rejected(self, capsys):
        code, _, err = run_cli(["required-snr", "--targets", "-2"], capsys)
        assert code == EXIT_CONFIG
        assert "error" in err


class TestMcCommand:
    def test_audits_pass_on_grid(self, capsys):
        code, out, _ = run_cli(
            [
                "mc",
                "--set", "turbulence.sigma_r2=2.0",
                "--set", "snr.start_db=10",
                "--set", "snr.stop_db=20",
                "--set", "snr.step_db=10",
                "--samples", "50000",
                "--seed", "3",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = read_csv(out)
        for r in rows[1:]:
            assert abs(float(r[5])) <= 5.0
            assert abs(float(r[6])) <= 5.0

    def test_failed_row_is_nan(self, capsys):
        # the one-rung ladder has no cutoff at 20 dB; 0 and 10 dB still run
        code, out, err = run_cli(
            [
                "mc",
                "--set", "constellations=0,4",
                "--set", "snr.step_db=10",
                "--set", "snr.stop_db=20",
                "--samples", "2000",
            ],
            capsys,
        )
        assert code == EXIT_NUMERIC
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["0.0", "10.0", "20.0"]
        for r in rows[1:3]:
            assert all(math.isfinite(float(v)) for v in r)
        assert rows[3][1:] == ["nan"] * 6
        assert "snr_db=20.0" in err


class TestReproduceCommand:
    def test_table3(self, tmp_path, capsys):
        dest = tmp_path / "t3.csv"
        code, _, _ = run_cli(["reproduce", "table3", "--out", str(dest)], capsys)
        assert code == EXIT_OK
        rows = read_csv(dest.read_text())
        assert rows[0] == ["strength", "sigma_r2", "alpha", "beta", "xi", "a0"]
        table = {r[0]: r[1:] for r in rows[1:]}
        assert table["weak"] == ["0.4", "6.8755", "5.3384", "1.7808", "0.7180"]
        assert table["moderate"] == ["1", "4.3939", "2.5636", "2.0491", "0.4948"]
        assert table["strong"] == ["2", "3.9929", "1.7018", "2.5848", "0.3025"]

    def test_fig4_dataset(self, tmp_path, capsys):
        dest = tmp_path / "f4.csv"
        code, _, _ = run_cli(["reproduce", "fig4", "--out", str(dest)], capsys)
        assert code == EXIT_OK
        rows = read_csv(dest.read_text())
        assert rows[0] == ["config", "snr_db", "ase_limit", "ase_discrete"]
        assert len(rows) == 1 + 2 * 31
        for r in rows[1:]:
            assert float(r[3]) <= float(r[2])
        # the figure and the ase command build their rows alike
        code, out, _ = run_cli(
            [
                "ase",
                "--set", "turbulence.sigma_r2=2.0",
                "--set", "snr.step_db=10",
                "--samples", "2000",
            ],
            capsys,
        )
        assert code == EXIT_OK
        ase_rows = [r[1:3] for r in read_csv(out)[1:]]
        fig_rows = [r[2:] for r in rows[1:] if r[0] == "pe" and int(r[1]) % 10 == 0]
        assert fig_rows == ase_rows
        assert fig_rows[0] == ["0.1935", "0.1632"]
        assert fig_rows[-1] == ["5.6124", "5.4988"]

    def test_unknown_artifact(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "table9"])


class TestExitCodes:
    def test_config_error_is_two(self, capsys):
        code, _, err = run_cli(["params", "--set", "bogus=1"], capsys)
        assert code == EXIT_CONFIG and "unknown key" in err

    def test_numeric_error_is_three(self, capsys):
        # an infeasible one-rung ladder cannot satisfy the power constraint
        code, out, err = run_cli(
            [
                "ase",
                "--set", "turbulence.sigma_r2=0.4",
                "--set", "constellations=0,4",
                "--set", "snr.start_db=20",
                "--set", "snr.stop_db=20",
                "--samples", "2000",
            ],
            capsys,
        )
        assert code == 3
        assert "nan" in out

    def test_arithmetic_error_is_three(self, monkeypatch, capsys):
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "ase_limit", overflow)
        code, _, err = run_cli(["ase"], capsys)
        assert code == EXIT_NUMERIC
        assert err.splitlines() == ["numerical error: math range error"]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["params", "--set", "turbulence.sigma_r2=-1"], "turbulence.sigma_r2"),
            (["params", "--set", "ber.target=0.5"], "ber.target"),
            (["ase", "--set", "constellations=0,5"], "constellations"),
            (["ase", "--set", "series.convergence_tol=0.1"], "series.convergence_tol"),
        ],
    )
    def test_config_value_outside_domain_is_two(self, argv, key, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_CONFIG
        assert key in err and out == ""

    def test_sampling_flags_only_where_read(self, capsys):
        # params draws no samples, so it does not accept --seed
        with pytest.raises(SystemExit) as exc:
            main(["params", "--seed", "3"])
        assert exc.value.code == EXIT_CONFIG

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["params", "--config", "/no/such/file.cfg"], capsys)
        assert code == EXIT_CONFIG


class TestTable:
    def test_quadrature_warnings_counted_per_row(self, tmp_path, capsys):
        def noisy():
            warnings.warn("roundoff", IntegrationWarning)
            warnings.warn("roundoff", IntegrationWarning)
            return ["1.0"]

        path = tmp_path / "t.csv"
        rows = [(["20"], noisy), (["30"], lambda: ["2.0"])]
        code = cli._table(str(path), ["snr_db", "v"], rows)
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: snr_db=20: 2 quadrature warnings"
        ]
        assert read_csv(path.read_text()) == [["snr_db", "v"], ["20", "1.0"], ["30", "2.0"]]


class TestStrongPointingRows:
    """ase rows whose ladder boundaries lie far above A0.

    At these points every ladder boundary used to be a quadrature, and
    each row raised over a hundred IntegrationWarnings; the tail rule
    raises none.
    """

    @pytest.mark.parametrize(
        "sigma_r2, jitter_m, snr_db",
        [(6.6, 0.0017, 55.0), (12.0, 0.003, 60.0)],
    )
    def test_row_is_quiet_and_matches_tight_quadrature(self, sigma_r2, jitter_m, snr_db, capsys):
        overrides = [
            f"turbulence.sigma_r2={sigma_r2}",
            f"geometry.jitter_sigma_m={jitter_m}",
            f"snr.start_db={snr_db}",
            f"snr.stop_db={snr_db}",
        ]
        argv = ["ase", "--samples", "1000"]
        for item in overrides:
            argv += ["--set", item]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert "quadrature" not in err
        rows = read_csv(out)
        printed = float(rows[1][rows[0].index("ase_discrete")])

        # the ladder at the library's cutoff, every boundary by the oracle
        config = RunConfig.load(None, overrides)
        m, policy, cset = config.channel_model(), config.policy(), config.constellations()
        snr = SnrSpec.from_db(snr_db)
        cutoff = solve_cutoff_discrete(snr, policy, m, cset).cutoff
        sizes = cset.sizes
        edges = [s * cutoff for s in sizes[1:]]
        surv = [tail_tight(c, m) for c in edges] + [0.0]
        inv = [inv_above_tight(c, m) for c in edges] + [0.0]
        bits = sum(
            math.log2(sizes[i]) * (surv[i - 1] - surv[i]) for i in range(1, len(sizes))
        )
        power = sum(
            (sizes[i] - 1.0) * (inv[i - 1] - inv[i]) for i in range(1, len(sizes))
        )
        assert printed == pytest.approx(bits, abs=5e-5)
        assert power == pytest.approx(policy.k_margin * snr.snr_linear, rel=1e-8)
