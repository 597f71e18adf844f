"""End-to-end CLI behavior: config files, options, subcommands, exit codes, outputs."""

import argparse
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frachh
from frachh import cli, fbm, solver
from frachh.cli import (
    CONFIG_DEFAULTS,
    build_parser,
    build_run_config,
    main,
    parse_config_file,
    write_voltage_svg,
)
from frachh.kinetics import HHParams
from frachh.solver import SimulationResult, SolverConfig

CONFIG_KEYS = [
    "capacitance_C", "current_I", "E_Na", "E_K", "E_L", "gbar_Na", "gbar_K",
    "gbar_L", "sigma_1", "sigma_2", "sigma_3", "T", "dt", "hurst", "seed",
    "generator", "threshold", "refractory", "out_dir",
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    summary = {}
    for line in captured.out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            summary[key] = value
    return code, summary, captured


class TestConfigFile:
    def test_keys_and_defaults_pinned(self):
        defaults = CONFIG_DEFAULTS
        assert list(defaults) == CONFIG_KEYS
        expected = {**dataclasses.asdict(HHParams()), **dataclasses.asdict(SolverConfig())}
        expected["hurst"] = expected.pop("hurst_H")
        expected.update(current_I=10.0, threshold=50.0, refractory=2.0, out_dir="out")
        assert defaults == expected

    def test_every_key_parses_to_its_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "capacitance_C = 1.5\ncurrent_I = 4\nE_Na = 110\nE_K = -11.5\nE_L = 10.6\n"
            "gbar_Na = 100\ngbar_K = 30\ngbar_L = 0.2\nsigma_1 = 0.25\nsigma_2 = 0.5\n"
            "sigma_3 = 1e-1\nT = 20\ndt = 0.02\nhurst = 0.77\nseed = 9\n"
            "generator = cholesky\nthreshold = 40\nrefractory = 1.5\nout_dir = elsewhere\n"
        )
        expected = {
            "capacitance_C": 1.5, "current_I": 4.0, "E_Na": 110.0, "E_K": -11.5,
            "E_L": 10.6, "gbar_Na": 100.0, "gbar_K": 30.0, "gbar_L": 0.2,
            "sigma_1": 0.25, "sigma_2": 0.5, "sigma_3": 0.1, "T": 20.0, "dt": 0.02,
            "hurst": 0.77, "seed": 9, "generator": "cholesky", "threshold": 40.0,
            "refractory": 1.5, "out_dir": "elsewhere",
        }
        overrides = parse_config_file(path)
        assert list(overrides) == CONFIG_KEYS
        assert overrides == expected
        assert {k: type(v) for k, v in overrides.items()} == {
            k: type(v) for k, v in expected.items()
        }
        assert build_run_config(argparse.Namespace(config=path)) == expected

    def test_partial_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("current_I = 2.0\nseed = 5\n# comment\n\n")
        overrides = parse_config_file(path)
        assert overrides == {"current_I": 2.0, "seed": 5}
        config = build_run_config(argparse.Namespace(config=path))
        assert config == {**CONFIG_DEFAULTS, **overrides} and config["T"] == 50.0

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("voltage_clamp = 1\n")
        with pytest.raises(Exception, match="voltage_clamp"):
            parse_config_file(path)

    def test_bad_value_named_in_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dt = abc\n")
        with pytest.raises(Exception, match="dt"):
            parse_config_file(path)


class TestSimulateCommand:
    def test_default_run_is_multiple_spike(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, summary, _ = run_cli(
            ["simulate", "--T", "50", "--out", str(out), "--svg"], capsys
        )
        assert code == 0
        assert int(summary["spike_count"]) >= 3
        assert summary["bound_satisfied"] == "True"
        assert (out / "trajectory.csv").exists()
        assert (out / "clamp_events.csv").exists()
        svg = (out / "voltage.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    # 5001 and 100001 samples: the 50 ms and 1000 ms runs at dt = 0.01.
    @pytest.mark.parametrize("n_samples", [2, 4000, 4001, 5001, 5002, 100_001])
    def test_svg_keeps_at_most_4000_points_with_both_ends(self, tmp_path, n_samples):
        # V is zero except -100 at the first and +100 at the last sample, so
        # the plotted range shows whether both ends were kept.
        trajectory = np.zeros((n_samples, 4))
        trajectory[0, 3], trajectory[-1, 3] = -100.0, 100.0
        result = SimulationResult(
            grid=np.arange(n_samples) * 0.01, trajectory=trajectory, clamp_events=(),
            max_abs_V=100.0, apriori_bound=np.inf, bound_satisfied=True,
            gate_pre_clamp_min=0.0, gate_pre_clamp_max=0.0,
        )
        path = tmp_path / "voltage.svg"
        write_voltage_svg(result, path)
        svg = path.read_text()
        points = re.search(r'points="([^"]*)"', svg).group(1).split()
        assert len(points) == n_samples if n_samples <= 4000 else 2000 < len(points) <= 4000
        assert "range [-100, 100]" in svg
        assert points[0] == "40.00,280.00" and points[-1] == "920.00,40.00"

    def test_trajectory_header_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate", "--T", "5", "--sigma", "0.25", "--hurst", "0.75",
                 "--seed", "3", "--out", str(out1)], capsys)
        run_cli(["simulate", "--T", "5", "--sigma", "0.25", "--hurst", "0.75",
                 "--seed", "3", "--out", str(out2)], capsys)
        a = (out1 / "trajectory.csv").read_bytes()
        b = (out2 / "trajectory.csv").read_bytes()
        assert a == b
        assert a.splitlines()[0] == b"t,V,m,h,n"

    def test_hurst_orders_reported_regularity(self, tmp_path, capsys):
        exponents = {}
        for hurst in ("0.55", "0.95"):
            code, summary, _ = run_cli(
                ["simulate", "--sigma", "0.25", "--hurst", hurst, "--seed", "0",
                 "--out", str(tmp_path / hurst)], capsys
            )
            assert code == 0
            exponents[hurst] = float(summary["holder_exponent"])
        assert exponents["0.55"] < exponents["0.95"]

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("current_I = 2.0\nT = 50.0\n")
        code, summary, _ = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o1")], capsys
        )
        assert code == 0
        assert summary["spike_count"] == "0"
        code, summary, _ = run_cli(
            ["simulate", "--config", str(cfg), "--I", "10",
             "--out", str(tmp_path / "o2")], capsys
        )
        assert summary["spike_count"] == "4"

    def test_unknown_config_key_exits_2_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("amplitude = 3\n")
        out = tmp_path / "never"
        code, _, captured = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 2
        assert "amplitude" in captured.err
        assert not out.exists()

    def test_config_line_without_equals_exits_2_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 10\n# comment\nseed 3\n")
        out = tmp_path / "never"
        code, _, captured = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{cfg}:3: expected 'key = value'" in captured.err
        assert not out.exists()

    def test_unreadable_config_exits_2_without_output(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        out = tmp_path / "never"
        code, _, captured = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(cfg) in captured.err
        assert not out.exists()

    def test_non_utf8_config_named_in_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfeT\x00 \x00=\x00 \x001\x00\n\x00")
        out = tmp_path / "never"
        code, _, captured = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(out)], capsys
        )
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(cfg) in captured.err and "UTF-8" in captured.err
        assert not out.exists()

    def test_short_noisy_run_reports_no_holder_exponent(self, tmp_path, capsys):
        # T = 1 at dt = 0.01 gives 101 samples, fewer than the estimator needs.
        out = tmp_path / "short"
        code, summary, _ = run_cli(
            ["simulate", "--sigma", "0.25", "--T", "1", "--out", str(out)], capsys
        )
        assert code == 0
        assert summary["holder_exponent"] == "none"
        assert summary["trajectory_csv"] == str(out / "trajectory.csv")

    def test_low_hurst_stochastic_run_fails_cleanly(self, tmp_path, capsys):
        # A usage error, as in `series`: exit 2 before any output is written.
        code, _, captured = run_cli(
            ["simulate", "--sigma", "0.25", "--hurst", "0.3",
             "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "1/2" in captured.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--threshold", "nan"), ("--threshold", "-inf"), ("--refractory", "nan"),
         ("--refractory", "inf"), ("--refractory", "-1.0")],
    )
    def test_bad_spike_detection_exits_2_without_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code, summary, captured = run_cli(["simulate", f"{flag}={value}", "--out", str(out)],
                                          capsys)
        assert code == 2
        assert f"got {value}" in captured.err
        assert "spike_count" not in summary
        assert not out.exists()


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        out = tmp_path / "sw"
        code, summary, _ = run_cli(
            ["sweep", "--I-min", "1", "--I-max", "7", "--I-step", "2",
             "--out", str(out)], capsys
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "I,spike_count"
        assert len(lines) == 5
        assert summary["I1_hat"] == "1"

    # The README's sweep, `sweep --I-min 0 --I-max 12 --I-step 0.5`:
    # current -> spike count on the default 50 ms, dt 0.01 run.
    README_TABLE = {
        0.0: 0, 0.5: 0, 1.0: 0, 1.5: 0, 2.0: 0, 2.5: 1, 3.0: 1, 3.5: 1, 4.0: 1,
        4.5: 1, 5.0: 1, 5.5: 1, 6.0: 2, 6.5: 3, 7.0: 3, 7.5: 3, 8.0: 3,
        8.5: 4, 9.0: 4, 9.5: 4, 10.0: 4, 10.5: 4, 11.0: 4, 11.5: 4, 12.0: 4,
    }

    def test_readme_sweep_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, summary, _ = run_cli(
            ["sweep", "--I-min", "0", "--I-max", "12", "--I-step", "0.5",
             "--out", str(out)], capsys
        )
        assert code == 0
        assert (summary["points"], summary["I1_hat"], summary["I2_hat"]) == ("25", "2", "5.5")
        expected = ["I,spike_count"] + [f"{i:.17g},{c}" for i, c in self.README_TABLE.items()]
        assert (out / "sweep.csv").read_text().splitlines() == expected

    def test_empty_range_is_usage_error(self, tmp_path, capsys):
        code, _, captured = run_cli(
            ["sweep", "--I-min", "5", "--I-max", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "range" in captured.err

    def test_bad_step_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sweep", "--I-step", "0", "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--I-min", "--I-max", "--I-step"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_range_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code, _, captured = run_cli(["sweep", f"{flag}={value}", "--out", str(out)], capsys)
        assert code == 2
        assert f"{flag} must be finite" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, count",
        [
            (["--I-max", "1e300"], "2e+300"),
            (["--I-step", "1e-300"], "1.2e+301"),
            (["--I-min=-1.7e308", "--I-max", "1.7e308"], "inf"),
        ],
    )
    def test_oversized_range_is_usage_error(self, tmp_path, capsys, flags, count):
        out = tmp_path / "x"
        code, _, captured = run_cli(["sweep", *flags, "--out", str(out)], capsys)
        assert code == 2
        assert f"has {count} points, more than 100000" in captured.err
        assert not out.exists()

    def test_point_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_SWEEP_MAX_POINTS", 4)
        args = ["sweep", "--I-min", "1", "--I-step", "2", "--out", str(tmp_path / "x")]
        code, summary, _ = run_cli([*args, "--I-max", "7"], capsys)
        assert code == 0
        assert summary["points"] == "4"
        code, _, captured = run_cli([*args, "--I-max", "9"], capsys)
        assert code == 2
        assert "has 5 points, more than 4" in captured.err

    @pytest.mark.parametrize(
        "flag, value", [("--threshold", "inf"), ("--refractory", "nan"), ("--refractory", "-2.0")]
    )
    def test_bad_spike_detection_exits_2_without_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        code, summary, captured = run_cli(
            ["sweep", "--I-max", "3", f"{flag}={value}", "--out", str(out)], capsys
        )
        assert code == 2
        assert f"got {value}" in captured.err
        assert "I1_hat" not in summary
        assert not out.exists()


class TestFbmCommand:
    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["fbm", "--N", "64", "--T", "10", "--hurst", "0.8", "--seed", "5",
                 "--out", str(out)], capsys
            )
            assert code == 0
            outs.append((out / "fbm.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_generators_both_work(self, tmp_path, capsys):
        for gen in ("cholesky", "wood_chan"):
            code, summary, _ = run_cli(
                ["fbm", "--N", "32", "--T", "10", "--generator", gen,
                 "--out", str(tmp_path / gen)], capsys
            )
            assert code == 0
            assert summary["generator"] == gen

    def test_missing_required_size_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fbm", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_hurst_out_of_range_is_usage_error(self, tmp_path, capsys):
        code, _, captured = run_cli(
            ["fbm", "--N", "16", "--hurst", "1.5", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "Hurst" in captured.err


class TestViabilityCommand:
    def test_model_fields_pass_with_exit_0(self, tmp_path, capsys):
        out = tmp_path / "v"
        code, _, captured = run_cli(
            ["viability", "--sigma", "0.25", "--out", str(out)], capsys
        )
        assert code == 0
        assert '"pass": true' in captured.out
        assert '"points_checked": 4578' in (out / "viability.txt").read_text()

    def test_adversarial_voltage_row_fails_with_exit_1(self, tmp_path, capsys):
        code, _, captured = run_cli(
            ["viability", "--sigma", "0.25", "--sigma-row4", "0.1",
             "--out", str(tmp_path / "v")], capsys
        )
        assert code == 1
        assert '"pass": false' in captured.out
        assert '"worst_diffusion_point"' in captured.out


class TestSeriesCommand:
    def test_non_increasing_series_runs(self, tmp_path, capsys):
        out = tmp_path / "ser"
        code, summary, _ = run_cli(
            ["series", "0.9", "0.7", "--T", "10", "--sigma", "0.25",
             "--seed", "2", "--out", str(out)], capsys
        )
        assert code == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "k,H,exponent,fit_residual"
        assert len(lines) == 3
        assert "exponent_1" in summary

    def test_single_value_gives_one_row(self, tmp_path, capsys):
        out = tmp_path / "ser1"
        code, _, _ = run_cli(
            ["series", "0.8", "--T", "10", "--sigma", "0.25", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len((out / "series.csv").read_text().splitlines()) == 2

    def test_increasing_list_is_usage_error(self, tmp_path, capsys):
        code, _, captured = run_cli(
            ["series", "0.6", "0.9", "--sigma", "0.25", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "non-increasing" in captured.err


@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["simulate", "--T", "50", "--dt", "1e-320"], 2, "dt=1e-320"),
        (["sweep", "--T", "1e308", "--dt", "1e-10", "--I-max", "1"], 2, "dt=1e-10"),
        (["series", "0.9", "--T", "1e308", "--dt", "1e-10"], 2, "dt=1e-10"),
        (["simulate", "--sigma", "0.25", "--seed", "-1"], 2, "seed"),
        (["sweep", "--seed", "-4"], 2, "seed"),
        (["series", "0.9", "--seed", "-2"], 2, "seed"),
        (["fbm", "--N", "16", "--seed", "-1"], 2, "seed"),
        (["simulate", "--hurst", "1.5"], 2, "got 1.5"),
        (["fbm", "--N", "16", "--hurst", "1.5"], 2, "got 1.5"),
        # A noisy run below the Young range is a usage error in both commands.
        (["simulate", "--sigma", "0.25", "--hurst", "0.3"], 2, "got 0.3"),
        (["series", "0.3", "--sigma", "0.25"], 2, "got 0.3"),
        # A run that diverges fails with exit 1, also before any output.
        (["simulate", "--dt", "0.1"], 1, "reduce dt"),
    ],
)
def test_bad_solver_config_prints_one_error_line(tmp_path, argv, code, named):
    src = str(Path(frachh.__file__).resolve().parents[1])
    out = tmp_path / "x"
    proc = subprocess.run(
        [sys.executable, "-m", "frachh.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert named in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, at_cap, past_cap, source, cap, steps",
    [
        (["simulate", "--dt", "0.01"], "--T", "3", "3.01", "T=3.01 / dt=0.01", 300, 301),
        (["sweep", "--I-max", "0", "--dt", "0.01"], "--T", "3", "3.01", "T=3.01 / dt=0.01",
         300, 301),
        (["series", "0.9", "--sigma", "0.25", "--dt", "0.01"], "--T", "3", "3.01",
         "T=3.01 / dt=0.01", 300, 301),
        (["fbm"], "--N", "300", "301", "--N 301", 300, 301),
        # The cap holds for a whole call too: two runs of 150 steps fill it.
        (["sweep", "--I-max", "1", "--I-step", "1", "--dt", "0.01"], "--T", "1.5", "1.51",
         "a sweep of 2 currents at T=1.51 / dt=0.01", 300, 302),
        # Each recording needs 256 samples, so two of 300 steps fill a cap of 600.
        (["series", "0.9", "0.8", "--sigma", "0.25", "--dt", "0.01"], "--T", "3", "3.01",
         "a series of 2 recordings at T=3.01 / dt=0.01", 600, 602),
    ],
    ids=["simulate", "sweep", "series", "fbm", "sweep-2-currents", "series-2-recordings"],
)
def test_step_limit_is_inclusive(tmp_path, capsys, monkeypatch, argv, flag, at_cap,
                                 past_cap, source, cap, steps):
    monkeypatch.setattr(cli, "_MAX_STEPS", cap)
    assert main([*argv, flag, at_cap, "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("integrated or sampled past the cap")

    monkeypatch.setattr(solver, "_integrate", no_work)
    monkeypatch.setattr(fbm, "sample_driver", no_work)
    out = tmp_path / "x"
    code, summary, captured = run_cli([*argv, flag, past_cap, "--out", str(out)], capsys)
    assert code == 2
    assert captured.err == f"error: {source} gives {steps} steps, more than {cap}\n"
    assert not summary
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag, at_cap, past_cap, n_grid, cap",
    [
        (["simulate", "--sigma", "0.25", "--generator", "cholesky", "--dt", "0.01"],
         "--T", "0.34", "0.35", 35, 300),
        # A recording needs 256 samples, so the cap is set where N = 255 fits.
        (["series", "0.9", "--sigma", "0.25", "--generator", "cholesky", "--dt", "0.01"],
         "--T", "2.55", "2.56", 256, 12193),
        (["fbm", "--generator", "cholesky"], "--N", "34", "35", 35, 300),
    ],
    ids=["simulate", "series", "fbm"],
)
def test_cholesky_factor_limit_is_inclusive(tmp_path, capsys, monkeypatch, argv, flag,
                                            at_cap, past_cap, n_grid, cap):
    # A factor may take the 32 bytes a step of a capped trajectory takes.
    monkeypatch.setattr(fbm, "_FACTOR_MAX_BYTES", 32 * cap)
    size = 8 * fbm._factor_size(n_grid)
    assert 8 * fbm._factor_size(n_grid - 1) <= 32 * cap < size
    assert main([*argv, flag, at_cap, "--out", str(tmp_path / "ok")]) == 0
    # Only a Cholesky driver has a factor.
    wood_chan = ["wood_chan" if a == "cholesky" else a for a in argv]
    assert main([*wood_chan, flag, past_cap, "--out", str(tmp_path / "wood_chan")]) == 0
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("integrated or sampled past the cap")

    monkeypatch.setattr(solver, "_integrate", no_work)
    monkeypatch.setattr(fbm, "_toeplitz_cholesky", no_work)
    out = tmp_path / "x"
    code, summary, captured = run_cli([*argv, flag, past_cap, "--out", str(out)], capsys)
    assert code == 2
    assert captured.err == (f"error: a Cholesky factor at N={n_grid} takes {size} bytes, "
                            f"more than {32 * cap}\n")
    assert not summary
    assert not out.exists()


def test_cholesky_factor_limit_at_the_real_cap(tmp_path, monkeypatch):
    # The factor builder is a stub, so nothing large is built: N = 8880 is the
    # largest factor within `fbm._FACTOR_MAX_BYTES` (320 MB), so the README's
    # N = 5000 run passes and a 1000 ms run (N = 10^5, a 40 GB factor) is
    # refused.
    built = []

    def stub(gamma):
        built.append(gamma.size)
        return np.zeros(1)

    monkeypatch.setattr(fbm, "_toeplitz_cholesky", stub)
    for n_grid in (5000, 8880):
        fbm._unit_factor(n_grid, 0.75)
    for n_grid in (8881, 100_000):
        with pytest.raises(ValueError, match=f"at N={n_grid} "):
            fbm._unit_factor(n_grid, 0.75)
    assert built == [5000, 8880]
    # A noise-free run draws no driver, so it needs no factor.
    monkeypatch.setattr(fbm, "_FACTOR_MAX_BYTES", 32 * 300)
    assert main(["simulate", "--generator", "cholesky", "--T", "3",
                 "--out", str(tmp_path / "ok")]) == 0
    assert built == [5000, 8880]


# The options each subcommand takes besides --config and --out, and its
# positionals.
OPTIONS = {
    "simulate": ("--T --dt --I --hurst --sigma --seed --generator --threshold "
                 "--refractory --svg", ""),
    "sweep": ("--T --dt --threshold --refractory --I-min --I-max --I-step", ""),
    "fbm": ("--T --hurst --seed --generator --N", ""),
    "viability": ("--I --sigma --sigma-row4", ""),
    "series": ("--T --dt --I --sigma --seed --generator", "hurst_values"),
}


def test_each_subcommand_takes_only_the_options_it_reads():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(OPTIONS)
    settable = 0
    for command, parser in subparsers.choices.items():
        options, positionals = OPTIONS[command]
        actions = [a for a in parser._actions if a.dest != "help"]
        assert {s for a in actions for s in a.option_strings} == {
            "--config", "--out", *options.split()
        }, command
        assert [a.dest for a in actions if not a.option_strings] == positionals.split()
        settable += len(actions)
    assert settable == 42


def test_main_runs_the_subcommand_bound_when_it_is_called(tmp_path, monkeypatch):
    # A wrapper installed after import (as a tracer installs one) must run.
    calls = []

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    counting("cmd_fbm")
    counting("cmd_viability")
    assert main(["fbm", "--N", "16", "--out", str(tmp_path / "fbm")]) == 0
    assert main(["viability", "--sigma", "0.25", "--sigma-row4", "0.1",
                 "--out", str(tmp_path / "viability")]) == 1
    assert calls == ["cmd_fbm", "cmd_viability"]
    assert (tmp_path / "fbm" / "fbm.csv").exists()


# Flags each subcommand used to accept and ignore, each with a valid value.
UNREAD_FLAGS = {
    ("sweep",): {"--I": "5", "--hurst": "0.75", "--sigma": "0.25", "--seed": "3",
                 "--generator": "cholesky"},
    ("fbm", "--N", "16"): {"--dt": "0.01", "--I": "10", "--sigma": "0.25",
                           "--threshold": "50", "--refractory": "2"},
    ("viability",): {"--T": "50", "--dt": "0.01", "--hurst": "0.75", "--seed": "3",
                     "--generator": "cholesky", "--threshold": "50", "--refractory": "2"},
    ("series", "0.9"): {"--hurst": "0.75", "--threshold": "50", "--refractory": "2"},
}


@pytest.mark.parametrize(
    "argv, flag",
    [([*argv, flag, value], flag) for argv, flags in UNREAD_FLAGS.items()
     for flag, value in flags.items()]
    + [(["fbm", "--N", "16", "--dt", "-1", "--sigma", "-5"], "--dt"),
       (["viability", "--dt", "-1", "--seed", "-4", "--hurst", "7"], "--dt")],
    ids=[f"{argv[0]}{flag}" for argv, flags in UNREAD_FLAGS.items() for flag in flags]
    + ["fbm-several", "viability-several"],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f" {flag} " in err
    assert not out.exists()


# Runs in a fresh interpreter: this one already has scipy loaded by other
# tests. With "blocked", scipy cannot be imported at all.
COLD_START_SCRIPT = """
import sys
from pathlib import Path

if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None

import frachh
import frachh.cli as cli

out = Path(sys.argv[1])
runs = {
    "simulate": ["simulate", "--sigma", "0.25", "--T", "5", "--seed", "1"],
    "cholesky": ["simulate", "--sigma", "0.25", "--T", "5", "--generator", "cholesky"],
    "sweep": ["sweep", "--I-min", "0", "--I-max", "8", "--I-step", "4", "--T", "20"],
    "fbm": ["fbm", "--N", "256", "--seed", "1"],
    "viability": ["viability", "--sigma", "0.25"],
    "series": ["series", "0.9", "0.7", "--sigma", "0.25", "--T", "5"],
}
for name, argv in runs.items():
    assert cli.main(argv + ["--out", str(out / name)]) == 0, argv
loaded = sorted(m for m, module in sys.modules.items()
                if module is not None and (m == "scipy" or m.startswith("scipy.")))
assert not loaded, loaded[:3]
"""


def test_no_subcommand_imports_scipy(tmp_path):
    src = str(Path(frachh.__file__).resolve().parents[1])
    for mode in ("importable", "blocked"):
        out = tmp_path / mode
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, str(out), mode],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, (mode, proc.stderr)
        assert (out / "cholesky" / "trajectory.csv").exists()
