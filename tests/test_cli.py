"""End-to-end CLI behavior: config round-trip, subcommands, exit codes, outputs."""

import dataclasses
import re

import numpy as np
import pytest

from frachh.cli import (
    RunConfig,
    build_parser,
    main,
    parse_config_file,
    serialize_config,
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
        defaults = dataclasses.asdict(RunConfig())
        assert list(defaults) == CONFIG_KEYS
        expected = {**dataclasses.asdict(HHParams()), **dataclasses.asdict(SolverConfig())}
        expected["hurst"] = expected.pop("hurst_H")
        expected.update(current_I=10.0, threshold=50.0, refractory=2.0, out_dir="out")
        assert defaults == expected

    def test_round_trip_identity(self, tmp_path):
        config = RunConfig(current_I=4.5, sigma_1=0.25, sigma_2=0.25, sigma_3=0.25,
                           T=20.0, dt=0.02, hurst=0.77, seed=9, out_dir="elsewhere")
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(config))
        parsed = RunConfig(**parse_config_file(path))
        assert parsed == config
        assert serialize_config(parsed) == serialize_config(config)

    def test_partial_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("current_I = 2.0\nseed = 5\n# comment\n\n")
        overrides = parse_config_file(path)
        assert overrides == {"current_I": 2.0, "seed": 5}
        config = RunConfig(**overrides)
        assert config.T == 50.0

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

    def test_low_hurst_stochastic_run_fails_cleanly(self, tmp_path, capsys):
        code, _, captured = run_cli(
            ["simulate", "--sigma", "0.25", "--hurst", "0.3",
             "--out", str(tmp_path / "x")], capsys
        )
        assert code == 1
        assert "1/2" in captured.err


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
