"""Command-line front end.

Subcommands: simulate | sweep | fbm | viability | series. Every run is a
deterministic function of its configuration and master seed (up to the usual
platform caveats for FFT-backed sampling). Configuration lives in a flat
`key = value` text file; command-line flags override file values, which
override the built-in defaults. Outputs are CSV (plus an optional SVG voltage
trace) in the chosen output directory, with a machine-readable `key=value`
summary on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis, fbm, solver, viability
from .kinetics import HHParams, State, diffusion, equilibrium
from .solver import SolverConfig


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


# Config-file keys that differ from the library field they set.
_KEY_FOR_FIELD = {"hurst_H": "hurst"}
# The CLI's one default that differs from the library's: a spiking current.
_CLI_DEFAULTS = {"current_I": 10.0}

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [
        (_KEY_FOR_FIELD.get(f.name, f.name), f.type, _CLI_DEFAULTS.get(f.name, f.default))
        for cls in (HHParams, SolverConfig)
        for f in dataclasses.fields(cls)
    ]
    + [
        ("threshold", float, analysis.DEFAULT_THRESHOLD),
        ("refractory", float, analysis.DEFAULT_REFRACTORY),
        ("out_dir", str, "out"),
    ],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "Flat bag of every tunable: the fields of `HHParams` and "
                   "`SolverConfig` (`hurst_H` keyed as `hurst`), spike detection, "
                   "and the output directory. Field names double as config-file keys.",
    },
)


def _library_config(config: RunConfig, cls):
    """The `HHParams` or `SolverConfig` that `config` describes."""
    return cls(**{
        f.name: getattr(config, _KEY_FOR_FIELD.get(f.name, f.name))
        for f in dataclasses.fields(cls)
    })


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Read a flat `key = value` file into typed overrides; `#` starts a
    comment. Unknown keys and unparsable values are usage errors."""
    overrides = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        overrides[key] = _coerce(key, value, where=f"{path}:{lineno}")
    return overrides


def _coerce(key: str, value: str, where: str):
    kind = _CONFIG_FIELDS[key]
    try:
        if kind in (int, "int"):
            return int(value)
        if kind in (float, "float"):
            return float(value)
        return str(value)
    except ValueError as exc:
        raise UsageError(f"{where}: bad value for {key!r}: {exc}") from exc


def serialize_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def build_run_config(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(parse_config_file(args.config))
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    sigma = getattr(args, "sigma", None)
    if sigma is not None:
        overrides.update(sigma_1=sigma, sigma_2=sigma, sigma_3=sigma)
    try:
        return RunConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _out_dir(config: RunConfig) -> Path:
    path = Path(config.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key}={value:.17g}")
    else:
        print(f"{key}={value}")


# Voltage SVG: canvas size in px, and the most polyline points it holds.
_SVG_WIDTH = 960
_SVG_HEIGHT = 320
_SVG_MAX_POINTS = 4000


def write_voltage_svg(result: solver.SimulationResult, path) -> None:
    """Bare polyline of V against t, decimated by a uniform stride to at most
    `_SVG_MAX_POINTS` points; the first and last samples are always kept."""
    last = result.grid.size - 1
    stride = -(-last // (_SVG_MAX_POINTS - 1))
    keep = np.append(np.arange(0, last, stride), last)
    t = result.grid[keep]
    v = result.voltage[keep]
    v_lo, v_hi = float(v.min()), float(v.max())
    span = (v_hi - v_lo) or 1.0
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, 40
    xs = margin + (width - 2 * margin) * (t - t[0]) / (t[-1] - t[0])
    ys = height - margin - (height - 2 * margin) * (v - v_lo) / span
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="{margin}" y="{margin - 20}" font-size="12">'
            f"V [mV] over t [ms]; range [{v_lo:.3g}, {v_hi:.3g}]</text>\n"
            f'<polyline fill="none" stroke="black" stroke-width="1" points="{points}"/>\n'
            "</svg>\n"
        )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    params = _library_config(config, HHParams)
    sconf = _library_config(config, SolverConfig)
    out = _out_dir(config)
    result = solver.simulate(equilibrium(0.0), params, sconf)
    spikes = analysis.detect_spikes(result, config.threshold, config.refractory)
    solver.write_trajectory_csv(result, out / "trajectory.csv")
    solver.write_clamp_csv(result, out / "clamp_events.csv")
    if args.svg:
        write_voltage_svg(result, out / "voltage.svg")
    _emit("spike_count", spikes.size)
    _emit("max_abs_V", result.max_abs_V)
    _emit("clamp_events", len(result.clamp_events))
    _emit("apriori_bound", result.apriori_bound)
    _emit("bound_satisfied", result.bound_satisfied)
    if not params.is_deterministic:
        _emit("holder_exponent", analysis.gate_regularity(result).exponent)
    _emit("trajectory_csv", out / "trajectory.csv")
    return 0 if result.bound_satisfied else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    if args.I_step <= 0.0:
        raise UsageError(f"--I-step must be positive, got {args.I_step}")
    currents = np.arange(args.I_min, args.I_max + 0.5 * args.I_step, args.I_step)
    if currents.size == 0:
        raise UsageError(
            f"empty current range [{args.I_min}, {args.I_max}] step {args.I_step}"
        )
    sweep = analysis.bifurcation_sweep(
        currents, _library_config(config, HHParams),
        _library_config(config, SolverConfig),
        config.threshold, config.refractory,
    )
    out = _out_dir(config)
    analysis.write_sweep_csv(sweep, out / "sweep.csv")
    _emit("points", len(sweep.table))
    _emit("I1_hat", "none" if sweep.I1_hat is None else sweep.I1_hat)
    _emit("I2_hat", "none" if sweep.I2_hat is None else sweep.I2_hat)
    _emit("sweep_csv", out / "sweep.csv")
    return 0


def cmd_fbm(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    try:
        driver = fbm.sample_driver(args.N, config.T, config.hurst, config.seed,
                                   config.generator)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(config)
    fbm.write_driver_csv(driver, out / "fbm.csv")
    _emit("N", args.N)
    _emit("hurst", config.hurst)
    _emit("generator", config.generator)
    _emit("fbm_csv", out / "fbm.csv")
    return 0


def cmd_viability(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    params = _library_config(config, HHParams)
    diffusion_fn = None
    if args.sigma_row4:
        row4 = float(args.sigma_row4)

        def diffusion_fn(x: State, _base=params, _row4=row4):
            sigma = diffusion(x, _base)
            sigma[3, :] = _row4
            return sigma

    report = viability.check_viability(params, diffusion_fn=diffusion_fn)
    out = _out_dir(config)
    text = report.to_text()
    (out / "viability.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report.passed else 1


def cmd_series(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    try:
        series = analysis.simulate_recording_series(
            args.hurst_values, _library_config(config, HHParams),
            _library_config(config, SolverConfig),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(config)
    analysis.write_series_csv(series, out / "series.csv")
    for k, est in enumerate(series.estimates, start=1):
        _emit(f"exponent_{k}", est.exponent)
    _emit("series_csv", out / "series.csv")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--T", type=float, help="horizon in ms")
    p.add_argument("--dt", type=float, help="step in ms")
    p.add_argument("--I", dest="current_I", metavar="I", type=float,
                   help="applied current in uA/cm^2")
    p.add_argument("--hurst", type=float, help="Hurst parameter of the driver")
    p.add_argument("--sigma", type=float, help="shared noise amplitude for all gates")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--generator", choices=fbm.GENERATORS, help="fBm generator")
    p.add_argument("--threshold", type=float, help="spike threshold in mV")
    p.add_argument("--refractory", type=float, help="spike refractory gap in ms")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frachh",
        description="Stochastic Hodgkin-Huxley simulator driven by fractional "
                    "Brownian gate noise, with sweep/viability/regularity tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory")
    _add_common_flags(p)
    p.add_argument("--svg", action="store_true", help="also write a voltage SVG")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="deterministic spike counts over currents")
    _add_common_flags(p)
    p.add_argument("--I-min", dest="I_min", type=float, default=0.0)
    p.add_argument("--I-max", dest="I_max", type=float, default=12.0)
    p.add_argument("--I-step", dest="I_step", type=float, default=0.5)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fbm", help="sample a three-component fBm driver")
    _add_common_flags(p)
    p.add_argument("--N", type=int, required=True, help="number of grid steps")
    p.set_defaults(func=cmd_fbm)

    p = sub.add_parser("viability", help="boundary condition report for (b, sigma)")
    _add_common_flags(p)
    p.add_argument("--sigma-row4", dest="sigma_row4", type=float, default=0.0,
                   help="adversarial constant injected into the voltage row of sigma")
    p.set_defaults(func=cmd_viability)

    p = sub.add_parser("series", help="degrading-recording series over Hurst values")
    _add_common_flags(p)
    p.add_argument("hurst_values", type=float, nargs="+",
                   help="non-increasing Hurst values, one recording each")
    p.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
