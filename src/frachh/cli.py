"""Command-line front end.

Subcommands: simulate | sweep | fbm | viability | series. Every run is a
deterministic function of its configuration and master seed (up to the usual
platform caveats for FFT-backed sampling). Configuration lives in a flat
`key = value` text file; command-line flags override file values, which
override the built-in defaults (`CONFIG_DEFAULTS`). `main` builds that config
once, as a plain dict, and looks the subcommand's `cmd_<name>` up by name when
it runs. Each subcommand takes only the flags it reads (`_SUBCOMMANDS`), while
one config file may serve them all: a key a subcommand does not read is
ignored. Outputs are CSV (plus an optional SVG
voltage trace) in the chosen output directory, with a machine-readable
`key=value` summary on stdout.

Exit codes have one rule, applied only in `main`: a value the CLI or the
library rejects (`ValueError`) is one `error:` line on stderr and exit 2, and
each subcommand makes every call that can reject a value before its first
write; a failed run (divergence, I/O), viability audit or voltage bound is 1.
Rejected values include work past the limits: more than `_MAX_STEPS` grid
steps in one integration or `fbm` driver, or Euler steps in one call.
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


# Most currents one `sweep` simulates.
_SWEEP_MAX_POINTS = 100_000

# Most grid steps one integration, or one `fbm` driver, may have, and most
# Euler steps one call may take over all its integrations: 100 times the
# README's 1000 ms run (10^5 steps at dt = 0.01), a 320 MB (m, h, n, V)
# trajectory. Any finite T / dt passes `SolverConfig`, so without a cap a
# tiny dt asks for work and memory without bound.
_MAX_STEPS = 10_000_000


# Config-file keys that differ from the library field they set.
_KEY_FOR_FIELD = {"hurst_H": "hurst"}

# Every config key, in file order, with its default; a key's default also
# gives the type a config-file value parses to. Keys name the fields of
# `HHParams` and `SolverConfig` (`hurst_H` keyed as `hurst`), spike detection
# and the output directory. The CLI's one default that differs from the
# library's is a spiking current.
CONFIG_DEFAULTS = {
    **{_KEY_FOR_FIELD.get(f.name, f.name): f.default
       for cls in (HHParams, SolverConfig) for f in dataclasses.fields(cls)},
    "current_I": 10.0,
    "threshold": analysis.DEFAULT_THRESHOLD,
    "refractory": analysis.DEFAULT_REFRACTORY,
    "out_dir": "out",
}


def _library_config(config: dict, cls):
    """The `HHParams` or `SolverConfig` that `config` describes."""
    return cls(**{f.name: config[_KEY_FOR_FIELD.get(f.name, f.name)]
                  for f in dataclasses.fields(cls)})


def parse_config_file(path) -> dict:
    """Read a flat `key = value` file into typed overrides; `#` starts a
    comment. An unreadable or non-UTF-8 file, unknown key or unparsable value
    raises `ValueError` naming the file (and line)."""
    overrides = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"cannot read config file {path}: not UTF-8 "
            f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = type(CONFIG_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return overrides


def build_run_config(args: argparse.Namespace) -> dict:
    """Every config key's value: the flags over the config file over
    `CONFIG_DEFAULTS`, with `--sigma` setting all three gates."""
    config = dict(CONFIG_DEFAULTS)
    if args.config:
        config.update(parse_config_file(args.config))
    for key in CONFIG_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    sigma = getattr(args, "sigma", None)
    if sigma is not None:
        config.update(sigma_1=sigma, sigma_2=sigma, sigma_3=sigma)
    return config


def _require_steps(steps: int, source: str) -> None:
    if steps > _MAX_STEPS:
        raise ValueError(f"{source} gives {steps} steps, more than {_MAX_STEPS}")


def _solver_config(config: dict, runs: int = 1, label: str = "") -> SolverConfig:
    """The call's `SolverConfig`, held to `_MAX_STEPS` steps in its `runs`
    integrations together, which `label` names when there are several."""
    solver_config = _library_config(config, SolverConfig)
    grid = f"T={solver_config.T} / dt={solver_config.dt}"
    source = grid if runs == 1 else f"{label} at {grid}"
    _require_steps(runs * solver_config.n_steps, source)
    return solver_config


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _out_dir(config: dict) -> Path:
    path = Path(config["out_dir"])
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
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
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


def cmd_simulate(args: argparse.Namespace, config: dict) -> int:
    params = _library_config(config, HHParams)
    solver_config = _solver_config(config)
    result = solver.simulate(equilibrium(0.0), params, solver_config)
    spikes = analysis.detect_spikes(result, config["threshold"], config["refractory"])
    holder = (None if params.is_deterministic
              else "none" if len(result.trajectory) < analysis._MIN_SAMPLES
              else analysis.gate_regularity(result).exponent)
    out = _out_dir(config)
    solver.write_trajectory_csv(result, out / "trajectory.csv")
    solver.write_clamp_csv(result, out / "clamp_events.csv")
    if args.svg:
        write_voltage_svg(result, out / "voltage.svg")
    _emit("spike_count", spikes.size)
    _emit("max_abs_V", result.max_abs_V)
    _emit("clamp_events", len(result.clamp_events))
    _emit("apriori_bound", result.apriori_bound)
    _emit("bound_satisfied", result.bound_satisfied)
    if holder is not None:
        _emit("holder_exponent", holder)
    _emit("trajectory_csv", out / "trajectory.csv")
    return 0 if result.bound_satisfied else 1


def cmd_sweep(args: argparse.Namespace, config: dict) -> int:
    for flag, value in (("--I-min", args.I_min), ("--I-max", args.I_max),
                        ("--I-step", args.I_step)):
        if not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.I_step <= 0.0:
        raise ValueError(f"--I-step must be positive, got {args.I_step}")
    stop = args.I_max + 0.5 * args.I_step
    # np.arange makes ceil((stop - start) / step) currents; count them first.
    points = (stop - args.I_min) / args.I_step
    if points > _SWEEP_MAX_POINTS:
        raise ValueError(
            f"current range [{args.I_min}, {args.I_max}] step {args.I_step} has "
            f"{np.ceil(points):.15g} points, more than {_SWEEP_MAX_POINTS}"
        )
    currents = np.arange(args.I_min, stop, args.I_step)
    if currents.size == 0:
        raise ValueError(
            f"empty current range [{args.I_min}, {args.I_max}] step {args.I_step}"
        )
    params = _library_config(config, HHParams)
    solver_config = _solver_config(config, currents.size,
                                   f"a sweep of {currents.size} currents")
    sweep = analysis.bifurcation_sweep(
        currents, params, solver_config, config["threshold"], config["refractory"],
    )
    out = _out_dir(config)
    analysis.write_sweep_csv(sweep, out / "sweep.csv")
    _emit("points", len(sweep.table))
    _emit("I1_hat", "none" if sweep.I1_hat is None else sweep.I1_hat)
    _emit("I2_hat", "none" if sweep.I2_hat is None else sweep.I2_hat)
    _emit("sweep_csv", out / "sweep.csv")
    return 0


def cmd_fbm(args: argparse.Namespace, config: dict) -> int:
    _require_steps(args.N, f"--N {args.N}")
    increments = fbm.sample_driver(args.N, config["T"], config["hurst"], config["seed"],
                                   config["generator"])
    out = _out_dir(config)
    fbm.write_driver_csv(increments, out / "fbm.csv", config["T"])
    _emit("N", args.N)
    _emit("hurst", config["hurst"])
    _emit("generator", config["generator"])
    _emit("fbm_csv", out / "fbm.csv")
    return 0


def cmd_viability(args: argparse.Namespace, config: dict) -> int:
    params = _library_config(config, HHParams)
    diffusion_fn = None
    if args.sigma_row4:
        row4 = float(args.sigma_row4)

        def diffusion_fn(x: State):
            sigma = diffusion(x, params)
            sigma[3, :] = row4
            return sigma

    report = viability.check_viability(params, diffusion_fn=diffusion_fn)
    out = _out_dir(config)
    text = report.to_text()
    (out / "viability.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report.passed else 1


def cmd_series(args: argparse.Namespace, config: dict) -> int:
    params = _library_config(config, HHParams)
    runs = len(args.hurst_values)
    solver_config = _solver_config(config, runs, f"a series of {runs} recordings")
    series = analysis.simulate_recording_series(args.hurst_values, params, solver_config)
    out = _out_dir(config)
    analysis.write_series_csv(series, out / "series.csv")
    for k, est in enumerate(series.estimates, start=1):
        _emit(f"exponent_{k}", est.exponent)
    _emit("series_csv", out / "series.csv")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line with exit 2, like a
    rejected value in `main`; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


# Every flag and positional a subcommand can take; each subcommand names the
# ones it reads in `_SUBCOMMANDS`, and every one takes `--config` and `--out`.
_ARGUMENTS = {
    "--config": dict(help="flat key = value config file"),
    "--T": dict(type=float, help="horizon in ms"),
    "--dt": dict(type=float, help="step in ms"),
    "--I": dict(dest="current_I", metavar="I", type=float,
                help="applied current in uA/cm^2"),
    "--hurst": dict(type=float, help="Hurst parameter of the driver"),
    "--sigma": dict(type=float, help="shared noise amplitude for all gates"),
    "--seed": dict(type=int, help="master seed"),
    "--generator": dict(choices=fbm.GENERATORS, help="fBm generator"),
    "--threshold": dict(type=float, help="spike threshold in mV"),
    "--refractory": dict(type=float, help="spike refractory gap in ms"),
    "--svg": dict(action="store_true", help="also write a voltage SVG"),
    "--I-min": dict(type=float, default=0.0),
    "--I-max": dict(type=float, default=12.0),
    "--I-step": dict(type=float, default=0.5),
    "--N": dict(type=int, required=True, help="number of grid steps"),
    "--sigma-row4": dict(type=float, default=0.0,
                         help="adversarial constant injected into the voltage row of sigma"),
    "hurst_values": dict(type=float, nargs="+",
                         help="non-increasing Hurst values, one recording each"),
    "--out": dict(dest="out_dir", metavar="OUT", help="output directory"),
}

_SUBCOMMANDS = {
    "simulate": ("integrate one trajectory",
                 "--T --dt --I --hurst --sigma --seed --generator --threshold "
                 "--refractory --svg"),
    "sweep": ("deterministic spike counts over currents",
              "--T --dt --threshold --refractory --I-min --I-max --I-step"),
    "fbm": ("sample a three-component fBm driver",
            "--T --hurst --seed --generator --N"),
    "viability": ("boundary condition report for (b, sigma)",
                  "--I --sigma --sigma-row4"),
    "series": ("degrading-recording series over Hurst values",
               "--T --dt --I --sigma --seed --generator hurst_values"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frachh",
        description="Stochastic Hodgkin-Huxley simulator driven by fractional "
                    "Brownian gate noise, with sweep/viability/regularity tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, names) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in ["--config", *names.split(), "--out"]:
            p.add_argument(name, **_ARGUMENTS[name])
    return parser


def main(argv=None) -> int:
    """Run one subcommand, `cmd_<name>` as bound when it runs. The only place
    an exception becomes an exit code: a rejected value (`ValueError`) gives
    2, a failed run (`OSError`, `RuntimeError`) gives 1."""
    args = build_parser().parse_args(argv)
    try:
        config = build_run_config(args)
        return globals()[f"cmd_{args.command}"](args, config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
