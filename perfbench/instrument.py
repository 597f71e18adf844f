"""Tracing wrappers around frachh's layers, installed from outside the package.

Each wrapper replaces a name where the calling module looks it up at call
time, so the program runs unchanged apart from the wrappers:

* `solver.rates` (once per Euler step, counted and timed in aggregate)
* `solver.simulate`, which `analysis` and `cli` call as `solver.simulate`
* `fbm.sample_driver` and the per-generator sampler table `fbm._SAMPLERS`
* `numpy.fft.fft` and `scipy.linalg.cholesky` as `fbm` reaches them through
  its own `np` and `scipy` names
* the analysis, viability and cli functions named in `SPANS`, and the five
  CSV writers plus the SVG writer as `cli` calls them

Kernel work for the Cholesky and FFT paths is computed from the array shapes
seen at the wrapper (N^3/3 flops per factorization, 8 N^2 covariance bytes,
FFT points), not measured by hardware counters.
"""

from __future__ import annotations

import contextlib
import sys

from spans import Tracer

# (module name, attribute, span name)
SPANS = (
    ("fbm", "sample_driver", "fbm.sample_driver"),
    ("analysis", "simulate_recording_series", "analysis.simulate_recording_series"),
    ("analysis", "bifurcation_sweep", "analysis.bifurcation_sweep"),
    ("analysis", "gate_regularity", "analysis.gate_regularity"),
    ("analysis", "detect_spikes", "analysis.detect_spikes"),
    ("viability", "apriori_voltage_bound", "viability.apriori_voltage_bound"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_fbm", "cli.fbm"),
    ("cli", "cmd_viability", "cli.viability"),
    ("cli", "cmd_series", "cli.series"),
    ("cli", "write_voltage_svg", "cli.svg"),
)

CSV_WRITERS = (
    ("solver", "write_trajectory_csv"),
    ("solver", "write_clamp_csv"),
    ("analysis", "write_sweep_csv"),
    ("analysis", "write_series_csv"),
    ("fbm", "write_driver_csv"),
)


class _Proxy:
    """Stand-in for a module: `overrides` win, every other attribute is the
    module's own."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    import numpy
    import scipy
    import scipy.linalg
    from frachh import analysis, cli, fbm, solver, viability

    modules = {"fbm": fbm, "analysis": analysis, "viability": viability,
               "cli": cli, "solver": solver}
    saved = []

    def patch(target, key, value):
        if isinstance(target, dict):
            saved.append((target, key, target[key], True))
            target[key] = value
        else:
            saved.append((target, key, getattr(target, key), False))
            setattr(target, key, value)

    def on_simulate(result, args, kwargs):
        tracer.count("solver.steps", result.n_steps)
        tracer.count("solver.clamp_events", len(result.clamp_events))

    def on_simulate_error(exc):
        tracer.count("solver.failures")

    def on_viability(report, args, kwargs):
        tracer.count("viability.points_checked",
                     report.points_checked + report.interior_points_checked)

    def on_cholesky(factor, args, kwargs):
        n = factor.shape[0]
        tracer.count("fbm.cholesky.flops_computed", n ** 3 / 3.0)
        tracer.count("fbm.cov_bytes_computed", 8.0 * n * n)

    def on_csv(result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        with open(path, "rb") as fh:
            data = fh.read()
        tracer.count("cli.csv.bytes", len(data))
        tracer.count("cli.csv.rows", data.count(b"\n") - 1)

    plain_fft = numpy.fft.fft

    def fft(a, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        kind = "fbm.fft_eig" if caller == "_circulant_eigenvalues" else "fbm.fft_sample"
        shape = numpy.shape(a)
        points = int(numpy.prod(shape))
        tracer.count(f"{kind}.calls", points // shape[-1])
        tracer.count("fbm.fft.points", points)
        return plain_fft(a, *args, **kwargs)

    try:
        patch(solver, "rates", tracer.wrap_aggregate(solver.rates, "kinetics.rates"))
        patch(solver, "simulate", tracer.wrap(solver.simulate, "solver.simulate",
                                              on_simulate, on_simulate_error))
        for key, sampler in list(fbm._SAMPLERS.items()):
            patch(fbm._SAMPLERS, key, tracer.wrap(sampler, f"fbm.sample_{key}"))
        patch(fbm, "np", _Proxy(numpy, fft=_Proxy(numpy.fft, fft=fft)))
        cholesky = tracer.wrap(scipy.linalg.cholesky, "fbm.cholesky", on_cholesky)
        patch(fbm, "scipy", _Proxy(scipy, linalg=_Proxy(scipy.linalg, cholesky=cholesky)))
        patch(viability, "check_viability", tracer.wrap(
            viability.check_viability, "viability.check_viability", on_viability))
        for mod, attr, name in SPANS:
            patch(modules[mod], attr, tracer.wrap(getattr(modules[mod], attr), name))
        for mod, attr in CSV_WRITERS:
            patch(modules[mod], attr, tracer.wrap(getattr(modules[mod], attr), "cli.csv", on_csv))
        yield tracer
    finally:
        for target, key, value, is_dict in reversed(saved):
            if is_dict:
                target[key] = value
            else:
                setattr(target, key, value)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Span and counter totals plus the driver sampling time spent inside
    `solver.simulate`, which `solver.us_per_step` subtracts."""
    out = tracer.summary()
    by_id = {s.id: s for s in tracer.spans}
    out["solver.driver_s"] = out.get("solver.driver_s", 0.0) + sum(
        s.duration for s in tracer.spans
        if s.name == "fbm.sample_driver" and s.parent is not None
        and by_id[s.parent].name == "solver.simulate"
    )
    return out
