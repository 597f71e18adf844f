"""frachh benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` tree next to this
directory, never from an installed copy, and the run fails (nonzero exit, no
result) when that tree is missing. Workloads (see `workloads.py` for why each exists):
noisy_series, det_sweep, cholesky_runs, cli_readme.

With `--trace 0` the run measures the end-to-end metrics with no wrappers
installed; its timings are scaled to a nominal machine speed by a reference
kernel timed between calls (`speed.py`), and the raw figures are printed
beside them. With `--trace 1` it runs every call twice, once bare and once
with the layer wrappers of `instrument.py`, alternating which goes first, and
reports the per-layer metrics (per workload call, unscaled) plus the tracing
overhead. The timed phase runs whole rounds of inputs until `--seconds` have
passed.

Output: `#`-prefixed report lines (environment, each metric with its unit and
sample count, failed checks, notes), then one JSON line
`{"correct", "attempted", "failed", "metrics"}`.

BLAS threads are fixed to one for this process and its children (at most
`nproc`), so the Cholesky timings do not depend on how many cores are idle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402
from cli_boot import peak_rss_kb  # noqa: E402
from instrument import instrumented, summarize  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import nominal_s, time_reference  # noqa: E402
from stats import percentile  # noqa: E402

SETUP_SAMPLES = 5
P90_MIN_CALLS = 100
REFERENCE_REPEATS = 3  # reference timings after each set-up

# Gated end-to-end metrics, as in BENCHMARK.json; timings are scaled to the
# nominal machine speed (see speed.py). call_s.p90 and the raw timings are
# printed in the report lines only.
END_TO_END = (
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("steps_per_s", "1/s"),
    ("call_s.p50", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)

# Per-layer metrics; totals are divided by the number of traced workload
# calls unless the unit says otherwise.
PER_LAYER = (
    ("kinetics.rates.calls", "count/call"),
    ("kinetics.rates.self_s", "s/call"),
    ("solver.simulate.calls", "count/call"),
    ("solver.simulate.self_s", "s/call"),
    ("solver.us_per_step", "us/step"),
    ("solver.steps", "count/call"),
    ("solver.clamp_events", "count/call"),
    ("solver.clamps_per_kstep", "count/kstep"),
    ("solver.failures", "count/call"),
    ("fbm.sample_driver.calls", "count/call"),
    ("fbm.sample_driver.self_s", "s/call"),
    ("fbm.sample_wood_chan.calls", "count/call"),
    ("fbm.sample_wood_chan.self_s", "s/call"),
    ("fbm.sample_cholesky.calls", "count/call"),
    ("fbm.sample_cholesky.self_s", "s/call"),
    ("fbm.fft_eig.calls", "count/call"),
    ("fbm.fft_sample.calls", "count/call"),
    ("fbm.fft.points", "count/call"),
    ("fbm.fft.mean_length", "points"),
    ("fbm.cholesky.calls", "count/call"),
    ("fbm.cholesky.self_s", "s/call"),
    ("fbm.cholesky.flops_computed", "flop/call"),
    ("fbm.cov_bytes_computed", "B/call"),
    ("analysis.simulate_recording_series.self_s", "s/call"),
    ("analysis.bifurcation_sweep.self_s", "s/call"),
    ("analysis.gate_regularity.calls", "count/call"),
    ("analysis.gate_regularity.self_s", "s/call"),
    ("analysis.detect_spikes.self_s", "s/call"),
    ("viability.check_viability.self_s", "s/call"),
    ("viability.points_checked", "count/call"),
    ("viability.apriori_voltage_bound.self_s", "s/call"),
    ("cli.import_s", "s"),
    ("cli.simulate.self_s", "s/call"),
    ("cli.sweep.self_s", "s/call"),
    ("cli.fbm.self_s", "s/call"),
    ("cli.viability.self_s", "s/call"),
    ("cli.series.self_s", "s/call"),
    ("cli.csv.self_s", "s/call"),
    ("cli.csv.rows", "count/call"),
    ("cli.csv.bytes", "B/call"),
    ("cli.svg.self_s", "s/call"),
    ("trace.overhead_s", "s/call"),
    ("trace.overhead_frac", "1"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_source() -> None:
    if not (SRC / "frachh" / "__init__.py").is_file():
        sys.exit(f"error: no frachh source tree at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def make_workload(name: str, seed: int, tmp: Path):
    if name == workloads.CliReadme.name:
        return workloads.CliReadme(seed, ROOT, tmp, child_env())
    return workloads.IN_PROCESS[name](seed)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports about itself."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def timed_setup(wl) -> tuple[float, float]:
    """One set-up: its wall time and the median reference time right after."""
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    refs = [time_reference(wl.reference) for _ in range(REFERENCE_REPEATS)]
    return elapsed, percentile(refs, 50)


def setup_samples(wl, args) -> list[tuple[float, float]]:
    """(set-up time, reference time) pairs: fresh interpreters for the
    in-process workloads (the import is only cold once per process), then
    this process's own set-up."""
    samples = []
    if wl.in_process:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        for _ in range(SETUP_SAMPLES - 1):
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                 env=child_env(), cwd=ROOT)
            if out.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{out.stdout}{out.stderr}")
            samples.append(tuple(json.loads(out.stdout.splitlines()[-1])))
        count = 1
    else:
        count = SETUP_SAMPLES
    samples += [timed_setup(wl) for _ in range(count)]
    return samples


class Run:
    """Counts and samples of one run's timed phase."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.durations: list[float] = []
        self.steps = 0
        self.child_rss_kb = 0

    def call(self, call, traced: bool) -> float:
        """Make one call, check its output, and return its wall time."""
        wl = self.wl
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if not traced:
                out = wl.run(call)
            elif wl.in_process:
                with instrumented(self.tracer):
                    out = wl.run(call)
            else:
                out = wl.run(call, trace=True)
            elapsed = time.perf_counter() - t0
            problems = wl.check(call, out)
        except Exception as exc:  # a failing call is a result of the run
            elapsed = time.perf_counter() - t0
            problems = [f"{call.label}: {type(exc).__name__}: {exc}"]
            out = None
        if not wl.in_process and out is not None:
            self.child_rss_kb = max(self.child_rss_kb, out.report.get("peak_rss_kb", 0))
            if traced:
                for key, value in out.report.get("summary", {}).items():
                    self.tracer.counters[key] += value
                self.tracer.counters["cli.import_s"] += out.report.get("cli.import_s", 0.0)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.steps += call.steps
        return elapsed

    def finish(self) -> None:
        problems = self.wl.finish()
        if problems:
            self.failed = min(self.attempted, self.failed + len(problems))
            self.problems.extend(problems)


def measure(wl, seconds: float) -> tuple[Run, dict]:
    """Untraced timed phase, with the reference kernel timed between calls.

    Each call's time is scaled by the mean of the reference times just
    before and just after it (see speed.py). Throughput is taken at the
    median scaled time of each call shape (label): calls_per_s = calls / sum
    over labels of (calls of that label x its median), so a GC pause or a
    stray slow call does not decide it.
    """
    run = Run(wl)
    by_label: dict[str, list[float]] = {}
    scaled = []
    nominal = nominal_s(wl.reference)
    refs = [time_reference(wl.reference)]
    t_start = time.perf_counter()
    for rnd in wl.rounds():
        for call in rnd:
            elapsed = run.call(call, traced=False)
            refs.append(time_reference(wl.reference))
            run.durations.append(elapsed)
            scaled.append(elapsed * 2.0 * nominal / (refs[-2] + refs[-1]))
            by_label.setdefault(call.label, []).append(scaled[-1])
        if time.perf_counter() - t_start >= seconds:
            break
    run.finish()
    n = len(scaled)
    busy = sum(len(d) * percentile(d, 50) for d in by_label.values())
    metrics = {
        "calls_per_s": (n / busy, "1/s", n),
        "steps_per_s": (run.steps / busy, "1/s", n),
        "call_s.p50": (percentile(scaled, 50), "s", n),
    }
    if n >= P90_MIN_CALLS:
        metrics["call_s.p90"] = (percentile(scaled, 90), "s", n)
    if wl.in_process:
        metrics["peak_rss_mb"] = (peak_rss_kb() / 1024.0, "MB", 1)
    else:
        metrics["peak_rss_mb"] = (run.child_rss_kb / 1024.0, "MB", n)
    metrics["ok_frac"] = ((run.attempted - run.failed) / run.attempted, "1", run.attempted)
    metrics["reference_s"] = (percentile(refs, 50), "s", len(refs))
    metrics["calls_per_s.raw"] = (n / sum(run.durations), "1/s", n)
    metrics["call_s.p50.raw"] = (percentile(run.durations, 50), "s", n)
    return run, metrics


def measure_traced(wl, seconds: float) -> tuple[Run, dict]:
    """Traced timed phase: each call bare and traced, in alternating order;
    layer totals are divided by the number of such pairs."""
    run = Run(wl, Tracer())
    bare = traced = 0.0
    pairs = 0
    t_start = time.perf_counter()
    for rnd in wl.rounds():
        for call in rnd:
            order = (False, True) if pairs % 2 == 0 else (True, False)
            for is_traced in order:
                elapsed = run.call(call, traced=is_traced)
                if is_traced:
                    traced += elapsed
                else:
                    bare += elapsed
            pairs += 1
        if time.perf_counter() - t_start >= seconds:
            break
    run.finish()
    totals = summarize(run.tracer)
    steps = totals.get("solver.steps", 0.0)
    ffts = totals.get("fbm.fft_eig.calls", 0.0) + totals.get("fbm.fft_sample.calls", 0.0)
    derived = {
        "solver.us_per_step": (totals.get("solver.simulate.total_s", 0.0)
                               - totals["solver.driver_s"]) / steps * 1e6 if steps else 0.0,
        "solver.clamps_per_kstep": totals.get("solver.clamp_events", 0.0) / steps * 1e3
        if steps else 0.0,
        "fbm.fft.mean_length": totals.get("fbm.fft.points", 0.0) / ffts if ffts else 0.0,
        "trace.overhead_s": (traced - bare) / pairs,
        "trace.overhead_frac": (traced - bare) / bare,
        # in-process workloads import frachh.cli once, during set-up
        "cli.import_s": wl.import_s if wl.in_process else totals["cli.import_s"] / pairs,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        value = derived[name] if name in derived else totals.get(name, 0.0) / pairs
        metrics[name] = (value, unit, pairs)
    return run, metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def report(args, run, metrics, env) -> None:
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={run.attempted} failed={run.failed} "
          f"reference={'+'.join(run.wl.reference)}")
    print(f"# {'metric':<44} {'value':>14} {'unit':<12} n")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:<44} {value:>14.6g} {unit:<12} {n}")
    for note in run.wl.notes():
        print(f"# note: {note}")
    for problem in run.problems[:20]:
        print(f"# failed check: {problem}")


def run_one(args) -> int:
    require_source()
    tmp_root = ROOT / ".bench_tmp"
    tmp = tmp_root / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, tmp)
        if args.setup_only:
            print(json.dumps(timed_setup(wl)))
            return 0
        if args.trace:
            wl.setup()
        else:
            setups = setup_samples(wl, args)
        import frachh

        if not Path(frachh.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"frachh imported from {frachh.__file__}, not {SRC}")
        if args.trace:
            run, metrics = measure_traced(wl, args.seconds)
        else:
            run, metrics = measure(wl, args.seconds)
            scaled = [t * nominal_s(wl.reference) / ref for t, ref in setups]
            metrics = {"setup_s": (percentile(scaled, 50), "s", len(setups)), **metrics,
                       "setup_s.raw": (percentile([t for t, _ in setups], 50), "s", len(setups))}
        report(args, run, metrics, environment())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
