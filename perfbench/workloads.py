"""The four benchmark workloads: seeded inputs, the call each input makes,
and the checks on each call's output.

Every workload is a closed loop with one caller, one call at a time. Inputs
come in rounds of fixed composition (the same call shapes and sizes in every
round, in a seeded order with seeded values), so runs with different seeds do
the same amount of work and their figures stay comparable.

Inputs are drawn with the standard library's `random`, so generating them
imports nothing from numpy or frachh; the program receives only the generated
values (current grids, H sequences, argv lists, seeds).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T_MS = 50.0
DT_MS = 0.01
STEPS = 5000  # T_MS / DT_MS
CALL_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Call:
    """One top-level call: a label for the call's shape, its inputs, and the
    Euler steps it integrates."""

    label: str
    args: tuple
    steps: int


def _gates_in_box(trajectory) -> bool:
    gates = trajectory[:, :3]
    return bool(gates.min() >= 0.0 and gates.max() <= 1.0)


class Workload:
    """Seeded rounds of calls; `setup` fills `pending` with the first round.
    `reference` names the speed.py kernels whose kind of work the calls
    spend their time in."""

    pending: list[Call]
    reference: tuple[str, ...] = ("scalar",)

    def rounds(self):
        while True:
            yield self.pending
            self.pending = self.next_round()

    def finish(self) -> list[str]:
        """Checks over the whole run, made after its last call."""
        return []

    def notes(self) -> list[str]:
        """Results of checks that are reported but do not fail the run."""
        return []


class InProcess(Workload):
    """A workload that calls frachh's public API inside this process."""

    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.import_s = float("nan")

    def setup(self) -> None:
        """Import frachh, generate the first inputs and make one warm-up call."""
        t0 = time.perf_counter()
        import frachh.cli  # noqa: F401  (the package as the CLI imports it)
        from frachh import analysis, kinetics, solver

        self.import_s = time.perf_counter() - t0
        self.analysis, self.solver = analysis, solver
        self.x0 = kinetics.equilibrium(0.0)
        self.HHParams, self.SolverConfig = kinetics.HHParams, solver.SolverConfig
        self.pending = self.next_round()
        self.run(self.warmup_call())


class NoisySeries(InProcess):
    """Degrading-recording series (sigma=0.25, I=10, T=50, dt=0.01, Wood-Chan)."""

    name = "noisy_series"
    H_GRID = (0.55, 0.65, 0.75, 0.85, 0.95)
    # Series lengths of one round; the median call is a 3-recording series.
    LENGTHS = (1, 2, 3, 3, 4, 5)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.exponents: dict[float, list[float]] = {h: [] for h in self.H_GRID}

    def _series_call(self, length: int) -> Call:
        seq = tuple(sorted((self.rng.choice(self.H_GRID) for _ in range(length)), reverse=True))
        return Call(f"series{length}", (seq, self.rng.getrandbits(32)), length * STEPS)

    def next_round(self) -> list[Call]:
        lengths = self.rng.sample(self.LENGTHS, len(self.LENGTHS))
        return [self._series_call(n) for n in lengths]

    def warmup_call(self) -> Call:
        return self._series_call(2)

    def run(self, call: Call):
        seq, seed = call.args
        params = self.HHParams.classic(current_I=10.0, sigma=0.25)
        config = self.SolverConfig(T=T_MS, dt=DT_MS, seed=seed)
        return self.analysis.simulate_recording_series(seq, params, config)

    def check(self, call: Call, series) -> list[str]:
        seq = call.args[0]
        if len(series.results) != len(seq) or len(series.estimates) != len(seq):
            return [f"{call.label}: {len(series.results)} recordings for {len(seq)} H values"]
        problems = []
        for h, run, est in zip(seq, series.results, series.estimates):
            if not _gates_in_box(run.trajectory):
                problems.append(f"{call.label}: gates left [0,1] at H={h}")
            self.exponents[h].append(est.exponent)
        return problems

    def _medians(self) -> dict[float, float]:
        from stats import percentile

        return {h: percentile(v, 50) for h, v in self.exponents.items() if v}

    def finish(self) -> list[str]:
        medians = self._medians()
        hs = sorted(medians)
        ordered = all(medians[a] < medians[b] for a, b in zip(hs, hs[1:]))
        if ordered:
            return []
        shown = ", ".join(f"{h}:{medians[h]:.3f}" for h in hs)
        return [f"median gate exponents not increasing with H ({shown})"]

    def notes(self) -> list[str]:
        medians = self._medians()
        off = {h: m for h, m in medians.items() if abs(m - h) > 0.1}
        shown = ", ".join(f"H={h}: {m:.3f}" for h, m in sorted(off.items()))
        verdict = f"FAIL for {shown}" if off else "pass"
        return [f"check median exponent within 0.1 of H (reported, not gated): {verdict}"]


class DetSweep(InProcess):
    """Deterministic current sweeps: full 25-point grids over [0, 12] mixed
    with short refinement sweeps near I1 and I2."""

    name = "det_sweep"
    FULL_GRID = tuple(0.5 * k for k in range(25))
    # Refinement widths of one round, next to one full grid; the median call
    # is a 7-point refinement.
    WIDTHS = (3, 5, 7, 9)
    # Windows for refinement centres; each straddles one threshold of the
    # classic parameters (rest/single near 2.3, single/multiple near 6.0).
    CENTRES = ((2.0, 2.5), (5.8, 6.3))

    def _refine_call(self, width: int) -> Call:
        lo, hi = self.rng.choice(self.CENTRES)
        centre = self.rng.uniform(lo, hi)
        spacing = self.rng.choice((0.05, 0.1))
        currents = tuple(round(centre + spacing * (k - (width - 1) / 2), 6) for k in range(width))
        return Call(f"refine{width}", (currents,), width * STEPS)

    def next_round(self) -> list[Call]:
        calls = [Call("full25", (self.FULL_GRID,), len(self.FULL_GRID) * STEPS)]
        calls += [self._refine_call(w) for w in self.WIDTHS]
        self.rng.shuffle(calls)
        return calls

    def warmup_call(self) -> Call:
        return self._refine_call(5)

    def run(self, call: Call):
        config = self.SolverConfig(T=T_MS, dt=DT_MS)
        return self.analysis.bifurcation_sweep(call.args[0], self.HHParams.classic(), config)

    def check(self, call: Call, sweep) -> list[str]:
        currents = call.args[0]
        if len(sweep.table) != len(currents):
            return [f"{call.label}: {len(sweep.table)} rows for {len(currents)} currents"]
        problems = []
        regimes = [min(count, 2) for _, count in sweep.table]
        if regimes != sorted(regimes):
            problems.append(f"{call.label}: regime not monotone in I: {sweep.table}")
        if call.label == "full25":
            if sweep.I1_hat is None or not 2.0 <= sweep.I1_hat <= 4.0:
                problems.append(f"full25: I1_hat={sweep.I1_hat} outside [2,4]")
            if sweep.I2_hat is None or not 5.0 <= sweep.I2_hat <= 7.0:
                problems.append(f"full25: I2_hat={sweep.I2_hat} outside [5,7]")
        return problems


class CholeskyRuns(InProcess):
    """Noisy `solver.simulate` runs with the Cholesky generator at N=1000."""

    name = "cholesky_runs"
    reference = ("array",)
    H_SET = (0.6, 0.75, 0.9)
    T_MS = 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.first = None

    def _call(self, hurst: float) -> Call:
        return Call(f"H{hurst}", (hurst, self.rng.getrandbits(32)), round(self.T_MS / DT_MS))

    def next_round(self) -> list[Call]:
        return [self._call(h) for h in self.rng.sample(self.H_SET, len(self.H_SET))]

    def warmup_call(self) -> Call:
        return self._call(self.rng.choice(self.H_SET))

    def run(self, call: Call):
        hurst, seed = call.args
        params = self.HHParams.classic(current_I=10.0, sigma=0.25)
        config = self.SolverConfig(T=self.T_MS, dt=DT_MS, hurst_H=hurst, seed=seed,
                                   generator="cholesky")
        return self.solver.simulate(self.x0, params, config)

    def check(self, call: Call, result) -> list[str]:
        problems = []
        if result.n_steps != call.steps:
            problems.append(f"{call.label}: {result.n_steps} steps, expected {call.steps}")
        if not _gates_in_box(result.trajectory):
            problems.append(f"{call.label}: gates left [0,1]")
        if self.first is None:
            self.first = (call, result.trajectory.copy())
        return problems

    def finish(self) -> list[str]:
        """The Cholesky path is the bit-reproducible one: repeating the first
        call must give the identical trajectory."""
        if self.first is None:
            return []
        call, trajectory = self.first
        again = self.run(call).trajectory
        if again.shape == trajectory.shape and (again == trajectory).all():
            return []
        return [f"{call.label}: repeated call with seed {call.args[1]} differs"]


@dataclass
class CliOutput:
    """Exit code and stdout of one command, its output directory, and the
    report `cli_boot.py` wrote (import time, peak memory, span summary)."""

    code: int
    stdout: str
    out_dir: Path
    report: dict

    def summary(self) -> dict[str, str]:
        pairs = (line.partition("=") for line in self.stdout.splitlines() if "=" in line)
        return {k: v for k, _, v in pairs}


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return (lines[0] if lines else ""), [line.split(",") for line in lines[1:]]


class CliReadme(Workload):
    """The README's commands at README sizes, plus a 1000 ms noisy run and a
    clamp-heavy run, each in a fresh interpreter through `cli_boot.py`."""

    name = "cli_readme"
    in_process = False
    reference = ("scalar", "array")

    def __init__(self, seed: int, root: Path, tmp: Path, env: dict):
        self.rng = random.Random(seed)
        self.root, self.tmp, self.env = root, tmp, env
        self.boot = Path(__file__).resolve().parent / "cli_boot.py"
        self.n_dirs = 0

    def _seed(self) -> str:
        return str(self.rng.getrandbits(31))

    def _commands(self) -> list[Call]:
        """(label, (argv, expected exit code), steps) for one round."""
        noisy = ["--sigma", "0.25"]
        seed = self._seed
        commands = [
            ("simulate", ["simulate", "--svg"], STEPS, 0),
            ("simulate_rough",
             ["simulate", *noisy, "--hurst", "0.55", "--seed", seed()], STEPS, 0),
            ("simulate_smooth",
             ["simulate", *noisy, "--hurst", "0.95", "--seed", seed()], STEPS, 0),
            ("sweep",
             ["sweep", "--I-min", "0", "--I-max", "12", "--I-step", "0.5"], 25 * STEPS, 0),
            ("fbm", ["fbm", "--N", "4096", "--T", "50", "--hurst", "0.75", "--seed", seed()], 0, 0),
            ("viability", ["viability", *noisy], 0, 0),
            ("viability_broken", ["viability", *noisy, "--sigma-row4", "0.1"], 0, 1),
            ("series",
             ["series", "0.9", "0.7", "0.55", *noisy, "--T", "50", "--seed", seed()], 3 * STEPS, 0),
            ("simulate_1000ms",
             ["simulate", *noisy, "--hurst", "0.75", "--T", "1000", "--seed", seed()],
             round(1000.0 / DT_MS), 0),
            ("simulate_clamp",
             ["simulate", "--sigma", "10", "--hurst", "0.55", "--seed", seed()], STEPS, 0),
        ]
        return [Call(label, (argv, code), steps) for label, argv, steps, code in commands]

    def next_round(self) -> list[Call]:
        calls = self._commands()
        self.rng.shuffle(calls)
        return calls

    def setup(self) -> None:
        """Generate the first inputs and run one warm-up command."""
        self.pending = self.next_round()
        warm = self._commands()[0]
        out = self.run(warm)
        self.discard(out)
        if out.code != 0:
            raise RuntimeError(f"warm-up command exited {out.code}: {out.stdout}")

    def run(self, call: Call, trace: bool = False) -> CliOutput:
        argv, _ = call.args
        self.n_dirs += 1
        call_dir = self.tmp / f"call-{self.n_dirs}"
        call_dir.mkdir(parents=True)
        report_path = call_dir / "report.json"
        cmd = [sys.executable, str(self.boot), str(report_path), "1" if trace else "0",
               *argv, "--out", str(call_dir / "out")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=self.env, cwd=self.root, timeout=CALL_TIMEOUT_S)
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        return CliOutput(proc.returncode, proc.stdout.decode(errors="replace"),
                         call_dir / "out", report)

    def discard(self, out: CliOutput) -> None:
        shutil.rmtree(out.out_dir.parent, ignore_errors=True)

    def check(self, call: Call, out: CliOutput) -> list[str]:
        try:
            return self._check(call, out)
        finally:
            self.discard(out)

    def _check(self, call: Call, out: CliOutput) -> list[str]:
        argv, expected_code = call.args
        label = call.label
        if out.code != expected_code:
            tail = out.stdout.strip().splitlines()[-1:] or [""]
            return [f"{label}: exit {out.code}, expected {expected_code} ({tail[0]})"]
        problems = []
        summary = out.summary()
        d = out.out_dir

        def expect_csv(name, header, rows):
            path = d / name
            if not path.is_file():
                problems.append(f"{label}: {name} missing")
                return []
            got_header, body = _read_csv(path)
            if got_header != header:
                problems.append(f"{label}: {name} header {got_header!r}")
            if len(body) != rows:
                problems.append(f"{label}: {name} has {len(body)} rows, expected {rows}")
            return body

        if argv[0] == "simulate":
            body = expect_csv("trajectory.csv", "t,V,m,h,n", call.steps + 1)
            if body and not all(0.0 <= float(x) <= 1.0 for row in body for x in row[2:]):
                problems.append(f"{label}: gates left [0,1] in trajectory.csv")
            expect_csv("clamp_events.csv", "step,coord,pre_value",
                       int(summary.get("clamp_events", -1)))
            if "--svg" in argv:
                svg = d / "voltage.svg"
                if not svg.is_file() or not svg.read_text().startswith("<svg"):
                    problems.append(f"{label}: voltage.svg missing or malformed")
        elif argv[0] == "sweep":
            expect_csv("sweep.csv", "I,spike_count", 25)
            for key, lo, hi in (("I1_hat", 2.0, 4.0), ("I2_hat", 5.0, 7.0)):
                value = summary.get(key, "none")
                if value == "none" or not lo <= float(value) <= hi:
                    problems.append(f"{label}: {key}={value} outside [{lo},{hi}]")
        elif argv[0] == "fbm":
            expect_csv("fbm.csv", "t,B1,B2,B3", int(argv[argv.index("--N") + 1]) + 1)
        elif argv[0] == "viability":
            report = json.loads((d / "viability.txt").read_text(encoding="utf-8"))
            if report["pass"] != (expected_code == 0):
                problems.append(f"{label}: viability pass={report['pass']}")
        elif argv[0] == "series":
            hs = argv[1:4]
            body = expect_csv("series.csv", "k,H,exponent,fit_residual", len(hs))
            if body and [float(r[1]) for r in body] != [float(h) for h in hs]:
                problems.append(f"{label}: series.csv H column {[r[1] for r in body]}")
        return problems


IN_PROCESS = {w.name: w for w in (NoisySeries, DetSweep, CholeskyRuns)}
NAMES = (*IN_PROCESS, CliReadme.name)
