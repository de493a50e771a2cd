"""The three benchmark workloads and their correctness checks.

Every call into mfrl goes through a module attribute (``mfrl.cli.main``,
``mfrl.fd.fd_solve``, ...) so that the span wrappers of ``tracing.py`` see it.
Checks use tolerances rather than byte equality: a faster harmonic table, a
spectral Fokker-Planck reference or a new seed derivation must still pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mfrl.cli
import mfrl.convolution
import mfrl.fd
import mfrl.ratelab
from mfrl.errors import MfrlError
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext
from mfrl.trig import TrigPoly

HERE = Path(__file__).resolve().parent
CTX = TorusContext(1, 64)

try:  # glibc's malloc_trim hands freed heap back to the OS
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None

#: FD values may move by this much (absolute) before the check fails; covers
#: thinned time slices and reordered sums, not a changed scheme
FD_REFERENCE_TOL = 1e-3


class Checks:
    """Counts checks attempted and keeps the description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def interaction_problem(a: float) -> ProblemSpec:
    """Criterion 8's problem: sin drift kernel, G = int cos + (int sin)^2."""
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.0, [0.0], [0.5]), cost_kernel=TrigPoly()
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    return ProblemSpec(ham, term, a=a, T=0.5, ctx=CTX)


def linear_problem(a: float) -> ProblemSpec:
    """Criterion 3's problem: drift and running-cost kernels, quadratic terminal."""
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4], [0.2]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    return ProblemSpec(ham, term, a=a, T=0.5, ctx=CTX)


def pinned_problem() -> ProblemSpec:
    """Criterion 7's single-particle problem: weak drift, small terminal."""
    ham = HamiltonianSpec("linear", drift_kernel=TrigPoly(0.1), cost_kernel=TrigPoly())
    return ProblemSpec(ham, TerminalSpec(g=TrigPoly(0.0, [0.02])), a=0.0, T=0.5, ctx=CTX)


def timed_pass(workload, checks: Checks) -> float:
    """Wall time of one pass; an MfrlError raised by the pass is a failed check.

    Memory that earlier passes freed is first handed back to the OS, so every
    pass starts from the same resident set: the peak RSS is then that of one
    pass, not of allocator leftovers that grow with the number of passes run.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)
    t0 = time.perf_counter()
    try:
        workload.run_pass(checks)
    except MfrlError as exc:
        checks.check(False, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0


def _quiet_cli(argv: list[str]) -> int:
    """Run the mfrl CLI in-process; it echoes results to stdout, which we drop."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mfrl.cli.main(argv)


@dataclass(frozen=True)
class RateSize:
    n_list: tuple[int, ...]
    n_time_points: int
    n_configs: int
    n_paths: int
    n_steps: int
    m_ref: int = 0


RATE_SIZES = {
    "rate_meanfield": {
        "full": RateSize((4, 8, 16, 32), 2, 4, 500, 60),
        "tiny": RateSize((4, 8, 16), 1, 2, 200, 30),
    },
    "rate_common_noise": {
        "full": RateSize((4, 8, 16), 2, 3, 500, 60, m_ref=256),
        "tiny": RateSize((4, 8, 16), 1, 1, 100, 20, m_ref=64),
    },
}


class RateWorkload:
    """``mfrl rate`` on criterion 8's problem, from a plan file, in-process."""

    def __init__(self, name: str, seed: int, size: str, tmp: Path):
        s = RATE_SIZES[name][size]
        self.a = 0.5 if name == "rate_common_noise" else 0.0
        plan = {
            "version": 1,
            "plan": {
                "problem": interaction_problem(self.a).to_dict(),
                "n_list": list(s.n_list),
                "n_time_points": s.n_time_points,
                "n_configs": s.n_configs,
                "n_paths": s.n_paths,
                "n_steps": s.n_steps,
                "m_ref": s.m_ref,
                "seed": seed,
            },
        }
        self.plan_path = tmp / "plan.json"
        self.plan_path.write_text(json.dumps(plan))
        self.out_path = tmp / "rate.json"
        self.first_errors = None

    def run_pass(self, checks: Checks) -> None:
        code = _quiet_cli(
            ["rate", "--plan", str(self.plan_path), "--out", str(self.out_path),
             "--format", "json"]
        )
        if not checks.check(code == 0, f"mfrl rate exited with {code}"):
            return
        report = json.loads(self.out_path.read_text())
        rows = report["rows"]
        errors = np.array([r["sup_error"] for r in rows])
        stds = np.array([r["mc_std"] for r in rows])
        checks.check(
            np.all(np.isfinite(errors)) and np.all(np.isfinite(stds)) and np.all(errors > 0),
            "rate rows are not finite and positive",
        )
        checks.check(
            not any(r["notes"] == "non-monotone" for r in rows),
            "sup_error increases beyond the noise budget",
        )
        if self.a == 0.0:
            # criterion 8's exponent rule; it holds at this size for every seed tried
            checks.check(
                report["beta"] >= 1.0 / 3.0 - 0.1,
                f"fitted exponent {report['beta']:.3f} < 1/3 - 0.1",
            )
        else:
            # the surrogate reference carries its own bias budget, and its MC
            # error uses an eighth of the paths, so sqrt(8) times the run's own
            budget = report["metadata"]["surrogate_bias_budget"]
            slack = budget + 3.0 * (1.0 + math.sqrt(8.0)) * stds
            checks.check(
                np.all(errors <= slack), "sup_error exceeds surrogate budget + 3 SE"
            )
        # the same plan and seed must give the same errors on every pass
        if self.first_errors is None:
            self.first_errors = errors
        else:
            checks.check(
                np.allclose(errors, self.first_errors, rtol=1e-9, atol=0.0),
                "repeated pass with the same seed changed sup_error",
            )


@dataclass(frozen=True)
class FdSize:
    n_big: int
    mesh_big: int
    mesh_pair: int
    n_queries: int
    gap_n_time: int
    gap_refine: int
    complexity_n: tuple[int, ...]
    complexity_trials: int


FD_SIZES = {
    "full": FdSize(3, 48, 48, 200, 1001, 256, (16, 64, 256, 1024), 100),
    "tiny": FdSize(2, 24, 16, 20, 1001, 256, (16, 64, 256, 1024), 40),
}

GAP_EPS = [0.2, 0.1, 0.05, 0.025]


def resolved_slope(eps, gaps, cell: float) -> float:
    """Largest log-log slope of gaps each within half a grid cell of those given.

    Criterion 7's slope rules, with the probe's resolution as tolerance: an
    argmin on the probe's grid is a rounding of the continuous one.  At this
    probe size the smallest gaps are one or two cells, so the slope fitted to
    them is set by rounding: targets whose shift gaps read 5, 2, 1, 1 cells at
    shift_refine 256 (slope 0.80) read 19, 9, 5, 2 at 1024 (slope 1.06).  A
    least-squares slope is a weighted sum of log gaps whose weights have the
    sign of log(eps) - mean, so the largest is reached with gaps half a cell up
    above that mean and half a cell down (clamped at half a cell, as the
    probe's own fit clamps) below it.  Gaps that do not shrink (8, 8, 8, 8
    cells: 0.07), shrink slowly (8, 6, 5, 4: 0.44) or vanish (0.0) still fail.
    """
    x = np.log(np.asarray(eps))
    g = np.asarray(gaps)
    g = np.where(x > x.mean(), g + 0.5 * cell, np.maximum(g - 0.5 * cell, 0.5 * cell))
    return float(np.polyfit(x, np.log(g), 1)[0])


def reference_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed (t, configuration) probes at which FD values were recorded."""
    rng = np.random.default_rng(20240811)
    return np.array([0.0, 0.1, 0.25]), rng.uniform(0.0, TWO_PI, (8, n))


class FdWorkload:
    """``mfrl solve`` with an FD plan, then value-file analysis and convolutions."""

    def __init__(self, seed: int, size: str, tmp: Path):
        s = self.s = FD_SIZES[size]
        rng = np.random.default_rng(seed)
        self.problem = linear_problem(0.5)
        n_t = mfrl.fd.required_time_steps(self.problem, s.n_big, s.mesh_big)
        plan = {
            "version": 1,
            "solver": "fd",
            "problem": self.problem.to_dict(),
            "N": s.n_big,
            "mesh": s.mesh_big,
            "n_t": n_t,
        }
        self.plan_path = tmp / "solve.json"
        self.plan_path.write_text(json.dumps(plan))
        self.value_path = tmp / "values.bin"
        self.pair_path = tmp / "pair.bin"
        self.queries = rng.uniform(0.0, TWO_PI, (s.n_queries, s.n_big))
        self.node_slice = int(rng.integers(0, n_t + 1))
        self.node_idx = rng.integers(0, s.mesh_big, (32, s.n_big))
        self.probe_seed = int(rng.integers(0, 2**31))
        self.pair_n_t = mfrl.fd.required_time_steps(self.problem, 2, s.mesh_pair)
        # on-grid targets for the N = 2 inf-convolution: (time index, lattice index)
        self.conv_targets = [
            (int(rng.integers(0, self.pair_n_t + 1)), rng.integers(0, s.mesh_pair, 2))
            for _ in range(3)
        ]
        self.pinned = pinned_problem()
        self.pinned_n_t = mfrl.fd.required_time_steps(self.pinned, 1, 64)
        # gap-probe targets at mesh nodes, spread over time like criterion 7's and,
        # like them, at least 4 cells from the critical points 0 and pi of the
        # terminal cost, where the argmin is not pinned to the target
        self.gap_cells = [
            (int(rng.integers(lo, lo + 12)), int(rng.integers(4, 29) + 32 * rng.integers(0, 2)))
            for lo in (4, 18, 32, 46)
        ]
        self.complexity_seed = int(rng.integers(0, 2**31))
        ref = json.loads((HERE / "reference.json").read_text())["fd_analysis"][size]
        self.ref_values = np.array(ref["values"])

    def run_pass(self, checks: Checks) -> None:
        s = self.s
        code = _quiet_cli(
            ["solve", "--plan", str(self.plan_path), "--out", str(self.value_path)]
        )
        if not checks.check(code == 0, f"mfrl solve exited with {code}"):
            return
        vn = mfrl.fd.GridValueFunction.load(self.value_path)
        self.value_path.unlink()
        checks.check(
            vn.N == s.n_big and vn.mesh == s.mesh_big and np.all(np.isfinite(vn.values)),
            "loaded value file has the wrong shape or non-finite values",
        )
        k = min(self.node_slice, vn.n_t)
        at_nodes = vn.value(float(vn.times[k]), self.node_idx * vn.dx)
        stored = vn.slice_at(k)[tuple(self.node_idx.T)]
        checks.check(
            np.allclose(at_nodes, stored, rtol=0.0, atol=1e-12),
            "value() at lattice nodes differs from the stored slice",
        )
        times, configs = reference_points(s.n_big)
        got = np.array([vn.value(float(t), configs) for t in times])
        drift = float(np.max(np.abs(got - self.ref_values)))
        checks.check(
            drift <= FD_REFERENCE_TOL,
            f"FD values moved {drift:.2e} from the recorded reference",
        )
        checks.check(
            np.all(np.isfinite(vn.value(0.1, self.queries))),
            "interpolated values are not finite",
        )
        lip = mfrl.fd.lipschitz_probe(vn, seed=self.probe_seed)
        checks.check(
            all(np.isfinite(x) and x > 0 for x in
                (lip.max_scaled_gradient, lip.time_hoelder, lip.w1_lipschitz)),
            "Lipschitz probe is not finite and positive",
        )
        del vn, lip

        pair = mfrl.fd.fd_solve(self.problem, 2, s.mesh_pair, self.pair_n_t)
        pair.save(self.pair_path)
        back = mfrl.fd.GridValueFunction.load(self.pair_path)
        self.pair_path.unlink()
        checks.check(
            (back.N, back.mesh, back.n_t, back.T) == (pair.N, pair.mesh, pair.n_t, pair.T)
            and np.array_equal(back.values, pair.values),
            "value file round trip changed the solution",
        )
        # on-grid domination: with the time grid on the stored slices the
        # penalized minimum never exceeds the plain value (criterion 7)
        cfg = mfrl.convolution.ConvolutionConfig(
            epsilon=0.1, n_time=pair.n_t + 1, shift_refine=4
        )
        for kt, idx in self.conv_targets:
            atoms = EmpiricalMeasure((idx * pair.dx)[:, None])
            val, rec = mfrl.convolution.inf_convolve(
                pair, (float(pair.times[kt]), 0.0, atoms), cfg
            )
            checks.check(
                val <= float(pair.values[kt][tuple(idx)]) + 1e-12 and np.isfinite(rec.rho_gap),
                "inf-convolution exceeds the value on-grid",
            )

        single = mfrl.fd.fd_solve(self.pinned, 1, 64, self.pinned_n_t)
        targets = [
            (ti / 64.0 * single.T, xi * single.dx,
             EmpiricalMeasure(np.array([[xi * single.dx]])))
            for ti, xi in self.gap_cells
        ]
        table = mfrl.convolution.gap_scaling_probe(
            single, targets, GAP_EPS, n_time=s.gap_n_time, shift_refine=s.gap_refine
        )
        t_gaps = [r.t_gap for r in table.rows]
        z_gaps = [r.z_gap for r in table.rows]
        checks.check(
            all(a >= b - 1e-12 for a, b in zip(t_gaps, t_gaps[1:]))
            and all(a >= b - 1e-12 for a, b in zip(z_gaps, z_gaps[1:])),
            "argmin gaps do not decrease with epsilon",
        )
        eps = [r.epsilon for r in table.rows]
        t_slope = resolved_slope(eps, t_gaps, table.t_cell)
        z_slope = resolved_slope(eps, z_gaps, table.z_cell)
        checks.check(
            t_slope >= 0.55, f"time-gap exponent {t_slope:.3f} < 0.55 within half a cell"
        )
        checks.check(
            z_slope >= 0.85, f"shift-gap exponent {z_slope:.3f} < 0.85 within half a cell"
        )

        uniform = GridDensity(np.full(64, 1.0 / TWO_PI))
        complexity = mfrl.ratelab.sample_complexity_experiment(
            uniform, s.complexity_n, n_trials=s.complexity_trials,
            seed=self.complexity_seed, ctx=CTX,
        )
        checks.check(
            abs(complexity.w1_slope + 0.5) <= 0.1,
            f"W1 slope {complexity.w1_slope:.3f} outside -0.5 +/- 0.1",
        )


def build(name: str, seed: int, size: str, tmp: Path):
    if name == "fd_analysis":
        return FdWorkload(seed, size, tmp)
    return RateWorkload(name, seed, size, tmp)
