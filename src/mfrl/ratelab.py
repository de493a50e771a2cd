"""Experiment harness: convergence rates of particle values to the mean field.

``run_rate_experiment`` sweeps particle counts N, estimates the particle value
v^N(t, x) by the Feynman-Kac solver at sampled (t, x) pairs, evaluates the
mean-field value v(t, mu^x) by the Fokker-Planck reference (exact for every
common-noise intensity a: one a = 0 flow and a Gaussian shift average of G,
see ``meanfield``), and fits the observed sup-differences against the
sample-complexity scale alpha(N) in log-log space.
The target law is sup |v^N - v| <= C alpha(N)^{1/3}; only the exponent is
asserted downstream since the constant is problem-dependent.  The sweep runs
its one reference flow first and then its Monte Carlo calls on the MC
worker pool; the report's metadata names what produced the paths (the
noise, ``mc.NOISE``, and numpy's version).

``sample_complexity_experiment`` measures E[W1] and E[rho_star] between a
density and its N-sample empirical measures, the quantities that drive the
alpha(N) scale in the first place.  Its trials run as the rows of blocks:
sampling, the empirical Fourier mean and W1 each run once per block.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, check_fields, plan_int
from .mc import NOISE, _cpu_count, check_path_budget, mc_path_values, runs_whole, worker_pool
from .meanfield import check_flow_budget, deposit_empirical, mean_field_reference_batch
from .metric import MetricOrder, alpha_rate, rho_sq_rows, truncation_tail_bound
from .problems import ProblemSpec
from .torus import (
    DENSITY_REFINE,
    TWO_PI,
    EmpiricalMeasure,
    GridDensity,
    TorusContext,
    empirical_coefficients,
    fourier_coefficients,
    sample_rows,
    seeded_generator,
    w1_density_rows,
)

# The one-row forms of the complexity trial, still bound here by name:
# perfbench/tracing.py wraps these three attributes of this module.
from .metric import rho_star  # noqa: F401
from .torus import sample_iid, w1_circle_density  # noqa: F401

log = logging.getLogger(__name__)


def fit_rate(points) -> tuple[float, float, np.ndarray]:
    """Least squares of log error on log alpha.

    ``points`` is a sequence of (alpha_value, error) pairs, all positive.
    Returns (beta, C, residuals) for the model error = C * alpha**beta.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise InputDomainError("rate fit needs at least 3 points")
    if np.any(pts <= 0):
        raise InputDomainError("rate fit requires positive alphas and errors")
    la, le = np.log(pts[:, 0]), np.log(pts[:, 1])
    design = np.column_stack([la, np.ones_like(la)])
    coef, *_ = np.linalg.lstsq(design, le, rcond=None)
    beta, log_c = float(coef[0]), float(coef[1])
    residuals = le - design @ coef
    return beta, float(np.exp(log_c)), residuals


#: the plan's integer fields besides n_list
_INT_FIELDS = (
    "n_time_points",
    "n_configs",
    "n_paths",
    "n_steps",
    "ref_mesh",
    "ref_steps",
    "m_ref",
    "seed",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """Budgets and seeds for one rate sweep.

    ``ref_mesh`` is the node count of the Fokker-Planck reference grid and
    ``ref_steps`` the step count of its second-order split flow over the
    longest horizon, from t = 0 to T, rounded up so that every time of the
    sweep falls on a step (0 means ``default_flow_steps``: the drift's CFL
    bound, at least ``MIN_FLOW_STEPS``).  ``m_ref`` is accepted, checked to be an integer
    >= 0 and ignored: plans of version 1 may set it, but the reference needs
    no particle surrogate at any a.
    """

    problem: ProblemSpec
    n_list: tuple[int, ...]
    n_time_points: int = 8
    n_configs: int = 64
    n_paths: int = 4000
    n_steps: int = 100
    ref_mesh: int = 256
    ref_steps: int = 0
    m_ref: int = 0
    seed: int = 0

    def __post_init__(self):
        try:
            ns = tuple(plan_int("n_list", n) for n in self.n_list)
        except TypeError as exc:
            raise InputDomainError("n_list must be a list of integers") from exc
        object.__setattr__(self, "n_list", ns)
        for name in _INT_FIELDS:
            object.__setattr__(self, name, plan_int(name, getattr(self, name)))
        if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise InputDomainError("n_list must be strictly increasing, length >= 3")
        if ns[0] < 1:
            raise InputDomainError("particle counts in n_list must be >= 1")
        if min(self.n_time_points, self.n_configs, self.n_paths, self.n_steps) < 1:
            raise InputDomainError("all sampling budgets must be >= 1")
        if self.ref_mesh < 2:
            raise InputDomainError("ref_mesh must be >= 2")
        if min(self.ref_steps, self.m_ref) < 0:
            raise InputDomainError("ref_steps and m_ref must be >= 0")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentPlan":
        known = {"problem", "n_list", *_INT_FIELDS}
        check_fields(obj, known, "plan")
        if "problem" not in obj or "n_list" not in obj:
            raise InputDomainError("plan needs 'problem' and 'n_list'")
        kwargs = {k: obj[k] for k in known & set(obj) if k != "problem"}
        return cls(problem=ProblemSpec.from_dict(obj["problem"]), **kwargs)


@dataclass(frozen=True)
class RateRow:
    N: int
    alpha: float
    alpha_cbrt: float
    sup_error: float
    mc_std: float
    notes: str


@dataclass(frozen=True)
class RateReport:
    rows: tuple[RateRow, ...]
    beta: float
    c_fit: float
    residuals: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("N,alpha,alpha_cbrt,sup_error,mc_std,notes\n")
        for r in self.rows:
            buf.write(
                f"{r.N},{r.alpha:.12g},{r.alpha_cbrt:.12g},"
                f"{r.sup_error:.12g},{r.mc_std:.12g},{r.notes}\n"
            )
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "rows": [
                {
                    "N": r.N,
                    "alpha": r.alpha,
                    "alpha_cbrt": r.alpha_cbrt,
                    "sup_error": r.sup_error,
                    "mc_std": r.mc_std,
                    "notes": r.notes,
                }
                for r in self.rows
            ],
            "beta": self.beta,
            "c_fit": self.c_fit,
            "residuals": list(self.residuals),
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _derived_seed(seed: int, n: int, tag: int) -> int:
    return (int(seed) * 1_000_003 + n * 8_191 + tag) % (2**63)


def run_rate_experiment(plan: ExperimentPlan) -> RateReport:
    """Sweep N, record sup |v^N - v| over sampled (t, x), fit the rate.

    Every configuration of every N is deposited as one column of a single
    density batch, and one Fokker-Planck flow gives the mean-field value of
    every column at every time.  The flow runs first, alone: beside the MC
    workers it took 4-8x longer, slowed through the GIL.  Then every Monte
    Carlo call small enough to run whole (``runs_whole``) is an independent
    job on the MC worker pool; larger calls run here, one at a time, their
    steps split over the pool and this thread.  Each call has its own
    seed and draws its noise in its own fixed order, so the report does not
    depend on which thread ran what.  If anything fails, the jobs not yet
    started are cancelled and the error is raised once the running ones have
    finished.  A plan whose reference flow would hold more than
    ``meanfield.FLOW_BYTES_BUDGET``, or whose largest Monte Carlo call more
    than ``mc.PATH_BYTES_BUDGET``, is refused with ``ResourceBudgetError``
    before anything is drawn or allocated.  ``MFRL_LOG=info`` prints one
    line per sweep: its calls run whole and split, its particle-steps, the
    flow's seconds, the MC seconds after it, and ns per particle-step per
    core.
    """
    problem = plan.problem
    if not problem.hamiltonian.is_linear:
        raise InputDomainError("rate experiment needs a linear-in-p family")
    n_cols = len(plan.n_list) * plan.n_configs
    check_flow_budget(problem, plan.ref_mesh, n_cols, plan.n_time_points)
    check_path_budget(plan.n_configs, plan.n_paths, max(plan.n_list))
    t_points = np.linspace(0.0, problem.T, plan.n_time_points, endpoint=False)
    draws = []
    for n in plan.n_list:
        rng = seeded_generator(_derived_seed(plan.seed, n, 0))
        draws.append((n, rng.uniform(0.0, TWO_PI, size=(plan.n_configs, n))))
    densities = np.stack(
        [
            deposit_empirical(EmpiricalMeasure(c[:, None]), plan.ref_mesh).values
            for _, configs in draws
            for c in configs
        ],
        axis=1,
    )
    start = time.perf_counter()
    refs, fp_steps, fp_mass_drift = mean_field_reference_batch(
        problem, t_points, densities, n_t=plan.ref_steps
    )
    flow_end = time.perf_counter()
    pool = worker_pool()
    jobs = []

    def mc_call(n, configs, ti, t):
        """The call for (N, t_i): a job submitted now, or a call to make here."""
        call = functools.partial(
            mc_path_values,
            problem,
            configs,
            float(t),
            n_paths=plan.n_paths,
            n_steps=plan.n_steps,
            seed=_derived_seed(plan.seed, n, ti + 1),
        )
        if runs_whole(configs.shape, plan.n_paths):
            call = pool.submit(call)
            jobs.append(call)
        return call

    rows = []
    try:
        calls = [[mc_call(n, c, ti, t) for ti, t in enumerate(t_points)] for n, c in draws]
        for i, (n, _) in enumerate(draws):
            sup_error = 0.0
            mc_std = 0.0
            for ti, call in enumerate(calls[i]):
                vals = call.result() if isinstance(call, Future) else call()
                vn_mean = vals.mean(axis=1)
                se = vals.std(axis=1, ddof=1) / np.sqrt(plan.n_paths)
                ref = refs[ti, i * plan.n_configs : (i + 1) * plan.n_configs]
                sup_error = max(sup_error, float(np.max(np.abs(vn_mean - ref))))
                mc_std = max(mc_std, float(np.max(se)))
            notes = ""
            if rows and sup_error > rows[-1].sup_error + 3.0 * (mc_std + rows[-1].mc_std):
                notes = "non-monotone"
            alpha = alpha_rate(n, problem.ctx.d)
            rows.append(RateRow(n, alpha, alpha ** (1.0 / 3.0), sup_error, mc_std, notes))
    finally:
        for job in jobs:
            job.cancel()
        wait(jobs)
    mc_s = time.perf_counter() - flow_end
    n_calls = len(plan.n_list) * plan.n_time_points
    particle_steps = (
        plan.n_configs * sum(plan.n_list) * plan.n_time_points * plan.n_paths * plan.n_steps
    )
    log.info(
        "rate sweep: %d MC calls whole, %d split, %d particle-steps; flow %.3f s, "
        "then MC %.3f s, %.1f ns per particle-step per core (%d cores)",
        len(jobs), n_calls - len(jobs), particle_steps, flow_end - start, mc_s,
        mc_s * _cpu_count() * 1e9 / particle_steps, _cpu_count(),
    )

    beta, c_fit, residuals = fit_rate([(r.alpha, r.sup_error) for r in rows])
    metadata = {
        "seed": plan.seed,
        "n_paths": plan.n_paths,
        "n_steps": plan.n_steps,
        "n_time_points": plan.n_time_points,
        "n_configs": plan.n_configs,
        "ref_mesh": plan.ref_mesh,
        "ref_steps": plan.ref_steps,
        "m_ref": plan.m_ref,
        "fp_steps": fp_steps,
        "mc_noise": NOISE,
        "numpy": np.__version__,
        "fp_mass_drift": fp_mass_drift,
        "reference": "exact-fp" if problem.a == 0.0 else "exact-fp-shift",
        # no particle surrogate, so no bias budget at any a; the benchmark's
        # rate_common_noise check still reads the key
        "surrogate_bias_budget": 0.0,
        "truncation_tail": truncation_tail_bound(
            problem.ctx, problem.ctx.k_star
        ),
    }
    return RateReport(
        rows=tuple(rows),
        beta=beta,
        c_fit=c_fit,
        residuals=tuple(float(x) for x in residuals),
        metadata=metadata,
    )


@dataclass(frozen=True)
class ComplexityRow:
    N: int
    w1_mean: float
    w1_std_error: float
    rho_mean: float
    rho_std_error: float


@dataclass(frozen=True)
class ComplexityTable:
    rows: tuple[ComplexityRow, ...]
    w1_slope: float
    rho_slope: float
    max_rho_over_w1: float


#: numbers held by the largest array of one block of complexity trials
_BLOCK_NUMBERS = 2**18


def sample_complexity_experiment(
    mu: GridDensity,
    n_list,
    n_trials: int,
    seed: int,
    ctx=None,
) -> ComplexityTable:
    """Monte Carlo means of W1 and rho_star between mu and its N-samples.

    Trial k of sample size N draws from its own Philox key,
    ``_derived_seed(seed, N, k)``.  The trials of one N run as the rows of
    blocks that hold at most ``_BLOCK_NUMBERS`` numbers per array (the phase
    table of the Fourier mean, or the breakpoints of W1): ``sample_rows``,
    ``empirical_coefficients`` with ``rho_sq_rows``, and ``w1_density_rows``
    each run once per block.  Each row is bit for bit the trial that
    ``sample_iid``, ``rho_star`` and ``w1_circle_density`` give, so the table
    does not depend on the block size.  The slopes are log-log fits over the
    sample sizes, so at least two distinct sizes are required; the input is
    checked before anything is drawn.  ``MFRL_LOG=debug`` prints one line
    per N: its trials, blocks and seconds.
    """
    if n_trials < 2:
        raise InputDomainError("n_trials must be >= 2")
    n_list = sorted(int(n) for n in n_list)
    if len(set(n_list)) < 2:
        raise InputDomainError("slope fits need at least 2 distinct sample sizes")
    if n_list[0] < 1:
        raise InputDomainError("sample sizes must be >= 1")
    if ctx is None:
        ctx = TorusContext(1, 64)
    target = fourier_coefficients(mu, ctx)
    order = MetricOrder(ctx.k_star)
    rows = []
    max_ratio = 0.0
    for n in n_list:
        start = time.perf_counter()
        per_row = max((ctx.trunc + 1) * n, DENSITY_REFINE * mu.m + n + 1)
        block = max(1, _BLOCK_NUMBERS // per_row)
        w1s = np.empty(n_trials)
        rhos = np.empty(n_trials)
        for lo in range(0, n_trials, block):
            hi = min(lo + block, n_trials)
            atoms = sample_rows(mu, n, [_derived_seed(seed, n, k) for k in range(lo, hi)])
            coeffs = empirical_coefficients(atoms[:, :, None], ctx)
            rhos[lo:hi] = np.sqrt(np.maximum(rho_sq_rows(coeffs - target, order, ctx), 0.0))
            w1s[lo:hi] = w1_density_rows(np.sort(atoms, axis=1), mu)
        positive = w1s > 0
        max_ratio = max([max_ratio, *(rhos[positive] / w1s[positive])])
        log.debug(
            "sample complexity N=%d: %d trials in %d blocks, %.3f s",
            n, n_trials, -(-n_trials // block), time.perf_counter() - start,
        )
        rows.append(
            ComplexityRow(
                N=n,
                w1_mean=float(w1s.mean()),
                w1_std_error=float(w1s.std(ddof=1) / np.sqrt(n_trials)),
                rho_mean=float(rhos.mean()),
                rho_std_error=float(rhos.std(ddof=1) / np.sqrt(n_trials)),
            )
        )
    ns = np.array([r.N for r in rows], dtype=float)

    def log_slope(means):
        m = np.asarray(means, dtype=float)
        if np.any(m <= 0):
            return float("nan")  # degenerate target, e.g. a point mass
        return float(np.polyfit(np.log(ns), np.log(m), 1)[0])

    w1_slope = log_slope([r.w1_mean for r in rows])
    rho_slope = log_slope([r.rho_mean for r in rows])
    return ComplexityTable(tuple(rows), w1_slope, rho_slope, max_ratio)
