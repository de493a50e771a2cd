"""Experiment harness: convergence rates of particle values to the mean field.

``run_rate_experiment`` sweeps particle counts N, estimates the particle value
v^N(t, x) by the Feynman-Kac solver at sampled (t, x) pairs, evaluates the
mean-field value v(t, mu^x) by the Fokker-Planck reference (the flow of the
Fourier moments of mu^x, started from their exact values; exact for every
common-noise intensity a: one a = 0 flow and a Gaussian shift average of G,
see ``meanfield``), and fits the observed sup-differences against the
sample-complexity scale alpha(N) by ``metric._log_log_line``, the one
log-log line that also gives the complexity and gap slopes.
The target law is sup |v^N - v| <= C alpha(N)^{1/3}; only the exponent is
asserted downstream since the constant is problem-dependent.  The sweep hands
its Monte Carlo calls to the MC worker processes and computes its one
reference flow while they run; the report's metadata names what produced
the paths (the noise, ``mc.NOISE``, and numpy's version).

``sample_complexity_experiment`` measures E[W1] and E[rho_star] between a
density and its N-sample empirical measures, the quantities that drive the
alpha(N) scale in the first place.  Its trials run as the rows of blocks:
sampling, the empirical Fourier mean and W1 each run once per block, and the
last two bound their own working memory under the ``torus`` batch budget.
"""

from __future__ import annotations

import io
import json
import logging
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError, check_fields, plan_int
from .mc import NOISE, PATH_BYTES_BUDGET, _cpu_count, check_path_budget, path_job
from .mc import pool_jobs, worker_pool
from .meanfield import check_flow_budget, empirical_moments, mean_field_reference_batch
from .metric import MetricOrder, _log_log_line, alpha_rate, rho_sq_rows, truncation_tail_bound
from .problems import ProblemSpec
from .torus import (
    TWO_PI,
    GridDensity,
    TorusContext,
    _row_blocks,
    empirical_coefficients,
    fourier_coefficients,
    sample_rows,
    seeded_generator,
    w1_density_rows,
)

# The one-row forms of the complexity trial, the one-call form of the MC job
# and the grid deposit the reference once started from, still bound here by
# name: perfbench/tracing.py wraps these five attributes of this module.
from .mc import mc_path_values  # noqa: F401
from .meanfield import deposit_empirical  # noqa: F401
from .metric import rho_star  # noqa: F401
from .torus import sample_iid, w1_circle_density  # noqa: F401

log = logging.getLogger(__name__)


def fit_rate(points) -> tuple[float, float, np.ndarray]:
    """Least squares of log error on log alpha: ``metric._log_log_line``.

    ``points`` is a sequence of (alpha_value, error) pairs, all positive.
    Returns (beta, C, residuals) for the model error = C * alpha**beta.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise InputDomainError("rate fit needs at least 3 points")
    if np.any(pts <= 0):
        raise InputDomainError("rate fit requires positive alphas and errors")
    beta, log_c, residuals = _log_log_line(pts[:, 0], pts[:, 1])
    return beta, float(np.exp(log_c)), residuals


#: tags per particle count of ``_derived_seed``: tags 0 .. SEED_TAGS - 1
#: give distinct seeds, a larger one the seed of a tag of the next count
SEED_TAGS = 8_191


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

    The Fokker-Planck reference keeps the Fourier modes 0..``ref_mesh`` // 2
    (the name is that of the grid it once ran on), and ``ref_steps`` is the
    step count of its Lawson RK4 flow over the longest horizon, from t = 0
    to T, rounded up so that every time of the sweep falls on a step (0
    means ``default_flow_steps``: the drift's RK4 bound, at least
    ``MIN_FLOW_STEPS``).  ``m_ref`` is accepted, checked to be an integer
    >= 0 and ignored: plans of version 1 may set it, but the reference needs
    no particle surrogate at any a.  A plan whose modes cannot hold the
    problem's kernel degree is refused with ``InputDomainError``, one whose
    reference flow would hold more than ``meanfield.FLOW_BYTES_BUDGET`` with
    ``ResourceBudgetError``, and then one of ``SEED_TAGS`` time points or
    more with ``InputDomainError``.
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
        # a plan too large to run is refused as such before the tag limit
        n_cols = len(ns) * self.n_configs
        check_flow_budget(self.problem, self.ref_mesh // 2, n_cols, self.n_time_points)
        if self.n_time_points >= SEED_TAGS:  # time ti draws with tag ti + 1
            raise InputDomainError(f"n_time_points must be < {SEED_TAGS}")

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
    return (int(seed) * 1_000_003 + n * SEED_TAGS + tag) % (2**63)


def run_rate_experiment(plan: ExperimentPlan) -> RateReport:
    """Sweep N, record sup |v^N - v| over sampled (t, x), fit the rate.

    The exact Fourier moments of every configuration of every N make one
    column of a single batch, and one Fokker-Planck flow gives the
    mean-field value of every column at every time; the report's metadata
    carries what the flow did (``fp_modes``, ``fp_steps``,
    ``fp_step_bound``, ``fp_mode_tail``).  Each (N, t) Monte Carlo call is
    one whole ``mc.path_job`` on the MC worker processes.  The calls are submitted
    longest first, by particle-steps, so that the last to finish is a short
    one (Graham 1969), and before the flow starts, so the flow runs here
    while the workers run the paths; at most ``PATH_BYTES_BUDGET`` over the
    largest call's bytes calls (at least one) are in flight.  They are read
    back as they finish.  Each call has its own seed and noise order, so the
    report does not depend on which process ran what or when.  An error,
    or a worker that dies, ends the sweep as ``mc.pool_jobs`` says.  A plan
    whose largest Monte Carlo call would hold more than
    ``mc.PATH_BYTES_BUDGET`` is refused with ``ResourceBudgetError`` before
    anything is drawn or allocated (and one over the flow's budget when it
    is built).  ``MFRL_LOG=debug`` prints each call's line, in sweep order,
    once all have finished; ``MFRL_LOG=info`` prints one line per sweep:
    its calls, workers and particle-steps, the flow's seconds, the MC wall
    time and how much of it ran beside the flow, and ns per particle-step
    per core from the seconds the workers measured.
    """
    problem = plan.problem
    if not problem.hamiltonian.is_linear:
        raise InputDomainError("rate experiment needs a linear-in-p family")
    largest = check_path_budget(plan.n_configs, plan.n_paths, max(plan.n_list))
    t_points = np.linspace(0.0, problem.T, plan.n_time_points, endpoint=False)
    draws = []
    for n in plan.n_list:
        rng = seeded_generator(_derived_seed(plan.seed, n, 0))
        draws.append((n, rng.uniform(0.0, TWO_PI, size=(plan.n_configs, n))))
    moments = np.concatenate(
        [empirical_moments(configs, plan.ref_mesh // 2) for _, configs in draws], axis=1
    )
    # (-coordinates, draw, time) of each call: the longest first, and equal
    # ones in sweep order
    order = sorted(
        (-configs.size, i, ti)
        for i, (_, configs) in enumerate(draws)
        for ti in range(len(t_points))
    )
    n_calls = len(order)
    in_flight = min(n_calls, max(1, PATH_BYTES_BUDGET // largest))
    pool = worker_pool()
    calls = {}
    gaps = np.empty((len(draws), len(t_points)))
    ses = np.empty_like(gaps)
    start = time.perf_counter()
    with pool_jobs("the sweep") as jobs:
        running = {}

        def submit():
            _, i, ti = order[len(jobs)]
            n, configs = draws[i]
            args = (configs, float(t_points[ti]), plan.n_paths, plan.n_steps)
            jobs.append(pool.submit(path_job, problem, *args, _derived_seed(plan.seed, n, ti + 1)))
            running[jobs[-1]] = (i, ti)

        while len(jobs) < in_flight:
            submit()
        flow_start = time.perf_counter()
        refs, flow = mean_field_reference_batch(problem, t_points, moments, n_t=plan.ref_steps)
        flow_end = time.perf_counter()
        while running:
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for job in finished:
                i, ti = running.pop(job)
                vals, calls[i, ti] = job.result()
                if len(jobs) < n_calls:
                    submit()
                ref = refs[ti, i * plan.n_configs : (i + 1) * plan.n_configs]
                gaps[i, ti] = np.max(np.abs(vals.mean(axis=1) - ref))
                ses[i, ti] = np.max(vals.std(axis=1, ddof=1)) / np.sqrt(plan.n_paths)
    for key in sorted(calls):
        calls[key].log()
    busy_s = sum(call.end - call.start for call in calls.values())
    mc_end = max([flow_end, *(call.end for call in calls.values())])
    rows = []
    sup_errors, mc_stds = gaps.max(axis=1).tolist(), ses.max(axis=1).tolist()
    for (n, _), sup_error, mc_std in zip(draws, sup_errors, mc_stds):
        notes = ""
        if rows and sup_error > rows[-1].sup_error + 3.0 * (mc_std + rows[-1].mc_std):
            notes = "non-monotone"
        alpha = alpha_rate(n, problem.ctx.d)
        rows.append(RateRow(n, alpha, alpha ** (1.0 / 3.0), sup_error, mc_std, notes))
    particle_steps = (
        plan.n_configs * sum(plan.n_list) * plan.n_time_points * plan.n_paths * plan.n_steps
    )
    log.info(
        "rate sweep: %d MC calls on %d worker processes, at most %d in flight, "
        "%d particle-steps; flow %.3f s; MC %.3f s wall, %.3f s of it beside the flow, "
        "%.1f ns per particle-step per core",
        n_calls, _cpu_count(), in_flight, particle_steps, flow_end - flow_start,
        mc_end - start, max(0.0, min(mc_end, flow_end) - flow_start),
        busy_s * 1e9 / particle_steps,
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
        "mc_noise": NOISE,
        "numpy": np.__version__,
        **flow,
        "reference": "spectral-fp" if problem.a == 0.0 else "spectral-fp-shift",
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


def sample_complexity_experiment(
    mu: GridDensity,
    n_list,
    n_trials: int,
    seed: int,
    ctx=None,
) -> ComplexityTable:
    """Monte Carlo means of W1 and rho_star between mu and its N-samples.

    Trial k of sample size N draws from its own Philox key,
    ``_derived_seed(seed, N, k)``, so at most ``SEED_TAGS`` trials are
    allowed.  The trials of one N run as the rows of blocks whose atoms and
    Fourier coefficients fit the ``torus`` batch budget; within a block,
    ``empirical_coefficients`` and ``w1_density_rows`` bound their own
    working memory.  Each row is bit for bit the trial that ``sample_iid``,
    ``rho_star`` and ``w1_circle_density`` give, so the table does not
    depend on the block sizes.  The slopes are log-log fits over the sample
    sizes, so at least two distinct sizes are required; the input is checked
    before anything is drawn.  ``MFRL_LOG=debug`` prints one line per N:
    its trials and seconds.
    """
    if not 2 <= n_trials <= SEED_TAGS:
        raise InputDomainError(f"n_trials must be in [2, {SEED_TAGS}]")
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
        w1s = np.empty(n_trials)
        rhos = np.empty(n_trials)
        for trials in _row_blocks(n_trials, n + target.size):
            seeds = [_derived_seed(seed, n, k) for k in range(n_trials)[trials]]
            atoms = sample_rows(mu, n, seeds)
            coeffs = empirical_coefficients(atoms[:, :, None], ctx)
            rhos[trials] = np.sqrt(rho_sq_rows(coeffs - target, order, ctx))
            w1s[trials] = w1_density_rows(np.sort(atoms, axis=1), mu)
        positive = w1s > 0
        max_ratio = max([max_ratio, *(rhos[positive] / w1s[positive])])
        log.debug(
            "sample complexity N=%d: %d trials, %.3f s", n, n_trials, time.perf_counter() - start
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
    ns = [r.N for r in rows]
    # a mean of 0 (a degenerate target, e.g. a point mass) has no slope
    w1_slope, rho_slope = (
        _log_log_line(ns, means)[0] if np.all(np.asarray(means) > 0) else float("nan")
        for means in ([r.w1_mean for r in rows], [r.rho_mean for r in rows])
    )
    return ComplexityTable(tuple(rows), w1_slope, rho_slope, max_ratio)
