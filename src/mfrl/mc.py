"""Feynman-Kac Monte Carlo solver for linear-in-p particle HJB problems.

For the zero and linear Hamiltonian families the particle HJB equation is a
linear parabolic PDE whose solution admits the probabilistic representation

    v^N(t, x) = E[ int_t^T (1/N) sum_i f(X^i_s, mu^{X_s}) ds + G(mu^{X_T}) ],

where the particles follow the interacting SDE system

    dX^i = b(X^i, mu^X) dt + sqrt(2) dW^i + sqrt(2a) dB,

with independent per-particle noises W^i and one common noise B shared by all
particles of a path.  This generator reproduces the Laplacian sum plus the
common-noise cross term of the grid equation exactly; the only biases are the
Euler-Maruyama step and the sampling error reported as a standard error.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InputDomainError
from .problems import ProblemSpec
from .torus import EmpiricalMeasure, GridDensity, Measure, sample_iid
from .trig import mean_field_eval

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int


def _as_config(atoms) -> np.ndarray:
    if isinstance(atoms, EmpiricalMeasure):
        if atoms.d != 1:
            raise InputDomainError("Monte Carlo solver is d = 1 only")
        return atoms.atoms[:, 0].copy()
    return np.asarray(atoms, dtype=float).reshape(-1)


def _require_linear(problem: ProblemSpec):
    if not problem.hamiltonian.is_linear:
        raise InputDomainError(
            "Feynman-Kac solver requires the zero or linear-in-p family"
        )


#: particle coordinates per step below which a step stays on the calling
#: thread, where handing chunks to the pool costs more than it saves
_SPLIT_MIN = 8_192

#: particle coordinates per step up to which a call of a sweep runs whole on
#: one pool worker (``runs_whole``); larger calls split their rows instead,
#: which keeps one big call's buffers alive at a time
_WHOLE_MAX = 2**18

_POOL: ThreadPoolExecutor | None = None
_WORKER = threading.local()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _mark_worker() -> None:
    _WORKER.active = True


def _on_worker() -> bool:
    return getattr(_WORKER, "active", False)


def worker_pool() -> ThreadPoolExecutor:
    """The one pool of MC worker threads, one per CPU.

    A job on it never waits on another job: code running on a worker takes
    its steps in one row chunk (``_row_chunks``), so no worker can end up
    waiting on work queued behind itself.
    """
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(
            _cpu_count(), thread_name_prefix="mfrl-mc", initializer=_mark_worker
        )
    return _POOL


def _drop_pool() -> None:
    global _POOL
    _POOL = None  # a forked child inherits the pool object but not its threads


os.register_at_fork(after_in_child=_drop_pool)


def runs_whole(starts_shape, n_paths: int) -> bool:
    """Whether a sweep runs an ``mc_path_values`` call whole on one worker.

    Independent calls that each fit in ``_WHOLE_MAX`` particle coordinates
    per step use the cores best one call per core: no step waits for one
    thread to draw all the noise or pays for two thread hand-offs.
    """
    return int(np.prod(starts_shape)) * n_paths <= _WHOLE_MAX


def _row_chunks(n_rows: int, n_particles: int) -> list[slice]:
    """One contiguous block of path rows per CPU, or all rows for small steps.

    A call running on a pool worker always takes one chunk.
    """
    split = n_rows * n_particles >= _SPLIT_MIN and not _on_worker()
    n = max(1, min(_cpu_count() if split else 1, n_rows))
    bounds = [n_rows * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def mc_path_values(
    problem: ProblemSpec,
    starts: np.ndarray,
    t: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> np.ndarray:
    """Per-path Feynman-Kac functionals for a batch of initial configurations.

    ``starts`` has shape (M, N); the return value has shape (M, n_paths).
    All paths are advanced jointly; the per-path running cost uses the
    trapezoid rule in time.
    """
    _require_linear(problem)
    if n_paths < 1 or n_steps < 1:
        raise InputDomainError("n_paths and n_steps must be >= 1")
    if not 0.0 <= t <= problem.T:
        raise InputDomainError(f"evaluation time {t} is outside [0, T = {problem.T}]")
    start = time.perf_counter()
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    m_batch, n_particles = starts.shape
    horizon = problem.T - t

    def done(values, particle_steps, n_chunks):
        log.debug(
            "mc paths: N %d, t %.6g, %d particle-steps, %s, %.3f s",
            n_particles, t, particle_steps,
            "whole" if n_chunks == 1 else f"split into {n_chunks} row chunks",
            time.perf_counter() - start,
        )
        return values

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    x = np.broadcast_to(starts[:, None, :], (m_batch, n_paths, n_particles)).copy()

    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    drift = None if drift.is_zero else drift
    cost = None if cost.is_zero else cost

    running = np.zeros((m_batch, n_paths))
    if horizon == 0.0:
        values = problem.terminal.value_atoms(starts)[:, None]
        return done(np.broadcast_to(values, (m_batch, n_paths)).copy(), 0, 1)
    dt = horizon / n_steps
    sig_w = sqrt(2.0 * dt)
    sig_b = sqrt(2.0 * problem.a * dt) if problem.a > 0 else 0.0

    # Every path row evolves on its own, so the rows are split into chunks
    # whose fields are evaluated on worker threads while this thread draws
    # the step's noise from the one generator, in the same order as a
    # serial loop: the result does not depend on the chunking.
    rows = x.reshape(m_batch * n_paths, n_particles)
    run_rows = running.reshape(-1)
    incr = np.empty_like(rows)
    noise = np.empty_like(rows)
    common = np.empty((rows.shape[0], 1)) if sig_b else None
    cost_mean = np.empty(rows.shape[0])
    chunks = _row_chunks(rows.shape[0], n_particles)

    def fields(part, with_drift):
        if with_drift and drift is not None:
            np.multiply(mean_field_eval(drift, rows[part]), dt, out=incr[part])
        if cost is not None:
            cost_mean[part] = mean_field_eval(cost, rows[part]).mean(axis=-1)

    def start_fields(with_drift):
        if len(chunks) == 1:
            fields(chunks[0], with_drift)
            return []
        return [worker_pool().submit(fields, part, with_drift) for part in chunks]

    for step in range(n_steps):
        pending = start_fields(True)
        rng.standard_normal(out=noise)
        if sig_b:
            rng.standard_normal(out=common)
        for job in pending:
            job.result()
        if cost is not None:
            run_rows += (0.5 if step == 0 else 1.0) * dt * cost_mean
        if drift is not None:
            noise *= sig_w
            incr += noise
        else:
            np.multiply(noise, sig_w, out=incr)
        if sig_b:
            common *= sig_b
            incr += common
        rows += incr
    if cost is not None:
        for job in start_fields(False):
            job.result()
        run_rows += 0.5 * dt * cost_mean
    values = running + problem.terminal.value_atoms(x)
    return done(values, rows.size * n_steps, len(chunks))


def mc_solve_linear(
    problem: ProblemSpec,
    N: int,
    t: float,
    atoms,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo estimate of v^N(t, x) with mean and standard error."""
    config = _as_config(atoms)
    if config.size != N:
        raise InputDomainError(f"configuration has {config.size} atoms, expected {N}")
    vals = mc_path_values(problem, config[None, :], t, n_paths, n_steps, seed)[0]
    se = float(vals.std(ddof=1) / sqrt(n_paths)) if n_paths > 1 else 0.0
    return McEstimate(float(vals.mean()), se, n_paths, int(seed))


def resample_tuples(mu: Measure, N: int, n_resample: int, seed: int) -> np.ndarray:
    """n_resample i.i.d. N-tuples drawn from mu, shape (n_resample, N)."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    if isinstance(mu, EmpiricalMeasure):
        idx = rng.integers(0, mu.N, size=(n_resample, N))
        return mu.atoms[idx, 0]
    if isinstance(mu, GridDensity):
        flat = sample_iid(mu, n_resample * N, seed=int(seed) ^ 0x9E3779B9)
        return flat.atoms[:, 0].reshape(n_resample, N)
    raise InputDomainError(f"unsupported measure type {type(mu)!r}")


def hat_v(
    vn_accessor,
    t: float,
    mu: Measure,
    N: int,
    n_resample: int,
    seed: int,
) -> McEstimate:
    """Smoothing estimator: average of v^N(t, .) over i.i.d. N-tuples from mu.

    ``vn_accessor`` is any callable (t, config) -> value, e.g. the
    interpolation accessor of a grid solution or a Monte Carlo wrapper.
    """
    if n_resample < 1:
        raise InputDomainError("n_resample must be >= 1")
    tuples = resample_tuples(mu, N, n_resample, seed)
    vals = np.array([float(vn_accessor(t, cfg)) for cfg in tuples])
    se = float(vals.std(ddof=1) / sqrt(n_resample)) if n_resample > 1 else 0.0
    return McEstimate(float(vals.mean()), se, n_resample, int(seed))
