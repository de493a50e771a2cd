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

The drift and running-cost fields are evaluated on a float32 copy of the
positions, where numpy's sin and cos are vectorized and 10-40x cheaper than in
float64, and so is the mean of the running-cost field over a path's particles.
Positions, increments, the running-cost sum and G stay float64.
The cast moves a position x by at most |x| 2^-24, and positions stay O(10)
over a horizon, so harmonic k moves by about k |x| 2^-23 and the field of a
kernel with coefficients (a_k, b_k) by about 1.2e-6 sum_k k (|a_k| + |b_k|)
at |x| = 10.  On the test problems the path values stay within 1e-8 of the
float64 step on the same noise, far below their standard errors (5e-3 and up
at 400 paths).

Each step's idiosyncratic and common normals come from one Philox call for
float32 uniforms, turned into normals by the Box-Muller transform (Box &
Muller 1958) in float32 and stored in the float64 noise buffer (``BoxMuller``):
about 6 ns a normal on one AVX-512 core, against 17 ns for numpy's
``standard_normal``.  The uniforms are multiples of 2^-24, so every normal
lies within sqrt(48 log 2) ~ 5.77: the tail cut off has mass 8e-9 per draw
and lowers the variance by 3e-7.

A call is one serial loop over its steps.  Calls run side by side in the
worker processes of ``worker_pool``, not threads: each step is a few dozen
short numpy calls that each hand over the interpreter lock.  A call's paths
depend on its Philox key alone, not on the process that ran it.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import pi, sqrt
from multiprocessing import get_context
from typing import NamedTuple

import numpy as np

from .errors import InputDomainError, ResourceBudgetError
from .problems import ProblemSpec
from .torus import EmpiricalMeasure, GridDensity, Measure, sample_iid, seeded_generator
from .trig import mean_field_eval, particle_mean

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int


def _require_linear(problem: ProblemSpec):
    if not problem.hamiltonian.is_linear:
        raise InputDomainError(
            "Feynman-Kac solver requires the zero or linear-in-p family"
        )


_POOL: ProcessPoolExecutor | None = None


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_pool() -> ProcessPoolExecutor:
    """The one pool of MC worker processes, one per CPU, forked on first use.

    A worker starts as a fork of this process, with numpy and mfrl already
    imported (a spawned one would import them again, about 0.2 s).  The
    workers are forked at the first submission, before the pool starts its
    own manager thread; mfrl starts no other thread.  Their jobs are whole
    ``path_job`` calls, serial loops that never touch the pool, so no worker
    waits on another or forks a pool of its own.
    """
    global _POOL
    if _POOL is None:
        _POOL = ProcessPoolExecutor(_cpu_count(), mp_context=get_context("fork"))
    return _POOL


def drop_pool() -> None:
    """Forget the pool (a forked child's copy, without its processes, or one
    that a dead worker broke): the next ``worker_pool`` forks a new one."""
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=drop_pool)


#: hard cap on the bytes ``mc_path_values`` holds for its particle coordinates
PATH_BYTES_BUDGET = 1 << 30

#: bytes held per particle coordinate of a call: the float64 positions,
#: increments and noise, the float32 copy of the positions and the float32
#: uniforms of the normals
_PATH_BYTES_PER_COORD = 8 + 8 + 8 + 4 + 4


def check_path_budget(m_batch: int, n_paths: int, N: int) -> int:
    """The bytes of an ``mc_path_values`` call of ``m_batch`` configurations
    of ``N`` particles and ``n_paths`` paths; beyond ``PATH_BYTES_BUDGET``
    the call is refused."""
    need = int(m_batch) * int(n_paths) * int(N) * _PATH_BYTES_PER_COORD
    if need > PATH_BYTES_BUDGET:
        raise ResourceBudgetError(
            f"Monte Carlo paths of {m_batch} configurations of {N} particles, "
            f"{n_paths} paths each, need {need} bytes, over the budget of {PATH_BYTES_BUDGET}"
        )
    return need


#: how ``mc_path_values`` draws its normals; rate reports carry it
NOISE = "philox-float32-box-muller"


class BoxMuller:
    """Standard normals into a float64 buffer of ``size``, from float32 uniforms.

    ``fill`` makes one Philox call for the uniform pairs (u1, u2), then
    ``transform`` writes ``r cos(2 pi u2)`` to the first half of the buffer
    and ``r sin(2 pi u2)`` to the rest, ``r = sqrt(-2 log(1 - u1))``.  The
    radius, angle, sine and cosine are float32; each product of two float32
    values is exact in the float64 buffer.  The one work array, the
    uniforms, is allocated here.
    """

    def __init__(self, size: int):
        self.size = size
        self.half = (size + 1) // 2
        #: row 0 holds u1, then the radius; row 1 u2, then the angle
        self.uniforms = np.empty((2, self.half), dtype=np.float32)

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=self.uniforms, dtype=np.float32)
        self.transform(out)

    def transform(self, out: np.ndarray) -> None:
        """The normals of the pairs in ``uniforms``, which it overwrites."""
        r, angle = self.uniforms
        # 1 - u1 is exact and in (0, 1], so r <= sqrt(48 log 2)
        np.subtract(np.float32(1.0), r, out=r)
        np.log(r, out=r)
        r *= np.float32(-2.0)
        np.sqrt(r, out=r)
        angle *= np.float32(2.0 * pi)
        cosines, sines = out[: self.half], out[self.half :]
        rest = self.size - self.half
        np.cos(angle, out=cosines)
        np.sin(angle[:rest], out=sines)
        cosines *= r
        sines *= r[:rest]


class PathCall(NamedTuple):
    """One call's debug-line numbers and ``time.perf_counter`` stamps, which
    read CLOCK_MONOTONIC on Linux and so compare across forked workers."""

    n_particles: int
    t: float
    particle_steps: int
    start: float
    end: float

    def log(self) -> None:
        log.debug(
            "mc paths: N %d, t %.6g, %d particle-steps, %.3f s",
            self.n_particles, self.t, self.particle_steps, self.end - self.start,
        )


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
    trapezoid rule in time.  A call beyond ``PATH_BYTES_BUDGET`` is refused
    with ``ResourceBudgetError`` before anything is allocated, and so are
    starts with a coordinate that is not finite, with ``InputDomainError``.
    ``MFRL_LOG=debug`` prints one line per call (``PathCall.log``).
    """
    values, call = path_job(problem, starts, t, n_paths, n_steps, seed)
    call.log()
    return values


def path_job(problem, starts, t, n_paths, n_steps, seed) -> tuple[np.ndarray, PathCall]:
    """``mc_path_values`` without its log line, and its ``PathCall``.

    This is the job a worker process runs: a worker's log records would
    bypass the caller's handlers, so the caller logs the ``PathCall``.
    """
    _require_linear(problem)
    if n_paths < 1 or n_steps < 1:
        raise InputDomainError("n_paths and n_steps must be >= 1")
    if not 0.0 <= t <= problem.T:
        raise InputDomainError(f"evaluation time {t} is outside [0, T = {problem.T}]")
    start = time.perf_counter()
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if not np.isfinite(starts).all():
        raise InputDomainError("starting configurations must be finite")
    m_batch, n_particles = starts.shape
    check_path_budget(m_batch, n_paths, n_particles)
    horizon = problem.T - t

    def done(values, particle_steps):
        return values, PathCall(n_particles, t, particle_steps, start, time.perf_counter())

    rng = seeded_generator(seed)
    x = np.broadcast_to(starts[:, None, :], (m_batch, n_paths, n_particles)).copy()

    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    drift = None if drift.is_zero else drift
    cost = None if cost.is_zero else cost

    running = np.zeros((m_batch, n_paths))
    if horizon == 0.0:
        values = problem.terminal.value_atoms(starts)[:, None]
        return done(np.broadcast_to(values, (m_batch, n_paths)).copy(), 0)
    dt = horizon / n_steps
    sig_w = sqrt(2.0 * dt)
    sig_b = sqrt(2.0 * problem.a * dt) if problem.a > 0 else 0.0

    rows = x.reshape(m_batch * n_paths, n_particles)
    run_rows = running.reshape(-1)
    incr = np.empty_like(rows)
    draws = np.empty(rows.size + (rows.shape[0] if sig_b else 0))
    noise = draws[: rows.size].reshape(rows.shape)
    common = draws[rows.size :].reshape(-1, 1)
    normals = BoxMuller(draws.size)
    cost_mean = np.empty(rows.shape[0])
    # the fields are evaluated on a float32 copy of the positions (see the
    # module docstring); the products with dt are float64
    rows32 = np.empty(rows.shape, dtype=np.float32)

    def cost_term(weight):
        """The running cost's trapezoid term at the positions in ``rows32``."""
        cost_mean[:] = particle_mean(mean_field_eval(cost, rows32))
        return weight * dt * cost_mean

    for step in range(n_steps):
        rows32[...] = rows
        if cost is not None:
            run_rows += cost_term(0.5 if step == 0 else 1.0)
        normals.fill(rng, draws)
        if drift is not None:
            np.multiply(mean_field_eval(drift, rows32), dt, out=incr, dtype=float)
            noise *= sig_w
            incr += noise
        else:
            np.multiply(noise, sig_w, out=incr)
        if sig_b:
            common *= sig_b
            incr += common
        rows += incr
    if cost is not None:
        rows32[...] = rows
        run_rows += cost_term(0.5)
    values = running + problem.terminal.value_atoms(x)
    return done(values, rows.size * n_steps)


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
    config = np.asarray(atoms, dtype=float).reshape(-1)
    if config.size != N:
        raise InputDomainError(f"configuration has {config.size} atoms, expected {N}")
    vals = mc_path_values(problem, config[None, :], t, n_paths, n_steps, seed)[0]
    se = float(vals.std(ddof=1) / sqrt(n_paths)) if n_paths > 1 else 0.0
    return McEstimate(float(vals.mean()), se, n_paths, int(seed))


def resample_tuples(mu: Measure, N: int, n_resample: int, seed: int) -> np.ndarray:
    """n_resample i.i.d. N-tuples drawn from mu, shape (n_resample, N)."""
    rng = seeded_generator(seed)
    if isinstance(mu, EmpiricalMeasure):
        idx = rng.integers(0, mu.N, size=(n_resample, N))
        return mu.atoms[idx, 0]
    if isinstance(mu, GridDensity):
        flat = sample_iid(mu, n_resample * N, seed=int(seed) ^ 0x9E3779B9)
        return flat.atoms[:, 0].reshape(n_resample, N)
    raise InputDomainError(f"unsupported measure type {type(mu)!r}")
