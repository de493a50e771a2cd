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

Each step's idiosyncratic and common normals come from float32 uniforms
read as raw 64-bit Philox words (``UniformStream``), turned into normals by
the Box-Muller transform (Box & Muller 1958) in float32 and stored in the
float64 noise buffer (``BoxMuller``): 7.4-8.7 ns a normal on one core of a
2-core Xeon VM, against 9.5-10.3 ns through numpy's float32 fill of the same
uniforms and 20-22 ns for numpy's ``standard_normal`` (medians of 3 x 7
fills of 64,000 to 6.1 M normals).  The uniforms are multiples of 2^-24, so
every normal lies within sqrt(48 log 2) ~ 5.77: the tail cut off has mass
8e-9 per draw and lowers the variance by 3e-7.

A call is a serial loop over its steps.  Calls run side by side in the
worker processes of ``worker_pool``, not threads: each step is a few dozen
short numpy calls that each hand over the interpreter lock.  A direct call
of ``_SPLIT_MIN`` particle-steps or more runs as one range of its paths per
worker.  Philox is counter-based (Salmon et al. 2011), so a range reads the
normals of its rows straight from their places in the call's stream, and a
call's paths depend on its Philox key alone, not on how it was split or
which process ran it.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
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
    own manager thread; mfrl starts no other thread.  Their jobs are
    ``path_job`` calls or row ranges of them, serial loops that never touch
    the pool, so no worker waits on another or forks a pool of its own; the
    caller alone submits.
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

#: words per ``random_raw`` call of a ``UniformStream``: it allocates the
#: words it returns, so a read holds at most two pieces, 512 KB, of them
#: at a time, whatever the size of the call (its float32 uniforms are in
#: ``_PATH_BYTES_PER_COORD``)
_PIECE_WORDS = 1 << 15

#: the spacing of float32 uniforms: (w32 >> 8) 2^-24 is numpy's float32 draw
_UNIT = np.float32(2.0**-24)


class UniformStream:
    """The float32 uniforms of a Philox key, read by their index in its stream.

    Uniform 2j is the low 32 bits of the stream's 64-bit word j and uniform
    2j + 1 its high 32 bits, each turned into ``(w32 >> 8) 2^-24``: bit for
    bit what ``Generator.random(dtype=np.float32)`` draws from the same key,
    in 0.70-0.79 of its time (pieces of 2^13 to 2^17 words, one core).
    Word w is lane w % 4 of Philox block w // 4, so a read that does not
    start where the last one ended resets the key's state, ``advance``s it
    to the block and drops the leading words of the block.
    """

    def __init__(self, seed: int):
        self.bitgen = seeded_generator(seed).bit_generator
        self.origin = self.bitgen.state
        self.word = 0  # the word the next ``random_raw`` call returns first

    def read(self, first: int, out: np.ndarray) -> None:
        """Uniforms ``first``, ``first + 1``, ... of the stream into the float32 ``out``."""
        word, lane = divmod(first, 2)
        if word != self.word:
            self.bitgen.state = self.origin
            self.bitgen.advance(word // 4)
            self.bitgen.random_raw(word % 4)
        done = 0
        while done < out.size:
            n_words = min(_PIECE_WORDS, (lane + out.size - done + 1) // 2)
            bits = self.bitgen.random_raw(n_words).view(np.uint32)[lane : lane + out.size - done]
            np.right_shift(bits, 8, out=bits)
            np.multiply(bits, _UNIT, out=out[done : done + bits.size], dtype=np.float32)
            done += bits.size
            word += n_words
            lane = 0
        self.word = word


class BoxMuller:
    """Standard normals of a step's ``size`` draws into a float64 buffer.

    Step s reads uniforms [2 s half, 2 (s + 1) half) of the call's
    ``UniformStream``, half = ceil(size / 2).  Pair j is (u1, u2) = (uniform
    j, uniform half + j) of the step; it gives draw j = r cos(2 pi u2) and,
    for j < size - half, draw half + j = r sin(2 pi u2), with r = sqrt(-2
    log(1 - u1)).  The radius, angle, sine and cosine are float32; each
    product of two float32 values is exact in the float64 buffer.

    ``spans``, ranges [lo, hi) of the step's draws, picks the draws that
    ``fill`` writes, one range after the other (default: all of them).  The
    whole step reads its uniforms in one run; a part of it reads the u1 run
    and the u2 run of the pairs of its cosines, and of its sines.  The one
    work array, the uniforms, is allocated here.
    """

    def __init__(self, size: int, spans=None):
        self.half = half = (size + 1) // 2
        self.whole = spans is None
        #: (first pair, pairs, offset in ``out``, sines?) of each run of a part
        self.runs = []
        at = 0
        for lo, hi in spans or ():
            # the draws of [lo, hi) below half are cosines, the rest sines
            cosines = (lo, min(hi, half), False)
            sines = (max(lo, half) - half, hi - half, True)
            for first, end, is_sine in (cosines, sines):
                if first < end:
                    self.runs.append((first, end - first, at, is_sine))
                    at += end - first
        pairs = half if self.whole else max(n for _, n, _, _ in self.runs)
        #: row 0 holds u1, then the radius; row 1 u2, then the angle
        self.uniforms = np.empty((2, pairs), dtype=np.float32)

    def fill(self, stream: UniformStream, step: int, out: np.ndarray) -> None:
        base = 2 * self.half * step
        if self.whole:
            stream.read(base, self.uniforms.reshape(-1))
            self.transform(out[: self.half], out[self.half :])
            return
        for first, n, at, is_sine in self.runs:
            u1, u2 = self.uniforms[:, :n]
            stream.read(base + first, u1)
            stream.read(base + self.half + first, u2)
            part, none = out[at : at + n], out[:0]
            self.transform(*((none, part) if is_sine else (part, none)))

    def transform(self, cosines: np.ndarray, sines: np.ndarray) -> None:
        """The normals of the leading pairs in ``uniforms``, which it overwrites:
        r cos(2 pi u2) into ``cosines`` and r sin(2 pi u2) into ``sines``."""
        pairs = max(cosines.size, sines.size)
        r, angle = self.uniforms[:, :pairs]
        # 1 - u1 is exact and in (0, 1], so r <= sqrt(48 log 2)
        np.subtract(np.float32(1.0), r, out=r)
        np.log(r, out=r)
        r *= np.float32(-2.0)
        np.sqrt(r, out=r)
        angle *= np.float32(2.0 * pi)
        for trig, values in ((np.cos, cosines), (np.sin, sines)):
            trig(angle[: values.size], out=values)
            values *= r[: values.size]


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


#: particle-steps from which ``mc_path_values`` splits a call over the pool.
#: A pool job's round trip took 0.58-0.91 ms (quartiles of 51 one-path jobs
#: on a warm pool of 2 workers) and a call 16-41 ns per particle-step, so
#: from 2^22 particle-steps, 70-170 ms, the round trip is under 1% of the
#: call.  What is added besides is the rest of the gain's bound: each range
#: still reads the uniforms and radii of most of the step's pairs, and the
#: two vCPUs of the measuring host at times ran two busy processes at half
#: speed each.  Split over 2 workers, calls of criterion 5's shapes took
#: 1.33x the serial time at 1.9 M particle-steps, 0.86-0.89x at 3.8-7.7 M
#: and 0.62-0.84x from 15 M up (medians of 5 interleaved pairs).
_SPLIT_MIN = 1 << 22


@contextmanager
def pool_jobs(what: str):
    """A list for the futures of jobs submitted to ``worker_pool`` in the block.

    If the block raises, the jobs not yet started are cancelled and the
    error is raised, with its type, once the running ones have finished.  A
    worker that dies breaks the pool, which is dropped, and ``what`` is
    abandoned with ``ResourceBudgetError``.
    """
    jobs = []
    try:
        yield jobs
    except BrokenProcessPool as exc:
        drop_pool()
        raise ResourceBudgetError(
            f"a Monte Carlo worker process died (out of memory?); {what} is abandoned"
        ) from exc
    finally:
        for job in jobs:
            job.cancel()
        wait(jobs)


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
    A call of ``_SPLIT_MIN`` particle-steps or more runs as one ``path_job``
    range of its paths per worker process (see ``pool_jobs``), a smaller
    one here.  ``MFRL_LOG=debug`` prints one line per call (``PathCall.log``).
    """
    start = time.perf_counter()
    starts = _checked_starts(problem, starts, t, n_paths, n_steps)
    m_batch, n_particles = starts.shape
    n_rows = m_batch * n_paths
    particle_steps = n_rows * n_particles * n_steps if t < problem.T else 0
    workers = min(_cpu_count(), n_rows)
    if particle_steps < _SPLIT_MIN or workers < 2:
        values, call = path_job(problem, starts, t, n_paths, n_steps, seed)
    else:
        bounds = [n_rows * k // workers for k in range(workers + 1)]
        with pool_jobs("the call") as jobs:
            pool = worker_pool()
            for rows in zip(bounds, bounds[1:]):
                job = partial(path_job, rows=rows)
                jobs.append(pool.submit(job, problem, starts, t, n_paths, n_steps, seed))
            parts = [job.result()[0] for job in jobs]
        values = np.concatenate(parts).reshape(m_batch, n_paths)
        call = PathCall(n_particles, t, particle_steps, start, time.perf_counter())
    call.log()
    return values


def _checked_starts(problem, starts, t, n_paths, n_steps) -> np.ndarray:
    """``starts`` as an (M, N) float array, once the call passed its checks."""
    _require_linear(problem)
    if n_paths < 1 or n_steps < 1:
        raise InputDomainError("n_paths and n_steps must be >= 1")
    if not 0.0 <= t <= problem.T:
        raise InputDomainError(f"evaluation time {t} is outside [0, T = {problem.T}]")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if not np.isfinite(starts).all():
        raise InputDomainError("starting configurations must be finite")
    check_path_budget(starts.shape[0], n_paths, starts.shape[1])
    return starts


def path_job(
    problem, starts, t, n_paths, n_steps, seed, rows=None
) -> tuple[np.ndarray, PathCall]:
    """``mc_path_values`` on one process, without its log line, and its ``PathCall``.

    This is the job a worker process runs: a worker's log records would
    bypass the caller's handlers, so the caller logs the ``PathCall``.
    Row i of the call is path i % n_paths of configuration i // n_paths;
    ``rows``, a range (lo, hi) of them, limits the job to those paths and
    returns their values, flat.  They are bit for bit those of the whole
    call: a row's normals sit at fixed places of the call's noise stream
    (``BoxMuller``), and its fields depend on its own particles alone.
    """
    start = time.perf_counter()
    starts = _checked_starts(problem, starts, t, n_paths, n_steps)
    m_batch, n_particles = starts.shape
    n_rows = m_batch * n_paths
    lo, hi = (0, n_rows) if rows is None else rows
    configs = np.arange(lo, hi) // n_paths
    horizon = problem.T - t

    def done(values, particle_steps):
        if rows is None:
            values = values.reshape(m_batch, n_paths)
        return values, PathCall(n_particles, t, particle_steps, start, time.perf_counter())

    if horizon == 0.0:
        return done(problem.terminal.value_atoms(starts)[configs], 0)
    dt = horizon / n_steps
    sig_w = sqrt(2.0 * dt)
    sig_b = sqrt(2.0 * problem.a * dt) if problem.a > 0 else 0.0

    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    drift = None if drift.is_zero else drift
    cost = None if cost.is_zero else cost

    x = starts[configs]
    run_rows = np.zeros(hi - lo)
    incr = np.empty_like(x)
    # the call's draws are every particle's normal, then one per row if a > 0
    spans = [(lo * n_particles, hi * n_particles)]
    if sig_b:
        spans.append((n_rows * n_particles + lo, n_rows * n_particles + hi))
    draws = np.empty(x.size + (len(x) if sig_b else 0))
    noise = draws[: x.size].reshape(x.shape)
    common = draws[x.size :].reshape(-1, 1)
    size = n_rows * (n_particles + (1 if sig_b else 0))
    normals = BoxMuller(size, None if rows is None else spans)
    stream = UniformStream(seed)
    cost_mean = np.empty(x.shape[0])
    # the fields are evaluated on a float32 copy of the positions (see the
    # module docstring); the products with dt are float64
    x32 = np.empty(x.shape, dtype=np.float32)

    def cost_term(weight):
        """The running cost's trapezoid term at the positions in ``x32``."""
        cost_mean[:] = particle_mean(mean_field_eval(cost, x32))
        return weight * dt * cost_mean

    for step in range(n_steps):
        x32[...] = x
        if cost is not None:
            run_rows += cost_term(0.5 if step == 0 else 1.0)
        normals.fill(stream, step, draws)
        if drift is not None:
            np.multiply(mean_field_eval(drift, x32), dt, out=incr, dtype=float)
            noise *= sig_w
            incr += noise
        else:
            np.multiply(noise, sig_w, out=incr)
        if sig_b:
            common *= sig_b
            incr += common
        x += incr
    if cost is not None:
        x32[...] = x
        run_rows += cost_term(0.5)
    values = run_rows + problem.terminal.value_atoms(x)
    return done(values, x.size * n_steps)


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
