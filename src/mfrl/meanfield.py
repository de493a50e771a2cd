"""Mean-field reference values via the Fokker-Planck flow.

For linear-in-p problems without common noise the mean-field value function is

    v(t, mu) = int_t^T <f(., mu_s), mu_s> ds + G(mu_T),

where mu_s solves the Fokker-Planck equation d_s mu = d_xx mu - d_x(b(., mu) mu)
started from mu at time t.  The flow is discretized with a conservative upwind
drift flux and backward-Euler diffusion, so mass is preserved to rounding.  The
backward-Euler matrix is circulant: its rfft symbol is computed once per flow,
and each step's solve is ``irfft(rfft(rho) / symbol)``.

Drift, running cost and G do not depend on time, so v(t_i, mu) for every time
of a sweep is read off one flow started at mu: at the step where the elapsed
time equals T - t_i, the running cost integral closed there plus G of the
density.  ``mean_field_reference_batch`` runs that one flow for a whole batch
of densities and times, with its step count rounded up so that every time
falls on a step.

With common noise (a > 0) the mean-field state is random, but every drift and
cost is a convolution K * mu, so the flow commutes with shifts: mu_s is the
a = 0 flow nu_s from the same mu, shifted by sqrt(2a)(B_s - B_t).  The running
cost <f(., mu), mu> does not change under a shift, hence

    v_a(t, mu) = int_t^T <f(., nu_s), nu_s> ds + E_z G(tau_z nu_T),
    z ~ N(0, 2a(T - t)),

and the Gaussian average of G has a closed form in the moments of nu_T
(``TerminalSpec.value_moments`` with a variance).  The same one a = 0 flow
therefore gives the exact reference for every a.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Callable

import numpy as np

from .errors import ConsistencyError, InputDomainError
from .problems import ProblemSpec
from .torus import TWO_PI, EmpiricalMeasure, GridDensity
from .trig import convolve, density_moments, harmonics

#: mass drift tolerated per unit time by the conservative flow
MASS_TOLERANCE = 1e-10

log = logging.getLogger(__name__)


def deposit_empirical(mu: EmpiricalMeasure, m: int) -> GridDensity:
    """Linear (cloud-in-cell) deposit of an empirical measure onto m nodes."""
    if mu.d != 1:
        raise InputDomainError("grid deposit is d = 1 only")
    if m < 2:
        raise InputDomainError("mesh must be >= 2")
    dx = TWO_PI / m
    pos = mu.atoms[:, 0] / dx
    left = np.floor(pos).astype(int)
    frac = pos - left
    weights = np.zeros(m)
    np.add.at(weights, left % m, 1.0 - frac)
    np.add.at(weights, (left + 1) % m, frac)
    return GridDensity(weights / (mu.N * dx))


def solve_circulant(symbol: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Solve ``C x = rho`` column by column for a real circulant matrix C.

    ``symbol`` is the rfft of C's first column and ``rho`` has shape (m, n_cols).
    """
    return np.fft.irfft(
        np.fft.rfft(rho, axis=0) / symbol[:, None], n=rho.shape[0], axis=0
    )


def fokker_planck_flow_batch(
    problem: ProblemSpec,
    rho0: np.ndarray,
    t: float,
    n_t: int,
    observe: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Evolve a batch of densities from time t to the horizon.

    ``rho0`` has shape (m, n_cols), one initial density per column; returns
    ``(rho_end, running_cost_integrals, max_mass_drift)``.  Each step applies
    the explicit conservative upwind drift flux followed by a backward-Euler
    diffusion solve with the circulant second-difference matrix (L-stable, so
    delta-like initial data is damped rather than left oscillating).

    ``observe(step, rho, running)``, if given, sees the state after every step
    0..n_t: the densities (not yet clipped at 0) and the running cost integral
    with its trapezoid closed at that step.  At ``step = n_t`` ``running`` is
    the returned integral.
    """
    if not problem.hamiltonian.is_linear:
        raise InputDomainError("Fokker-Planck reference requires a linear family")
    if problem.a != 0.0:
        raise InputDomainError("deterministic flow requires a = 0")
    horizon = problem.T - t
    if horizon < 0:
        raise InputDomainError("start time is past the horizon")
    if n_t < 1:
        raise InputDomainError("n_t must be >= 1")
    rho = np.array(rho0, dtype=float)
    if rho.ndim != 2:
        raise InputDomainError("rho0 must have shape (m, n_cols)")
    m, n_cols = rho.shape
    dx = TWO_PI / m
    running = np.zeros(n_cols)
    if horizon == 0.0:
        if observe is not None:
            observe(0, rho, running)
        return rho, running, 0.0
    ds = horizon / n_t

    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    have_cost = not cost.is_zero
    have_drift = not drift.is_zero
    r = ds / (dx * dx)
    first_col = np.zeros(m)
    first_col[0] = 1.0 + 2.0 * r
    first_col[1] = -r
    first_col[-1] = -r
    symbol = np.fft.rfft(first_col)

    # node harmonics once per flow; each step takes the moments of its
    # columns from them and refills a per-column copy for the drift field
    cos_n, sin_n = harmonics(np.arange(m) * dx, max(drift.degree, cost.degree))
    cos_b = np.empty((drift.degree, m, n_cols))
    sin_b = np.empty_like(cos_b)
    # the drift step's buffers: the field at the faces j + 1/2, the upwind flux
    # through them, its other half and then its divergence, and the moved density
    face, flux, part, moved = (np.empty((m, n_cols)) for _ in range(4))

    def cost_rate(cm: np.ndarray, sm: np.ndarray) -> np.ndarray:
        """<f(., mu), mu>: the field's table integrated against mu is mu's moments."""
        if not have_cost:
            return np.zeros(n_cols)
        return convolve(cost, cm, sm, cm.copy(), sm.copy())

    max_drift = 0.0
    for step in range(n_t + 1):
        cm, sm = (cos_n @ rho) * dx, (sin_n @ rho) * dx
        rate = cost_rate(cm, sm)
        if observe is not None:
            closed = running + 0.5 * ds * rate if step else np.zeros(n_cols)
            observe(step, rho, closed)
        if step == n_t:
            break
        running += (0.5 if step == 0 else 1.0) * ds * rate
        if have_drift:
            np.copyto(cos_b, cos_n[: drift.degree, :, None])
            np.copyto(sin_b, sin_n[: drift.degree, :, None])
            b = convolve(drift, cm[:, None, :], sm[:, None, :], cos_b, sin_b)
            # periodic neighbours by shifted slices, in the operation order of
            # 0.5 (b + b_next), max(face, 0) rho + min(face, 0) rho_next and
            # rho - (ds/dx) (flux - flux_prev)
            np.add(b[:-1], b[1:], out=face[:-1])
            np.add(b[-1], b[0], out=face[-1])
            face *= 0.5
            np.maximum(face, 0.0, out=flux)
            flux *= rho
            np.minimum(face, 0.0, out=part)
            part[:-1] *= rho[1:]
            part[-1] *= rho[0]
            flux += part
            np.subtract(flux[1:], flux[:-1], out=part[1:])
            np.subtract(flux[0], flux[-1], out=part[0])
            part *= ds / dx
            rho = np.subtract(rho, part, out=moved)
        rho = solve_circulant(symbol, rho)
        drift_err = float(np.max(np.abs(np.sum(rho, axis=0) * dx - 1.0)))
        max_drift = max(max_drift, drift_err)
    running += 0.5 * ds * rate
    if max_drift > MASS_TOLERANCE * max(horizon, 1.0):
        raise ConsistencyError(
            f"Fokker-Planck mass drift {max_drift:.3e} exceeds tolerance"
        )
    return np.maximum(rho, 0.0), running, max_drift


def default_flow_steps(problem: ProblemSpec, mesh: int) -> int:
    """Step count keeping the explicit drift flux CFL-stable with margin."""
    dx = TWO_PI / mesh
    b_max = (
        problem.hamiltonian.drift_kernel.sup_norm()
        + problem.hamiltonian.drift_kernel.derivative().sup_norm()
    )
    # floor of 500 steps per unit time keeps the O(ds) diffusion bias of the
    # backward-Euler step below ~0.1% relative on the slowest modes
    rate = max(b_max / dx, 500.0 / problem.T)
    return int(np.ceil(problem.T * rate / 0.4)) + 1


def _steps_on_every_time(fractions: np.ndarray, n_t: int) -> int:
    """Least step count >= n_t whose grid holds every fraction of the horizon.

    Rounding up may at most double the step count; times that share no grid
    that fine are refused.
    """
    for steps in range(n_t, 2 * n_t + 1):
        k = fractions * steps
        if np.all(np.abs(k - np.rint(k)) <= 1e-9):
            return steps
    raise InputDomainError(
        f"the requested times share no step grid between {n_t} and {2 * n_t} steps"
    )


def mean_field_reference_batch(
    problem: ProblemSpec,
    times,
    rho0: np.ndarray,
    n_t: int = 0,
) -> tuple[np.ndarray, int, float]:
    """Mean-field values v(t_i, mu_j) for a batch of densities and times.

    ``rho0`` has shape (m, n_cols).  One Fokker-Planck flow of the a = 0
    problem runs from every column over the longest horizon T - min(times),
    with ``n_t`` steps (``default_flow_steps`` when 0) rounded up so that
    every T - t_i is a whole number of steps.  v(t_i, .) is read off at that
    step, with G averaged over shifts of variance 2a(T - t_i) (see the module
    docstring).  Returns ``(values, steps, max_mass_drift)`` with ``values``
    of shape (len(times), n_cols) and ``steps`` the flow's step count (0 when
    every time is T).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise InputDomainError("times must be a non-empty sequence")
    horizons = problem.T - times
    if np.any(horizons < 0):
        raise InputDomainError("a requested time is past the horizon")
    longest = float(horizons.max())
    steps = n_t if n_t > 0 else default_flow_steps(problem, rho0.shape[0])
    if longest > 0.0:
        steps = _steps_on_every_time(horizons / longest, steps)
        read_at = np.rint(horizons / longest * steps).astype(int)
    else:
        steps, read_at = 0, np.zeros(times.size, dtype=int)

    term = problem.terminal
    shift_var = 2.0 * problem.a * horizons
    values = np.empty((times.size, rho0.shape[1]))

    def record(step: int, rho: np.ndarray, running: np.ndarray) -> None:
        rows = np.flatnonzero(read_at == step)
        if rows.size:
            moments = density_moments(np.maximum(rho, 0.0), term.degree)
            for i in rows:
                values[i] = running + term.value_moments(*moments, shift_var[i])

    _, _, mass_drift = fokker_planck_flow_batch(
        dataclasses.replace(problem, a=0.0),
        rho0,
        float(times.min()),
        max(steps, 1),
        record,
    )
    log.info(
        "fp reference: %d columns, %d steps, ds %.3e, mass drift %.2e%s",
        rho0.shape[1],
        steps,
        longest / steps if steps else 0.0,
        mass_drift,
        f", shift variance up to {shift_var.max():.3e}" if problem.a else "",
    )
    return values, steps, mass_drift
