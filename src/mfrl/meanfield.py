"""Mean-field reference values via the Fokker-Planck flow, in Fourier moments.

For linear-in-p problems without common noise the mean-field value function is

    v(t, mu) = int_t^T <f(., mu_s), mu_s> ds + G(mu_T),

where mu_s solves the Fokker-Planck equation d_s mu = d_xx mu - d_x(b(., mu) mu)
started from mu at time t.  The drift is b = K * mu with the kernel
K(x) = sum_{|j| <= deg} kappa_j e^{ijx} (kappa_0 = c0, kappa_{+-k} =
(a_k -+ i b_k) / 2), so the moments m_l = int e^{-ilx} mu(dx) solve

    d_s m_l = -(l^2 + i l kappa_0) m_l - i l sum_{0 < |j| <= deg} kappa_j m_j m_{l-j},

with m_{-l} = conj(m_l) and m_0 = 1 for ever.  The flow keeps the modes
l = 0..L, those past L taken as 0 (the heat damps mode L by e^{-L^2 s}).
The heat and kappa_0 are exact, through the integrating factor
e^{-(l^2 + i l kappa_0) s}; the rest of the drift is stepped by Lawson's
integrating-factor RK4 (Kassam & Trefethen 2005) on contiguous slices.  An
empirical measure's moments are exact (``empirical_moments``), so the flow
starts at the configuration itself, with no grid, and cannot lose mass.
The running cost of f = J * mu is <f(., mu), mu> = c0 + sum_j a_j |m_j|^2,
by the trapezoid rule over the steps, and G is ``TerminalSpec.value_moments``
of int cos(kx) dmu = Re m_k and int sin(kx) dmu = -Im m_k.

Drift, running cost and G do not depend on time, so v(t_i, mu) for every time
of a sweep is read off one flow started at mu: at the step where the elapsed
time equals T - t_i, the running cost integral closed there plus G of the
moments.  ``mean_field_reference_batch`` runs that one flow for a whole batch
of measures and times, with its step count rounded up so that every time
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

``deposit_empirical`` and ``solve_circulant`` are no part of the flow; the
benchmark's tracer still wraps them.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import Callable

import numpy as np

from .errors import InputDomainError, ResourceBudgetError
from .problems import ProblemSpec
from .torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext, empirical_coefficients

#: least step count of a default flow, whatever the drift: with the heat
#: exact, it bounds the trapezoid error of the running-cost integral
MIN_FLOW_STEPS = 64

#: hard cap on the bytes of the arrays one flow holds: its complex
#: (L + 1, n_cols) moment buffers and the (n_times, n_cols) values a
#: reference reads off it
FLOW_BYTES_BUDGET = 1 << 30

#: complex (L + 1, n_cols) arrays alive at once in a flow: the caller's batch,
#: the state and the next, four RK4 slopes, five tables of the integrating
#: factor and -il, and the temporaries of a step's expressions
_FLOW_BUFFERS = 20

#: moment parts below this are set to 0 after every step: they cannot move a
#: value, and decaying high modes would pass through the subnormal range,
#: where the CPU multiplies about 100x slower (the flow ran 1.5-2x slower)
_NEGLIGIBLE = 1e-100

log = logging.getLogger(__name__)


def check_flow_budget(problem: ProblemSpec, modes: int, n_cols: int, n_times: int) -> None:
    """Refuse a flow in modes 0..``modes`` that cannot hold the problem's
    degree (``InputDomainError``), or one of ``n_cols`` measures beyond the
    budget, counting the (n_times, n_cols) values a reference reads off it
    (``ResourceBudgetError``)."""
    ham = problem.hamiltonian
    degree = max(1, ham.drift_kernel.degree, ham.cost_kernel.degree, problem.terminal.degree)
    if modes < degree:
        raise InputDomainError(f"{modes} flow modes cannot hold the problem's degree {degree}")
    need = ((modes + 1) * _FLOW_BUFFERS * 16 + n_times * 8) * n_cols
    if need > FLOW_BYTES_BUDGET:
        raise ResourceBudgetError(
            f"Fokker-Planck flow of {n_cols} measures in {modes} modes, read at "
            f"{n_times} times, needs {need} bytes, over the budget of {FLOW_BYTES_BUDGET}"
        )


def empirical_moments(configs: np.ndarray, modes: int) -> np.ndarray:
    """Moments m_l = (1/n) sum_j e^{-il x_j}, l = 0..modes, of the empirical
    measure of each row of an (R, n) array of configurations: an
    (modes + 1, R) complex array, one column per configuration, m_0 = 1.

    Each column is ``torus.empirical_coefficients`` of its row times
    sqrt(2 pi), which bounds its own working memory; a row's moments do not
    depend on the others.
    """
    atoms = np.asarray(configs, dtype=float)[:, :, None]
    out = np.sqrt(TWO_PI) * empirical_coefficients(atoms, TorusContext(1, modes))[:, modes:].T
    out[0] = 1.0
    return out


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
    spectrum = np.fft.rfft(rho, axis=0)
    spectrum /= symbol[:, None]
    return np.fft.irfft(spectrum, n=rho.shape[0], axis=0)


def fokker_planck_flow_batch(
    problem: ProblemSpec,
    rho0: np.ndarray,
    t: float,
    n_t: int,
    observe: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Evolve a batch of measures, given by their moments, from time t to the horizon.

    ``rho0`` has shape (L + 1, n_cols): column j holds the moments m_l of
    measure j, l = 0..L, with m_0 = 1 and L at least the problem's degree.
    Returns ``(moments_end, running_cost_integrals, tail)``, ``tail`` the
    largest |m_L| after the first step (0 when there is none).  Each of the
    n_t steps is one Lawson RK4 step with the heat and the constant drift in
    the integrating factor (see the module docstring), after which parts
    below ``_NEGLIGIBLE`` are set to 0.

    ``observe(step, moments, running)``, if given, sees the state after every
    step 0..n_t and the running cost integral with its trapezoid closed at
    that step.  At ``step = n_t`` ``running`` is the returned integral.
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
    if np.ndim(rho0) != 2:
        raise InputDomainError("rho0 must have shape (L + 1, n_cols)")
    L, n_cols = np.shape(rho0)[0] - 1, np.shape(rho0)[1]
    check_flow_budget(problem, L, n_cols, 0)
    m = np.array(rho0, dtype=complex, order="C")
    running = np.zeros(n_cols)
    if horizon == 0.0:
        if observe is not None:
            observe(0, m, running)
        return m, running, 0.0
    h = horizon / n_t

    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    kappa = 0.5 * (drift.cos_coeffs - 1j * drift.sin_coeffs)
    modes = np.arange(L + 1)
    exponent = -(modes * modes + 1j * drift.const * modes) * h

    # whole (L + 1, n_cols) tables: numpy multiplies two arrays of one shape
    # 2-3x faster than it broadcasts a column across them
    half, full, minus_il = (
        np.repeat(f[:, None], n_cols, axis=1)
        for f in (np.exp(0.5 * exponent), np.exp(exponent), -1j * modes)
    )
    h_half, two_half = h * half, 2.0 * half

    def nonlinear(m: np.ndarray) -> np.ndarray:
        """-il sum_{0 < |j| <= deg} kappa_j m_j m_{l-j}, l = 0..L.

        The pair +-j is kappa_j m_j m_{l-j} + conj(kappa_j m_j) m_{l+j}, with
        m_{l-j} = conj(m_{j-l}) for l < j and m_{l+j} = 0 past L.
        """
        out = np.zeros_like(m)
        for j in range(1, drift.degree + 1):
            w = kappa[j - 1] * m[j]
            out[j:] += w * m[: L + 1 - j]
            out[:j] += w * m[j:0:-1].conj()
            out[: L + 1 - j] += w.conj() * m[j:]
        out *= minus_il
        return out

    def cost_rate(m: np.ndarray) -> np.ndarray:
        low = m[1 : cost.degree + 1]
        return cost.const + cost.cos_coeffs @ (low.real**2 + low.imag**2)

    tail = 0.0
    for step in range(n_t + 1):
        rate = cost_rate(m)
        if observe is not None:
            closed = running + 0.5 * h * rate if step else np.zeros(n_cols)
            observe(step, m, closed)
        if step == n_t:
            break
        running += (0.5 if step == 0 else 1.0) * h * rate
        # Lawson RK4, with E = e^{h/2 (-l^2 - il kappa_0)}
        k1 = nonlinear(m)
        k2 = nonlinear(half * (m + 0.5 * h * k1))
        k3 = nonlinear(half * m + 0.5 * h * k2)
        moved = full * m
        k4 = nonlinear(moved + h_half * k3)
        m = moved + (h / 6.0) * (full * k1 + two_half * (k2 + k3) + k4)
        parts = m.view(float)
        parts[np.abs(parts) < _NEGLIGIBLE] = 0.0
        if step == 0:
            tail = float(np.max(np.abs(m[L])))
    running += 0.5 * h * rate
    return m, running, tail


def _rk4_steps(problem: ProblemSpec, modes: int) -> int:
    """Step count over [0, T] at h L sum_{0 < |j|} |kappa_j| <= 1.

    The drift moves mode l by l kappa_j m_j m_{l-j}, |m_j| <= 1: a rate of
    at most L sum |kappa_j| = L sum_k |a_k - i b_k| on the imaginary axis,
    inside RK4's stability interval (2 sqrt 2) with margin.
    """
    k = problem.hamiltonian.drift_kernel
    return int(np.ceil(problem.T * modes * np.hypot(k.cos_coeffs, k.sin_coeffs).sum()))


def default_flow_steps(problem: ProblemSpec, modes: int) -> int:
    """Step count keeping the drift's RK4 stable with margin, at least ``MIN_FLOW_STEPS``.

    The heat is exact, so the drift alone bounds the step.
    """
    return max(_rk4_steps(problem, modes), MIN_FLOW_STEPS)


def _steps_on_every_time(fractions: np.ndarray, n_t: int) -> int:
    """Least step count >= n_t whose grid holds every fraction of the horizon.

    The search ends at twice the larger of n_t and the number of times, which
    holds a multiple of every equally spaced sweep's time count; times that
    share no grid that fine are refused.
    """
    last = 2 * max(n_t, fractions.size)
    for steps in range(n_t, last + 1):
        k = fractions * steps
        if np.all(np.abs(k - np.rint(k)) <= 1e-9):
            return steps
    raise InputDomainError(
        f"the requested times share no step grid between {n_t} and {last} steps"
    )


def mean_field_reference_batch(
    problem: ProblemSpec,
    times,
    rho0: np.ndarray,
    n_t: int = 0,
) -> tuple[np.ndarray, dict]:
    """Mean-field values v(t_i, mu_j) for a batch of measures and times.

    ``rho0`` has shape (L + 1, n_cols), the moments of one measure per
    column (``empirical_moments``).  One flow of the a = 0 problem runs from
    every column over the longest horizon T - min(times), with ``n_t`` steps
    (``default_flow_steps`` when 0) rounded up so that every T - t_i is a
    whole number of steps.  v(t_i, .) is read off at that step, with G
    averaged over shifts of variance 2a(T - t_i) (see the module docstring).
    Returns ``values`` of shape (len(times), n_cols) and what the flow did:
    ``fp_modes`` (L), ``fp_steps`` (0 when every time is T), the bound that
    set the step count (``fp_step_bound``) and the largest |m_L| after the
    first step (``fp_mode_tail``).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise InputDomainError("times must be a non-empty sequence")
    horizons = problem.T - times
    if np.any(horizons < 0):
        raise InputDomainError("a requested time is past the horizon")
    longest = float(horizons.max())
    modes = rho0.shape[0] - 1
    # the bound that sets the step count, for the log and the report
    rk4, floor = _rk4_steps(problem, modes), MIN_FLOW_STEPS
    if n_t > 0:
        steps, bound = n_t, f"ref_steps {n_t}, RK4 {rk4}"
    else:
        steps = default_flow_steps(problem, modes)
        bound = f"RK4 {rk4} over floor {floor}" if rk4 > floor else f"floor {floor} over RK4 {rk4}"
    if longest > 0.0:
        steps = _steps_on_every_time(horizons / longest, steps)
        read_at = np.rint(horizons / longest * steps).astype(int)
    else:
        steps, read_at = 0, np.zeros(times.size, dtype=int)

    term = problem.terminal
    shift_var = 2.0 * problem.a * horizons
    check_flow_budget(problem, modes, rho0.shape[1], times.size)
    values = np.empty((times.size, rho0.shape[1]))

    def record(step: int, m: np.ndarray, running: np.ndarray) -> None:
        rows = np.flatnonzero(read_at == step)
        if rows.size:
            low = m[1 : term.degree + 1]
            for i in rows:
                values[i] = running + term.value_moments(low.real, -low.imag, shift_var[i])

    start = time.perf_counter()
    _, _, tail = fokker_planck_flow_batch(
        dataclasses.replace(problem, a=0.0),
        rho0,
        float(times.min()),
        max(steps, 1),
        record,
    )
    log.info(
        "fp reference: %d columns, L %d, %d steps (%s), h %.3e, mode tail %.2e, %.3f s%s",
        rho0.shape[1],
        modes,
        steps,
        bound,
        longest / steps if steps else 0.0,
        tail,
        time.perf_counter() - start,
        f", shift variance up to {shift_var.max():.3e}" if problem.a else "",
    )
    flow = {"fp_modes": modes, "fp_steps": steps, "fp_step_bound": bound, "fp_mode_tail": tail}
    return values, flow
