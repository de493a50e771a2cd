import logging
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

import mfrl.meanfield
from mfrl.errors import InputDomainError, ResourceBudgetError
from mfrl.mc import mc_path_values
from mfrl.meanfield import (
    MIN_FLOW_STEPS,
    default_flow_steps,
    deposit_empirical,
    empirical_moments,
    fokker_planck_flow_batch,
    mean_field_reference_batch,
    solve_circulant,
)
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext, sample_iid
from mfrl.trig import TrigPoly, convolve

CTX = TorusContext(1, 64)


def heat_problem(T=0.5, a=0.0):
    return ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.0, [1.0])), a=a, T=T, ctx=CTX
    )


def drift_problem(T=0.5):
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.0], [0.5]),
        cost_kernel=TrigPoly(0.1, [0.3]),
    )
    return ProblemSpec(ham, TerminalSpec(g=TrigPoly(0.0, [1.0])), T=T, ctx=CTX)


def cos_moments(modes, *amplitudes):
    """Moments m_l, l = 0..modes, of (1 + sum_k c_k cos(k x)) / 2 pi, one column."""
    m = np.zeros((modes + 1, 1), dtype=complex)
    m[0] = 1.0
    for k, c in enumerate(amplitudes, start=1):
        m[k] = 0.5 * c
    return m


def uniform(modes=128):
    return cos_moments(modes)


def test_deposit_preserves_mass_and_mean_position():
    mu = EmpiricalMeasure(np.array([[0.37], [2.9], [5.1]]))
    dens = deposit_empirical(mu, 128)
    dx = TWO_PI / 128
    assert np.sum(dens.values) * dx == pytest.approx(1.0, abs=1e-12)
    # linear deposit preserves first trig moments up to O(dx^2)
    c_emp = np.mean(np.cos(mu.atoms[:, 0]))
    c_grid = np.sum(np.cos(dens.nodes) * dens.values) * dx
    assert c_grid == pytest.approx(c_emp, abs=(dx**2))


def test_empirical_moments_are_the_atoms_phase_means(monkeypatch):
    configs = np.random.default_rng(2).uniform(0, TWO_PI, (5, 7))
    modes = 40
    direct = np.exp(-1j * np.arange(modes + 1)[:, None, None] * configs).mean(axis=-1)
    ours = empirical_moments(configs, modes)
    assert ours.shape == (modes + 1, 5)
    assert np.all(ours[0] == 1.0)
    assert np.max(np.abs(ours - direct)) < 1e-13
    # the rows go in blocks of the table budget; a column does not depend on them
    monkeypatch.setattr(mfrl.meanfield, "_TABLE_ENTRIES", 1)
    assert np.array_equal(empirical_moments(configs, modes), ours)


def test_pure_diffusion_mode_decay():
    # d_s rho = d_xx rho damps the cos mode by e^{-s}
    out, running, tail = fokker_planck_flow_batch(
        heat_problem(T=0.4), cos_moments(128, 0.5), 0.0, 400
    )
    # the cos moment of (1 + 0.5 cos)/2pi is 0.25; pure diffusion damps it by e^{-s}
    assert out[1, 0].real == pytest.approx(0.25 * np.exp(-0.4), abs=1e-12)
    assert running[0] == pytest.approx(0.0, abs=1e-14)
    assert tail == 0.0


def test_pure_diffusion_damps_every_mode_exactly():
    # the heat is in the integrating factor: mode l decays by e^{-l^2 s}
    # whatever n_t, and m_0 stays 1
    s, modes = 0.4, 64
    m0 = empirical_moments(np.random.default_rng(1).uniform(0, TWO_PI, (3, 5)), modes)
    decay = np.exp(-(np.arange(modes + 1) ** 2) * s)[:, None]
    for n_t in (1, 7, 64):
        out, _, _ = fokker_planck_flow_batch(heat_problem(T=s), m0, 0.0, n_t)
        assert np.max(np.abs(out - m0 * decay)) < 1e-12
        assert np.all(out[0] == 1.0)


def test_wide_flow_damps_high_modes_without_warnings():
    # e^{-l^2 h} underflows to 0 for the high modes of a wide flow from an
    # empirical start; nothing overflows, warns or turns non-finite
    prob = drift_problem()
    m0 = empirical_moments(np.random.default_rng(3).uniform(0, TWO_PI, (2, 9)), 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, running, tail = fokker_planck_flow_batch(prob, m0, 0.0, 64)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(running))
    assert np.all(out[200:] == 0.0) and tail == 0.0


def test_delta_initial_data_damped_not_oscillating():
    # the heat kernel on the circle at time 0.25 started from delta_pi: its
    # moments (-1)^l e^{-l^2/4} and a positive density
    modes = 128
    start = empirical_moments(np.array([[np.pi]]), modes)
    out, _, _ = fokker_planck_flow_batch(heat_problem(T=0.25), start, 0.0, 200)
    ls = np.arange(modes + 1)
    assert np.max(np.abs(out[:, 0] - (-1.0) ** ls * np.exp(-(ls**2) * 0.25))) < 1e-12
    nodes = np.arange(256) * TWO_PI / 256
    density = (1.0 + 2.0 * (np.exp(1j * np.outer(nodes, ls[1:])) @ out[1:, 0]).real) / TWO_PI
    assert np.all(density > 0.0)


def test_pure_transport_by_constant_drift():
    # kernel = const c: the measure is rigidly translated by c s, so mode l
    # turns by e^{-ilcs} on top of its heat decay e^{-l^2 s}
    ham = HamiltonianSpec("linear", drift_kernel=TrigPoly(0.7), cost_kernel=TrigPoly())
    prob = ProblemSpec(ham, TerminalSpec(), T=0.5, ctx=CTX)
    modes = 64
    m0 = empirical_moments(np.random.default_rng(4).uniform(0, TWO_PI, (3, 6)), modes)
    ls = np.arange(modes + 1)[:, None]
    for n_t in (1, 64):
        out, _, _ = fokker_planck_flow_batch(prob, m0, 0.0, n_t)
        exact = m0 * np.exp(-(ls**2 + 1j * ls * 0.7) * 0.5)
        assert np.max(np.abs(out - exact)) < 1e-12


def test_batch_matches_single():
    prob = drift_problem()
    d1 = cos_moments(128, 0.3)
    d2 = empirical_moments(np.array([[0.4, 2.0, 5.5]]), 128)
    batch, running, _ = fokker_planck_flow_batch(prob, np.hstack([d1, d2]), 0.1, 300)
    for j, d in enumerate((d1, d2)):
        single, run_s, _ = fokker_planck_flow_batch(prob, d, 0.1, 300)
        assert np.max(np.abs(batch[:, j] - single[:, 0])) < 1e-13
        assert running[j] == pytest.approx(run_s[0], abs=1e-13)


def test_terminal_values_batch_quadratic_part():
    # at t = T nothing flows, and the reference is G of the given moments
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.0], [0.0, 1.0]))
    prob = ProblemSpec(HamiltonianSpec("zero"), term, T=1.0, ctx=CTX)
    # (1 + 0.4 cos x + 0.6 sin 2x) / 2 pi: m_1 = 0.2, m_2 = -0.3 i
    rho = cos_moments(4, 0.4)
    rho[2] = -0.3j
    values, flow = mean_field_reference_batch(prob, [1.0], rho)
    assert flow["fp_steps"] == 0
    assert values[0, 0] == pytest.approx(0.2 + 0.3**2, abs=1e-15)


def test_reference_matches_closed_form_heat_value():
    # H = 0, G = int cos: v(t, mu) = e^{-(T-t)} int cos dmu
    values, _ = mean_field_reference_batch(heat_problem(T=0.5), [0.1], cos_moments(128, 0.8))
    assert values[0, 0] == pytest.approx(0.4 * np.exp(-0.4), abs=1e-14)


def test_common_noise_reference_matches_closed_form_heat_value():
    # a > 0: v(t, mu) = e^{-(1+a)(T-t)} int cos dmu, the idiosyncratic noise
    # damping the mode by e^{-(T-t)} and the shift average by e^{-a(T-t)}
    a = 0.5
    prob = heat_problem(T=0.5, a=a)
    configs = np.random.default_rng(8).uniform(0, TWO_PI, (2, 5))
    times = np.array([0.0, 0.1, 0.25])
    values, flow = mean_field_reference_batch(prob, times, empirical_moments(configs, 128))
    assert flow["fp_steps"] > 0 and flow["fp_mode_tail"] < 1e-12
    cos_moment = np.cos(configs).mean(axis=1)
    exact = np.exp(-(1 + a) * (prob.T - times))[:, None] * cos_moment
    assert np.max(np.abs(values - exact)) < 1e-14


def test_batched_reference_matches_scalar_reference():
    # one column's value does not depend on the other columns of the batch
    prob = drift_problem()
    rho = cos_moments(128, 0.3)
    other = empirical_moments(np.array([[1.0, 4.0]]), 128)
    batch, _ = mean_field_reference_batch(prob, [0.0], np.hstack([rho, other]))
    scalar, _ = mean_field_reference_batch(prob, [0.0], rho)
    assert batch[0, 0] == pytest.approx(scalar[0, 0], abs=1e-14)


def interaction_problem():
    """Criterion 8's problem: sin drift kernel, G with a quadratic part."""
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.0, [0.0], [0.5]), cost_kernel=TrigPoly()
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    return ProblemSpec(ham, term, T=0.5, ctx=CTX)


def linear_problem():
    """Criterion 3's problem: drift and running-cost kernels, quadratic G."""
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4], [0.2]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    return ProblemSpec(ham, term, T=0.5, ctx=CTX)


def empirical_columns(seed, sizes=(3, 8), modes=128):
    rng = np.random.default_rng(seed)
    return np.hstack([empirical_moments(rng.uniform(0, TWO_PI, (1, n)), modes) for n in sizes])


def cost_only_problem():
    """No drift, a running cost with both harmonics, quadratic G."""
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(), cost_kernel=TrigPoly(0.1, [0.3], [0.2])
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    return ProblemSpec(ham, term, T=0.5, ctx=CTX)


def terminal_value(prob, m):
    low = m[1 : prob.terminal.degree + 1]
    return prob.terminal.value_moments(low.real, -low.imag)


def flow_value(prob, rho, t, n_t, flow=fokker_planck_flow_batch):
    """v(t, .) of each column from its own flow of n_t steps."""
    m_end, running, _ = flow(prob, rho, t, n_t)
    return running + terminal_value(prob, m_end)


def two_sided(m):
    """The moments l = -L..L of the columns l = 0..L."""
    return np.concatenate([m[:0:-1].conj(), m])


def drift_term(prob, full):
    """-il (b mu)^_l, l = -L..L, of two-sided moments: the drift's
    coefficients kappa_j, |j| <= deg, convolved with the moments by
    ``np.convolve`` and cut to |l| <= L, mode 0 of the kernel included."""
    k = prob.hamiltonian.drift_kernel
    kappa = 0.5 * (k.cos_coeffs - 1j * k.sin_coeffs)
    kernel = np.concatenate([kappa[::-1].conj(), [k.const], kappa])
    L, deg = full.shape[0] // 2, k.degree
    ls = np.arange(-L, L + 1)
    out = np.empty_like(full)
    for c in range(full.shape[1]):
        b = kernel * full[L - deg : L + deg + 1, c]
        out[:, c] = -1j * ls * np.convolve(b, full[:, c])[deg : deg + 2 * L + 1]
    return out


def cost_rate(prob, m):
    cm, sm = m[1:].real, -m[1:].imag
    return convolve(prob.hamiltonian.cost_kernel, cm, sm, cm.copy(), sm.copy())


def backward_euler_flow(prob, rho0, t, n_t):
    """The first-order oracle on the two-sided spectrum: an explicit Euler
    step of the whole drift (``drift_term``), then a backward-Euler step of
    the heat, per step, with the running cost's trapezoid of the flow.

    Both schemes share the flow's limit as the step shrinks.
    """
    full = two_sided(np.array(rho0, dtype=complex))
    L = full.shape[0] // 2
    ls = np.arange(-L, L + 1)[:, None]
    h = (prob.T - t) / n_t
    running = np.zeros(full.shape[1])
    for step in range(n_t + 1):
        rate = cost_rate(prob, full[L:])
        if step == n_t:
            break
        running += (0.5 if step == 0 else 1.0) * h * rate
        full = (full + h * drift_term(prob, full)) / (1.0 + h * ls**2)
    running += 0.5 * h * rate
    return full[L:], running, 0.0


def two_sided_flow(prob, rho0, t, n_t):
    """The flow's Lawson RK4 step written on the two-sided spectrum, with
    the drift's mode 0 among the convolved terms rather than in the factor."""
    full = two_sided(np.array(rho0, dtype=complex))
    L = full.shape[0] // 2
    ls = np.arange(-L, L + 1)[:, None]
    h = (prob.T - t) / n_t
    c = prob.hamiltonian.drift_kernel.const
    half, whole = np.exp(-(ls**2 + 1j * c * ls) * h / 2), np.exp(-(ls**2 + 1j * c * ls) * h)

    def nonlinear(full):
        return drift_term(prob, full) + 1j * c * ls * full

    states, running = [], np.zeros(full.shape[1])
    for step in range(n_t + 1):
        states.append(full[L:])
        rate = cost_rate(prob, full[L:])
        if step == n_t:
            break
        running += (0.5 if step == 0 else 1.0) * h * rate
        k1 = nonlinear(full)
        k2 = nonlinear(half * (full + h / 2 * k1))
        k3 = nonlinear(half * full + h / 2 * k2)
        k4 = nonlinear(whole * full + h * half * k3)
        full = whole * full + h / 6 * (whole * k1 + 2 * half * (k2 + k3) + k4)
    running += 0.5 * h * rate
    return states, running


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_folded_reference_equals_a_flow_from_each_time(make):
    prob = make()
    rho = empirical_columns(5)
    times = [0.0, 0.125, 0.25, 0.375, 0.5]
    values, flow = mean_field_reference_batch(prob, times, rho, n_t=402)
    # 402 steps over T = 0.5 are rounded up to the next multiple of 4
    assert flow["fp_steps"] == 404
    for i, t in enumerate(times[:-1]):
        k = round((prob.T - t) / prob.T * flow["fp_steps"])
        assert np.max(np.abs(values[i] - flow_value(prob, rho, t, k))) < 1e-13
    # at t = T nothing flows: the value is G of the empirical measure
    assert np.max(np.abs(values[-1] - terminal_value(prob, rho))) < 1e-15


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_folded_reference_close_to_a_fine_flow_from_each_time(make):
    # the rule before folding: default_flow_steps steps from every t_i
    prob = make()
    rho = empirical_columns(6)
    times = np.linspace(0.0, prob.T, 4, endpoint=False)
    values, flow = mean_field_reference_batch(prob, times, rho)
    assert flow["fp_steps"] >= default_flow_steps(prob, 128)
    for i, t in enumerate(times):
        own = flow_value(prob, rho, t, default_flow_steps(prob, 128))
        assert np.max(np.abs(values[i] - own)) < 1e-5


@pytest.mark.parametrize("make", [interaction_problem, linear_problem, cost_only_problem])
def test_default_reference_close_to_an_8000_step_flow(make):
    # the time error of the default (64-step) flow; 16 modes give the same
    # values as 128 (test_reference_converges_in_modes_and_steps)
    prob = make()
    rho = empirical_columns(11, modes=16)
    times = np.linspace(0.0, prob.T, 4, endpoint=False)
    values, flow = mean_field_reference_batch(prob, times, rho)
    assert flow["fp_steps"] == MIN_FLOW_STEPS
    fine, _ = mean_field_reference_batch(prob, times, rho, n_t=8000)
    assert np.max(np.abs(values - fine)) < 1e-5


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_reference_converges_in_modes_and_steps(make):
    # ref_mesh 32 and 256 (16 and 128 modes) give the same values; 64 and 512
    # steps agree within the running cost's trapezoid error
    prob = make()
    rng = np.random.default_rng(15)
    configs = [rng.uniform(0, TWO_PI, (4, n)) for n in (3, 8, 64)]
    times = np.linspace(0.0, prob.T, 4, endpoint=False)

    def values(modes, n_t):
        rho = np.hstack([empirical_moments(c, modes) for c in configs])
        return mean_field_reference_batch(prob, times, rho, n_t=n_t)[0]

    coarse = values(128, 64)
    assert np.max(np.abs(values(16, 64) - coarse)) < 1e-12
    assert np.max(np.abs(values(128, 512) - coarse)) < 1e-5


def test_running_cost_converges_at_second_order():
    # no drift: |m_j(s)|^2 = |m_j(0)|^2 e^{-2 j^2 s}, so the running cost is
    # c0 T + sum_j a_j |m_j(0)|^2 (1 - e^{-2 j^2 T}) / (2 j^2), which the
    # trapezoid rule meets at second order in the step
    prob = cost_only_problem()
    rho = empirical_columns(16)
    a = prob.hamiltonian.cost_kernel.cos_coeffs
    j = np.arange(1, a.size + 1)[:, None]
    decayed = (1.0 - np.exp(-2.0 * j**2 * prob.T)) / (2.0 * j**2)
    exact = 0.1 * prob.T + np.sum(a[:, None] * np.abs(rho[1 : a.size + 1]) ** 2 * decayed, axis=0)
    errors = [
        np.max(np.abs(fokker_planck_flow_batch(prob, rho, 0.0, n_t)[1] - exact))
        for n_t in (16, 32, 64)
    ]
    assert 3.8 < errors[0] / errors[1] < 4.2 and 3.8 < errors[1] / errors[2] < 4.2


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_fine_flow_shares_the_backward_euler_limit(make):
    # both schemes converge to the same flow: the Lawson one in fourth order
    # (second in its running cost), the backward-Euler one in first
    prob = make()
    rho = empirical_columns(12, modes=16)
    ours = flow_value(prob, rho, 0.0, 4000)
    oracle = flow_value(prob, rho, 0.0, 40000, flow=backward_euler_flow)
    assert np.max(np.abs(ours - oracle)) < 5e-6


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_flow_matches_the_two_sided_spectrum_step(make):
    # the step's contiguous slices, conjugate mirror and cut at L against the
    # same RK4 written with np.convolve on the modes -L..L
    prob = make()
    rho = np.hstack([empirical_columns(8, modes=32), empirical_columns(9, sizes=(5,), modes=32)])
    seen = []
    out, running, _ = fokker_planck_flow_batch(
        prob, rho, 0.1, 60, lambda step, m, _: seen.append(m.copy())
    )
    states, ref_running = two_sided_flow(prob, rho, 0.1, 60)
    assert len(seen) == len(states) == 61
    for ours, theirs in zip(seen, states):
        assert np.max(np.abs(ours - theirs)) < 1e-14
    assert np.max(np.abs(running - ref_running)) < 1e-15


@pytest.mark.parametrize("n_times", [200, 1000])
def test_reference_accepts_dense_sweep_times(n_times):
    # a sweep's times are multiples of T / n_times, so its step count must be
    # a multiple of n_times, even one far above the default count
    prob = interaction_problem()
    rho = empirical_columns(13, modes=32)
    times = np.linspace(0.0, prob.T, n_times, endpoint=False)
    values, flow = mean_field_reference_batch(prob, times, rho)
    steps = flow["fp_steps"]
    assert steps % n_times == 0 and steps >= default_flow_steps(prob, 32)
    assert values.shape == (n_times, 2) and np.all(np.isfinite(values))


def test_info_log_names_the_step_bound_and_the_flow_time(caplog):
    prob = interaction_problem()
    with warnings.catch_warnings(), caplog.at_level(logging.INFO, logger="mfrl.meanfield"):
        warnings.simplefilter("error")
        _, first = mean_field_reference_batch(prob, [0.0, 0.25], empirical_columns(14))
        mean_field_reference_batch(prob, [0.0], empirical_columns(14, modes=512))
        mean_field_reference_batch(prob, [0.0, 0.25], empirical_columns(14), n_t=101)
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.meanfield"]
    tail = r", h \S+, mode tail \S+, \d+\.\d{3} s"
    assert len(lines) == 3
    heads = [
        r"fp reference: 2 columns, L 128, 64 steps \(floor 64 over RK4 32\)",
        r"fp reference: 2 columns, L 512, 128 steps \(RK4 128 over floor 64\)",
        r"fp reference: 2 columns, L 128, 102 steps \(ref_steps 101, RK4 32\)",
    ]
    for head, line in zip(heads, lines):
        assert re.fullmatch(head + tail, line), line
    assert first == {
        "fp_modes": 128,
        "fp_steps": 64,
        "fp_step_bound": "floor 64 over RK4 32",
        "fp_mode_tail": first["fp_mode_tail"],
    }
    assert 0.0 < first["fp_mode_tail"] < 1e-40


def test_flow_refuses_a_batch_beyond_the_byte_budget():
    # the budget is checked on the shape alone, before the flow copies rho0
    huge = np.broadcast_to(np.complex128(1.0), (2**23, 2))
    with pytest.raises(ResourceBudgetError, match="budget"):
        fokker_planck_flow_batch(interaction_problem(), huge, 0.0, 64)


def test_reference_refuses_times_without_a_common_step_grid():
    prob = interaction_problem()
    rho = empirical_columns(7)
    with pytest.raises(InputDomainError):
        mean_field_reference_batch(prob, [0.0, 0.5 - 0.5 / 7.0], rho, n_t=3)
    with pytest.raises(InputDomainError):
        mean_field_reference_batch(prob, [0.0, 0.6], rho)


def test_spectral_solve_matches_scipy():
    rng = np.random.default_rng(0)
    m, r = 256, 0.7
    first_col = np.zeros(m)
    first_col[0], first_col[1], first_col[-1] = 1.0 + 2.0 * r, -r, -r
    rho = rng.random((m, 16))
    ours = solve_circulant(np.fft.rfft(first_col), rho)
    assert np.max(np.abs(ours - scipy.linalg.solve_circulant(first_col, rho))) < 1e-14


def test_running_cost_accumulates_for_uniform_law():
    # uniform law is invariant; cost rate is the kernel mean-squared pairing
    ham = HamiltonianSpec("linear", drift_kernel=TrigPoly(), cost_kernel=TrigPoly(0.25))
    prob = ProblemSpec(ham, TerminalSpec(), T=0.8, ctx=CTX)
    values, _ = mean_field_reference_batch(prob, [0.0], uniform())
    assert values[0, 0] == pytest.approx(0.25 * 0.8, abs=1e-14)


def test_flow_rejects_bad_inputs():
    prob = heat_problem()
    rho = uniform()
    with pytest.raises(InputDomainError):
        fokker_planck_flow_batch(prob, rho, 0.9, 0)
    with pytest.raises(InputDomainError):
        fokker_planck_flow_batch(prob, rho, 1.5, 100)
    noisy = ProblemSpec(HamiltonianSpec("zero"), TerminalSpec(), a=0.1, T=1.0, ctx=CTX)
    with pytest.raises(InputDomainError):
        fokker_planck_flow_batch(noisy, rho, 0.0, 100)
    # the running cost and G read mode 2, which one mode cannot hold
    with pytest.raises(InputDomainError, match="degree 2"):
        fokker_planck_flow_batch(linear_problem(), uniform(modes=1), 0.0, 100)


def test_default_flow_steps_respects_cfl():
    # the RK4 bound h L sum |kappa_j| <= 1, under the floor
    prob = drift_problem()
    rate = 2.0 * 0.25  # kappa_{+-1} = -+ 0.25 i
    for modes in (128, 4096):
        steps = default_flow_steps(prob, modes)
        assert (prob.T / steps) * modes * rate <= 1.0 + 1e-12
        assert steps >= MIN_FLOW_STEPS
    # the floor binds without drift and at 128 modes, the RK4 bound at 4096
    assert default_flow_steps(heat_problem(), 128) == MIN_FLOW_STEPS
    assert default_flow_steps(prob, 128) == MIN_FLOW_STEPS
    assert default_flow_steps(prob, 4096) == 1024


def test_common_noise_reference_agrees_with_particle_monte_carlo():
    # criterion 3's problem at a = 0.5, N = 300 atoms of a non-uniform law:
    # the shift identity is checked against the N-particle system with common
    # noise simulated (v^N - v is O(1/N), below the MC error), and the a = 0
    # value is far enough off that the check discriminates
    prob = linear_problem()
    noisy = ProblemSpec(prob.hamiltonian, prob.terminal, a=0.5, T=prob.T, ctx=CTX)
    nodes = np.arange(256) * TWO_PI / 256
    mu = GridDensity((1.0 + 0.8 * np.cos(nodes - 1.0)) / TWO_PI)
    atoms = sample_iid(mu, 300, seed=12).atoms
    rho = empirical_moments(atoms.T, 128)
    t, n_paths = 0.1, 3000
    ref = mean_field_reference_batch(noisy, [t], rho)[0][0, 0]
    ref_a0 = mean_field_reference_batch(prob, [t], rho)[0][0, 0]
    paths = mc_path_values(noisy, atoms[:, 0][None, :], t, n_paths, 60, seed=13)[0]
    se = paths.std(ddof=1) / np.sqrt(n_paths)
    assert abs(ref - paths.mean()) < 3.0 * se
    assert abs(ref_a0 - paths.mean()) > 5.0 * se
