import numpy as np
import pytest
import scipy.linalg

from mfrl.errors import InputDomainError
from mfrl.mc import mc_path_values
from mfrl.meanfield import (
    default_flow_steps,
    deposit_empirical,
    fokker_planck_flow_batch,
    mean_field_reference_batch,
    solve_circulant,
)
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext, sample_iid
from mfrl.trig import TrigPoly, convolve, density_moments, harmonics

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


def uniform(m=256):
    return GridDensity(np.full(m, 1.0 / TWO_PI))


def test_deposit_preserves_mass_and_mean_position():
    mu = EmpiricalMeasure(np.array([[0.37], [2.9], [5.1]]))
    dens = deposit_empirical(mu, 128)
    dx = TWO_PI / 128
    assert np.sum(dens.values) * dx == pytest.approx(1.0, abs=1e-12)
    # linear deposit preserves first trig moments up to O(dx^2)
    c_emp = np.mean(np.cos(mu.atoms[:, 0]))
    c_grid = np.sum(np.cos(dens.nodes) * dens.values) * dx
    assert c_grid == pytest.approx(c_emp, abs=(dx**2))


def test_pure_diffusion_mode_decay():
    # d_s rho = d_xx rho damps the cos mode by e^{-s}
    prob = heat_problem(T=0.4)
    nodes = np.arange(256) * TWO_PI / 256
    rho0 = (1.0 + 0.5 * np.cos(nodes)) / TWO_PI
    out, running, drift = fokker_planck_flow_batch(prob, rho0[:, None], 0.0, 400)
    dx = TWO_PI / 256
    c1 = np.sum(np.cos(nodes) * out[:, 0]) * dx
    # cos moment of (1 + 0.5 cos)/2pi is 0.25; pure diffusion damps it by e^{-s}
    assert c1 == pytest.approx(0.25 * np.exp(-0.4), abs=2e-3)
    assert running[0] == pytest.approx(0.0, abs=1e-14)
    assert drift <= 1e-12


def test_delta_initial_data_damped_not_oscillating():
    prob = heat_problem(T=0.25)
    mu = deposit_empirical(EmpiricalMeasure(np.array([[np.pi]])), 256)
    out, _, _ = fokker_planck_flow_batch(prob, mu.values[:, None], 0.0, 200)
    out = out[:, 0]
    # heat kernel on the circle at time 0.25 started from delta_pi
    nodes = mu.nodes
    ls = np.arange(1, 200)
    exact = (
        1.0
        + 2.0
        * np.sum(
            np.exp(-(ls**2.0) * 0.25)[:, None] * np.cos(ls[:, None] * (nodes - np.pi)),
            axis=0,
        )
    ) / TWO_PI
    assert np.max(np.abs(out - exact)) < 2e-3
    assert np.all(out >= 0.0)


def test_pure_transport_by_constant_drift():
    # kernel = const c: density is rigidly translated by c * s
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.7), cost_kernel=TrigPoly()
    )
    prob = ProblemSpec(ham, TerminalSpec(), T=0.5, ctx=CTX)
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    rho0 = (1.0 + 0.4 * np.cos(nodes)) / TWO_PI
    out, _, _ = fokker_planck_flow_batch(prob, rho0[:, None], 0.0, 4000)
    dx = TWO_PI / m
    c1 = np.sum(np.cos(nodes) * out[:, 0]) * dx
    s1 = np.sum(np.sin(nodes) * out[:, 0]) * dx
    # moments rotate: (c1, s1) = 0.2 (cos(cT + T decay), ...) with diffusion decay e^{-T}
    shift = 0.7 * 0.5
    decay = np.exp(-0.5)
    assert c1 == pytest.approx(0.2 * decay * np.cos(shift), abs=2e-3)
    assert s1 == pytest.approx(0.2 * decay * np.sin(shift), abs=2e-3)


def test_batch_matches_single():
    prob = drift_problem()
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    d1 = (1.0 + 0.3 * np.cos(nodes)) / TWO_PI
    d2 = (1.0 - 0.2 * np.sin(2 * nodes)) / TWO_PI
    batch, running, _ = fokker_planck_flow_batch(
        prob, np.column_stack([d1, d2]), 0.1, 300
    )
    for j, d in enumerate((d1, d2)):
        single, run_s, _ = fokker_planck_flow_batch(prob, d[:, None], 0.1, 300)
        assert np.max(np.abs(batch[:, j] - single[:, 0])) < 1e-13
        assert running[j] == pytest.approx(run_s[0], abs=1e-13)


def test_terminal_values_batch_quadratic_part():
    term = TerminalSpec(
        g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.0], [0.0, 1.0])
    )
    prob = ProblemSpec(HamiltonianSpec("zero"), term, T=1.0, ctx=CTX)
    m = 512
    nodes = np.arange(m) * TWO_PI / m
    rho = ((1.0 + 0.4 * np.cos(nodes) + 0.6 * np.sin(2 * nodes)) / TWO_PI)[:, None]
    val = prob.terminal.value_moments(*density_moments(rho, prob.terminal.degree))[0]
    assert val == pytest.approx(0.2 + 0.3**2, abs=1e-10)


def test_reference_matches_closed_form_heat_value():
    # H = 0, G = int cos: v(t, mu) = e^{-(T-t)} int cos dmu
    prob = heat_problem(T=0.5)
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    mu = (1.0 + 0.8 * np.cos(nodes)) / TWO_PI
    values, _, _ = mean_field_reference_batch(prob, [0.1], mu[:, None])
    assert values[0, 0] == pytest.approx(0.4 * np.exp(-0.4), abs=2e-4)


def test_common_noise_reference_matches_closed_form_heat_value():
    # a > 0: v(t, mu) = e^{-(1+a)(T-t)} int cos dmu, the idiosyncratic noise
    # damping the mode by e^{-(T-t)} and the shift average by e^{-a(T-t)}
    a = 0.5
    prob = heat_problem(T=0.5, a=a)
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    mu = np.column_stack(
        [(1.0 + 0.8 * np.cos(nodes)) / TWO_PI, (1.0 + 0.6 * np.cos(nodes - 1.0)) / TWO_PI]
    )
    times = np.array([0.0, 0.1, 0.25])
    values, steps, drift = mean_field_reference_batch(prob, times, mu)
    assert steps > 0 and 0.0 <= drift <= 1e-12
    cos_moment = np.array([0.4, 0.3 * np.cos(1.0)])
    exact = np.exp(-(1 + a) * (prob.T - times))[:, None] * cos_moment
    assert np.max(np.abs(values - exact)) < 2e-4


def test_batched_reference_matches_scalar_reference():
    # one column's value does not depend on the other columns of the batch
    prob = drift_problem()
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    rho = ((1.0 + 0.3 * np.cos(nodes)) / TWO_PI)[:, None]
    other = ((1.0 - 0.5 * np.sin(nodes)) / TWO_PI)[:, None]
    batch, _, _ = mean_field_reference_batch(prob, [0.0], np.hstack([rho, other]))
    scalar, _, _ = mean_field_reference_batch(prob, [0.0], rho)
    assert batch[0, 0] == pytest.approx(scalar[0, 0], abs=1e-10)


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


def empirical_columns(seed, sizes=(3, 8), m=256):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            deposit_empirical(EmpiricalMeasure(rng.uniform(0, TWO_PI, (n, 1))), m).values
            for n in sizes
        ]
    )


def flow_value(prob, rho, t, n_t):
    """v(t, .) of each column from its own flow of n_t steps."""
    rho_end, running, _ = fokker_planck_flow_batch(prob, rho, t, n_t)
    return running + prob.terminal.value_moments(
        *density_moments(rho_end, prob.terminal.degree)
    )


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_folded_reference_equals_a_flow_from_each_time(make):
    prob = make()
    rho = empirical_columns(5)
    times = [0.0, 0.125, 0.25, 0.375, 0.5]
    values, steps, drift = mean_field_reference_batch(prob, times, rho, n_t=402)
    # 402 steps over T = 0.5 are rounded up to the next multiple of 4
    assert steps == 404
    assert 0.0 <= drift <= 1e-12
    for i, t in enumerate(times[:-1]):
        k = round((prob.T - t) / prob.T * steps)
        assert np.max(np.abs(values[i] - flow_value(prob, rho, t, k))) < 1e-13
    # at t = T nothing flows: the value is G of the deposited measure
    g = prob.terminal.value_moments(*density_moments(rho, prob.terminal.degree))
    assert np.max(np.abs(values[-1] - g)) < 1e-13


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_folded_reference_close_to_a_fine_flow_from_each_time(make):
    # the rule before folding: default_flow_steps steps from every t_i
    prob = make()
    rho = empirical_columns(6)
    times = np.linspace(0.0, prob.T, 4, endpoint=False)
    values, steps, _ = mean_field_reference_batch(prob, times, rho)
    assert steps >= default_flow_steps(prob, rho.shape[0])
    for i, t in enumerate(times):
        own = flow_value(prob, rho, t, default_flow_steps(prob, rho.shape[0]))
        assert np.max(np.abs(values[i] - own)) < 1e-4


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
    # uniform density is invariant; cost rate is the kernel mean-squared pairing
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(), cost_kernel=TrigPoly(0.25)
    )
    prob = ProblemSpec(ham, TerminalSpec(), T=0.8, ctx=CTX)
    values, _, _ = mean_field_reference_batch(prob, [0.0], uniform().values[:, None])
    assert values[0, 0] == pytest.approx(0.25 * 0.8, abs=1e-10)


def test_flow_rejects_bad_inputs():
    prob = heat_problem()
    rho = uniform().values[:, None]
    with pytest.raises(InputDomainError):
        fokker_planck_flow_batch(prob, rho, 0.9, 0)
    with pytest.raises(InputDomainError):
        fokker_planck_flow_batch(prob, rho, 1.5, 100)
    noisy = ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(), a=0.1, T=1.0, ctx=CTX
    )
    with pytest.raises(InputDomainError):
        fokker_planck_flow_batch(noisy, rho, 0.0, 100)


def test_default_flow_steps_respects_cfl():
    prob = drift_problem()
    mesh = 256
    steps = default_flow_steps(prob, mesh)
    dx = TWO_PI / mesh
    b_max = (
        prob.hamiltonian.drift_kernel.sup_norm()
        + prob.hamiltonian.drift_kernel.derivative().sup_norm()
    )
    assert (prob.T / steps) * b_max / dx <= 0.4 + 1e-12
    assert steps >= 500 * prob.T / 0.4


def roll_flow(prob, rho0, t, n_t):
    """The flow with its drift step written with np.roll, one state per step.

    Returns the densities seen at steps 0..n_t (before clipping) and the
    running cost integral.
    """
    rho = np.array(rho0, dtype=float)
    m, n_cols = rho.shape
    dx = TWO_PI / m
    ds = (prob.T - t) / n_t
    r = ds / (dx * dx)
    first_col = np.zeros(m)
    first_col[0], first_col[1], first_col[-1] = 1.0 + 2.0 * r, -r, -r
    symbol = np.fft.rfft(first_col)
    drift, cost = prob.hamiltonian.drift_kernel, prob.hamiltonian.cost_kernel
    cos_n, sin_n = harmonics(np.arange(m) * dx, max(drift.degree, cost.degree))
    running, states = np.zeros(n_cols), []
    for step in range(n_t + 1):
        states.append(rho)
        cm, sm = (cos_n @ rho) * dx, (sin_n @ rho) * dx
        rate = convolve(cost, cm, sm, cm.copy(), sm.copy())
        if step == n_t:
            break
        running += (0.5 if step == 0 else 1.0) * ds * rate
        table = [np.repeat(h[: drift.degree, :, None], n_cols, axis=2) for h in (cos_n, sin_n)]
        b = convolve(drift, cm[:, None, :], sm[:, None, :], *table)
        b_face = 0.5 * (b + np.roll(b, -1, axis=0))
        flux = np.maximum(b_face, 0.0) * rho + np.minimum(b_face, 0.0) * np.roll(
            rho, -1, axis=0
        )
        rho = rho - (ds / dx) * (flux - np.roll(flux, 1, axis=0))
        rho = solve_circulant(symbol, rho)
    running += 0.5 * ds * rate
    return states, running


@pytest.mark.parametrize("make", [interaction_problem, linear_problem])
def test_flow_bit_identical_to_roll_based_step(make):
    prob = make()
    rho = np.hstack([empirical_columns(8), empirical_columns(9, sizes=(5,))])
    seen = []
    out, running, _ = fokker_planck_flow_batch(
        prob, rho, 0.1, 60, lambda step, r, _: seen.append(r.copy())
    )
    states, ref_running = roll_flow(prob, rho, 0.1, 60)
    assert len(seen) == len(states) == 61
    for ours, theirs in zip(seen, states):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(out, np.maximum(states[-1], 0.0))
    assert np.array_equal(running, ref_running)


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
    rho = deposit_empirical(EmpiricalMeasure(atoms), 256).values[:, None]
    t, n_paths = 0.1, 3000
    ref = mean_field_reference_batch(noisy, [t], rho)[0][0, 0]
    ref_a0 = mean_field_reference_batch(prob, [t], rho)[0][0, 0]
    paths = mc_path_values(noisy, atoms[:, 0][None, :], t, n_paths, 60, seed=13)[0]
    se = paths.std(ddof=1) / np.sqrt(n_paths)
    assert abs(ref - paths.mean()) < 3.0 * se
    assert abs(ref_a0 - paths.mean()) > 5.0 * se
