import numpy as np
import pytest
import scipy.linalg

from mfrl.errors import ConfigurationError, InputDomainError
from mfrl.meanfield import (
    RefConfig,
    default_flow_steps,
    deposit_empirical,
    fokker_planck_flow,
    fokker_planck_flow_batch,
    mean_field_reference,
    mean_field_reference_batch,
    solve_circulant,
)
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext
from mfrl.trig import TrigPoly, density_moments

CTX = TorusContext(1, 64)


def heat_problem(T=0.5):
    return ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.0, [1.0])), T=T, ctx=CTX
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
    rho0 = GridDensity((1.0 + 0.5 * np.cos(np.arange(256) * TWO_PI / 256)) / TWO_PI)
    out, running, drift = fokker_planck_flow(prob, rho0, 0.0, 400)
    dx = TWO_PI / 256
    c1 = np.sum(np.cos(out.nodes) * out.values) * dx
    # cos moment of (1 + 0.5 cos)/2pi is 0.25; pure diffusion damps it by e^{-s}
    assert c1 == pytest.approx(0.25 * np.exp(-0.4), abs=2e-3)
    assert running == pytest.approx(0.0, abs=1e-14)
    assert drift <= 1e-12


def test_delta_initial_data_damped_not_oscillating():
    prob = heat_problem(T=0.25)
    mu = deposit_empirical(EmpiricalMeasure(np.array([[np.pi]])), 256)
    out, _, _ = fokker_planck_flow(prob, mu, 0.0, 200)
    # heat kernel on the circle at time 0.25 started from delta_pi
    nodes = out.nodes
    ls = np.arange(1, 200)
    exact = (
        1.0
        + 2.0
        * np.sum(
            np.exp(-(ls**2.0) * 0.25)[:, None] * np.cos(ls[:, None] * (nodes - np.pi)),
            axis=0,
        )
    ) / TWO_PI
    assert np.max(np.abs(out.values - exact)) < 2e-3
    assert np.all(out.values >= 0.0)


def test_pure_transport_by_constant_drift():
    # kernel = const c: density is rigidly translated by c * s
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.7), cost_kernel=TrigPoly()
    )
    prob = ProblemSpec(ham, TerminalSpec(), T=0.5, ctx=CTX)
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    rho0 = GridDensity((1.0 + 0.4 * np.cos(nodes)) / TWO_PI)
    out, _, _ = fokker_planck_flow(prob, rho0, 0.0, 4000)
    dx = TWO_PI / m
    c1 = np.sum(np.cos(nodes) * out.values) * dx
    s1 = np.sum(np.sin(nodes) * out.values) * dx
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
        single, run_s, _ = fokker_planck_flow(prob, GridDensity(d), 0.1, 300)
        assert np.max(np.abs(batch[:, j] - single.values)) < 1e-13
        assert running[j] == pytest.approx(run_s, abs=1e-13)


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
    mu = GridDensity((1.0 + 0.8 * np.cos(nodes)) / TWO_PI)
    ref = mean_field_reference(prob, 0.1, mu)
    assert ref.method == "exact-fp"
    assert ref.bias_budget == 0.0
    assert float(ref) == pytest.approx(0.4 * np.exp(-0.4), abs=2e-4)


def test_batched_reference_matches_scalar_reference():
    prob = drift_problem()
    m = 256
    nodes = np.arange(m) * TWO_PI / m
    rho = ((1.0 + 0.3 * np.cos(nodes)) / TWO_PI)[:, None]
    batch, _, _ = mean_field_reference_batch(prob, [0.0], rho)
    scalar = mean_field_reference(prob, 0.0, GridDensity(rho[:, 0]))
    assert batch[0, 0] == pytest.approx(scalar.value, abs=1e-10)


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
    ref = mean_field_reference(prob, 0.0, uniform())
    assert float(ref) == pytest.approx(0.25 * 0.8, abs=1e-10)


def test_common_noise_requires_surrogate_budget():
    prob = ProblemSpec(
        HamiltonianSpec("zero"),
        TerminalSpec(g=TrigPoly(0.0, [1.0])),
        a=0.5,
        T=0.5,
        ctx=CTX,
    )
    with pytest.raises(ConfigurationError):
        mean_field_reference(prob, 0.0, uniform())
    ref = mean_field_reference(
        prob, 0.0, uniform(), RefConfig(m_ref=64, n_paths=2000, n_steps=40, seed=1)
    )
    assert ref.method == "surrogate-m64"
    assert ref.bias_budget > 0.0
    # uniform law: int cos d mu_T has mean 0, so the value is near 0
    assert abs(float(ref)) < 0.15


def test_flow_rejects_bad_inputs():
    prob = heat_problem()
    with pytest.raises(InputDomainError):
        fokker_planck_flow(prob, uniform(), 0.9, 0)
    with pytest.raises(InputDomainError):
        fokker_planck_flow(prob, uniform(), 1.5, 100)
    noisy = ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(), a=0.1, T=1.0, ctx=CTX
    )
    with pytest.raises(InputDomainError):
        fokker_planck_flow(noisy, uniform(), 0.0, 100)


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
