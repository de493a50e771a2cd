import numpy as np
import pytest

from mfrl.errors import ConfigurationError, InputDomainError
from mfrl.meanfield import (
    RefConfig,
    default_flow_steps,
    deposit_empirical,
    fokker_planck_flow,
    fokker_planck_flow_batch,
    mean_field_reference,
    mean_field_reference_batch,
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
    batch = mean_field_reference_batch(prob, 0.0, rho)
    scalar = mean_field_reference(prob, 0.0, GridDensity(rho[:, 0]))
    assert batch[0] == pytest.approx(scalar.value, abs=1e-10)


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
