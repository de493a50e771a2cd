import os
import signal
from math import sqrt

import numpy as np
import pytest

from mfrl import mc
from mfrl.errors import InputDomainError
from mfrl.fd import fd_solve, required_time_steps
from mfrl.mc import McEstimate, hat_v, mc_path_values, mc_solve_linear, resample_tuples
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, GridDensity, TorusContext
from mfrl.trig import TrigPoly

CTX = TorusContext(1, 64)


def null_problem(a=0.0, T=1.0):
    return ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.0, [1.0])), a=a, T=T, ctx=CTX
    )


def linear_problem():
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4], [0.2]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    return ProblemSpec(ham, term, a=0.25, T=0.5, ctx=CTX)


def test_constant_terminal_zero_variance():
    prob = ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.9)), T=1.0, ctx=CTX
    )
    est = mc_solve_linear(prob, 3, 0.2, np.array([0.1, 1.0, 2.0]), 500, 10, seed=1)
    assert est.mean == pytest.approx(0.9, abs=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)


def test_heat_semigroup_within_three_sigma():
    prob = null_problem()
    cfg = np.array([0.3, 1.7, 4.0])
    est = mc_solve_linear(prob, 3, 0.25, cfg, n_paths=40_000, n_steps=60, seed=7)
    exact = np.exp(-0.75) * np.cos(cfg).mean()
    assert abs(est.mean - exact) <= 3 * est.std_error + 2e-3


def test_quadratic_family_rejected():
    prob = ProblemSpec(
        HamiltonianSpec("quadratic", lam=1.0), TerminalSpec(), T=1.0, ctx=CTX
    )
    with pytest.raises(InputDomainError):
        mc_solve_linear(prob, 1, 0.0, np.array([0.0]), 10, 10, seed=0)


def test_agreement_with_fd_on_linear_benchmark():
    prob = linear_problem()
    vn = fd_solve(prob, 2, 48, required_time_steps(prob, 2, 48))
    cfgs = np.array([[0.5, 2.5], [1.0, 1.0], [3.1, 5.9]])
    fd_vals = vn.value(0.1, cfgs)
    vals = mc_path_values(prob, cfgs, 0.1, n_paths=40_000, n_steps=80, seed=11)
    mc_mean = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / np.sqrt(40_000)
    fd_budget = 5e-3  # spatial discretization + interpolation at mesh 48
    assert np.all(np.abs(fd_vals - mc_mean) <= 3 * se + fd_budget)


def test_determinism_and_estimate_fields():
    prob = null_problem()
    e1 = mc_solve_linear(prob, 2, 0.5, np.array([1.0, 2.0]), 300, 20, seed=5)
    e2 = mc_solve_linear(prob, 2, 0.5, np.array([1.0, 2.0]), 300, 20, seed=5)
    assert e1 == e2
    assert isinstance(e1, McEstimate) and e1.n_paths == 300 and e1.seed == 5


def test_std_error_halves_with_quadruple_paths():
    prob = null_problem()
    cfg = np.array([0.3, 2.2])
    e1 = mc_solve_linear(prob, 2, 0.0, cfg, 4_000, 30, seed=2)
    e2 = mc_solve_linear(prob, 2, 0.0, cfg, 16_000, 30, seed=3)
    assert e2.std_error == pytest.approx(e1.std_error / 2, rel=0.2)


def test_terminal_time_returns_terminal_value():
    prob = null_problem(T=0.5)
    cfg = np.array([0.4, 1.2])
    est = mc_solve_linear(prob, 2, 0.5, cfg, 100, 10, seed=0)
    assert est.mean == pytest.approx(np.cos(cfg).mean(), abs=1e-14)


def test_resample_tuples_shapes_and_support():
    mu = EmpiricalMeasure(np.array([[0.5], [2.5]]))
    tuples = resample_tuples(mu, 4, 10, seed=1)
    assert tuples.shape == (10, 4)
    assert np.all(np.isin(tuples, mu.atoms[:, 0]))


def test_hat_v_constant_accessor():
    dens = GridDensity(np.ones(64))
    est = hat_v(lambda t, cfg: 1.25, 0.1, dens, 3, 32, seed=4)
    assert est.mean == pytest.approx(1.25, abs=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)


def _field(poly, x):
    """(1/N) sum_j K(x_i - x_j), one temporary per operation."""
    out = np.full_like(x, poly.const)
    for k in range(1, poly.degree + 1):
        ck, sk = np.cos(k * x), np.sin(k * x)
        cm = ck.mean(axis=-1, keepdims=True)
        sm = sk.mean(axis=-1, keepdims=True)
        a, b = poly.cos_coeffs[k - 1], poly.sin_coeffs[k - 1]
        out += ck * (a * cm - b * sm) + sk * (a * sm + b * cm)
    return out


def _serial_paths(problem, starts, t, n_paths, n_steps, seed):
    """The Euler-Maruyama step loop on one thread, all paths at once."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    m_batch, n_particles = starts.shape
    x = np.broadcast_to(starts[:, None, :], (m_batch, n_paths, n_particles)).copy()
    drift = problem.hamiltonian.drift_kernel
    cost = problem.hamiltonian.cost_kernel
    running = np.zeros((m_batch, n_paths))
    dt = (problem.T - t) / n_steps
    sig_w = sqrt(2.0 * dt)
    sig_b = sqrt(2.0 * problem.a * dt)
    for step in range(n_steps):
        weight = 0.5 if step == 0 else 1.0
        running += weight * dt * _field(cost, x).mean(axis=-1)
        incr = np.zeros_like(x)
        incr += dt * _field(drift, x)
        incr += sig_w * rng.standard_normal(x.shape)
        incr += sig_b * rng.standard_normal((m_batch, n_paths, 1))
        x += incr
    running += 0.5 * dt * _field(cost, x).mean(axis=-1)
    return running + problem.terminal.value_atoms(x)


@pytest.mark.parametrize("cpus", [None, 3])
@pytest.mark.parametrize("shape", [(2, 40, 5), (3, 1500, 11)])
def test_paths_bit_identical_to_serial_loop(shape, cpus, monkeypatch):
    m_batch, n_paths, n_particles = shape
    if cpus is not None:
        monkeypatch.setattr(mc, "_cpu_count", lambda: cpus)
    n_chunks = len(mc._row_chunks(m_batch * n_paths, n_particles))
    assert (n_chunks > 1) == (
        m_batch * n_paths * n_particles >= mc._SPLIT_MIN and mc._cpu_count() > 1
    )
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.0], [0.6]),
        cost_kernel=TrigPoly(0.1, [0.2, 0.3], [0.0, -0.4]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    prob = ProblemSpec(ham, term, a=0.5, T=0.5, ctx=CTX)
    starts = np.random.default_rng(9).uniform(0.0, TWO_PI, (m_batch, n_particles))
    got = mc_path_values(prob, starts, 0.1, n_paths, 12, seed=21)
    want = _serial_paths(prob, starts, 0.1, n_paths, 12, seed=21)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_split_steps(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
    prob = linear_problem()
    starts = np.random.default_rng(5).uniform(0.0, TWO_PI, (4, 16))
    want = mc_path_values(prob, starts, 0.1, 500, 5, seed=3)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)
            got = mc_path_values(prob, starts, 0.1, 500, 5, seed=3)
            code = 0 if np.array_equal(got, want) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("t", [-3.0, -1e-12, 0.5 + 1e-9, float("nan")])
def test_time_outside_the_horizon_is_rejected(t):
    prob = linear_problem()  # T = 0.5
    with pytest.raises(InputDomainError):
        mc_path_values(prob, np.array([[0.5, 2.5]]), t, 10, 5, seed=0)


def test_call_on_a_pool_worker_takes_one_row_chunk(monkeypatch):
    monkeypatch.setattr(mc, "_cpu_count", lambda: 2)
    counts = []
    row_chunks = mc._row_chunks

    def counted(n_rows, n_particles):
        chunks = row_chunks(n_rows, n_particles)
        counts.append(len(chunks))
        return chunks

    monkeypatch.setattr(mc, "_row_chunks", counted)
    prob = linear_problem()
    starts = np.random.default_rng(5).uniform(0.0, TWO_PI, (4, 16))
    assert 4 * 500 * 16 >= mc._SPLIT_MIN
    here = mc_path_values(prob, starts, 0.1, 500, 5, seed=3)
    there = mc.worker_pool().submit(mc_path_values, prob, starts, 0.1, 500, 5, 3).result()
    assert counts == [2, 1]
    assert np.array_equal(here.view(np.int64), there.view(np.int64))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_on_a_one_worker_pool_finishes():
    # The child builds a one-worker pool and then sees two CPUs, so every
    # step above _SPLIT_MIN would fan out: a whole call that did so on the
    # worker would wait on chunks queued behind itself for ever.
    from mfrl.ratelab import ExperimentPlan, run_rate_experiment

    plan = ExperimentPlan(
        problem=linear_problem(),
        n_list=(2, 4, 16),
        n_time_points=1,
        n_configs=8,
        n_paths=2100,
        n_steps=3,
        seed=2,
    )
    assert 8 * 2 * 2100 >= mc._SPLIT_MIN and mc.runs_whole((8, 2), 2100)
    assert not mc.runs_whole((8, 16), 2100)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)
            mc._cpu_count = lambda: 1
            assert mc.worker_pool()._max_workers == 1
            mc._cpu_count = lambda: 2
            run_rate_experiment(plan)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
