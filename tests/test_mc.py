import os
import signal
from math import log, sqrt

import numpy as np
import pytest
from scipy.special import ndtr

from mfrl import mc
from mfrl.errors import InputDomainError, ResourceBudgetError
from mfrl.fd import fd_solve, required_time_steps
from mfrl.mc import McEstimate, mc_path_values, mc_solve_linear, resample_tuples
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.torus import TWO_PI, EmpiricalMeasure, TorusContext, seeded_generator
from mfrl.trig import TrigPoly, mean_field_eval

CTX = TorusContext(1, 64)


def null_problem(a=0.0, T=1.0):
    return ProblemSpec(
        HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.0, [1.0])), a=a, T=T, ctx=CTX
    )


def linear_problem(a=0.25):
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.4], [0.2]),
        cost_kernel=TrigPoly(0.1, [0.0, 0.3]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    return ProblemSpec(ham, term, a=a, T=0.5, ctx=CTX)


def interaction_problem(a):
    """Criterion 8's problem: a sin interaction drift and no running cost."""
    ham = HamiltonianSpec("linear", drift_kernel=TrigPoly(0.0, [0.0], [0.5]))
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    return ProblemSpec(ham, term, a=a, T=0.5, ctx=CTX)


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


def _mean(x):
    """The particle mean of each row: a row-wise sum over the last axis, / N."""
    return np.einsum("...j->...", x) / x.shape[-1]


def _field(poly, x):
    """(1/N) sum_j K(x_i - x_j) in the dtype of x, one temporary per operation."""
    out = np.full_like(x, poly.const)
    coeffs = zip(poly.cos_coeffs.astype(x.dtype), poly.sin_coeffs.astype(x.dtype))
    for k, (a, b) in enumerate(coeffs, start=1):
        ck, sk = np.cos(k * x), np.sin(k * x)
        cm = _mean(ck)[..., None]
        sm = _mean(sk)[..., None]
        out += ck * (a * cm - b * sm) + sk * (a * sm + b * cm)
    return out


def _normals(rng, size):
    """``size`` standard normals by the float32 Box-Muller transform, as float64.

    The uniforms of one call to ``rng.random`` pair up as (u1, u2) =
    (first half, second half); the cosines fill the first half of the result.
    """
    half = (size + 1) // 2
    u1, u2 = rng.random((2, half), dtype=np.float32)
    r = np.sqrt(np.log(np.float32(1.0) - u1) * np.float32(-2.0))
    angle = u2 * np.float32(2.0 * np.pi)
    # radius, sine and cosine are float32; their product is taken in float64
    z = np.concatenate([np.cos(angle).astype(float) * r, np.sin(angle).astype(float) * r])
    return z[:size]


def _serial_paths(problem, starts, t, n_paths, n_steps, seed, field_dtype=np.float32):
    """The Euler-Maruyama step loop on one thread, all paths at once.

    The fields are evaluated on the positions cast to ``field_dtype``: float32
    is the estimator of ``mc_path_values``, float64 the step it approximates.
    Everything else is float64.
    """

    def field(poly, x):
        return _field(poly, x.astype(field_dtype))

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
        running += weight * dt * _mean(field(cost, x)).astype(float)
        # one draw per step: every particle's normal, then one per path if a > 0
        z = _normals(rng, x.size + (m_batch * n_paths if sig_b else 0))
        incr = np.zeros_like(x)
        incr += dt * field(drift, x).astype(float)
        incr += sig_w * z[: x.size].reshape(x.shape)
        if sig_b:
            incr += sig_b * z[x.size :].reshape(m_batch, n_paths, 1)
        x += incr
    running += 0.5 * dt * _mean(field(cost, x)).astype(float)
    return running + problem.terminal.value_atoms(x)


#: every |z| of the float32 Box-Muller transform: r = sqrt(-2 log(1 - u1))
#: and 1 - u1 >= 2^-24
Z_BOUND = sqrt(48.0 * log(2.0))


def test_box_muller_draws_are_standard_normal():
    n = 10**6
    z = np.empty(n)
    mc.BoxMuller(n).fill(mc.UniformStream(2024), 0, z)
    # Kolmogorov-Smirnov distance to Phi, against its 1% critical value
    ks = np.max(np.abs(ndtr(np.sort(z)) - (np.arange(n) + 0.5) / n)) + 0.5 / n
    assert ks < 1.628 / sqrt(n)
    # mean, variance, skew and excess kurtosis, each within 5 standard errors
    c = z - z.mean()
    var = np.mean(c**2)
    moments = [z.mean(), var - 1.0, np.mean(c**3) / var**1.5, np.mean(c**4) / var**2 - 3.0]
    std_errors = np.sqrt(np.array([1.0, 2.0, 6.0, 24.0]) / n)
    assert np.all(np.abs(moments) <= 5.0 * std_errors), moments
    assert np.max(np.abs(z)) <= Z_BOUND


def test_box_muller_extreme_uniform_stays_inside_the_bound():
    normals = mc.BoxMuller(8)
    normals.uniforms[0] = np.float32(1.0 - 2.0**-24)  # 1 - u1 = 2^-24
    normals.uniforms[1] = [0.0, 0.25, 0.5, 0.75]
    z = np.empty(8)
    normals.transform(z[:4], z[4:])
    assert np.max(np.abs(z)) <= Z_BOUND
    assert np.max(np.abs(z)) == pytest.approx(Z_BOUND, rel=1e-6)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 1001])
def test_box_muller_fills_every_size_and_repeats_with_its_key(size):
    draws = []
    for key in (5, 5, 6):
        z = np.full(size + 1, np.nan)
        mc.BoxMuller(size).fill(mc.UniformStream(key), 0, z[:size])
        assert np.all(np.isfinite(z[:size])) and np.isnan(z[size])
        draws.append(z[:size])
    assert np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[0], draws[2])
    # the layout: cosines first, then sines, one uniform pair per two draws;
    # consecutive steps read on where the last one stopped, inside a Philox
    # block of four words when the step's word count is not a multiple of 4
    normals, stream, oracle = mc.BoxMuller(size), mc.UniformStream(5), seeded_generator(5)
    for step in range(3):
        z = np.empty(size)
        normals.fill(stream, step, z)
        assert np.array_equal(z.view(np.int64), _normals(oracle, size).view(np.int64))


@pytest.mark.parametrize("first", [0, 1, 2, 7, 8, 9, 13, 100_001])
def test_uniform_stream_reads_from_any_index(first):
    # any stretch of the stream equals numpy's float32 draw at that place
    want = seeded_generator(3).random(first + 70_000, dtype=np.float32)[first:]
    stream = mc.UniformStream(3)
    for lo, hi in ((0, 5), (5, 6), (6, 70_000), (2, 9), (0, 70_000)):
        got = np.empty(hi - lo, dtype=np.float32)
        stream.read(first + lo, got)
        assert np.array_equal(got, want[lo:hi])


@pytest.mark.parametrize("cpus", [None, 3])
@pytest.mark.parametrize("shape", [(2, 40, 5), (3, 1500, 11)])
def test_paths_bit_identical_to_serial_loop(shape, cpus, monkeypatch):
    # ``cpus`` sizes the worker pool (None: one worker per CPU); a call
    # equals the serial loop both in this process and on a worker
    m_batch, n_paths, n_particles = shape
    if cpus is not None:
        monkeypatch.setattr(mc, "_POOL", None)
        monkeypatch.setattr(mc, "_cpu_count", lambda: cpus)
    ham = HamiltonianSpec(
        "linear",
        drift_kernel=TrigPoly(0.0, [0.0], [0.6]),
        cost_kernel=TrigPoly(0.1, [0.2, 0.3], [0.0, -0.4]),
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0, 0.5]))
    prob = ProblemSpec(ham, term, a=0.5, T=0.5, ctx=CTX)
    starts = np.random.default_rng(9).uniform(0.0, TWO_PI, (m_batch, n_particles))
    pool = mc.worker_pool()
    assert pool._max_workers == (cpus or mc._cpu_count())
    try:
        there, _ = pool.submit(mc.path_job, prob, starts, 0.1, n_paths, 12, 21).result()
    finally:
        if cpus is not None:
            pool.shutdown(wait=True)
    got = mc_path_values(prob, starts, 0.1, n_paths, 12, seed=21)
    want = _serial_paths(prob, starts, 0.1, n_paths, 12, seed=21)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(there.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("ranges", [1, 2, 3])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("shape", [(3, 7, 5), (3, 7, 4), (2, 41, 3), (4, 500, 8)])
def test_row_ranges_concatenate_to_the_whole_call(shape, a, ranges):
    # linear_problem has a drift and a running cost; (3, 7, 5) at a = 0 and
    # (3, 7, 4) at a = 0.5 draw an odd count of normals per step, so a range
    # can end in the middle of a pair or of a 64-bit word
    m_batch, n_paths, n_particles = shape
    prob = linear_problem(a)
    starts = np.random.default_rng(4).uniform(0.0, TWO_PI, (m_batch, n_particles))
    whole, _ = mc.path_job(prob, starts, 0.1, n_paths, 7, 19)
    n_rows = m_batch * n_paths
    bounds = [n_rows * k // ranges for k in range(ranges + 1)]
    jobs = [(prob, starts, 0.1, n_paths, 7, 19, rows) for rows in zip(bounds, bounds[1:])]
    here = np.concatenate([mc.path_job(*job)[0] for job in jobs])
    pool = mc.worker_pool()
    futures = [pool.submit(mc.path_job, *job) for job in jobs]
    there = np.concatenate([f.result()[0] for f in futures])
    assert whole.shape == (m_batch, n_paths)
    assert np.array_equal(here.view(np.int64), whole.reshape(-1).view(np.int64))
    assert np.array_equal(there.view(np.int64), whole.reshape(-1).view(np.int64))


@pytest.mark.parametrize("cpus", [2, 3])
def test_large_direct_call_is_split_over_the_pool(cpus, monkeypatch, caplog):
    prob = linear_problem(0.5)
    starts = np.random.default_rng(6).uniform(0.0, TWO_PI, (3, 5))
    want = _serial_paths(prob, starts, 0.1, 41, 6, seed=8)
    with monkeypatch.context() as m:
        m.setattr(mc, "_POOL", None)
        m.setattr(mc, "_cpu_count", lambda: cpus)
        try:
            # below the threshold the call runs here and forks no pool
            m.setattr(mc, "_SPLIT_MIN", 3 * 41 * 5 * 6 + 1)
            small = mc_path_values(prob, starts, 0.1, 41, 6, seed=8)
            assert mc._POOL is None
            m.setattr(mc, "_SPLIT_MIN", 3 * 41 * 5 * 6)
            with caplog.at_level("DEBUG", logger="mfrl.mc"):
                split = mc_path_values(prob, starts, 0.1, 41, 6, seed=8)
            assert mc._POOL is not None and len(mc._POOL._processes) == cpus
        finally:
            if mc._POOL is not None:
                mc._POOL.shutdown(wait=True)
    assert np.array_equal(small.view(np.int64), want.view(np.int64))
    assert np.array_equal(split.view(np.int64), want.view(np.int64))
    # one line for the call, not one per range
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.mc"]
    assert len(lines) == 1 and lines[0].startswith("mc paths: N 5, t 0.1, 3690 particle-steps, ")


def killed_job(*args, **kwargs):
    """``mc.path_job``'s stand-in that kills the worker process running it."""
    os.kill(os.getpid(), signal.SIGKILL)


def test_dead_worker_ends_a_split_call_with_a_budget_error(monkeypatch):
    prob = linear_problem()
    starts = np.random.default_rng(6).uniform(0.0, TWO_PI, (2, 4))
    want = mc_path_values(prob, starts, 0.1, 30, 5, seed=2)
    with monkeypatch.context() as m:
        m.setattr(mc, "_POOL", None)
        m.setattr(mc, "_cpu_count", lambda: 2)
        m.setattr(mc, "_SPLIT_MIN", 1)
        m.setattr(mc, "path_job", killed_job)
        with pytest.raises(ResourceBudgetError, match="worker process died"):
            mc_path_values(prob, starts, 0.1, 30, 5, seed=2)
        assert mc._POOL is None  # the broken pool was dropped
    assert np.array_equal(mc_path_values(prob, starts, 0.1, 30, 5, seed=2), want)


@pytest.mark.parametrize("n_particles", [4, 32])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("make_problem", [interaction_problem, linear_problem])
def test_paths_track_the_float64_step(make_problem, a, n_particles):
    prob = make_problem(a)
    starts = np.random.default_rng(17).uniform(0.0, TWO_PI, (2, n_particles))
    got = mc_path_values(prob, starts, 0.0, 400, 60, seed=13)
    want = _serial_paths(prob, starts, 0.0, 400, 60, 13, field_dtype=np.float64)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_mean_field_eval_keeps_float32_and_float64_apart():
    kernel = TrigPoly(0.1, [0.2, 0.5], [0.3, -0.4])
    x = np.random.default_rng(8).uniform(0.0, TWO_PI, (4, 7))
    out = mean_field_eval(kernel, x)
    out32 = mean_field_eval(kernel, x.astype(np.float32))
    assert out.dtype == np.float64 and out32.dtype == np.float32
    assert np.array_equal(out, _field(kernel, x))
    assert np.array_equal(out32, _field(kernel, x.astype(np.float32)))
    # the pairwise sum (1/N) sum_j K(x_i - x_j) of test_trig.py
    direct = np.array([[np.mean(kernel(xi - row)) for xi in row] for row in x])
    assert np.max(np.abs(out - direct)) <= 1e-12
    assert np.max(np.abs(out32 - direct)) <= 1e-6
    assert mean_field_eval(TrigPoly(0.5), x.astype(np.float32)).dtype == np.float32


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_split_steps():
    # The name predates the worker processes: the child inherits the
    # parent's pool object but none of its processes, and its calls, in
    # the child and on a pool of two workers of its own, equal the parent's.
    prob = linear_problem()
    starts = np.random.default_rng(5).uniform(0.0, TWO_PI, (4, 16))
    want = mc_path_values(prob, starts, 0.1, 500, 5, seed=3)
    mc.worker_pool()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)
            assert mc._POOL is None
            mc._cpu_count = lambda: 2
            here = mc_path_values(prob, starts, 0.1, 500, 5, seed=3)
            there, _ = mc.worker_pool().submit(mc.path_job, prob, starts, 0.1, 500, 5, 3).result()
            code = 0 if np.array_equal(here, want) and np.array_equal(there, want) else 1
        finally:
            if mc._POOL is not None:
                mc._POOL.shutdown(wait=True)
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("t", [-3.0, -1e-12, 0.5 + 1e-9, float("nan")])
def test_time_outside_the_horizon_is_rejected(t):
    prob = linear_problem()  # T = 0.5
    with pytest.raises(InputDomainError):
        mc_path_values(prob, np.array([[0.5, 2.5]]), t, 10, 5, seed=0)


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_starts_are_rejected_before_the_paths_are_allocated(monkeypatch, bad):
    # refused before the budget check, which comes before any path array
    def budget(*args):
        raise AssertionError("budget checked")

    monkeypatch.setattr(mc, "check_path_budget", budget)
    with pytest.raises(InputDomainError, match="finite"):
        mc_path_values(linear_problem(), np.array([[bad, 1.0]]), 0.1, 4, 5, seed=0)


def test_path_budget_admits_criterion_8_and_refuses_larger_calls():
    mc.check_path_budget(48, 2000, 64)  # 6.1e6 coordinates, about 197 MB
    for m_batch, n_paths, n in ((1, 2**25, 32), (48, 2000, 2**20), (1, 2**62, 2)):
        with pytest.raises(ResourceBudgetError):
            mc.check_path_budget(m_batch, n_paths, n)
    with pytest.raises(ResourceBudgetError):
        mc_path_values(linear_problem(), np.array([[0.5, 2.5]]), 0.1, 2**62, 5, seed=0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_on_a_one_worker_pool_finishes():
    # A forked child inherits the parent's pool object but none of its
    # processes: it forks a pool of its own, here of one worker, whose
    # sweep must equal the parent's.
    from mfrl.ratelab import ExperimentPlan, run_rate_experiment

    plan = ExperimentPlan(
        problem=linear_problem(),
        n_list=(2, 4, 16),
        n_time_points=2,
        n_configs=8,
        n_paths=300,
        n_steps=3,
        seed=2,
    )
    want = run_rate_experiment(plan).to_json()
    parent_pool = mc.worker_pool()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(60)
            assert mc._POOL is None
            mc._cpu_count = lambda: 1
            got = run_rate_experiment(plan).to_json()
            assert mc._POOL is not parent_pool and len(mc._POOL._processes) == 1
            code = 0 if got == want else 1
        finally:
            if mc._POOL is not None:
                mc._POOL.shutdown(wait=True)
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
