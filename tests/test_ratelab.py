import contextlib
import dataclasses
import functools
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfrl.meanfield
import mfrl.ratelab
import mfrl.torus
from mfrl import mc
from mfrl.cli import EXIT_PRECONDITION, main
from mfrl.errors import DivergenceError, InputDomainError, ResourceBudgetError
from mfrl.mc import mc_path_values
from mfrl.meanfield import empirical_moments, mean_field_reference_batch
from mfrl.metric import rho_star
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.ratelab import (
    SEED_TAGS,
    ComplexityRow,
    ComplexityTable,
    ExperimentPlan,
    RateReport,
    _derived_seed,
    fit_rate,
    run_rate_experiment,
    sample_complexity_experiment,
)
from mfrl.torus import (
    TWO_PI,
    GridDensity,
    TorusContext,
    empirical_coefficients,
    sample_iid,
    sample_rows,
    w1_circle_density,
    w1_density_rows,
)
from mfrl.trig import TrigPoly

from recorded import DATA, fail_on_differences

CTX = TorusContext(1, 64)


def null_problem(a=0.0):
    return ProblemSpec(
        HamiltonianSpec("zero"),
        TerminalSpec(g=TrigPoly(0.0, [1.0])),
        a=a,
        T=0.5,
        ctx=CTX,
    )


def small_plan(**overrides):
    defaults = dict(
        problem=null_problem(),
        n_list=(2, 4, 8),
        n_time_points=2,
        n_configs=8,
        n_paths=400,
        n_steps=25,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def test_fit_rate_recovers_exact_power_law():
    alphas = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 2.0 * alphas**0.7
    beta, c, residuals = fit_rate(np.column_stack([alphas, errs]))
    assert beta == pytest.approx(0.7, abs=1e-12)
    assert c == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(residuals)) < 1e-12


def test_fit_rate_input_validation():
    with pytest.raises(InputDomainError):
        fit_rate([(0.5, 1.0), (0.25, 0.5)])
    with pytest.raises(InputDomainError):
        fit_rate([(0.5, 1.0), (0.25, 0.5), (0.125, 0.0)])


def test_plan_validation_and_roundtrip():
    with pytest.raises(InputDomainError):
        small_plan(n_list=(4, 4, 8))
    with pytest.raises(InputDomainError):
        small_plan(n_list=(4, 8))
    with pytest.raises(InputDomainError):
        small_plan(n_paths=0)
    plan = small_plan()
    doc = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    doc = {**doc, "problem": plan.problem.to_dict(), "n_list": list(plan.n_list)}
    back = ExperimentPlan.from_dict(doc)
    assert back.problem.to_dict() == plan.problem.to_dict()
    assert dataclasses.replace(back, problem=plan.problem) == plan
    with pytest.raises(InputDomainError):
        ExperimentPlan.from_dict({**doc, "bogus": 1})
    with pytest.raises(InputDomainError):
        ExperimentPlan.from_dict({"n_list": [2, 4, 8]})
    for bad in (dict(n_configs=True), dict(seed=1.0), dict(n_list=(0, 2, 4))):
        with pytest.raises(InputDomainError):
            small_plan(**bad)


def test_seed_tags_bound_the_time_points_and_the_trials(monkeypatch, tmp_path, capsys):
    # _derived_seed gives tags SEED_TAGS apart of consecutive N one seed
    assert _derived_seed(7, 4, SEED_TAGS) == _derived_seed(7, 5, 0)
    # a sweep draws with tags 0 .. n_time_points, a complexity table with
    # tags 0 .. n_trials - 1: both refused before anything is drawn, and a
    # plan after its flow budget (test_cli.py's huge n_time_points)
    assert small_plan(n_time_points=SEED_TAGS - 1).n_time_points == SEED_TAGS - 1
    with pytest.raises(InputDomainError, match="n_time_points"):
        small_plan(n_time_points=SEED_TAGS)
    plan = small_plan()
    doc = {"version": 1, "plan": {"problem": plan.problem.to_dict(), "n_list": [2, 4, 8]}}
    doc["plan"]["n_time_points"] = SEED_TAGS
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert main(["rate", "--plan", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert "n_time_points" in capsys.readouterr().err

    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(mfrl.ratelab, "sample_rows", drawn)
    mu = GridDensity(np.full(64, 1.0 / TWO_PI))
    with pytest.raises(InputDomainError, match="n_trials"):
        sample_complexity_experiment(mu, [4, 8], n_trials=SEED_TAGS + 1, seed=0)
    with pytest.raises(Drawn):
        sample_complexity_experiment(mu, [4, 8], n_trials=SEED_TAGS, seed=0)


def test_run_rate_experiment_deterministic_and_well_formed():
    plan = small_plan()
    r1 = run_rate_experiment(plan)
    r2 = run_rate_experiment(plan)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    assert isinstance(r1, RateReport)
    assert [row.N for row in r1.rows] == [2, 4, 8]
    assert all(row.sup_error > 0 for row in r1.rows)
    assert r1.metadata["reference"] == "spectral-fp"
    assert r1.metadata["surrogate_bias_budget"] == 0.0
    header = r1.to_csv().splitlines()[0]
    assert header == "N,alpha,alpha_cbrt,sup_error,mc_std,notes"


def test_sweep_runs_one_flow_for_every_n_and_time(monkeypatch):
    calls = []
    flow = mfrl.meanfield.fokker_planck_flow_batch

    def counted(problem, rho0, t, n_t, observe=None):
        calls.append((rho0.shape, t, n_t))
        return flow(problem, rho0, t, n_t, observe)

    monkeypatch.setattr(mfrl.meanfield, "fokker_planck_flow_batch", counted)
    plan = small_plan(n_time_points=3)
    report = run_rate_experiment(plan)
    # the moments l = 0..128 of 8 configurations of each of 3 particle
    # counts, all from t = 0
    assert calls == [((129, 24), 0.0, report.metadata["fp_steps"])]
    assert report.metadata["fp_steps"] % 3 == 0
    assert report.metadata["fp_modes"] == 128
    assert report.metadata["fp_step_bound"] == "floor 64 over RK4 0"
    assert 0.0 <= report.metadata["fp_mode_tail"] < 1e-40


def test_common_noise_sweep_runs_one_flow_without_noise(monkeypatch):
    calls = []
    flow = mfrl.meanfield.fokker_planck_flow_batch

    def counted(problem, rho0, t, n_t, observe=None):
        calls.append((problem.a, rho0.shape, t, n_t))
        return flow(problem, rho0, t, n_t, observe)

    monkeypatch.setattr(mfrl.meanfield, "fokker_planck_flow_batch", counted)
    report = run_rate_experiment(small_plan(problem=null_problem(a=0.5), n_paths=100))
    # the a = 0 flow of every configuration; the noise enters through G alone
    assert calls == [(0.0, (129, 24), 0.0, report.metadata["fp_steps"])]
    assert report.metadata["fp_steps"] > 0
    assert 0.0 <= report.metadata["fp_mode_tail"] < 1e-40
    assert report.metadata["reference"] == "spectral-fp-shift"
    assert report.metadata["surrogate_bias_budget"] == 0.0


def test_noise_free_report_is_byte_identical_to_recorded():
    # the benchmark's rate_meanfield plan at seed 1; the recorded report was
    # made with the Monte Carlo fields and the Box-Muller normals evaluated in
    # float32, so it pins numpy's vectorized float32 sin, cos, log and sqrt
    # as well as the float64 code (numpy 2.4.6, x86-64 AVX-512)
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.0, [0.0], [0.5]), cost_kernel=TrigPoly()
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    plan = ExperimentPlan(
        problem=ProblemSpec(ham, term, a=0.0, T=0.5, ctx=CTX),
        n_list=(4, 8, 16, 32),
        n_time_points=2,
        n_configs=4,
        n_paths=500,
        n_steps=60,
        seed=1,
    )
    got = run_rate_experiment(plan).to_json()
    recorded = (DATA / "rate_meanfield_seed1.json").read_text()
    if got != recorded:
        fail_on_differences("report", json.loads(recorded), json.loads(got))


def interaction_problem(a):
    ham = HamiltonianSpec(
        "linear", drift_kernel=TrigPoly(0.0, [0.0], [0.5]), cost_kernel=TrigPoly(0.1, [0.2])
    )
    term = TerminalSpec(g=TrigPoly(0.0, [1.0]), h=TrigPoly(0.0, [0.0], [1.0]))
    return ProblemSpec(ham, term, a=a, T=0.5, ctx=CTX)


def serial_sweep(plan):
    """(sup_error, mc_std) per N: one mc_path_values call after another."""
    problem = plan.problem
    t_points = np.linspace(0.0, problem.T, plan.n_time_points, endpoint=False)
    draws = []
    for n in plan.n_list:
        rng = np.random.Generator(np.random.Philox(key=_derived_seed(plan.seed, n, 0)))
        draws.append((n, rng.uniform(0.0, TWO_PI, size=(plan.n_configs, n))))
    moments = np.hstack([empirical_moments(configs, plan.ref_mesh // 2) for _, configs in draws])
    refs, _ = mean_field_reference_batch(problem, t_points, moments, plan.ref_steps)
    out = []
    for i, (n, configs) in enumerate(draws):
        sup_error = mc_std = 0.0
        for ti, t in enumerate(t_points):
            seed = _derived_seed(plan.seed, n, ti + 1)
            vals = mc_path_values(problem, configs, float(t), plan.n_paths, plan.n_steps, seed)
            ref = refs[ti, i * plan.n_configs : (i + 1) * plan.n_configs]
            gap = np.abs(vals.mean(axis=1) - ref)
            se = vals.std(axis=1, ddof=1) / np.sqrt(plan.n_paths)
            sup_error = max(sup_error, float(np.max(gap)))
            mc_std = max(mc_std, float(np.max(se)))
        out.append((sup_error, mc_std))
    return out


@contextlib.contextmanager
def own_pool(monkeypatch, workers):
    """A pool of ``workers`` processes for the block, shut down at its end.

    Workers are forked when the block first submits a job, so they see what
    the block patched before that, and no later test sees it.
    """
    with monkeypatch.context() as m:
        m.setattr(mc, "_cpu_count", lambda: workers)
        m.setattr(mc, "_POOL", None)
        try:
            yield m
        finally:
            if mc._POOL is not None:
                mc._POOL.shutdown(wait=True)


@pytest.mark.parametrize(
    "workers, one_in_flight",
    [(1, False), (2, False), (3, False), (2, True)],
    ids=["1-worker", "2-workers", "3-workers", "one-in-flight"],
)
def test_concurrent_sweep_matches_serial_loop_bit_for_bit(workers, one_in_flight, monkeypatch):
    # the sweep submits its calls longest first and reads them as they finish
    plan = small_plan(problem=interaction_problem(0.5), n_time_points=3)
    with own_pool(monkeypatch, workers) as m:
        if one_in_flight:  # the budget holds the largest call once and no more
            budget = 2 * plan.n_configs * plan.n_paths * 8 * 32 - 1
            m.setattr(mfrl.ratelab, "PATH_BYTES_BUDGET", budget)
        report = run_rate_experiment(plan)
    want = serial_sweep(plan)
    assert [(r.sup_error, r.mc_std) for r in report.rows] == want


def test_sweep_ignores_a_wrapped_mc_path_values(monkeypatch):
    # perfbench/tracing.py replaces this attribute with a closure, which a
    # worker process could not unpickle; the sweep submits mc.path_job
    plan = small_plan(problem=interaction_problem(0.5), n_time_points=2)
    original = mfrl.ratelab.mc_path_values
    seen = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mfrl.ratelab, "mc_path_values", wrapper)
    report = run_rate_experiment(plan)
    assert [(r.sup_error, r.mc_std) for r in report.rows] == serial_sweep(plan)
    assert seen == []


def held_job(tmp, problem, starts, t, n_paths, n_steps, seed):
    """``mc.path_job``, but the N = 16, t = 0 call fails and every other call
    waits (10 s at most) for the file ``release`` in ``tmp``; each marks its
    start and end there with a file named after its seed."""
    if starts.shape[1] == 16 and t == 0.0:
        raise DivergenceError("injected")
    (tmp / f"started-{seed}").touch()
    deadline = time.monotonic() + 10.0
    while not (tmp / "release").exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    out = mc.path_job(problem, starts, t, n_paths, n_steps, seed)
    (tmp / f"finished-{seed}").touch()
    return out


def test_failing_call_cancels_pending_jobs_and_propagates(monkeypatch, tmp_path):
    plan = small_plan(n_list=(2, 4, 8, 16), n_time_points=3)
    want = run_rate_experiment(plan).to_json()
    wait = mc.wait

    def release_then_wait(jobs):  # runs after the pending jobs were cancelled
        (tmp_path / "release").touch()
        return wait(jobs)

    def marked(what):
        return sorted(p.name.split("-", 1)[1] for p in tmp_path.glob(f"{what}-*"))

    with own_pool(monkeypatch, 2) as m:
        m.setattr(mfrl.ratelab, "path_job", functools.partial(held_job, tmp_path))
        m.setattr(mc, "wait", release_then_wait)
        with pytest.raises(DivergenceError, match="injected") as info:
            run_rate_experiment(plan)
        assert type(info.value) is DivergenceError
        # the failing call, the longest, is submitted first; of the 11 held
        # ones, one per worker started and the pool had moved at most three
        # more into its call queue, where they count as running: the rest
        # were cancelled, and every started call had finished
        started = marked("started")
        assert 1 <= len(started) <= 5 and marked("finished") == started
        mc.worker_pool().shutdown(wait=True)
        assert marked("started") == started
    assert run_rate_experiment(plan).to_json() == want


def killed_job(*args):
    """``mc.path_job``'s stand-in that kills the worker process running it."""
    os.kill(os.getpid(), signal.SIGKILL)


def test_dead_worker_ends_the_sweep_with_a_budget_error(monkeypatch, tmp_path, capsys):
    plan = small_plan(n_time_points=2)
    want = run_rate_experiment(plan).to_json()
    doc = {
        "version": 1,
        "plan": {
            "problem": plan.problem.to_dict(),
            "n_list": list(plan.n_list),
            **{k: getattr(plan, k) for k in ("n_time_points", "n_configs", "n_paths", "n_steps")},
        },
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with monkeypatch.context() as m:
        m.setattr(mfrl.ratelab, "path_job", killed_job)
        with pytest.raises(ResourceBudgetError, match="worker process died"):
            run_rate_experiment(plan)
        assert mc._POOL is None  # the broken pool was dropped
        capsys.readouterr()
        assert main(["rate", "--plan", str(path), "--out", str(tmp_path / "r.json")]) == (
            EXIT_PRECONDITION
        )
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert run_rate_experiment(plan).to_json() == want


def test_sweep_in_a_fresh_interpreter_leaves_no_worker_behind():
    code = """
import mfrl.mc as mc
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.ratelab import ExperimentPlan, run_rate_experiment
from mfrl.torus import TorusContext
from mfrl.trig import TrigPoly

problem = ProblemSpec(
    HamiltonianSpec("zero"), TerminalSpec(g=TrigPoly(0.0, [1.0])), a=0.0, T=0.5,
    ctx=TorusContext(1, 64),
)
plan = ExperimentPlan(problem, (2, 4, 8), n_time_points=2, n_configs=4, n_paths=50, n_steps=5)
run_rate_experiment(plan)
print(*sorted(mc.worker_pool()._processes))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == mc._cpu_count()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_debug_log_reports_every_mc_call(caplog):
    plan = small_plan(n_time_points=2)
    with caplog.at_level(logging.DEBUG, logger="mfrl.mc"):
        run_rate_experiment(plan)
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.mc"]
    pattern = re.compile(r"mc paths: N (\d+), t (\S+), (\d+) particle-steps, \d+\.\d{3} s")
    seen = []
    for line in lines:
        match = pattern.fullmatch(line)
        assert match, line
        n, t, steps = match.groups()
        assert int(steps) == plan.n_configs * plan.n_paths * int(n) * plan.n_steps
        seen.append((int(n), float(t)))
    # once per call, from this process, in sweep order
    assert seen == [(n, t) for n in plan.n_list for t in (0.0, 0.25)]


@pytest.mark.parametrize("one_in_flight", [False, True], ids=["all-in-flight", "one-in-flight"])
def test_info_log_sums_up_the_sweep_and_leaves_the_report_alone(
    one_in_flight, caplog, monkeypatch
):
    plan = small_plan(problem=interaction_problem(0.0), n_time_points=2)
    quiet = run_rate_experiment(plan).to_json()
    if one_in_flight:  # the budget holds the largest call once and no more
        monkeypatch.setattr(
            mfrl.ratelab, "PATH_BYTES_BUDGET", 2 * plan.n_configs * plan.n_paths * 8 * 32 - 1
        )
    with caplog.at_level(logging.INFO, logger="mfrl.ratelab"):
        report = run_rate_experiment(plan)
    assert report.to_json() == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.ratelab"]
    assert len(lines) == 1, lines
    match = re.fullmatch(
        r"rate sweep: (\d+) MC calls on (\d+) worker processes, at most (\d+) in flight, "
        r"(\d+) particle-steps; flow (\d+\.\d{3}) s; MC (\d+\.\d{3}) s wall, "
        r"(\d+\.\d{3}) s of it beside the flow, (\d+\.\d) ns per particle-step per core",
        lines[0],
    )
    assert match, lines[0]
    calls, workers, in_flight, steps, flow_s, wall_s, beside_s, ns = match.groups()
    assert (int(calls), int(workers)) == (6, mc._cpu_count())
    assert int(in_flight) == (1 if one_in_flight else 6)
    assert int(steps) == plan.n_configs * (2 + 4 + 8) * 2 * plan.n_paths * plan.n_steps
    assert float(flow_s) > 0.0 and float(wall_s) > 0.0
    assert float(beside_s) <= min(float(flow_s), float(wall_s)) + 1e-3
    # the cost per core comes from the seconds the calls took, summed: at most
    # the MC wall time on every worker
    assert 0.0 < float(ns) * int(steps) * 1e-9 <= (float(wall_s) + 5e-4) * int(workers) + 1e-4
    assert report.metadata["mc_noise"] == mc.NOISE
    assert report.metadata["numpy"] == np.__version__


def test_errors_shrink_with_n_on_closed_form_benchmark():
    # H = 0: v^N - v is driven only by the empirical-measure fluctuation of G
    plan = small_plan(n_list=(2, 8, 32), n_paths=3000, n_configs=16, n_steps=40)
    rep = run_rate_experiment(plan)
    assert rep.rows[0].sup_error > rep.rows[-1].sup_error
    assert rep.beta > 0.0


def test_seed_changes_move_the_estimates():
    r1 = run_rate_experiment(small_plan(seed=3))
    r2 = run_rate_experiment(small_plan(seed=4))
    assert r1.to_csv() != r2.to_csv()


def test_rejects_quadratic_family():
    prob = ProblemSpec(
        HamiltonianSpec("quadratic", lam=1.0), TerminalSpec(), T=0.5, ctx=CTX
    )
    with pytest.raises(InputDomainError):
        run_rate_experiment(small_plan(problem=prob))


def test_common_noise_sweep_ignores_m_ref():
    noisy = null_problem(a=0.5)
    without = run_rate_experiment(small_plan(problem=noisy, m_ref=0))
    with_m_ref = run_rate_experiment(small_plan(problem=noisy, m_ref=32))
    assert without.to_csv() == with_m_ref.to_csv()
    assert without.to_json() == with_m_ref.to_json().replace(
        '"m_ref": 32', '"m_ref": 0'
    )
    with pytest.raises(InputDomainError):
        small_plan(problem=noisy, m_ref=-1)


def test_sample_complexity_half_slope_for_smooth_density():
    nodes = np.arange(256) * (TWO_PI / 256)
    mu = GridDensity((1.0 + 0.5 * np.cos(nodes)) / TWO_PI)
    table = sample_complexity_experiment(mu, [16, 64, 256], n_trials=40, seed=1)
    assert isinstance(table, ComplexityTable)
    assert table.w1_slope == pytest.approx(-0.5, abs=0.12)
    assert table.rho_slope == pytest.approx(-0.5, abs=0.12)
    # the metric is dominated by W1 with a uniform constant
    assert 0.0 < table.max_rho_over_w1 <= 1.0


def test_sample_complexity_validation(monkeypatch):
    mu = GridDensity(np.full(64, 1.0 / TWO_PI))
    with pytest.raises(InputDomainError):
        sample_complexity_experiment(mu, [4, 8], n_trials=1, seed=0)

    # no slope from fewer than two distinct sample sizes, refused before
    # anything is drawn
    def no_draws(*args):
        raise AssertionError("drew samples for an invalid call")

    monkeypatch.setattr(mfrl.ratelab, "sample_rows", no_draws)
    for n_list in ([16], [4, 4], [], [0, 4]):
        with pytest.raises(InputDomainError):
            sample_complexity_experiment(mu, n_list, n_trials=8, seed=0)


def per_trial_rows(mu, n_list, n_trials, seed):
    """The complexity rows from a loop over trials: one sample_iid,
    w1_circle_density and rho_star per trial."""
    rows = []
    for n in sorted(n_list):
        w1s, rhos = np.empty(n_trials), np.empty(n_trials)
        for trial in range(n_trials):
            hat = sample_iid(mu, n, seed=_derived_seed(seed, n, trial))
            w1s[trial] = w1_circle_density(hat, mu)
            rhos[trial] = rho_star(hat, mu, CTX)
        se = np.sqrt(n_trials)
        rows.append(
            ComplexityRow(
                n, float(w1s.mean()), float(w1s.std(ddof=1) / se),
                float(rhos.mean()), float(rhos.std(ddof=1) / se),
            )
        )
    return tuple(rows)


def uniform64():
    return GridDensity(np.full(64, 1.0 / TWO_PI))


def bumpy(m=48):
    # zero cells, so whole intervals of the CDF gap are flat
    nodes = np.arange(m) * (TWO_PI / m)
    return GridDensity(np.maximum(np.sin(3.0 * nodes), 0.0) + 0.5 * (nodes < 1.0))


def test_batched_complexity_trials_equal_the_per_trial_loop_on_criterion_6():
    mu = uniform64()
    table = sample_complexity_experiment(mu, [16, 64, 256, 1024], n_trials=200, seed=61, ctx=CTX)
    assert table.rows == per_trial_rows(mu, [16, 64, 256, 1024], 200, 61)
    # the slopes are fit_rate's least-squares line through the means
    assert table.w1_slope == fit_rate([(r.N, r.w1_mean) for r in table.rows])[0]
    assert table.rho_slope == fit_rate([(r.N, r.rho_mean) for r in table.rows])[0]


def test_batched_complexity_trials_equal_the_per_trial_loop_for_one_atom():
    for mu in (uniform64(), bumpy()):
        table = sample_complexity_experiment(mu, [1, 3], n_trials=300, seed=9, ctx=CTX)
        assert table.rows == per_trial_rows(mu, [1, 3], 300, 9)


@pytest.mark.parametrize("numbers", [1, 3000, 2**22])
def test_results_do_not_depend_on_the_torus_batch_budget(numbers, monkeypatch):
    # 1: a block per row; 3000: ragged blocks (2 rows of the Fourier mean of
    # 16 atoms at trunc 64, 4 of their moments in 40 modes, 1 of W1); 2**22:
    # every call in one block
    mu = bumpy()
    atoms = np.sort(sample_rows(mu, 16, range(23)), axis=1)
    planar = np.random.default_rng(3).uniform(0.0, TWO_PI, (23, 5, 2))

    def outputs():
        return (
            empirical_coefficients(atoms[:, :, None], CTX).tobytes(),
            empirical_coefficients(planar, TorusContext(2, 3)).tobytes(),
            w1_density_rows(atoms, mu).tobytes(),
            empirical_moments(atoms, 40).tobytes(),
            sample_complexity_experiment(mu, [1, 16, 64], n_trials=23, seed=4, ctx=CTX),
        )

    want = outputs()
    monkeypatch.setattr(mfrl.torus, "_BLOCK_NUMBERS", numbers)
    assert outputs() == want


def test_complexity_blocks_bound_the_memory_of_criterion_6():
    tracemalloc.start()
    try:
        sample_complexity_experiment(uniform64(), [16, 64, 256, 1024], n_trials=200, seed=61, ctx=CTX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_debug_log_reports_every_sample_size_and_leaves_the_table_alone(caplog):
    quiet = sample_complexity_experiment(uniform64(), [16, 1024], n_trials=10, seed=2, ctx=CTX)
    with caplog.at_level(logging.DEBUG, logger="mfrl.ratelab"):
        table = sample_complexity_experiment(uniform64(), [1024, 16], n_trials=10, seed=2, ctx=CTX)
    assert table == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.ratelab"]
    assert len(lines) == 2, lines
    for line, n in zip(lines, (16, 1024)):
        assert re.fullmatch(rf"sample complexity N={n}: 10 trials, \d+\.\d{{3}} s", line), line
