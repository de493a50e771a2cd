import dataclasses
import logging
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfrl.meanfield
import mfrl.ratelab
from mfrl import mc
from mfrl.errors import DivergenceError, InputDomainError
from mfrl.mc import mc_path_values
from mfrl.meanfield import deposit_empirical, mean_field_reference_batch
from mfrl.metric import rho_star
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.ratelab import (
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
    EmpiricalMeasure,
    GridDensity,
    TorusContext,
    sample_iid,
    w1_circle_density,
)
from mfrl.trig import TrigPoly

CTX = TorusContext(1, 64)
DATA = Path(__file__).resolve().parent / "data"


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


def test_run_rate_experiment_deterministic_and_well_formed():
    plan = small_plan()
    r1 = run_rate_experiment(plan)
    r2 = run_rate_experiment(plan)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    assert isinstance(r1, RateReport)
    assert [row.N for row in r1.rows] == [2, 4, 8]
    assert all(row.sup_error > 0 for row in r1.rows)
    assert r1.metadata["reference"] == "exact-fp"
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
    # 8 configurations of each of 3 particle counts, all from t = 0
    assert calls == [((256, 24), 0.0, report.metadata["fp_steps"])]
    assert report.metadata["fp_steps"] % 3 == 0
    assert 0.0 <= report.metadata["fp_mass_drift"] <= 1e-12


def test_common_noise_sweep_runs_one_flow_without_noise(monkeypatch):
    calls = []
    flow = mfrl.meanfield.fokker_planck_flow_batch

    def counted(problem, rho0, t, n_t, observe=None):
        calls.append((problem.a, rho0.shape, t, n_t))
        return flow(problem, rho0, t, n_t, observe)

    monkeypatch.setattr(mfrl.meanfield, "fokker_planck_flow_batch", counted)
    report = run_rate_experiment(small_plan(problem=null_problem(a=0.5), n_paths=100))
    # the a = 0 flow of every configuration; the noise enters through G alone
    assert calls == [(0.0, (256, 24), 0.0, report.metadata["fp_steps"])]
    assert report.metadata["fp_steps"] > 0
    assert 0.0 <= report.metadata["fp_mass_drift"] <= 1e-12
    assert report.metadata["reference"] == "exact-fp-shift"
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
    report = run_rate_experiment(plan)
    assert report.to_json() == (DATA / "rate_meanfield_seed1.json").read_text()


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
    densities = np.stack(
        [
            deposit_empirical(EmpiricalMeasure(c[:, None]), plan.ref_mesh).values
            for _, configs in draws
            for c in configs
        ],
        axis=1,
    )
    refs, _, _ = mean_field_reference_batch(problem, t_points, densities, plan.ref_steps)
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


@pytest.mark.parametrize("whole_max", [None, 8 * 400 * 4], ids=["all-whole", "mixed"])
def test_concurrent_sweep_matches_serial_loop_bit_for_bit(whole_max, monkeypatch):
    if whole_max is not None:  # N = 8 runs on this thread, split over the pool
        monkeypatch.setattr(mc, "_WHOLE_MAX", whole_max)
    plan = small_plan(problem=interaction_problem(0.5), n_time_points=3)
    report = run_rate_experiment(plan)
    want = serial_sweep(plan)
    assert [(r.sup_error, r.mc_std) for r in report.rows] == want


def test_failing_call_cancels_pending_jobs_and_propagates(monkeypatch):
    plan = small_plan(n_list=(2, 4, 8, 16), n_time_points=3)
    want = run_rate_experiment(plan).to_json()
    started, finished = [], []
    original = mfrl.ratelab.mc_path_values
    release = threading.Event()  # holds every started call until the sweep gives up
    wait = mfrl.ratelab.wait

    def failing(problem, starts, t, n_paths, n_steps, seed):
        if starts.shape[1] == 2 and t == 0.0:
            raise DivergenceError("injected")
        started.append(seed)
        release.wait(timeout=10)
        out = original(problem, starts, t, n_paths, n_steps, seed)
        finished.append(seed)
        return out

    def release_then_wait(jobs):  # runs after the pending jobs were cancelled
        release.set()
        return wait(jobs)

    with monkeypatch.context() as m:
        m.setattr(mc, "_cpu_count", lambda: 2)
        m.setattr(mc, "_POOL", None)  # a two-worker pool of its own
        m.setattr(mfrl.ratelab, "mc_path_values", failing)
        m.setattr(mfrl.ratelab, "wait", release_then_wait)
        with pytest.raises(DivergenceError, match="injected") as info:
            run_rate_experiment(plan)
        assert type(info.value) is DivergenceError
        # one held call per worker had started; the other 9 of the 11 were
        # cancelled, and the started ones had finished before the error came
        assert len(started) <= 2 and sorted(finished) == sorted(started)
        mc.worker_pool().shutdown(wait=True)
        assert len(started) <= 2
    assert run_rate_experiment(plan).to_json() == want


def test_debug_log_reports_every_mc_call(caplog):
    plan = small_plan(n_time_points=2)
    with caplog.at_level(logging.DEBUG, logger="mfrl.mc"):
        run_rate_experiment(plan)
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.mc"]
    pattern = re.compile(
        r"mc paths: N (\d+), t (\S+), (\d+) particle-steps, (whole|split into \d+ row chunks), "
        r"\d+\.\d{3} s"
    )
    seen = []
    for line in lines:
        match = pattern.fullmatch(line)
        assert match, line
        n, t, steps, how = match.groups()
        assert int(steps) == plan.n_configs * plan.n_paths * int(n) * plan.n_steps
        assert how == "whole"  # every call of this sweep is small
        seen.append((int(n), float(t)))
    assert sorted(seen) == [(n, t) for n in plan.n_list for t in (0.0, 0.25)]


@pytest.mark.parametrize("whole_max", [None, 8 * 400 * 4], ids=["all-whole", "mixed"])
def test_info_log_sums_up_the_sweep_and_leaves_the_report_alone(whole_max, caplog, monkeypatch):
    if whole_max is not None:  # N = 8 runs on this thread, split over the pool
        monkeypatch.setattr(mc, "_WHOLE_MAX", whole_max)
    plan = small_plan(problem=interaction_problem(0.0), n_time_points=2)
    quiet = run_rate_experiment(plan).to_json()
    with caplog.at_level(logging.INFO, logger="mfrl.ratelab"):
        report = run_rate_experiment(plan)
    assert report.to_json() == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "mfrl.ratelab"]
    assert len(lines) == 1, lines
    match = re.fullmatch(
        r"rate sweep: (\d+) MC calls whole, (\d+) split, (\d+) particle-steps; "
        r"flow (\d+\.\d{3}) s, then MC (\d+\.\d{3}) s, (\d+\.\d) ns per particle-step "
        r"per core \((\d+) cores\)",
        lines[0],
    )
    assert match, lines[0]
    whole, split, steps, flow_s, mc_s, ns, cores = match.groups()
    assert (int(whole), int(split)) == ((6, 0) if whole_max is None else (4, 2))
    assert int(steps) == plan.n_configs * (2 + 4 + 8) * 2 * plan.n_paths * plan.n_steps
    assert float(flow_s) > 0.0 and float(mc_s) > 0.0
    assert int(cores) == mc._cpu_count()
    # the MC seconds are printed to 1 ms, the ns to 0.1 ns
    per_s = int(cores) * 1e9 / int(steps)
    low, high = (float(mc_s) - 5e-4) * per_s, (float(mc_s) + 5e-4) * per_s
    assert low - 0.05 <= float(ns) <= high + 0.05
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


def test_batched_complexity_trials_equal_the_per_trial_loop_for_one_atom():
    for mu in (uniform64(), bumpy()):
        table = sample_complexity_experiment(mu, [1, 3], n_trials=300, seed=9, ctx=CTX)
        assert table.rows == per_trial_rows(mu, [1, 3], 300, 9)


@pytest.mark.parametrize("numbers", [1, 3000, 2**22])
def test_complexity_rows_do_not_depend_on_the_block_size(numbers, monkeypatch):
    # 1: a block per trial; 3000: blocks of 7, 2 and 1 rows, the last ones
    # ragged; 2**22: every N in one block
    want = sample_complexity_experiment(bumpy(), [1, 16, 64], n_trials=23, seed=4, ctx=CTX)
    monkeypatch.setattr(mfrl.ratelab, "_BLOCK_NUMBERS", numbers)
    got = sample_complexity_experiment(bumpy(), [1, 16, 64], n_trials=23, seed=4, ctx=CTX)
    assert got.rows == want.rows
    assert got.max_rho_over_w1 == want.max_rho_over_w1


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
    # 65 phase-table numbers per atom at trunc 64: 2^18 of them hold 252
    # rows of 16 atoms and 3 rows of 1024
    for line, n, blocks in zip(lines, (16, 1024), (1, 4)):
        assert re.fullmatch(
            rf"sample complexity N={n}: 10 trials in {blocks} blocks, \d+\.\d{{3}} s", line
        ), line
