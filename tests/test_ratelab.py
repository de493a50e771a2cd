import numpy as np
import pytest

import mfrl.meanfield
import mfrl.ratelab
from mfrl.errors import InputDomainError
from mfrl.problems import HamiltonianSpec, ProblemSpec, TerminalSpec
from mfrl.ratelab import (
    ComplexityTable,
    ExperimentPlan,
    RateReport,
    fit_rate,
    run_rate_experiment,
    sample_complexity_experiment,
)
from mfrl.torus import TWO_PI, GridDensity, TorusContext
from mfrl.trig import TrigPoly

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
    back = ExperimentPlan.from_dict(plan.to_dict())
    assert back.to_dict() == plan.to_dict()
    with pytest.raises(InputDomainError):
        ExperimentPlan.from_dict({**plan.to_dict(), "bogus": 1})
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


def test_common_noise_sweep_runs_no_flow_and_deposits_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a > 0 needs no densities")

    monkeypatch.setattr(mfrl.ratelab, "deposit_empirical", refuse)
    monkeypatch.setattr(mfrl.ratelab, "mean_field_reference_batch", refuse)
    plan = small_plan(problem=null_problem(a=0.5), m_ref=16, n_paths=100)
    report = run_rate_experiment(plan)
    assert report.metadata["fp_steps"] == 0
    assert report.metadata["fp_mass_drift"] == 0.0


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


def test_common_noise_requires_m_ref():
    plan = small_plan(problem=null_problem(a=0.5), m_ref=0)
    with pytest.raises(InputDomainError):
        run_rate_experiment(plan)
    rep = run_rate_experiment(small_plan(problem=null_problem(a=0.5), m_ref=32))
    assert rep.metadata["reference"] == "surrogate-m32"
    assert rep.metadata["surrogate_bias_budget"] > 0.0


def test_sample_complexity_half_slope_for_smooth_density():
    nodes = np.arange(256) * (TWO_PI / 256)
    mu = GridDensity((1.0 + 0.5 * np.cos(nodes)) / TWO_PI)
    table = sample_complexity_experiment(mu, [16, 64, 256], n_trials=40, seed=1)
    assert isinstance(table, ComplexityTable)
    assert table.w1_slope == pytest.approx(-0.5, abs=0.12)
    assert table.rho_slope == pytest.approx(-0.5, abs=0.12)
    # the metric is dominated by W1 with a uniform constant
    assert 0.0 < table.max_rho_over_w1 <= 1.0
    assert table.to_csv().splitlines()[0] == (
        "N,w1_mean,w1_std_error,rho_mean,rho_std_error"
    )


def test_sample_complexity_validation():
    nodes = np.arange(64) * (TWO_PI / 64)
    mu = GridDensity(np.full(64, 1.0 / TWO_PI))
    with pytest.raises(InputDomainError):
        sample_complexity_experiment(mu, [4, 8], n_trials=1, seed=0)
