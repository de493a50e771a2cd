import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfrl.cli import EXIT_PRECONDITION, EXIT_SCHEMA, main
from mfrl.fd import GridValueFunction
from mfrl.metric import MetricOrder, rho
from mfrl.torus import EmpiricalMeasure, TorusContext, measure_to_json
from mfrl.trig import TrigPoly


def problem_dict():
    return {
        "hamiltonian": {
            "family": "zero",
        },
        "terminal": {
            "g": TrigPoly(0.0, [1.0]).to_dict(),
        },
        "a": 0.0,
        "T": 0.5,
    }


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_fd_writes_value_file(tmp_path, capsys):
    plan = write(
        tmp_path / "plan.json",
        {
            "version": 1,
            "solver": "fd",
            "problem": problem_dict(),
            "N": 2,
            "mesh": 16,
            "n_t": 32,
        },
    )
    out = tmp_path / "v.bin"
    assert main(["solve", "--plan", plan, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["solver"] == "fd" and summary["N"] == 2
    vn = GridValueFunction.load(out)
    assert vn.N == 2 and vn.mesh == 16


def test_solve_mc_summary(tmp_path, capsys):
    plan = write(
        tmp_path / "plan.json",
        {
            "version": 1,
            "solver": "mc",
            "problem": problem_dict(),
            "N": 2,
            "t": 0.1,
            "atoms": [0.5, 2.5],
            "n_paths": 200,
            "n_steps": 20,
        },
    )
    out = tmp_path / "mc.json"
    assert main(["solve", "--plan", plan, "--out", str(out), "--seed", "9"]) == 0
    stdout_doc = json.loads(capsys.readouterr().out)
    file_doc = json.loads(out.read_text())
    assert stdout_doc == file_doc
    assert file_doc["seed"] == 9 and file_doc["n_paths"] == 200


def test_bad_plan_exits_with_schema_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--plan", missing, "--out", "x"]) == EXIT_SCHEMA
    bad_version = write(tmp_path / "v0.json", {"version": 0})
    assert main(["solve", "--plan", bad_version, "--out", "x"]) == EXIT_SCHEMA
    unknown_field = write(
        tmp_path / "uf.json",
        {"version": 1, "problem": problem_dict(), "surprise": True},
    )
    assert main(["solve", "--plan", unknown_field, "--out", "x"]) == EXIT_SCHEMA
    capsys.readouterr()


SOLVE_PLANS = {
    "fd": {"N": 2, "mesh": 16, "n_t": 32},
    "mc": {"N": 2, "t": 0.1, "atoms": [0.5, 2.5], "n_paths": 200, "n_steps": 20},
}


@pytest.mark.parametrize(
    "solver, field, value",
    [
        ("fd", "N", 2.7),
        ("fd", "mesh", 16.9),
        ("fd", "n_t", 32.5),
        ("mc", "n_paths", 200.5),
        ("mc", "n_steps", 20.0),
    ],
)
def test_solve_plan_with_non_integer_field_exits_with_schema_code(
    tmp_path, capsys, solver, field, value
):
    plan = write(
        tmp_path / "plan.json",
        {
            "version": 1,
            "solver": solver,
            "problem": problem_dict(),
            **SOLVE_PLANS[solver],
            field: value,
        },
    )
    out = tmp_path / "out"
    assert main(["solve", "--plan", plan, "--out", str(out)]) == EXIT_SCHEMA
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("t", "soon"),
        ("t", True),
        ("t", float("nan")),
        ("t", float("inf")),
        ("t", 10**400),
        ("atoms", "x"),
        ("atoms", [0.5]),
        ("atoms", [0.5, "a"]),
        ("atoms", [0.5, float("-inf")]),
        ("atoms", [[0.5], [2.5]]),
    ],
    ids=[
        "t-string", "t-bool", "t-nan", "t-inf", "t-huge-int", "atoms-string",
        "atoms-short", "atoms-string-entry", "atoms-inf", "atoms-nested",
    ],
)
def test_mc_plan_with_bad_time_or_atoms_exits_with_schema_code(tmp_path, capsys, field, value):
    plan = write(
        tmp_path / "plan.json",
        {"version": 1, "solver": "mc", "problem": problem_dict(), **SOLVE_PLANS["mc"], field: value},
    )
    out = tmp_path / "out"
    assert main(["solve", "--plan", plan, "--out", str(out)]) == EXIT_SCHEMA
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_mc_plan_with_negative_time_exits_with_precondition_code(tmp_path, capsys):
    plan = write(
        tmp_path / "plan.json",
        {"version": 1, "solver": "mc", "problem": problem_dict(), **SOLVE_PLANS["mc"], "t": -3.0},
    )
    out = tmp_path / "out"
    assert main(["solve", "--plan", plan, "--out", str(out)]) == EXIT_PRECONDITION
    assert "evaluation time" in capsys.readouterr().err
    assert not out.exists()


RATE_PLAN = {
    "n_list": [2, 4, 8],
    "n_time_points": 2,
    "n_configs": 4,
    "n_paths": 200,
    "n_steps": 20,
}


def _problem_with(path, value):
    problem = problem_dict()
    *parents, leaf = path
    node = problem
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return problem


@pytest.mark.parametrize("command", ["solve", "rate"])
@pytest.mark.parametrize(
    "path, value",
    [
        (("terminal", "g", "cos"), "x"),
        (("terminal", "g", "cos"), [1.0, "x"]),
        (("terminal", "g", "const"), None),
        (("terminal", "h", "sin"), [True]),
        (("hamiltonian", "lambda"), "x"),
        (("terminal",), 5),
        (("a",), "x"),
        (("a",), False),
        (("T",), "x"),
        (("T",), float("nan")),
        (("trunc",), "64"),
    ],
    ids=[
        "cos-string", "cos-string-entry", "const-null", "sin-bool", "lambda-string",
        "terminal-number", "a-string", "a-bool", "T-string", "T-nan", "trunc-string",
    ],
)
def test_plan_with_non_number_problem_field_exits_with_schema_code(
    tmp_path, capsys, command, path, value
):
    problem = _problem_with(path, value)
    if command == "solve":
        doc = {"version": 1, "solver": "mc", "problem": problem, **SOLVE_PLANS["mc"]}
    else:
        doc = {"version": 1, "plan": {"problem": problem, **RATE_PLAN}}
    plan = write(tmp_path / "plan.json", doc)
    out = tmp_path / "out"
    assert main([command, "--plan", plan, "--out", str(out)]) == EXIT_SCHEMA
    assert path[-1] in capsys.readouterr().err
    assert not out.exists()


def test_debug_log_leaves_stdout_and_value_file_unchanged(tmp_path):
    plan = write(
        tmp_path / "plan.json",
        {"version": 1, "solver": "fd", "problem": problem_dict(), **SOLVE_PLANS["fd"]},
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = {}
    for level in ("warn", "debug"):
        out = tmp_path / f"{level}.bin"
        env = {**os.environ, "MFRL_LOG": level, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "mfrl.cli", "solve", "--plan", plan, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[level] = (proc.stdout.replace(str(out), "OUT"), out.read_bytes(), proc.stderr)
    assert runs["debug"][:2] == runs["warn"][:2]
    assert runs["warn"][2] == ""
    assert runs["debug"][2].startswith("fd solve: N 2, mesh 16, n_t 32 (stability needs ")


def test_unstable_fd_plan_exits_with_precondition_code(tmp_path, capsys):
    plan = write(
        tmp_path / "plan.json",
        {
            "version": 1,
            "solver": "fd",
            "problem": problem_dict(),
            "N": 2,
            "mesh": 32,
            "n_t": 2,
        },
    )
    code = main(["solve", "--plan", plan, "--out", str(tmp_path / "v.bin")])
    assert code == EXIT_PRECONDITION
    capsys.readouterr()


def test_rate_rerun_is_byte_identical(tmp_path, capsys):
    plan = write(
        tmp_path / "rate.json",
        {
            "version": 1,
            "plan": {
                "problem": problem_dict(),
                "n_list": [2, 4, 8],
                "n_time_points": 2,
                "n_configs": 4,
                "n_paths": 200,
                "n_steps": 20,
                "seed": 5,
            },
        },
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["rate", "--plan", plan, "--out", str(out1)]) == 0
    assert main(["rate", "--plan", plan, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_rate_seed_override_and_json_format(tmp_path, capsys):
    plan = write(
        tmp_path / "rate.json",
        {
            "version": 1,
            "plan": {
                "problem": problem_dict(),
                "n_list": [2, 4, 8],
                "n_time_points": 2,
                "n_configs": 4,
                "n_paths": 200,
                "n_steps": 20,
                "seed": 5,
            },
        },
    )
    out = tmp_path / "r.json"
    code = main(
        ["rate", "--plan", plan, "--out", str(out), "--seed", "11", "--format", "json"]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["metadata"]["seed"] == 11
    assert len(doc["rows"]) == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("ref_mesh", 2.5),
        ("n_list", [2, 4, 8.5]),
        ("ref_steps", -3),
        ("m_ref", -1),
    ],
)
def test_rate_plan_with_bad_integer_field_exits_with_schema_code(
    tmp_path, capsys, field, value
):
    plan = write(
        tmp_path / "rate.json",
        {
            "version": 1,
            "plan": {
                "problem": problem_dict(),
                "n_list": [2, 4, 8],
                "n_time_points": 2,
                "n_configs": 4,
                "n_paths": 200,
                "n_steps": 20,
                field: value,
            },
        },
    )
    out = tmp_path / "r.csv"
    assert main(["rate", "--plan", plan, "--out", str(out)]) == EXIT_SCHEMA
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_metric_command_matches_library(tmp_path, capsys):
    mu = EmpiricalMeasure(np.array([[0.0]]))
    nu = EmpiricalMeasure(np.array([[np.pi]]))
    f_mu = tmp_path / "mu.json"
    f_nu = tmp_path / "nu.json"
    f_mu.write_text(measure_to_json(mu))
    f_nu.write_text(measure_to_json(nu))
    assert main(["metric", str(f_mu), str(f_nu)]) == 0
    printed = float(capsys.readouterr().out)
    ctx = TorusContext(1, 64)
    assert printed == pytest.approx(
        rho(mu, nu, MetricOrder(ctx.k_star), ctx), abs=1e-10
    )


def test_metric_dimension_mismatch_is_schema_error(tmp_path, capsys):
    f_mu = tmp_path / "mu.json"
    f_nu = tmp_path / "nu.json"
    f_mu.write_text(measure_to_json(EmpiricalMeasure(np.array([[0.0]]))))
    f_nu.write_text(json.dumps({"kind": "empirical", "atoms": [[0.0, 0.0]]}))
    assert main(["metric", str(f_mu), str(f_nu)]) == EXIT_SCHEMA
    capsys.readouterr()


def test_debug_log_leaves_rate_stdout_and_report_unchanged(tmp_path):
    plan = write(
        tmp_path / "rate.json",
        {"version": 1, "plan": {"problem": problem_dict(), **RATE_PLAN, "seed": 5}},
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = {}
    for level in ("warn", "debug"):
        out = tmp_path / f"{level}.json"
        env = {**os.environ, "MFRL_LOG": level, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "mfrl.cli", "rate", "--plan", plan, "--out", str(out),
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[level] = (proc.stdout, out.read_bytes(), proc.stderr)
    assert runs["debug"][:2] == runs["warn"][:2]
    assert runs["warn"][2] == ""
    mc_lines = [ln for ln in runs["debug"][2].splitlines() if ln.startswith("mc paths: ")]
    assert len(mc_lines) == 3 * 2  # one per (N, t) call
