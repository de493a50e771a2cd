"""Command-line entry point: solve plans, rate experiments, metric evaluation.

Exit codes: 0 success, 2 schema or parse error, 3 solver precondition
violation, 4 numerical divergence.  stdout carries only the requested result;
diagnostics go to stderr, gated by the MFRL_LOG environment variable
(error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .errors import (
    DivergenceError,
    InputDomainError,
    MfrlError,
    SchemaError,
    check_fields,
    plan_float,
    plan_int,
)
from .fd import fd_solve
from .mc import mc_solve_linear
from .metric import MetricOrder, rho
from .problems import ProblemSpec
from .ratelab import ExperimentPlan, run_rate_experiment
from .torus import TorusContext, measure_from_json

PLAN_VERSION = 1

EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_DIVERGENCE = 4


def _setup_logging() -> None:
    level = os.environ.get("MFRL_LOG", "warn").lower()
    numeric = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(level, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=numeric, format="%(message)s")


def _load_plan(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read plan {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("plan must be a JSON object")
    version = doc.get("version")
    if version != PLAN_VERSION:
        raise SchemaError(f"unsupported plan version {version!r}")
    return doc


#: the fields of a solve plan: those of every plan, then each solver's own
_SOLVE_FIELDS = ("version", "solver", "problem", "N")
_SOLVER_FIELDS = {"fd": ("mesh", "n_t"), "mc": ("t", "atoms", "n_paths", "n_steps")}


def _read_solve_plan(doc: dict) -> tuple[str, ProblemSpec, dict]:
    """Solver, problem and solver arguments of a solve plan, all parsed up front.

    A field of the other solver is refused, not ignored.
    """
    solver = doc.get("solver", "fd")
    if solver not in ("fd", "mc"):
        raise InputDomainError(f"unknown solver {solver!r}")
    check_fields(doc, _SOLVE_FIELDS + _SOLVER_FIELDS[solver], f"{solver} solve plan")
    problem = ProblemSpec.from_dict(doc.get("problem", {}))
    n = plan_int("N", doc.get("N", 1))
    if solver == "fd":
        mesh, n_t = plan_int("mesh", doc.get("mesh", 64)), plan_int("n_t", doc.get("n_t", 0))
        return solver, problem, {"N": n, "mesh": mesh, "n_t": n_t}
    t = plan_float("t", doc.get("t", 0.0))
    atoms = doc.get("atoms", [])
    if not isinstance(atoms, list) or len(atoms) != n:
        raise InputDomainError(f"plan field atoms must be a list of N = {n} numbers")
    return solver, problem, {
        "N": n,
        "t": t,
        "atoms": np.array([plan_float("atoms", x) for x in atoms]),
        "n_paths": plan_int("n_paths", doc.get("n_paths", 1000)),
        "n_steps": plan_int("n_steps", doc.get("n_steps", 200)),
    }


def cmd_solve(args) -> int:
    doc = _load_plan(args.plan)
    try:
        solver, problem, fields = _read_solve_plan(doc)
    except InputDomainError as exc:
        raise SchemaError(str(exc)) from exc
    if solver == "fd":
        vn = fd_solve(problem, **fields)
        vn.save(args.out)
        summary = {
            "solver": "fd",
            "N": vn.N,
            "mesh": vn.mesh,
            "n_t": vn.n_t,
            "value_file": args.out,
        }
    else:
        est = mc_solve_linear(problem, **fields, seed=args.seed)
        summary = {
            "solver": "mc",
            "N": fields["N"],
            "mean": est.mean,
            "std_error": est.std_error,
            "n_paths": est.n_paths,
            "seed": est.seed,
        }
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_rate(args) -> int:
    doc = _load_plan(args.plan)
    try:
        check_fields(doc, ("version", "plan"), "rate plan")
        plan = ExperimentPlan.from_dict(doc.get("plan", {}))
        if args.seed is not None:
            plan = dataclasses.replace(plan, seed=args.seed)
    except InputDomainError as exc:
        raise SchemaError(str(exc)) from exc
    report = run_rate_experiment(plan)
    if args.format == "json":
        payload = report.to_json()
    else:
        payload = report.to_csv()
    with open(args.out, "w") as fh:
        fh.write(payload)
    sys.stdout.write(payload)
    return 0


def cmd_metric(args) -> int:
    try:
        with open(args.mu) as fh:
            mu = measure_from_json(fh.read())
        with open(args.nu) as fh:
            nu = measure_from_json(fh.read())
        if mu.d != nu.d:
            raise InputDomainError(f"dimension mismatch: {mu.d} vs {nu.d}")
        ctx = TorusContext(mu.d, args.trunc)
        order = MetricOrder(args.order or ctx.k_star)
    except (OSError, InputDomainError, json.JSONDecodeError) as exc:
        raise SchemaError(str(exc)) from exc
    value = rho(mu, nu, order, ctx)
    sys.stdout.write(f"{value:.12g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfrl",
        description="particle and mean-field HJB solvers, metrics, rate experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an FD or MC solve from a plan file")
    solve.add_argument("--plan", required=True)
    solve.add_argument("--out", required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.set_defaults(func=cmd_solve)

    rate = sub.add_parser("rate", help="run a rate experiment from a plan file")
    rate.add_argument("--plan", required=True)
    rate.add_argument("--out", required=True)
    rate.add_argument("--seed", type=int, default=None)
    rate.add_argument("--format", choices=("csv", "json"), default="csv")
    rate.set_defaults(func=cmd_rate)

    metric = sub.add_parser("metric", help="distance between two measure files")
    metric.add_argument("mu")
    metric.add_argument("nu")
    metric.add_argument("--order", type=int, default=0, help="0 means k_star")
    metric.add_argument("--trunc", type=int, default=64)
    metric.set_defaults(func=cmd_metric)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except DivergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIVERGENCE
    except MfrlError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
