"""Command-line entry point: solve plans, rate experiments, metric evaluation.

Exit codes: 0 success, 2 schema or parse error, 3 solver precondition
violation, 4 numerical divergence.  stdout carries only the requested result;
diagnostics go to stderr, gated by the MFRL_LOG environment variable
(error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    InputDomainError,
    MfrlError,
    ResourceBudgetError,
    SchemaError,
    UnsupportedDimensionError,
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

log = logging.getLogger("mfrl")


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


def _require(doc: dict, keys: set, context: str) -> None:
    unknown = set(doc) - keys
    if unknown:
        raise SchemaError(f"unknown {context} fields {sorted(unknown)}")


def _int_field(doc: dict, name: str, default: int) -> int:
    """An integer plan field, by the rate plan's rule; anything else is a schema error."""
    try:
        return plan_int(name, doc.get(name, default))
    except InputDomainError as exc:
        raise SchemaError(str(exc)) from exc


def _finite_float(name: str, value) -> float:
    """A finite JSON number (not a boolean) as a float; anything else is a schema error."""
    try:
        return plan_float(name, value)
    except InputDomainError as exc:
        raise SchemaError(str(exc)) from exc


def cmd_solve(args) -> int:
    doc = _load_plan(args.plan)
    _require(
        doc,
        {"version", "solver", "problem", "N", "mesh", "n_t", "t", "atoms", "n_paths", "n_steps"},
        "solve plan",
    )
    try:
        problem = ProblemSpec.from_dict(doc.get("problem", {}))
    except InputDomainError as exc:
        raise SchemaError(str(exc)) from exc
    solver = doc.get("solver", "fd")
    n = _int_field(doc, "N", 1)
    if solver == "fd":
        mesh, n_t = _int_field(doc, "mesh", 64), _int_field(doc, "n_t", 0)
        vn = fd_solve(problem, n, mesh, n_t)
        vn.save(args.out)
        summary = {
            "solver": "fd",
            "N": n,
            "mesh": vn.mesh,
            "n_t": vn.n_t,
            "value_file": args.out,
        }
    elif solver == "mc":
        t = _finite_float("t", doc.get("t", 0.0))
        atoms = doc.get("atoms", [])
        if not isinstance(atoms, list) or len(atoms) != n:
            raise SchemaError(f"plan field atoms must be a list of N = {n} numbers")
        atoms = np.array([_finite_float("atoms", x) for x in atoms])
        n_paths, n_steps = _int_field(doc, "n_paths", 1000), _int_field(doc, "n_steps", 200)
        est = mc_solve_linear(
            problem,
            n,
            t,
            atoms,
            n_paths=n_paths,
            n_steps=n_steps,
            seed=args.seed,
        )
        summary = {
            "solver": "mc",
            "N": n,
            "mean": est.mean,
            "std_error": est.std_error,
            "n_paths": est.n_paths,
            "seed": est.seed,
        }
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    else:
        raise SchemaError(f"unknown solver {solver!r}")
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def cmd_rate(args) -> int:
    doc = _load_plan(args.plan)
    _require(doc, {"version", "plan"}, "rate plan")
    try:
        plan = ExperimentPlan.from_dict(doc.get("plan", {}))
    except InputDomainError as exc:
        raise SchemaError(str(exc)) from exc
    if args.seed is not None:
        plan = ExperimentPlan.from_dict({**plan.to_dict(), "seed": args.seed})
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
    except (OSError, InputDomainError, json.JSONDecodeError) as exc:
        raise SchemaError(str(exc)) from exc
    if mu.d != nu.d:
        raise SchemaError(f"dimension mismatch: {mu.d} vs {nu.d}")
    ctx = TorusContext(mu.d, args.trunc)
    order = MetricOrder(args.order if args.order > 0 else ctx.k_star)
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
        log.error("schema error: %s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except (
        ConfigurationError,
        ResourceBudgetError,
        InputDomainError,
        UnsupportedDimensionError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except DivergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIVERGENCE
    except MfrlError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
