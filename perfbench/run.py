"""Run one mfrl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rate_meanfield --seed 1 --seconds 20 --trace 0

The workload runs in this process, against the package under ``src/`` of
the checkout that holds this file.  Set-up (importing mfrl, numpy and scipy
into a fresh interpreter, plan construction and one untimed warm-up pass) is
timed on its own, here and in two more fresh processes, and ``setup_s`` is
the median of the three; then whole passes repeat until ``--seconds`` is
used up.  The machine-speed probe of ``speed.py`` runs before set-up and
after every set-up and pass, and the end-to-end times are reported at its
reference speed; the raw wall times are kept in the ``detail`` line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
Exit code 0 means a result was printed; 2 means the program could not be
set up (for example, no ``src/mfrl`` beside the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: set-ups per run: this process and SETUP_SAMPLES - 1 fresh child processes
SETUP_SAMPLES = 3

MIN_PASSES = 3
MIN_TRACED_PASSES = 2

#: end-to-end metrics: name -> (unit, meaning)
E2E_METRICS = {
    "wall_s": (
        "s",
        "median wall time of the timed passes after warm-up, each at the "
        "reference machine speed",
    ),
    "setup_s": (
        "s",
        "median of 3 set-ups, each imports into a fresh interpreter, plan "
        "construction and one untimed warm-up pass, at the reference machine speed",
    ),
    "peak_rss_mb": ("MB", "peak resident set of the workload process"),
    "ok_frac": ("ratio", "1 - failed_frac: checks passed over checks attempted"),
}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__
    except ImportError:  # numpy < 2 keeps them under numpy.core
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_features__

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "mfrl").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "simd_baseline": list(__cpu_baseline__),
        "simd_found": [k for k, v in __cpu_features__.items() if v],
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def set_up(args, tmp: Path):
    """Import mfrl, build the workload and run one warm-up pass.

    Must run before anything else in the process imports numpy.  Returns the
    workload, the checks of the warm-up pass and the seconds it all took.
    """
    t0 = time.perf_counter()
    import workloads

    checks = workloads.Checks()
    workload = workloads.build(args.workload, args.seed, args.size, tmp)
    workloads.timed_pass(workload, checks)
    return workload, checks, time.perf_counter() - t0


def set_up_in_child(args) -> dict:
    """One more set-up in a fresh process: seconds, checks attempted, failures."""
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, checks, seconds, probe, probes) -> list[float]:
    """Whole passes until the next one would overrun ``seconds``; probe after each."""
    from workloads import timed_pass

    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(walls) + probes[-1] <= seconds
    ):
        walls.append(timed_pass(workload, checks))
        probes.append(probe.seconds())
    return walls


def measure_traced(workload, checks, seconds, tracer, probe, probes):
    """Alternate untraced and traced passes, probing after each.

    Returns the wall times in the order run (untraced first), and the
    per-layer metrics and layer shares of each traced pass.
    """
    from tracing import layer_shares, pass_metrics
    from workloads import timed_pass

    walls: list[float] = []
    per_pass: list[dict] = []
    shares: list[dict] = []
    start = time.perf_counter()
    while len(per_pass) < MIN_TRACED_PASSES or (
        time.perf_counter() - start + 2 * (statistics.median(walls) + probes[-1])
        <= seconds
    ):
        walls.append(timed_pass(workload, checks))
        probes.append(probe.seconds())
        tracer.pass_no += 1
        first = len(tracer.spans)
        tracer.install()
        try:
            wall = timed_pass(workload, checks)
        finally:
            tracer.uninstall()
        walls.append(wall)
        probes.append(probe.seconds())
        per_pass.append(pass_metrics(tracer, first))
        shares.append(layer_shares(tracer, first, wall))
    return walls, per_pass, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("rate_meanfield", "rate_common_noise", "fd_analysis"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny is for the benchmark's own smoke test",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up once, print its seconds and checks as JSON, and exit",
    )
    args = parser.parse_args(argv)

    nproc = cap_threads()
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    if not (SRC / "mfrl" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mfrl package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from speed import SpeedProbe, scaled

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        if args.setup_only:
            _, checks, seconds = set_up(args, tmp)
            print(json.dumps({"setup_s": seconds, "attempted": checks.attempted,
                              "failures": checks.failures}))
            return 0
        with SpeedProbe() as probe:
            probes = [probe.seconds()]
            workload, checks, seconds = set_up(args, tmp)
            raw_setup = [seconds]
            probes.append(probe.seconds())
            for _ in range(SETUP_SAMPLES - 1):
                child = set_up_in_child(args)
                raw_setup.append(child["setup_s"])
                checks.attempted += child["attempted"]
                checks.failures += child["failures"]
                probes.append(probe.seconds())
            setups = scaled(raw_setup, probes)
            detail = {
                "workload": args.workload,
                "seed": args.seed,
                "size": args.size,
                "trace": args.trace,
                "env": environment(nproc),
                "setup": {"raw_setup_s": raw_setup, "probe_s": list(probes),
                          "setup_s": setups},
            }
            # the probe after the last set-up also opens the first timed pass
            del probes[:-1]
            if args.trace:
                metrics = run_traced(workload, checks, args, detail, probe, probes)
            else:
                metrics = run_untraced(workload, checks, args, detail, probe, probes)
            detail["probe_s"] = probes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    detail["failures"] = list(dict.fromkeys(checks.failures))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} ({detail['samples'][name]})")
    for what in detail["failures"]:
        print(f"FAILED CHECK: {what}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_untraced(workload, checks, args, detail, probe, probes) -> dict:
    from speed import scaled

    raw = measure(workload, checks, args.seconds, probe, probes)
    walls = scaled(raw, probes)
    q1, q3 = quartiles(walls)
    # ru_maxrss is in KiB on Linux; MB here is 1e6 bytes, as in fd.values_mb
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed_frac = len(checks.failures) / checks.attempted
    detail["wall_s"] = walls
    detail["raw_wall_s"] = raw
    detail["failed_frac"] = failed_frac
    detail["samples"] = {
        "wall_s": f"median of {len(walls)} passes; quartiles {q1:.4f} .. {q3:.4f}; "
        f"raw median {statistics.median(raw):.4f} s",
        "setup_s": f"median of {SETUP_SAMPLES} set-ups (imports + build + 1 warm-up "
        f"pass); raw median {statistics.median(detail['setup']['raw_setup_s']):.4f} s",
        "peak_rss_mb": "1 sample, whole run",
        "ok_frac": f"{checks.attempted - len(checks.failures)} of {checks.attempted} "
        "checks passed",
    }
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(detail["setup"]["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed_frac, "unit": "ratio"},
    }


def run_traced(workload, checks, args, detail, probe, probes) -> dict:
    from speed import scaled
    from tracing import LAYER_METRICS, LAYERS, OVERHEAD_METRIC, Tracer

    tracer = Tracer()
    raw, per_pass, shares = measure_traced(
        workload, checks, args.seconds, tracer, probe, probes
    )
    walls = scaled(raw, probes)
    plain, traced = walls[0::2], walls[1::2]
    metrics = {}
    for name, (unit, *_rest) in LAYER_METRICS.items():
        values = [p[name] for p in per_pass if name in p]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics[OVERHEAD_METRIC[0]] = {"value": overhead, "unit": OVERHEAD_METRIC[1]}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    detail["untraced_wall_s"] = plain
    detail["traced_wall_s"] = traced
    detail["layer_share"] = {
        layer: statistics.median(s[layer] for s in shares) for layer in LAYERS
    }
    detail["missing_targets"] = sorted(tracer.missing)
    detail["counters_dropped"] = sorted(tracer.bad_counters)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    per = f"median of {len(traced)} traced passes"
    detail["samples"] = {name: per for name in metrics}
    detail["samples"][OVERHEAD_METRIC[0]] = (
        f"median of {len(traced)} traced over median of {len(plain)} untraced passes"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
