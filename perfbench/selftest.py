"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the metric tables of run.py and
tracing.py and that every per-layer metric names the end-to-end metric it
should move; runs every workload at the tiny size, traced and untraced, and
validates the result line; and checks that the benchmark refuses to run,
without printing a result, where there is no mfrl source.  Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))

from run import E2E_METRICS  # noqa: E402
from tracing import LAYER_METRICS, OVERHEAD_METRIC  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def layer_table() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, end-to-end metric it should move)."""
    table = {name: (row[0], row[3]) for name, row in LAYER_METRICS.items()}
    name, unit, should_move = OVERHEAD_METRIC
    table[name] = (unit, should_move)
    return table


def check_spec(problems: list[str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = layer_table()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        problems.append("too many metrics in BENCHMARK.json")
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        if not NAME.fullmatch(m["name"]):
            problems.append(f"bad name {m['name']!r}")
        if "unit" in m and not UNIT.fullmatch(m["unit"]):
            problems.append(f"bad unit {m['unit']!r} of {m['name']}")
    if set(e2e) != set(E2E_METRICS):
        problems.append(f"end_to_end {sorted(e2e)} != run.py {sorted(E2E_METRICS)}")
    for name, m in e2e.items():
        if name in E2E_METRICS and m["unit"] != E2E_METRICS[name][0]:
            problems.append(f"unit of {name} differs from run.py")
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {name} outside (0, 0.25]")
    if set(per_layer) != set(layers):
        problems.append(
            f"per_layer differs from tracing.py: "
            f"{sorted(set(per_layer) ^ set(layers))}"
        )
    for name, (unit, should_move) in layers.items():
        if name in per_layer and per_layer[name]["unit"] != unit:
            problems.append(f"unit of {name} differs from tracing.py")
        if not should_move:
            problems.append(f"{name} has no should-move mapping")
    return spec


def run_bench(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(spec: dict, problems: list[str]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} trace {trace}"
            proc = run_bench(workload, trace, ROOT)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {proc.stdout[-800:]}")
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = result["metrics"]
            detail = json.loads(proc.stdout.strip().splitlines()[-2][len("detail "):])
            # a metric may be absent only when a wrap target it needs is gone
            if not set(got) <= wanted or (
                set(got) != wanted and not detail.get("missing_targets")
            ):
                problems.append(f"{tag}: metrics differ: {sorted(set(got) ^ wanted)}")
            for name, m in got.items():
                if m.get("unit") != units.get(name) or not isinstance(
                    m.get("value"), (int, float)
                ):
                    problems.append(f"{tag}: {name} = {m}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} checks", flush=True)


def check_refuses_without_source(problems: list[str]) -> None:
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=parent))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name)
        proc = run_bench("rate_meanfield", 0, bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("benchmark ran without the mfrl source")
    finally:
        shutil.rmtree(bare)
        try:
            parent.rmdir()
        except OSError:
            pass


def main() -> int:
    problems: list[str] = []
    spec = check_spec(problems)
    check_refuses_without_source(problems)
    check_runs(spec, problems)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
