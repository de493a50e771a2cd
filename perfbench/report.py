"""Run every workload once untraced and once traced, print and save the results.

    python3 perfbench/report.py [--seed 1] [--out .bench_out/bench.json]

Each workload runs in its own process (``run.py``) for the ``run_seconds``
of ``BENCHMARK.json``.  Prints every end-to-end
metric per workload with its unit and sample count, then the busy share of
each layer from the traced run, and writes everything, with the environment
and ``src_lines``, to one JSON file.  Exits 1 when any run fails or any
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "bench.json")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace in (0, 1):
            result, detail = run_workload(workload, args.seed, seconds, trace)
            if result is None:
                print(f"{workload} trace {trace}: run failed")
                ok = False
                continue
            ok = ok and result["correct"]
            doc.setdefault("env", detail["env"])
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry["trace" if trace else "run"] = detail
            print(f"{workload} trace {trace}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} checks failed")
            for what in detail["failures"]:
                print(f"  FAILED CHECK: {what}")
            if trace == 0:
                for name, m in result["metrics"].items():
                    print(f"  {name:12s} {m['value']:12.6g} {m['unit']:6s} "
                          f"{detail['samples'][name]}")
            else:
                shares = ", ".join(
                    f"{k} {v:.0%}" for k, v in detail["layer_share"].items() if v >= 0.005
                )
                print(f"  layer busy share of wall_s: {shares}")
                overhead = result["metrics"]["trace.overhead_frac"]["value"]
                print(f"  trace.overhead_frac {overhead:+.3f}")
        doc["workloads"][workload] = entry
    doc["src_lines"] = doc.get("env", {}).get("src_lines")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
