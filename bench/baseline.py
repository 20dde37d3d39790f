"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For every workload, runs ``bench/run.py --trace 0`` once per seed, one run
after another, and reports each end-to-end metric's median, quartiles and
spread (the distance between the quartiles over the median).  It then runs
``--trace 1`` on the first seed for the per-layer figures.  Run it on two
commits with the same seeds to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info = json.loads(lines[-2])
    info["wall_s"] = time.perf_counter() - t0
    return info, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="A-B or a comma list")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        stamp = {k: v for k, v in runs[0][0]["stamp"].items() if k not in ("workload", "seed", "trace")}
        summary.setdefault("stamp", stamp)
        bad = [r for _, r in runs if not r["correct"] or r["failed"]]
        entry = {
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "incorrect_runs": len(bad),
            "wall_s_max": max(info["wall_s"] for info, _ in runs),
            "end_to_end": {
                m["name"]: summarise([r["metrics"][m["name"]]["value"] for _, r in runs])
                for m in spec["end_to_end"]
            },
            "quality_by_seed": {
                str(seed): {k: v for k, v in info["details"].items() if "achieved" in k or "cert" in k}
                for seed, (info, _) in zip(seeds, runs)
            },
        }
        info, traced = bench(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        print(workload, f"failed {entry['failed']}/{entry['attempted']}, longest run {entry['wall_s_max']:.1f} s")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:14s} median {s['median']:11.5g}  q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
