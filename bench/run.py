"""Closed-loop benchmark of cubecover, run from the root of a source checkout.

    python3 bench/run.py --workload planar-random --seed 1 --seconds 20 --trace 0

One process, one thread, one workload: each op starts when the previous one
has finished.  Set-up (a fresh import of the package from ``src/``, the
warm-up instances and their ops) runs at least 9 times and for at least 3 s,
and reports its median.  The loop then runs ops on fresh instances until the
ops have taken ``--seconds`` in total.  Peak memory is read after a fixed
number of ops, so that it does not grow with the speed of the ops.  Every
op and set-up time is paced against a reference computation run next to it
(pace.py), so that the host's drifting speed drops out.

With ``--trace 0`` the last line of output holds the end-to-end metrics named
in BENCHMARK.json.  With ``--trace 1`` one set-up runs untraced and one
traced, whole cycles of the instance stream alternate between traced and
untraced, and the last line holds the per-layer metrics, averaged over the
traced ops, plus the tracing overhead.
The line before the last carries the run's stamp (source revision, Python
and mpmath versions, CPU count, seed) and figures that are not gated:
the tail percentile and sample counts, the measured (unpaced) times, and the
quality of the selections.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from pace import Pacer
from tracer import COUNTED, SPANS, Tracer, installed, package_modules
from workloads import QUALITY_OPS, WORKLOADS, Context, SelectionWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9  # set-up runs at least this often
SETUP_SECONDS = 3.0  # and until it has taken this long in total


def fresh_import() -> dict:
    """Import cubecover from SRC anew, so set-up starts from cold caches."""
    for mod in package_modules():
        del sys.modules[mod.__name__]
    importlib.import_module("cubecover.cli")
    pkg = sys.modules["cubecover"]
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: cubecover was imported from {pkg.__file__}, not from {SRC}")
    return {mod.__name__: mod for mod in package_modules()}


def set_up(workload, work: Path, tracer: Tracer | None = None) -> tuple[Context, float]:
    """One set-up: import the package afresh and warm the workload up."""
    gc.collect()  # drop the previous set-up's modules outside the timed span
    t0 = time.perf_counter()
    ctx = Context(fresh_import(), work)
    with installed(tracer) if tracer else contextlib.nullcontext():
        workload.warm_up(ctx)
    return ctx, time.perf_counter() - t0


def source_revision() -> dict:
    """The git commit if the checkout has one, and a hash of the package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubecover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    return {"git_sha": commit, "src_sha256": digest.hexdigest()}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it.

    With twenty samples or fewer no percentile above the 50th has ten
    samples beyond it, and the median stands in.
    """
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(samples: list[float], pct: int) -> tuple[float, int]:
    """The samples' pct-th percentile (nearest rank), and how many lie above it."""
    ordered = sorted(samples)
    k = max(0, math.ceil(pct * len(ordered) / 100) - 1)
    return ordered[k], len(ordered) - 1 - k


class Run:
    """The measured loop of one workload and what it observed."""

    def __init__(self, workload, ctx: Context, seed: int, trace: bool):
        self.workload = workload
        self.ctx = ctx
        self.seed = seed
        self.trace = trace
        self.gen_tracer = Tracer()
        self.op_tracer = Tracer()
        # Paced op times (see pace.py), and the measured ones beside them.
        self.durations: dict[bool, list[float]] = {False: [], True: []}
        self.measured: dict[bool, list[float]] = {False: [], True: []}
        self.pacer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: list[tuple[float, float, float]] = []
        self.traced_bytes = 0
        self.traced_bench_s = 0.0
        self.peak_rss_mb = None

    def run(self, seconds: float) -> None:
        min_ops = QUALITY_OPS if isinstance(self.workload, SelectionWorkload) else 1
        if self.trace:  # at least one traced and one untraced cycle
            min_ops = max(min_ops, 2 * len(self.workload.cycle))
        else:
            min_ops = max(min_ops, self.workload.base_ops)
        spent = 0.0
        self.pacer = Pacer()
        while spent < seconds or self.attempted < min_ops:
            spent += self.one_op(self.attempted)
            self.attempted += 1
            if self.attempted == self.workload.base_ops:
                # A fixed op count, not the run's length: the package's caches
                # grow with every op, so a faster program would otherwise
                # show more memory.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def one_op(self, i: int) -> float:
        """Run op i; return the time it counts against the run's length."""
        w, ctx = self.workload, self.ctx
        tracing = self.trace and (i // len(w.cycle)) % 2 == 0
        start = time.perf_counter()
        try:
            with installed(self.gen_tracer) if tracing else contextlib.nullcontext():
                inst = w.make_instance(ctx, self.seed, "ops", i)
            self.op_tracer.begin_op()
            top0 = self.op_tracer.top_s
            results, dt, paced = [], 0.0, 0.0
            with installed(self.op_tracer) if tracing else contextlib.nullcontext():
                for step in w.steps(ctx, inst):
                    t0 = time.perf_counter()
                    results.append(step())
                    step_s = time.perf_counter() - t0
                    dt += step_s
                    paced += self.pacer.paced(step_s)
            if tracing:
                self.traced_bench_s += dt - (self.op_tracer.top_s - top0)
            self.durations[tracing].append(paced)
            self.measured[tracing].append(dt)
            checked = w.check(ctx, inst, results)
            if tracing:
                self.traced_bytes += checked.bytes_written
            if checked.quality is not None and i < QUALITY_OPS:
                self.quality.append(checked.quality)
        except Exception:  # a failed op is counted and reported, never dropped
            self.failures.append(f"op {i}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
            print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return time.perf_counter() - start
        return dt

    def end_to_end(self, setup_s: float) -> tuple[dict, dict]:
        samples = self.durations[False] + self.durations[True]
        measured = self.measured[False] + self.measured[True]
        # The percentile is fixed by the workload, not by this run's op
        # count, which grows with the program's speed.
        pct = tail_percentile(self.workload.base_ops)
        value, above = percentile(samples, pct)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": 1000 * statistics.median(samples),
            "op_tail_ms": 1000 * value,
            "peak_rss_mb": self.peak_rss_mb,
        }
        details = {
            "ops": len(samples), "op_tail_percentile": pct, "op_tail_samples_above": above,
            "measured_ops_per_s": len(measured) / sum(measured),
            "measured_op_p50_ms": 1000 * statistics.median(measured),
            "reference_ms_median": 1000 * statistics.median(self.pacer.references),
        }
        return values, details

    def per_layer(self, setup: Tracer) -> tuple[dict, dict]:
        traced_s = self.durations[True]
        untraced_s = self.durations[False]
        n = len(traced_s)
        # Self times are paced like the ops that hold them, by the traced
        # ops' overall ratio of paced to measured time.
        pace = sum(traced_s) / sum(self.measured[True])
        t = self.op_tracer
        values = {}
        for mod_name, names in SPANS.items():
            for name in names:
                key = f"{mod_name}.{name}"
                src = self.gen_tracer if key == "generators.generate" else t
                values[f"{key}.calls"] = src.calls[key] / n
                values[f"{key}.self_s"] = pace * src.self_s[key] / n
        for mod_name, names in COUNTED.items():
            for name in names:
                values[f"{mod_name}.{name}.calls"] = t.calls[f"{mod_name}.{name}"] / n
        for key in ("geometry.union_volume.cubes", "geometry.union_volume.repeat_calls",
                    "oracle.intersection_graph.edges", "cli.main.nonzero_exits"):
            values[key] = t.counts[key] / n
        for key in ("selection.auto_params", "generators.generate"):
            values[f"setup.{key}.self_s"] = setup.self_s[key]
        values["cli.bytes_written"] = self.traced_bytes / n
        values["bench.op.self_s"] = pace * self.traced_bench_s / n
        traced_rate = n / sum(traced_s)
        untraced_rate = len(untraced_s) / sum(untraced_s)
        values["bench.traced_ops_per_s"] = traced_rate
        values["bench.untraced_ops_per_s"] = untraced_rate
        values["bench.trace_overhead"] = untraced_rate / traced_rate
        details = {"traced_ops": n, "untraced_ops": len(untraced_s)}
        return values, details

    def quality_summary(self) -> dict:
        if not self.quality:
            return {}
        pipeline, greedy, log_cert = zip(*self.quality)
        return {
            "quality_ops": len(self.quality),
            "pipeline_achieved_mean": statistics.fmean(pipeline),
            "greedy_achieved_mean": statistics.fmean(greedy),
            "pipeline_cert_over_vitali": math.exp(statistics.fmean(log_cert)),
        }


def function_bindings() -> dict:
    """Every callable bound at module level in the package, by (module, name)."""
    return {
        (mod.__name__, attr): value
        for mod in package_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def select_metrics(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics this benchmark does not compute: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubecover" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cubecover'}; run from a cubecover checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import mpmath  # the package's dependency: loaded once, outside set-up

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # The host's speed wanders over seconds, so set-ups are spread over
        # SETUP_SECONDS rather than taken in one short burst.  A traced run
        # reports no setup_s; it sets up once untraced and once traced.
        reps, seconds = (1, 0.0) if args.trace else (SETUP_REPS, SETUP_SECONDS)
        setup_pacer = Pacer()
        setup_times, setup_measured = [], []
        while len(setup_times) < reps or sum(setup_measured) < seconds:
            ctx, dt = set_up(workload, work)
            setup_times.append(setup_pacer.paced(dt))
            setup_measured.append(dt)
        setup_tracer = Tracer()
        if args.trace:
            ctx, _ = set_up(workload, work, setup_tracer)
        bindings = function_bindings()
        run = Run(workload, ctx, args.seed, bool(args.trace))
        run.run(args.seconds)
        restored = function_bindings() == bindings
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        values, details = run.per_layer(setup_tracer)
        metrics = select_metrics(spec["per_layer"], values)
    else:
        values, details = run.end_to_end(statistics.median(setup_times))
        metrics = select_metrics(spec["end_to_end"], values)
    if not restored:
        print("error: traced names were not restored to the package's functions", file=sys.stderr)
    stamp = {
        **source_revision(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    details.update(run.quality_summary())
    details["setup_reps"] = len(setup_times)
    details["setup_s_range"] = [min(setup_times), max(setup_times)]
    details["measured_setup_s"] = statistics.median(setup_measured)
    details["failures"] = run.failures[:10]
    print(json.dumps({"stamp": stamp, "details": details}))
    print(json.dumps({
        "correct": restored and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
