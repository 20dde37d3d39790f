"""Self-tests of the benchmark itself, run from the root of a checkout.

    python3 bench/selftest.py

Checks that a seed fixes the instances and the quality figures, that another
seed changes the instances, that removing the tracer binds every package
name to its original function again, that a run emits exactly the metrics
BENCHMARK.json names, and that the benchmark refuses to run without the
package source.  Prints one PASS or FAIL line per check; exits 1 if any fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run
from tracer import Tracer
from workloads import WORKLOADS, Context, SelectionWorkload

SELECTION = [w for w in WORKLOADS.values() if isinstance(w, SelectionWorkload)]


def bench(*args: str, cwd=run.ROOT) -> tuple[int, list[dict], str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, [json.loads(line) for line in proc.stdout.splitlines()], proc.stderr


def instance_bytes(ctx: Context, workload: SelectionWorkload, seed: int) -> list[bytes]:
    return [
        workload.make_instance(ctx, seed, "ops", i).path.read_bytes()
        for i in range(len(workload.cycle))
    ]


def check_instances(ctx: Context) -> None:
    for w in SELECTION:
        first = instance_bytes(ctx, w, 7)
        assert instance_bytes(ctx, w, 7) == first, f"{w.name}: seed 7 gave different instance files"
        other = instance_bytes(ctx, w, 8)
        assert all(a != b for a, b in zip(first, other)), f"{w.name}: seed 8 repeated an instance of seed 7"


def check_restore(ctx: Context) -> None:
    before = run.function_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = run.function_bindings()
        assert ctx.cli.main is not before[("cubecover.cli", "main")], "cli.main was not wrapped"
        assert wrapped[("cubecover.selection", "union_volume")] is not before[("cubecover.selection", "union_volume")], \
            "union_volume was not wrapped where selection imports it"
    finally:
        tracer.remove()
    assert run.function_bindings() == before, "names still bound to wrappers after remove()"


def check_quality_and_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in SELECTION:
        outputs = []
        for trace in ("0", "1"):
            code, lines, err = bench("--workload", w.name, "--seed", "7", "--seconds", "0.5", "--trace", trace)
            assert code == 0, f"{w.name}: exit {code}: {err[-500:]}"
            result = lines[-1]
            assert result["correct"] and result["failed"] == 0, f"{w.name}: {result}"
            names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
            assert list(result["metrics"]) == names, f"{w.name}: trace {trace} metrics differ from BENCHMARK.json"
            details = lines[-2]["details"]
            outputs.append({k: v for k, v in details.items() if "achieved" in k or "cert" in k or k == "quality_ops"})
        assert outputs[0] == outputs[1], f"{w.name}: quality differs between two runs of seed 7"


def check_refuses_without_source() -> None:
    scratch = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "bench", scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        code, lines, _ = bench("--workload", "oracle-cap", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=scratch)
        assert code != 0 and not lines, f"exit {code} with {len(lines)} output lines"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=run.ROOT / ".bench_work")
    failed = 0
    try:
        ctx = Context(run.fresh_import(), run.Path(work))
        for name, check in (
            ("a seed fixes the instances; another seed changes them", lambda: check_instances(ctx)),
            ("removing the tracer restores every package name", lambda: check_restore(ctx)),
            ("a seed fixes the quality; runs emit the metrics BENCHMARK.json names", check_quality_and_metrics),
            ("refuses to run without the package source", check_refuses_without_source),
        ):
            try:
                check()
                print(f"PASS\t{name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL\t{name}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (run.ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
