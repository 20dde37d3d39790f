"""The benchmark's workloads: the instance stream, the op and its checks.

Every op goes through the public CLI entry point ``cubecover.cli.main``
in-process.  A selection op is ``select --algo pipeline`` -> ``verify`` ->
``select --algo greedy`` -> ``verify`` on one fresh instance.  An op is a
list of steps, one call into the package each, which the run times and
paces one by one.  Instances come
from ``cubecover gen`` with seeds derived from the benchmark's seed, and no
instance repeats within a process, so the package's cache on union volume
never carries work from one op to the next.  README.md says why each
workload exists and which layer metrics should move on it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ORACLE_CAP = 30  # the CLI's default cap: at or below it, verify runs the oracle
GRID = 1 << 20  # pitch of the generators' coordinate grid
QUALITY_OPS = 16  # ops whose outputs feed the quality figures, run whatever the time


class Context:
    """The freshly imported package and the directory the run writes into."""

    def __init__(self, modules: dict, work: Path):
        self.cli = modules["cubecover.cli"]
        self.constants = modules["cubecover.constants"]
        self.oracle = modules["cubecover.oracle"]
        self.work = work

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main([str(a) for a in argv])
        return rc, out.getvalue(), err.getvalue()


class OpFailed(Exception):
    """An op's output failed a check."""


def derived_seed(workload: str, seed: int, stream: str, i: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{stream}/{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Gen:
    """One ``cubecover gen`` call, less --seed and --out.

    ``size`` is a (flag, lo, hi) whose value steps through [lo, hi] along a
    golden-ratio sequence, so that any run of consecutive ops covers the range
    evenly and op times spread smoothly instead of in a few clusters, which
    keeps the median steady.  Dyadic towers take no seed, so ``shift``
    translates the tower by a seeded offset on the generators' grid to keep
    instances distinct.
    """

    args: tuple[str, ...]
    size: tuple[str, int, int] | None = None
    shift: bool = False

    def argv(self, j: int) -> list[str]:
        if self.size is None:
            return list(self.args)
        flag, lo, hi = self.size
        return [*self.args, flag, str(lo + int((j * GOLDEN) % 1.0 * (hi - lo + 1)))]


def random_gen(d: int, n: tuple[int, int], law: str, rmin: str, rmax: str) -> Gen:
    return Gen(("--kind", "random", "--d", str(d), "--radius-law", law, "--rmin", rmin, "--rmax", rmax), ("--n", *n))


def lacunary_gen(d: int, per_window: tuple[int, int]) -> Gen:
    # Three windows of ratio 2 separated by factor 4: radii 1/16..8.
    return Gen(("--kind", "lacunary", "--d", str(d), "--windows", "1/16:1/8,1/2:1,4:8",
                "--lambda", "4", "--mu", "2"), ("--per-window", *per_window))


def dyadic_gen(d: int, levels: int) -> Gen:
    return Gen(("--kind", "dyadic", "--d", str(d), "--levels", str(levels)), shift=True)


@dataclass(frozen=True)
class Instance:
    path: Path
    dim: int
    size: int


@dataclass
class OpResult:
    """What an op's checks found; quality is None for non-selection ops."""

    bytes_written: int
    quality: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class SelectionWorkload:
    """pipeline -> verify -> greedy -> verify on a stream of instances."""

    name: str
    cycle: tuple[Gen, ...]  # op i uses cycle[i % len(cycle)]
    warmup: tuple[Gen, ...]  # generated and run once in each set-up
    # An untraced run runs at least this many ops.  peak_rss_mb is read when
    # they have run, and op_tail_ms is the highest percentile with ten of
    # them beyond it, so neither moves with the number of ops a run fits in.
    base_ops: int
    pipeline_args: tuple[str, ...] = ()

    def make_instance(self, ctx: Context, seed: int, stream: str, i: int) -> Instance:
        specs = self.warmup if stream == "warmup" else self.cycle
        spec = specs[i % len(specs)]
        s = derived_seed(self.name, seed, stream, i)
        path = ctx.work / f"{stream}-{i}.json"
        rc, _, err = ctx.run_cli(["gen", *spec.argv(i // len(specs)), "--seed", s, "--out", path])
        if rc:
            raise OpFailed(f"gen exited {rc}: {err.strip()}")
        doc = json.loads(path.read_text(encoding="utf-8"))
        if spec.shift:
            rng = random.Random(s)
            offset = [Fraction(rng.randrange(GRID + 1), GRID) for _ in range(doc["dim"])]
            for cube in doc["cubes"]:
                cube["center"] = [str(Fraction(x) + o) for x, o in zip(cube["center"], offset)]
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return Instance(path, doc["dim"], len(doc["cubes"]))

    def steps(self, ctx: Context, inst: Instance) -> list:
        """The op's CLI calls; each returns (exit code, stdout, stderr)."""
        calls = []
        for algo, extra in (("pipeline", self.pipeline_args), ("greedy", ())):
            sel = ctx.work / f"sel-{algo}.json"
            calls.append(["select", "--algo", algo, "--in", inst.path, "--out", sel, *extra])
            calls.append(["verify", "--in", inst.path, "--sel", sel])
        return [functools.partial(ctx.run_cli, argv) for argv in calls]

    def check(self, ctx: Context, inst: Instance, steps) -> OpResult:
        # The first nonzero exit fails the op, before any later step's
        # output (a verify of a stale selection file) is looked at.
        for rc, out, err in steps:
            if rc:
                raise OpFailed(f"exit {rc}: {err.strip() or out.strip()}")
            failed = [line for line in out.splitlines() if line.startswith("FAIL")]
            if failed:
                raise OpFailed("verify: " + "; ".join(failed))
        phi = None
        if inst.size <= ORACLE_CAP:
            collection = ctx.cli.collection_from_json(json.loads(inst.path.read_text(encoding="utf-8")))
            phi, _ = ctx.oracle.phi_exact(collection)
        written = sum(len(out) for _, out, _ in steps)
        ratios = {}
        for algo in ("pipeline", "greedy"):
            sel = ctx.work / f"sel-{algo}.json"
            text = sel.read_text(encoding="utf-8")
            written += len(text)
            doc = json.loads(text)
            cert = Fraction(doc["certified_bound"])
            achieved = Fraction(doc["achieved_ratio"])
            if not 0 < cert <= achieved <= 1:
                raise OpFailed(f"{algo}: 0 < certified <= achieved <= 1 fails")
            if phi is not None and not achieved <= phi:
                raise OpFailed(f"{algo}: achieved ratio exceeds the exact optimum")
            ratios[algo] = (achieved, cert)
        achieved, cert = ratios["pipeline"]
        log_cert_over_vitali = math.log(cert.numerator) - math.log(cert.denominator) + inst.dim * math.log(3)
        quality = (float(achieved), float(ratios["greedy"][0]), log_cert_over_vitali)
        return OpResult(written, quality)

    def warm_up(self, ctx: Context) -> None:
        # Warm-up instances do not depend on the run's seed, so that set-up
        # does the same work in every run.
        for i in range(len(self.warmup)):
            inst = self.make_instance(ctx, 0, "warmup", i)
            self.check(ctx, inst, [step() for step in self.steps(ctx, inst)])


ASYMPTOTIC_DIMS = (50, 100, 200, 500, 1000)


@dataclass(frozen=True)
class ConstantsWorkload:
    """table --dmax 20 --compare, frontier and asymptotic_check from cold caches."""

    name: str
    cycle: tuple = (None,)  # no instances: each op is its own cycle
    base_ops: int = 8

    def make_instance(self, ctx: Context, seed: int, stream: str, i: int) -> None:
        return None

    def steps(self, ctx: Context, inst: None) -> list:
        """table, frontier, then asymptotic_check one dimension at a time: the
        check over d = 50..1000 takes over a second, longer than the host's
        speed holds still, so it is paced in parts.  The parts share the
        package's caches exactly as one call over the whole list would."""
        constants = ctx.constants

        def table():
            constants.set_precision(constants.DEFAULT_DPS)  # clears the caches
            return ctx.run_cli(["table", "--dmax", "20", "--compare"])

        return [
            table,
            functools.partial(ctx.run_cli, ["frontier"]),
            *(functools.partial(constants.asymptotic_check, (d,)) for d in ASYMPTOTIC_DIMS),
        ]

    def check(self, ctx: Context, inst: None, results) -> OpResult:
        steps, checks = results[:2], results[2:]
        rows = [row for rows in checks for row in rows]
        for rc, out, err in steps:
            if rc:
                raise OpFailed(f"exit {rc}: {err.strip()}")
        table, frontier = steps[0][1], steps[1][1]
        if len(table.splitlines()) != 21:
            raise OpFailed("table --dmax 20 did not print a header and 20 rows")
        if not frontier.startswith("improvement dimension\t14\n"):
            raise OpFailed("frontier did not report dimension 14")
        if [row.d for row in rows] != list(ASYMPTOTIC_DIMS):
            raise OpFailed("asymptotic_check skipped a dimension")
        return OpResult(len(table) + len(frontier))

    def warm_up(self, ctx: Context) -> None:
        rc, _, err = ctx.run_cli(["table", "--dmax", "2"])
        if rc:
            raise OpFailed(f"table exited {rc}: {err.strip()}")


LOGUNIFORM = ("loguniform", "1/16", "4")

WORKLOADS = {
    w.name: w
    for w in (
        SelectionWorkload(
            "planar-random",
            cycle=(random_gen(2, (200, 400), *LOGUNIFORM),),
            warmup=(random_gen(2, (40, 40), *LOGUNIFORM),),
            base_ops=100,
        ),
        SelectionWorkload(
            "structured-highdim",
            cycle=(
                lacunary_gen(3, (11, 20)),
                dyadic_gen(3, 2),
                random_gen(8, (31, 60), *LOGUNIFORM),
                lacunary_gen(5, (11, 20)),
                dyadic_gen(5, 1),
                random_gen(14, (31, 60), *LOGUNIFORM),
            ),
            warmup=(lacunary_gen(3, (11, 11)), dyadic_gen(5, 1), random_gen(8, (31, 31), *LOGUNIFORM),
                    random_gen(14, (31, 31), *LOGUNIFORM)),
            base_ops=240,
        ),
        SelectionWorkload(
            "oracle-cap",
            cycle=(
                random_gen(2, (30, 30), "uniform", "1/2", "2"),
                random_gen(3, (30, 30), "uniform", "1/2", "3"),
                random_gen(4, (30, 30), "uniform", "1/2", "3"),
            ),
            warmup=(random_gen(2, (12, 12), "uniform", "1/2", "2"), random_gen(4, (12, 12), "uniform", "1/2", "3")),
            base_ops=240,
            pipeline_args=("--unit-selector", "exact"),
        ),
        ConstantsWorkload("constants-table"),
    )
}
