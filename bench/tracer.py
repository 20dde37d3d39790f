"""Per-layer spans and counters recorded from outside the package.

The tracer wraps public functions of the cubecover modules at every name
that binds them (``from .geometry import union_volume`` in ``selection``
binds a second name), so calls between modules pass through the wrapper too.
It changes no package source: :meth:`Tracer.remove` puts every original
function back, and the run checks that it did.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it encloses, so the self times of all layers plus
the benchmark's own share add up to the op time.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# Functions wrapped with a timed span, by module of definition.
SPANS = {
    "geometry": ("union_volume", "make_selection"),
    "selection": (
        "pipeline_select",
        "lacunary_select",
        "window_select",
        "congruent_select",
        "greedy_vitali",
        "auto_params",
    ),
    "oracle": ("phi_exact", "intersection_graph", "verify_guarantee"),
    "constants": ("bounds_table", "optimize_L", "bdj_lambda", "improvement_frontier", "asymptotic_check"),
    "cli": ("main", "build_parser", "collection_from_json", "selection_to_json"),
    "generators": ("generate",),
}
# Functions cheap and frequent enough that a timed span would distort the
# caller's time; they are only counted, and their time stays in the caller.
COUNTED = {"geometry": ("intersects",)}


def package_modules() -> list:
    """Every loaded module of the cubecover package."""
    return [m for name, m in sys.modules.items() if name == "cubecover" or name.startswith("cubecover.")]


class Tracer:
    """Wraps the package's layer functions and accumulates per-layer totals."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0  # time inside outermost spans, for the op's own share
        self._stack: list[float] = []  # child time of each open span
        self._seen: set = set()  # collections passed to union_volume this op
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self._seen.clear()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for mod_name, names in table.items():
                mod = sys.modules[f"cubecover.{mod_name}"]
                for name in names:
                    fn = getattr(mod, name)
                    wrappers[id(fn)] = (fn, make(f"{mod_name}.{name}", fn))
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _counter(self, key: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, key: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        note = getattr(self, "_note_" + key.replace(".", "_"), None)

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if note is not None:
                    note(args, result)
                dt = time.perf_counter() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt

        return span

    # Counters taken at a span, named after it; each runs inside the span's
    # timed interval, so its small cost is charged to that layer.

    def _note_geometry_union_volume(self, args, result) -> None:
        c = args[0]
        self.counts["geometry.union_volume.cubes"] += len(c.cubes)
        if c in self._seen:
            self.counts["geometry.union_volume.repeat_calls"] += 1
        else:
            self._seen.add(c)

    def _note_oracle_intersection_graph(self, args, result) -> None:
        if result is not None:
            self.counts["oracle.intersection_graph.edges"] += sum(a.bit_count() for a in result.adjacency) // 2

    def _note_cli_main(self, args, result) -> None:
        if result != 0:
            self.counts["cli.main.nonzero_exits"] += 1


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace the enclosed calls, and restore the package's names on exit."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.remove()
