"""CLI outputs pinned byte for byte on a seeded instance grid.

``tests/data/cli_golden.json`` holds, for every instance and every call, the
exit code and the SHA-256 of stdout and stderr, so "same indices, same exact
ratios, same certificates" is checked rather than claimed.  The constants
engine's calls, which read no instance, are pinned the same way.  The file is
regenerated only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import pytest

from cubecover.cli import main
from support import DATA_DIR

GOLDEN_PATH = os.path.join(DATA_DIR, "cli_golden.json")

LOGUNIFORM = ("--radius-law", "loguniform", "--rmin", "1/16", "--rmax", "4")
UNIFORM = ("--radius-law", "uniform", "--rmin", "1/2", "--rmax", "3")
LACUNARY = ("--windows", "1/16:1/8,1/2:1,4:8", "--lambda", "4", "--mu", "2", "--per-window", "12")


def _random(d, n, law, seed):
    return ("--kind", "random", "--d", str(d), "--n", str(n), *law, "--seed", str(seed))


# name -> (gen arguments, whether to move the instance off the generators' grid)
INSTANCES = {
    **{f"random-d2-n300-s{s}": (_random(2, 300, LOGUNIFORM, s), False) for s in (1, 2, 3)},
    **{f"random-d8-n{n}-s{s}": (_random(8, n, LOGUNIFORM, s), False) for s, n in ((1, 40), (2, 50))},
    **{f"random-d14-n{n}-s{s}": (_random(14, n, LOGUNIFORM, s), False) for s, n in ((1, 40), (2, 50))},
    **{f"uniform-d3-n30-s{s}": (_random(3, 30, UNIFORM, s), False) for s in (1, 2, 3)},
    **{f"mixed-d3-n30-s{s}": (_random(3, 30, UNIFORM, s), True) for s in (4, 5)},
    "mixed-d2-n40-s6": (_random(2, 40, LOGUNIFORM, 6), True),
    "mixed-d8-n30-s7": (_random(8, 30, LOGUNIFORM, 7), True),
    **{f"lacunary-d3-s{s}": (("--kind", "lacunary", "--d", "3", *LACUNARY, "--seed", str(s)), False) for s in (1, 2)},
    "dyadic-d3-l2": (("--kind", "dyadic", "--d", "3", "--levels", "2"), False),
    "cell-d4": (("--kind", "cell", "--d", "4"), False),
}

# name -> CLI arguments after the instance file; {sel} is the pipeline selection
CALLS = {
    "volume": ("volume",),
    "select-pipeline": ("select", "--algo", "pipeline", "--out", "{sel}"),
    "select-pipeline-exact": ("select", "--algo", "pipeline", "--unit-selector", "exact"),
    "select-greedy": ("select", "--algo", "greedy"),
    **{
        f"select-{algo}{suffix}": ("select", "--algo", algo, "--unit-selector", mode)
        for algo in ("congruent", "window", "lacunary")
        for mode, suffix in (("sweep", ""), ("exact", "-exact"))
    },
    "oracle": ("oracle",),
    "verify-pipeline": ("verify", "--sel", "{sel}"),
}

# name -> CLI arguments of a constants-engine call
CONSTANTS_CALLS = {
    "table-d40-compare": ("table", "--dmax", "40", "--compare"),
    "table-d40-compare-md-digits45": ("table", "--dmax", "40", "--compare", "--format", "md", "--digits", "45"),
    "table-d106-compare-digits20": ("table", "--dmax", "106", "--compare", "--digits", "20"),
    "frontier": ("frontier",),
}


def _mix_denominators(doc):
    # Shift every center coordinate and radius by small fractions with odd,
    # pairwise different denominators, so axes and cubes disagree on them.
    for i, cube in enumerate(doc["cubes"]):
        cube["center"] = [str(Fraction(x) + Fraction(i % 5, 3 + 2 * a)) for a, x in enumerate(cube["center"])]
        cube["radius"] = str(Fraction(cube["radius"]) + Fraction(1, 9 + 2 * (i % 4)))


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = {name: hashlib.sha256(stream.getvalue().encode()).hexdigest() for name, stream in (("stdout", out), ("stderr", err))}
    return {"exit": code, **digest}


def run_instance(name, workdir):
    """Every call's exit code and output digests on one instance."""
    gen_args, mix = INSTANCES[name]
    inst = os.path.join(workdir, f"{name}.json")
    sel = os.path.join(workdir, f"{name}-sel.json")
    results = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *gen_args]) == 0
    results["gen"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    doc = json.loads(out.getvalue())
    if mix:
        _mix_denominators(doc)
    with open(inst, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    for call, args in CALLS.items():
        argv = [args[0], "--in", inst, *(a.format(sel=sel) for a in args[1:])]
        results[call] = _call(argv)
    return results


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cli_outputs_match_golden(name, tmp_path):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert run_instance(name, str(tmp_path)) == golden[name]


@pytest.mark.parametrize("name", sorted(CONSTANTS_CALLS))
def test_constants_outputs_match_golden(name):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert _call(list(CONSTANTS_CALLS[name])) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        table = {name: run_instance(name, work) for name in sorted(INSTANCES)}
    table.update({name: _call(list(args)) for name, args in CONSTANTS_CALLS.items()})
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
