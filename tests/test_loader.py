"""The instance loader reads files straight onto the integer grid.

The reference is the Fraction-first loader it replaced, kept here verbatim
in substance: one ``Fraction`` per scalar, one ``Cube`` per cube, then
``Collection(dim, cubes)``.  Both must give equal collections, equal grids
and the same error messages, in the same order of checks.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from cubecover import cli
from cubecover.cli import collection_from_json, main
from cubecover.errors import InputError
from cubecover.geometry import Collection, Cube
from test_golden import INSTANCES, _mix_denominators


def _reference_parse_scalar(text):
    text = str(text)
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lower().partition("e")
    size = len(mantissa)
    if exponent:
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")[: len(str(limit)) + 1]
        size += int(exponent) if exponent.isdecimal() else 0
    if limit and size > limit:
        raise InputError(f"bad scalar {cli._excerpt(text)}: more than {limit} digits")
    num, slash, den = text.partition("/")
    try:
        if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den or 1))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad scalar {cli._excerpt(text)}: not a finite rational") from None


def reference_collection_from_json(doc):
    try:
        dim = cli._json_int(doc["dim"], "dim")
        cubes = []
        for entry in doc["cubes"]:
            center = tuple(_reference_parse_scalar(x) for x in entry["center"])
            cubes.append(Cube(center, _reference_parse_scalar(entry["radius"])))
        return Collection(dim, tuple(cubes))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from None


def _generated(name):
    gen_args, mix = INSTANCES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *gen_args]) == 0
    doc = json.loads(out.getvalue())
    if mix:
        _mix_denominators(doc)
    return doc


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_loader_matches_fraction_first_reference(name):
    doc = _generated(name)
    new, old = collection_from_json(doc), reference_collection_from_json(doc)
    assert "cubes" not in vars(new)  # loaded onto the grid, no Cube yet
    assert new.grid == old.grid
    assert new == old and hash(new) == hash(old)
    assert new.cubes == old.cubes
    assert all(type(x) is Fraction for q in new.cubes for x in (*q.center, q.radius))


def _cube(center, radius="1"):
    return {"center": center, "radius": radius}


HOSTILE = {
    "empty-center": {"dim": 2, "cubes": [_cube([])]},
    "radius-0": {"dim": 1, "cubes": [_cube(["0"], "0")]},
    "radius-minus-1": {"dim": 1, "cubes": [_cube(["0"], "-1")]},
    "radius-negative-fraction": {"dim": 1, "cubes": [_cube(["0"], "-0/5")]},
    "dimension-mismatch": {"dim": 2, "cubes": [_cube(["0", "0"]), _cube(["0"])]},
    "center-1/0": {"dim": 1, "cubes": [_cube(["1/0"])]},
    "radius-1/0": {"dim": 1, "cubes": [_cube(["0"], "1/0")]},
    "exponent-1e10000000": {"dim": 1, "cubes": [_cube(["0"], "1e10000000")]},
    "radius-2e6-digits": {"dim": 1, "cubes": [_cube(["0"], "7" * 2_000_000)]},
    "center-true": {"dim": 1, "cubes": [_cube([True])]},
    "center-null": {"dim": 1, "cubes": [_cube([None])]},
    "center-list": {"dim": 1, "cubes": [_cube([[1, 2]])]},
    "json-numbers": {"dim": 2, "cubes": [_cube([0.5, -3], 0.25)]},
    "json-number-1e400": {"dim": 1, "cubes": [_cube(["0"], 1e400)]},
    "dim-0": {"dim": 0, "cubes": [_cube(["0"])]},
    "dim-0-no-cubes": {"dim": 0, "cubes": []},
    "dim-true": {"dim": True, "cubes": []},
    "dim-0.5": {"dim": 0.5, "cubes": []},
    "no-cubes-key": {"dim": 2},
    "no-dim-key": {"cubes": []},
    "cubes-not-a-list": {"dim": 1, "cubes": 3},
    "cube-not-an-object": {"dim": 1, "cubes": [["0", "1"]]},
    "center-not-a-list": {"dim": 1, "cubes": [_cube(7)]},
    "no-radius": {"dim": 1, "cubes": [{"center": ["0"]}]},
    "document-a-list": [1, 2],
    "empty-collection": {"dim": 3, "cubes": []},
    "unreduced": {"dim": 2, "cubes": [_cube(["2/4", "-6/8"], "10/20"), _cube(["0/7", "3"], "4/2")]},
    # Several faults: the first one met in reading order wins.
    "radius-0-then-bad-scalar": {"dim": 1, "cubes": [_cube(["0"], "0"), _cube(["x"])]},
    "mismatch-then-bad-scalar": {"dim": 2, "cubes": [_cube(["0"]), _cube(["0", "x"])]},
    "mismatch-then-radius-0": {"dim": 2, "cubes": [_cube(["0"]), _cube(["0", "0"], "0")]},
    "dim-0-then-empty-center": {"dim": 0, "cubes": [_cube(["0"]), _cube([])]},
    "dim-0-then-mismatch": {"dim": 0, "cubes": [_cube(["0", "0"])]},
    "bad-center-before-bad-radius": {"dim": 1, "cubes": [_cube(["y"], "x")]},
}


def _outcome(load, doc):
    try:
        c = load(doc)
    except InputError as exc:
        return "error", str(exc)
    return "ok", c


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_loader_fails_as_the_reference_does(name):
    doc = HOSTILE[name]
    new, old = _outcome(collection_from_json, doc), _outcome(reference_collection_from_json, doc)
    assert new == old
    if new[0] == "ok":
        assert new[1].grid == old[1].grid and new[1].cubes == old[1].cubes


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_cli_exit_and_messages_match_the_reference(name, tmp_path, monkeypatch):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(HOSTILE[name]))

    def volume():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["volume", "--in", str(inst)])
        return code, out.getvalue(), err.getvalue()

    new = volume()
    monkeypatch.setattr(cli, "collection_from_json", reference_collection_from_json)
    assert volume() == new
    assert new[0] in (0, 1)


def _count_cubes(monkeypatch):
    built = []
    post_init = Cube.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Cube, "__post_init__", counting)
    return built


def _gen_random(path, n, rmin, rmax, law="loguniform"):
    gen = ["gen", "--kind", "random", "--d", "2", "--n", str(n), "--radius-law", law,
           "--rmin", rmin, "--rmax", rmax, "--seed", "5", "--out", str(path)]
    assert main(gen) == 0


def test_verify_and_greedy_select_build_no_cube(tmp_path, monkeypatch):
    # Above the oracle's cap, neither call needs the Fraction view.
    inst, sel = tmp_path / "inst.json", tmp_path / "sel.json"
    _gen_random(inst, 40, "1/16", "4")
    built = _count_cubes(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["select", "--algo", "greedy", "--in", str(inst), "--out", str(sel)]) == 0
        assert main(["verify", "--in", str(inst), "--sel", str(sel)]) == 0
    assert built == []
    assert "FAIL" not in out.getvalue()
    # The counter sees the cubes that reading the Fraction view builds.
    assert len(collection_from_json(json.loads(inst.read_text())).cubes) == len(built) == 40


# name -> (instance, CLI arguments after the instance file); {sel} is a pipeline selection
GRID_ONLY_CALLS = {
    "select-pipeline": ("random", ("select", "--algo", "pipeline", "--out", "{sel}")),
    "select-pipeline-exact": ("random", ("select", "--algo", "pipeline", "--unit-selector", "exact")),
    "select-congruent": ("congruent", ("select", "--algo", "congruent")),
    "select-congruent-exact": ("congruent", ("select", "--algo", "congruent", "--unit-selector", "exact")),
    "select-window": ("random", ("select", "--algo", "window")),
    "select-window-exact": ("random", ("select", "--algo", "window", "--unit-selector", "exact")),
    "select-lacunary": ("random", ("select", "--algo", "lacunary")),
    "select-lacunary-exact": ("random", ("select", "--algo", "lacunary", "--unit-selector", "exact")),
    "oracle": ("random", ("oracle",)),
    "verify-under-oracle-cap": ("random", ("verify", "--sel", "{sel}")),
}


@pytest.mark.parametrize("name", sorted(GRID_ONLY_CALLS))
def test_selectors_and_oracle_build_no_cube(name, tmp_path, monkeypatch):
    # 20 cubes, under the oracle's cap: the selectors, their exact modes, the
    # oracle and verify's optimum check all run on the grid alone.
    paths = {"random": tmp_path / "random.json", "congruent": tmp_path / "congruent.json"}
    _gen_random(paths["random"], 20, "1/16", "4")
    _gen_random(paths["congruent"], 20, "1", "1", "uniform")
    sel = tmp_path / "sel.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["select", "--algo", "pipeline", "--in", str(paths["random"]), "--out", str(sel)]) == 0
    kind, args = GRID_ONLY_CALLS[name]
    built = _count_cubes(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([args[0], "--in", str(paths[kind]), *(a.format(sel=sel) for a in args[1:])]) == 0
    assert built == []
    assert "FAIL" not in out.getvalue()
    # The inclusion-exclusion reference reads the Fraction view, and is seen.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["volume", "--method", "ie", "--in", str(paths[kind])]) == 0
    assert len(built) == 20


def test_collection_equality_and_hash_need_no_cubes():
    doc = {"dim": 2, "cubes": [_cube(["1/3", "-1/4"], "1/6"), _cube(["2", "0"], "5/2")]}
    a, b = collection_from_json(doc), collection_from_json(doc)
    assert a == b and hash(a) == hash(b) and len(a) == 2
    assert "cubes" not in vars(a) and "cubes" not in vars(b)
    assert a != collection_from_json({**doc, "dim": 2, "cubes": doc["cubes"][:1]})
    built = Collection(2, (Cube((Fraction(1, 3), Fraction(-1, 4)), Fraction(1, 6)), Cube((2, 0), Fraction(5, 2))))
    assert a == built and hash(a) == hash(built) and a.cubes == built.cubes
    with pytest.raises(AttributeError):
        a.dim = 3
