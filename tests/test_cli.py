import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import cubecover
from cubecover import cli, constants
from cubecover.cli import collection_from_json, collection_to_json, main, selection_from_json
from cubecover.errors import InputError
from support import load_golden_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_cell_then_oracle(tmp_path, capsys):
    inst = tmp_path / "cell2.json"
    code, _ = run(capsys, "gen", "--kind", "cell", "--d", "2", "--out", str(inst))
    assert code == 0
    code, out = run(capsys, "oracle", "--in", str(inst))
    assert code == 0
    assert "phi\t1/4" in out


def test_volume_both_methods(tmp_path, capsys):
    inst = tmp_path / "cell2.json"
    run(capsys, "gen", "--kind", "cell", "--d", "2", "--out", str(inst))
    code, out = run(capsys, "volume", "--in", str(inst))
    assert code == 0 and out.startswith("4\t")
    code, out = run(capsys, "volume", "--in", str(inst), "--method", "ie")
    assert code == 0 and out.startswith("4\t")


def test_gen_round_trip_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    flags = ["gen", "--kind", "random", "--d", "2", "--n", "8", "--rmin", "1/2", "--rmax", "2", "--seed", "9"]
    assert run(capsys, *flags, "--out", str(a))[0] == 0
    assert run(capsys, *flags, "--out", str(b))[0] == 0
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    c = collection_from_json(doc)
    assert collection_to_json(c, doc.get("meta")) == doc


def test_select_then_verify_ok(tmp_path, capsys):
    inst = tmp_path / "r.json"
    sel = tmp_path / "sel.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--n", "10", "--rmin", "1/4", "--rmax", "4",
        "--radius-law", "loguniform", "--seed", "6", "--out", str(inst))
    code, _ = run(capsys, "select", "--algo", "pipeline", "--in", str(inst), "--out", str(sel))
    assert code == 0
    doc = json.loads(sel.read_text())
    assert doc["algo"] == "pipeline" and doc["params"]["J"] == 6
    code, out = run(capsys, "verify", "--in", str(inst), "--sel", str(sel))
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("algo", ["greedy", "window", "lacunary"])
def test_select_other_algos_verify(tmp_path, capsys, algo):
    inst = tmp_path / "r.json"
    sel = tmp_path / "sel.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--n", "9", "--rmin", "1/2", "--rmax", "3",
        "--seed", "4", "--out", str(inst))
    code, _ = run(capsys, "select", "--algo", algo, "--in", str(inst), "--out", str(sel))
    assert code == 0
    assert run(capsys, "verify", "--in", str(inst), "--sel", str(sel))[0] == 0


def test_select_pipeline_explicit_params(tmp_path, capsys):
    inst = tmp_path / "r.json"
    sel = tmp_path / "sel.json"
    run(capsys, "gen", "--kind", "random", "--d", "1", "--n", "6", "--rmin", "1/2", "--rmax", "4",
        "--seed", "2", "--out", str(inst))
    code, _ = run(capsys, "select", "--algo", "pipeline", "--in", str(inst),
                  "--J", "4", "--lambda", "3/2", "--out", str(sel))
    assert code == 0
    assert json.loads(sel.read_text())["params"]["lambda"] == "3/2"


def _pipeline_with(tmp_path, capsys, *flags):
    inst = tmp_path / "r.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--n", "6", "--rmin", "1/2", "--rmax", "4",
        "--seed", "2", "--out", str(inst))
    return run(capsys, "select", "--algo", "pipeline", "--in", str(inst), *flags)


def test_select_pipeline_lone_J_exits_1(tmp_path, capsys):
    assert _pipeline_with(tmp_path, capsys, "--J", "5") == (1, "")


def test_select_pipeline_lone_lambda_exits_1(tmp_path, capsys):
    assert _pipeline_with(tmp_path, capsys, "--lambda", "3/2") == (1, "")


# Runs main on argv and prints its wall time; a child process, so that a hang
# ends at the subprocess timeout instead of stalling the suite.
TIMED_MAIN = """
import sys, time
from cubecover.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


@pytest.mark.parametrize("lam", ["1.000001", "1." + "0" * 29 + "1", "1." + "0" * 399 + "1"])
def test_select_pipeline_lambda_near_1_exits_3_fast(tmp_path, capsys, lam):
    # Band exponents near |m| = 2.8e6 (and far beyond) would take powers of
    # millions of bits; the cap refuses before forming any.  The last lambda's
    # logarithm is below the float range.
    inst = tmp_path / "r.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--n", "20", "--radius-law", "loguniform",
        "--rmin", "1/16", "--rmax", "4", "--seed", "5", "--out", str(inst))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cubecover.__file__))}
    argv = ["select", "--algo", "pipeline", "--J", "3", "--lambda", lam, "--in", str(inst)]
    proc = subprocess.run([sys.executable, "-c", TIMED_MAIN, *argv], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 3
    assert "band-exponent cap" in proc.stderr
    assert float(proc.stdout) < 1
    # Far enough from 1, the same call finishes.
    argv[argv.index(lam)] = "1.001"
    assert run(capsys, *argv)[0] == 0


def test_verify_corrupted_selection_exits_2(tmp_path, capsys):
    inst = tmp_path / "cell.json"
    sel = tmp_path / "bad.json"
    run(capsys, "gen", "--kind", "cell", "--d", "2", "--out", str(inst))
    sel.write_text(json.dumps({
        "algo": "greedy",
        "indices": [0, 1],
        "achieved_ratio": "1/2",
        "certified_bound": "1/9",
    }))
    code, out = run(capsys, "verify", "--in", str(inst), "--sel", str(sel))
    assert code == 2
    assert "FAIL" in out and "disjoint" in out


def test_oracle_cap_exceeded_exits_3(tmp_path, capsys):
    inst = tmp_path / "cell.json"
    run(capsys, "gen", "--kind", "cell", "--d", "2", "--out", str(inst))
    assert run(capsys, "oracle", "--in", str(inst), "--cap", "2")[0] == 3


def test_malformed_file_exits_1(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert run(capsys, "volume", "--in", str(junk))[0] == 1
    missing_field = tmp_path / "m.json"
    missing_field.write_text(json.dumps({"dim": 2}))
    assert run(capsys, "volume", "--in", str(missing_field))[0] == 1


def test_hostile_scalar_exits_1(tmp_path, capsys):
    # Converting this 10-byte radius would build a ten-million-digit integer.
    inst = tmp_path / "hostile.json"
    inst.write_text(json.dumps({"dim": 1, "cubes": [{"center": ["0"], "radius": "1e10000000"}]}))
    assert run(capsys, "oracle", "--in", str(inst))[0] == 1


def test_huge_scalar_error_is_short(tmp_path, capsys):
    inst = tmp_path / "long.json"
    inst.write_text(json.dumps({"dim": 1, "cubes": [{"center": ["0"], "radius": "7" * 2_000_000}]}))
    assert main(["volume", "--in", str(inst)]) == 1
    assert 0 < len(capsys.readouterr().err) < 1024


@pytest.mark.parametrize("cube", [
    {"center": ["0", "0"], "radius": "-1"},
    {"center": ["0"], "radius": "1"},
])
def test_invalid_cube_exits_1(tmp_path, capsys, cube):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"dim": 2, "cubes": [cube]}))
    assert run(capsys, "volume", "--in", str(inst))[0] == 1


@pytest.mark.parametrize("indices", [[0.7, 1.2], [0.0], [True], ["0"]])
def test_verify_non_integer_indices_exit_1(tmp_path, capsys, indices):
    # int() would read [0.7, 1.2] as [0, 1], and every check would pass.
    inst = tmp_path / "r.json"
    sel = tmp_path / "sel.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--n", "6", "--rmin", "1/8", "--rmax", "1/4",
        "--seed", "2", "--out", str(inst))
    assert run(capsys, "select", "--algo", "greedy", "--in", str(inst), "--out", str(sel))[0] == 0
    doc = json.loads(sel.read_text())
    sel.write_text(json.dumps({**doc, "indices": indices}))
    code, out = run(capsys, "verify", "--in", str(inst), "--sel", str(sel))
    assert code == 1 and out == ""
    with pytest.raises(InputError, match="JSON integer"):
        selection_from_json({**doc, "indices": indices})


@pytest.mark.parametrize("dim", [2.9, 2.0, True, "2"])
def test_non_integer_dim_exits_1(tmp_path, capsys, dim):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"dim": dim, "cubes": [{"center": ["0", "0"], "radius": "1"}]}))
    assert run(capsys, "volume", "--in", str(inst))[0] == 1
    with pytest.raises(InputError, match="dim must be a JSON integer"):
        collection_from_json(json.loads(inst.read_text()))


def test_long_certificates_still_parse():
    # A d=14 pipeline certificate runs to about 10^4 digits on each side.
    cert = Fraction(2, 3) ** 20000
    doc = {"indices": [0], "achieved_ratio": "1/2", "certified_bound": str(cert)}
    assert selection_from_json(doc).certified_bound == cert


def test_bad_flags_exit_1(capsys):
    assert main(["select", "--algo", "quantum", "--in", "x.json"]) == 1
    assert main(["frobnicate"]) == 1


def test_table_matches_golden(capsys):
    code, out = run(capsys, "table", "--dmax", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["d", "L_d", "m_d", "m_d/3^d"]
    golden = load_golden_table()
    assert len(lines) == 21
    for line, (d, L, m, m3d) in zip(lines[1:], golden):
        cells = line.split("\t")
        assert int(cells[0]) == d and int(cells[1]) == L
        assert abs(float(cells[2]) - m) <= 5e-4
        assert abs(float(cells[3]) - m3d) <= 5e-4
    assert "14\t69\t3811881.534\t0.797" in out


def test_table_markdown_and_compare(capsys):
    code, out = run(capsys, "table", "--dmax", "2", "--format", "md", "--compare")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("| d |") and "ours" in header
    assert out.count("|") > 10


def test_table_digits_flag(capsys):
    _, out = run(capsys, "table", "--dmax", "1", "--digits", "6")
    assert "16.970563" in out


@pytest.mark.parametrize("dmax,compare", [(120, ()), (300, ("--compare",))])
def test_table_past_d106(capsys, dmax, compare):
    # From d = 107 on, 3^d - 1/2 is not representable in 50 digits.
    code, out = run(capsys, "table", "--dmax", str(dmax), *compare)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == dmax + 1
    if compare:
        assert lines[0].split("\t")[4:7] == ["vitali", "rado", "bdj"]
        for line in lines[1:]:
            cells = line.split("\t")
            assert float(cells[6]) >= float(cells[4]), cells[0]


def test_table_compare_below_float_range(capsys):
    # From d = 645 the comparison columns are subnormal as floats, and from
    # d = 680 they would print as zero.
    code, out = run(capsys, "table", "--dmax", "700", "--compare")
    assert code == 0
    cells = out.splitlines()[-1].split("\t")
    assert cells[0] == "700"
    three = mpmath.mpf(3) ** 700
    want = [1 / three, 1 / (three - mpmath.mpf(7) ** -700), 1 / constants.bdj_lambda(700)]
    for cell, value in zip(cells[4:7], want):
        assert re.fullmatch(r"\d\.\d{6}e-\d{3}", cell), cell
        assert abs(mpmath.mpf(cell) / value - 1) < 5e-7, (cell, value)


def test_frontier_reports_14(capsys):
    code, out = run(capsys, "frontier")
    assert code == 0
    assert out.splitlines()[0] == "improvement dimension\t14"
    assert "g(L_14)" in out


def test_gen_lacunary_cli(tmp_path, capsys):
    inst = tmp_path / "lac.json"
    code, _ = run(capsys, "gen", "--kind", "lacunary", "--d", "2",
                  "--windows", "1:2,8:16", "--lambda", "4", "--mu", "2",
                  "--per-window", "3", "--seed", "5", "--out", str(inst))
    assert code == 0
    c = collection_from_json(json.loads(inst.read_text()))
    assert len(c) == 6


def test_gen_dyadic_cli_stdout(capsys):
    code, out = run(capsys, "gen", "--kind", "dyadic", "--d", "1", "--levels", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cubes"]) == 3


def test_gen_dyadic_over_cap_exits_3(capsys):
    # 2^120 cubes at the last level: refused by count, before any allocation.
    assert run(capsys, "gen", "--kind", "dyadic", "--d", "40", "--levels", "3") == (3, "")


def test_gen_cell_over_cap_exits_3(capsys):
    # 2^40 cubes: refused before any is built.
    assert run(capsys, "gen", "--kind", "cell", "--d", "40") == (3, "")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # The argparse tree is built once per process; calls through it, with
    # bad argv in between, must behave as calls through a fresh tree.
    inst, sel = str(tmp_path / "r.json"), str(tmp_path / "sel.json")
    calls = [
        ["gen", "--kind", "random", "--d", "3", "--n", "6", "--rmin", "1/2", "--rmax", "2", "--seed", "4", "--out", inst],
        ["volume", "--in", inst],
        ["select", "--algo", "quantum", "--in", inst],
        ["select", "--algo", "greedy", "--in", inst, "--out", sel],
        ["volume"],
        ["verify", "--in", inst, "--sel", sel],
        ["frobnicate"],
        ["oracle", "--in", inst],
        ["table", "--dmax", "3", "--format", "md"],
        ["--help"],
        ["volume", "--in", inst, "--method", "ie"],
    ]

    def call(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: builds.append(1) or build())
    cli._parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert len(builds) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0]
