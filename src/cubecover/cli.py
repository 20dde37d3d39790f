"""Command-line interface.

Subcommands: gen, volume, select, oracle, table, verify, frontier.  Instance
and selection files are JSON with exact scalar strings ("p/q" or finite
decimals), never binary floats.  Exit codes: 0 success, 1 malformed input,
2 contract violation, 3 exact-computation cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import mpmath

# Exact pipeline certificates are rationals whose digit counts can exceed the
# interpreter's default int<->str conversion guard (e.g. auto-tuned parameters
# in dimension 14 give J = 71, so lam^(J-1) powers run to thousands of digits).
sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 1_000_000))

from . import constants
from .errors import CapExceededError, InputError, VerificationError
from .generators import GenSpec, generate
from .geometry import Collection, Selection, union_volume
from .oracle import ORACLE_DEFAULT_CAP, phi_exact, verify_guarantee
from .selection import (
    LacunaryStructure,
    PipelineParams,
    Window,
    auto_params,
    congruent_select,
    greedy_vitali,
    lacunary_select,
    pipeline_select,
    unit_gamma,
    window_select,
)


def _excerpt(text: str) -> str:
    # Quote user text in an error message, cut to a prefix plus its length:
    # a rejected scalar can run to millions of characters.
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _parse_pair(text: str) -> tuple[int, int]:
    """A rational scalar as its reduced (numerator, denominator), denominator > 0."""
    text = str(text)
    # Fraction() expands a decimal exponent in full, at a cost that grows
    # faster than the exponent ("1e10000000" takes seconds), so a scalar whose
    # digit count plus exponent passes the int/str conversion limit is refused
    # before converting.  The mantissa's length bounds its digit count, and an
    # exponent is read only to one digit past the limit's own length.
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.lower().partition("e")
    size = len(mantissa)
    if exponent:
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")[: len(str(limit)) + 1]
        size += int(exponent) if exponent.isdecimal() else 0
    if limit and size > limit:
        raise InputError(f"bad scalar {_excerpt(text)}: more than {limit} digits")
    # Plain "p/q" and integers, as this package writes them, skip Fraction's parser.
    num, slash, den = text.partition("/")
    try:
        if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
            p, q = int(num), int(den or 1)
            if not q:
                raise ZeroDivisionError
            g = math.gcd(p, q)
            return p // g, q // g
        x = Fraction(text)
        return x.numerator, x.denominator
    except (ValueError, ZeroDivisionError):
        # Both errors' own messages repeat the whole input.
        raise InputError(f"bad scalar {_excerpt(text)}: not a finite rational") from None


def _parse_scalar(text: str) -> Fraction:
    return Fraction(*_parse_pair(text))


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # int() would take 2.9 as 2, and "2" or true too
        raise TypeError(f"{what} must be a JSON integer, not {type(value).__name__}")
    return value


def collection_to_json(c: Collection, meta: dict | None = None) -> dict:
    doc = {
        "dim": c.dim,
        "cubes": [
            {"center": [str(x) for x in q.center], "radius": str(q.radius)}
            for q in c.cubes
        ],
    }
    if meta:
        doc["meta"] = meta
    return doc


def collection_from_json(doc: dict) -> Collection:
    try:
        dim = _json_int(doc["dim"], "dim")
        cubes = (
            (tuple(_parse_pair(x) for x in entry["center"]), _parse_pair(entry["radius"]))
            for entry in doc["cubes"]
        )
        return Collection.from_pairs(dim, cubes)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from None


def selection_to_json(algo: str, sel: Selection, params: dict | None = None) -> dict:
    doc = {
        "algo": algo,
        "indices": list(sel.indices),
        "achieved_ratio": str(sel.achieved_ratio),
        "certified_bound": str(sel.certified_bound),
    }
    if params:
        doc["params"] = params
    return doc


def selection_from_json(doc: dict) -> Selection:
    try:
        return Selection(
            tuple(_json_int(i, "selection index") for i in doc["indices"]),
            _parse_scalar(doc["achieved_ratio"]),
            _parse_scalar(doc["certified_bound"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed selection: {exc}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_windows(text: str) -> tuple[Window, ...]:
    windows = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        if not hi:
            raise InputError(f"window {part!r} is not LO:HI")
        windows.append(Window(_parse_scalar(lo), _parse_scalar(hi)))
    return tuple(windows)


def cmd_gen(args) -> int:
    law = None
    if args.kind == "random":
        if args.n is None or args.rmin is None or args.rmax is None:
            raise InputError("random generation needs --n, --rmin, --rmax")
        law = (args.radius_law, _parse_scalar(args.rmin), _parse_scalar(args.rmax))
    structure = None
    if args.kind == "lacunary":
        if args.windows is None or args.lam is None or args.mu is None or args.per_window is None:
            raise InputError("lacunary generation needs --windows, --lambda, --mu, --per-window")
        structure = LacunaryStructure(_parse_windows(args.windows), _parse_scalar(args.lam), _parse_scalar(args.mu))
    spec = GenSpec(
        kind=args.kind,
        dim=args.d,
        seed=args.seed,
        levels=args.levels,
        count=args.n,
        radius_law=law,
        structure=structure,
        per_window=args.per_window,
    )
    c = generate(spec)
    meta = {"kind": args.kind, "d": args.d, "seed": args.seed}
    if args.kind == "dyadic":
        meta["levels"] = args.levels
    if args.kind == "random":
        meta["n"] = args.n
        meta["radius_law"] = [args.radius_law, str(law[1]), str(law[2])]
    if args.kind == "lacunary":
        meta["windows"] = args.windows
        meta["lambda"] = args.lam
        meta["mu"] = args.mu
        meta["per_window"] = args.per_window
    _write_json(collection_to_json(c, meta), args.out)
    return 0


def cmd_volume(args) -> int:
    c = collection_from_json(_load_json(args.infile))
    vol = union_volume(c, args.method)
    if sys.float_info.min <= vol <= sys.float_info.max:
        approx = f"{float(vol):.12g}"
    else:  # beyond the normal float range, where float() overflows or loses digits: 12 from mpmath
        approx = mpmath.nstr(mpmath.mpf(vol.numerator) / vol.denominator, 12)
    print(f"{vol}\t{approx}")
    return 0


def _instance_window(c: Collection) -> Window:
    radii = c.grid.radii
    return Window(Fraction(min(radii), c.grid.rdenom), Fraction(max(radii), c.grid.rdenom))


def cmd_select(args) -> int:
    c = collection_from_json(_load_json(args.infile))
    mode = args.unit_selector
    params: dict = {"unit_selector": mode}
    if args.algo == "greedy":
        sel = greedy_vitali(c)
        params = {}
    elif args.algo == "congruent":
        sel = congruent_select(c, mode, args.cap)
    elif args.algo == "window":
        w = _parse_windows(args.window)[0] if args.window else _instance_window(c)
        sel = window_select(c, w, mode, args.cap)
        params.update({"window": f"{w.lo}:{w.hi}"})
    elif args.algo == "lacunary":
        if args.windows:
            if args.lam is None or args.mu is None:
                raise InputError("lacunary selection with --windows needs --lambda and --mu")
            structure = LacunaryStructure(_parse_windows(args.windows), _parse_scalar(args.lam), _parse_scalar(args.mu))
        else:
            w = _instance_window(c)
            lam = _parse_scalar(args.lam) if args.lam else Fraction(2)
            structure = LacunaryStructure((w,), lam, max(Fraction(1), w.hi / w.lo))
        sel = lacunary_select(c, structure, mode, args.cap)
        params.update({
            "windows": ",".join(f"{w.lo}:{w.hi}" for w in structure.windows),
            "lambda": str(structure.lam),
            "mu": str(structure.mu),
        })
    elif args.algo == "pipeline":
        if (args.J is None) != (args.lam is None):
            raise InputError("pipeline selection needs both --J and --lambda, or neither")
        if args.J is not None:
            p = PipelineParams(args.J, _parse_scalar(args.lam), mode)
        elif c.dim >= 2:
            p = auto_params(c.dim, mode)
        else:
            p = PipelineParams(3, Fraction(2), mode)
        sel = pipeline_select(c, p, args.cap)
        params.update({"J": p.J, "lambda": str(p.lam), "gamma_guarantee": str(unit_gamma(c.dim, mode))})
    else:
        raise InputError(f"unknown algorithm {args.algo!r}")
    _write_json(selection_to_json(args.algo, sel, params), args.out)
    return 0


def cmd_oracle(args) -> int:
    c = collection_from_json(_load_json(args.infile))
    phi, witness = phi_exact(c, args.cap)
    print(f"phi\t{phi}\t{float(phi):.12g}")
    print("witness\t" + ",".join(str(i) for i in witness.indices))
    return 0


def _fixed(x, digits: int) -> str:
    # Fixed-point decimal string of a positive high-precision float.
    if digits <= 0:
        return str(int(mpmath.nint(x)))
    scaled = int(mpmath.nint(x * mpmath.mpf(10) ** digits))
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{whole}.{frac:0{digits}d}"


def _scientific(x) -> str:
    # d.dddddde±XX of a positive high-precision float; below the normal float
    # range float() loses digits and then reaches 0, so mpmath formats it.
    approx = float(x)
    if approx >= sys.float_info.min:
        return f"{approx:.6e}"
    return mpmath.nstr(x, 7, strip_zeros=False, min_fixed=0, max_fixed=0)


def cmd_table(args) -> int:
    rows = constants.bounds_table(args.dmax)
    headers = ["d", "L_d", "m_d", "m_d/3^d"]
    if args.compare:
        headers += ["vitali", "rado", "bdj", "ours"]
    lines = [headers]
    for row in rows:
        cells = [str(row.d), str(row.L), _fixed(row.m, args.digits), _fixed(row.m_over_3d, args.digits)]
        if args.compare:
            cells += [_scientific(v) for v in (row.vitali, row.rado, row.bdj, row.ours)]
        lines.append(cells)
    if args.format == "md":
        print("| " + " | ".join(lines[0]) + " |")
        print("|" + "|".join("---" for _ in lines[0]) + "|")
        for cells in lines[1:]:
            print("| " + " | ".join(cells) + " |")
    else:
        for cells in lines:
            print("\t".join(cells))
    return 0


def cmd_verify(args) -> int:
    c = collection_from_json(_load_json(args.infile))
    sel = selection_from_json(_load_json(args.sel))
    report = verify_guarantee(c, sel, args.cap)
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        print(f"{mark}\t{check.name}\t{check.detail}")
    return 0 if report.ok else 2


def cmd_frontier(args) -> int:
    dim = constants.improvement_frontier()
    L14, _, m14 = constants.optimize_L(dim)
    with mpmath.workdps(15):
        ratio14 = m14 / mpmath.mpf(3) ** dim
        g_at = constants.g_eval(L14)
        print(f"improvement dimension\t{dim}")
        print(f"L_{dim}\t{L14}")
        print(f"m_{dim}/3^{dim}\t{mpmath.nstr(ratio14, 6)}")
        print(f"g(L_{dim})\t{mpmath.nstr(g_at, 6)}")
        print(f"(2/3)*g(L_{dim})\t{mpmath.nstr(2 * g_at / 3, 6)}")
        print(f"g(8)\t{mpmath.nstr(constants.g_eval(8), 6)}")
        print(f"g(9)\t{mpmath.nstr(constants.g_eval(9), 6)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecover",
        description="Select large-volume disjoint sub-collections of axis-parallel cubes, "
        "compute exact optima, and emit bound-constant tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=["cell", "dyadic", "random", "lacunary"])
    g.add_argument("--d", required=True, type=int, help="ambient dimension")
    g.add_argument("--levels", type=int, help="dyadic recursion depth")
    g.add_argument("--n", type=int, help="random cube count")
    g.add_argument("--radius-law", choices=["uniform", "loguniform"], default="uniform")
    g.add_argument("--rmin", help="lower radius bound (exact scalar)")
    g.add_argument("--rmax", help="upper radius bound (exact scalar)")
    g.add_argument("--windows", help="lacunary windows as LO:HI,LO:HI,...")
    g.add_argument("--lambda", dest="lam", help="lacunary gap factor")
    g.add_argument("--mu", help="lacunary in-window ratio bound")
    g.add_argument("--per-window", dest="per_window", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output file (default: stdout)")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("volume", help="exact union volume of an instance")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--method", choices=["compression", "ie"], default="compression")
    v.set_defaults(func=cmd_volume)

    s = sub.add_parser("select", help="run a selector and write the selection")
    s.add_argument("--algo", required=True, choices=["greedy", "congruent", "window", "lacunary", "pipeline"])
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--J", type=int, help="pipeline class count")
    s.add_argument("--lambda", dest="lam", help="pipeline/lacunary scale ratio (exact scalar)")
    s.add_argument("--unit-selector", dest="unit_selector", choices=["sweep", "exact"], default="sweep")
    s.add_argument("--window", help="window as LO:HI (default: instance radius range)")
    s.add_argument("--windows", help="lacunary windows as LO:HI,LO:HI,...")
    s.add_argument("--mu", help="lacunary in-window ratio bound")
    s.add_argument("--cap", type=int, default=ORACLE_DEFAULT_CAP)
    s.add_argument("--out", help="output file (default: stdout)")
    s.set_defaults(func=cmd_select)

    o = sub.add_parser("oracle", help="exact best disjoint sub-collection")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--cap", type=int, default=ORACLE_DEFAULT_CAP)
    o.set_defaults(func=cmd_oracle)

    t = sub.add_parser("table", help="bound-constant table")
    t.add_argument("--dmax", required=True, type=int)
    t.add_argument("--format", choices=["tsv", "md"], default="tsv")
    t.add_argument("--compare", action="store_true", help="add competing-bound columns")
    t.add_argument("--digits", type=int, default=3)
    t.set_defaults(func=cmd_table)

    w = sub.add_parser("verify", help="re-check a selection against its instance")
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--sel", required=True)
    w.add_argument("--cap", type=int, default=ORACLE_DEFAULT_CAP)
    w.set_defaults(func=cmd_verify)

    f = sub.add_parser("frontier", help="verified improvement dimension and its certificate")
    f.set_defaults(func=cmd_frontier)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of a process; parse_args leaves a parser as it was.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
