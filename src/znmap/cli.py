"""Command-line front end.

Subcommands: eval, orbit, verify, basin, curve, rotation, unfold-scan,
singularity.  Outputs are deterministic given flags and seed: CSV with a
header row and 17 significant digits, pretty-printed JSON with sorted keys,
and binary PGM (P5) rasters with 255 = converged, 0 = escaped,
128 = undecided, row 0 at the top of the window.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage error, 3 I/O failure.  ZNMAP_SEED overrides the default seed
(0x5EED); an explicit --seed wins over both.  Both take a non-negative
integer literal in any base Python reads (24301, 0x5EED, 0o57355, 0b...).
"""

import argparse
import math
import os
import sys

# the parser needs only these; each command imports what it runs, so
# --version and usage errors load neither numpy nor a znmap submodule
from . import DEFAULT_BUDGET, DEFAULT_EPS_IN, DEFAULT_R_ESCAPE, FAMILIES, K_DEFAULT, TOOL_VERSION


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _seed(text: str) -> int:
    try:
        seed = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer literal such as 5 or "
                                         f"0x5EED; got {text}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative; got {text}")
    return seed


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("ZNMAP_SEED")
    if env is not None:
        return _seed(env)
    from .analysis import DEFAULT_SEED

    return DEFAULT_SEED


def _add_family_flags(sub):
    sub.add_argument("--family", choices=FAMILIES, default="f4")
    sub.add_argument("--k", type=float, default=K_DEFAULT)
    sub.add_argument("--n", type=int, default=4, help="symmetry order of fn/hn")
    sub.add_argument("--alpha", type=float, default=None, help="g4 radial deformation")
    sub.add_argument("--beta", type=float, default=None, help="g4 rotational deformation")
    sub.add_argument("--delta", type=float, default=None, help="g4 twist deformation")
    sub.add_argument("--r0", type=float, default=None,
                     help="radial saturation onset of h/hn")
    sub.add_argument("--r-half", type=float, default=None,
                     help="radial excess halving scale of h/hn")


def _spec_from_args(args):
    """The MapSpec the family flags name.  MapSpec checks which parameters
    each family takes; main reports its ValueError as a usage error."""
    from .maps import MapSpec, RadialProfile

    if args.r_half is not None and args.r0 is None:
        raise ValueError("--r-half requires --r0")
    profile = None
    if args.r0 is not None:
        profile = RadialProfile(args.r0, args.r_half if args.r_half is not None
                                else args.r0)
    return MapSpec(
        family=args.family,
        k=args.k,
        n=args.n,
        alpha=args.alpha or 0.0,
        beta=args.beta or 0.0,
        delta=args.delta or 0.0,
        profile=profile,
    )


def _start(args) -> tuple[float, float]:
    """The --x0/--y0 start; a non-finite one is a usage error for every family."""
    p = (args.x0, args.y0)
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"non-finite point {p!r}")
    return p


def _write_text(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def raster_to_pgm(raster) -> bytes:
    import numpy as np

    codes = np.zeros_like(raster.kinds, dtype=np.uint8)
    codes[raster.kinds == 0] = 128
    codes[raster.kinds == 1] = 255
    codes[raster.kinds == 2] = 0
    header = f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii")
    return header + codes.tobytes()


def _parse_range(parser, text: str, name: str):
    """Either a single float or a:b:count."""
    if ":" not in text:
        return float(text)
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"--{name}: range syntax is start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 2:
        parser.error(f"--{name}: range count must be at least 2")
    import numpy as np

    return np.linspace(start, stop, count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="znmap",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate one map step")
    _add_family_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)

    p = subs.add_parser("orbit", help="iterate and dump an orbit as CSV")
    _add_family_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = subs.add_parser(
        "verify", help="run verification checks",
        description="Run verification checks.  Each check chooses its own map "
                    "families; the family flags only fill the spec echoed in the "
                    "JSON report (--k also sets the checks' k).")
    _add_family_flags(p)
    p.add_argument("--suite", default="all",
                   help="'all' or comma-separated check names")
    p.add_argument("--json", dest="json_path", default=None,
                   help="write the JSON report here")
    p.add_argument("--seed", type=_seed, default=None)

    p = subs.add_parser("basin", help="rasterize orbit classification to PGM")
    _add_family_flags(p)
    p.add_argument("--window", type=float, nargs=4, required=True,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--res", type=int, default=256)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--eps-in", type=float, default=DEFAULT_EPS_IN)
    p.add_argument("--r-escape", type=float, default=DEFAULT_R_ESCAPE)
    p.add_argument("--out", required=True, help="PGM path")

    p = subs.add_parser("curve", help="image of a circle as CSV")
    _add_family_flags(p)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=360)
    p.add_argument("--out", default=None)

    p = subs.add_parser("rotation", help="estimate the rotation number")
    _add_family_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--iters", type=int, default=200)

    p = subs.add_parser("unfold-scan",
                        help="continue the period-4 orbit across a parameter range")
    p.add_argument("--k", type=float, default=K_DEFAULT)
    p.add_argument("--alpha", default="0")
    p.add_argument("--beta", default="0")
    p.add_argument("--delta", default="0")
    p.add_argument("--out", default=None)

    p = subs.add_parser("singularity", help="exact tangent-space computation")
    p.add_argument("--json", dest="json_path", default=None)

    return parser


def _cmd_eval(parser, args) -> int:
    from .maps import eval_map

    spec = _spec_from_args(args)
    x, y = eval_map(spec, _start(args))
    sys.stdout.write(f"x={_fmt(x)} y={_fmt(y)}\n")
    return 0


def _cmd_orbit(parser, args) -> int:
    from .analysis import iterate

    spec = _spec_from_args(args)
    orb = iterate(spec, _start(args), args.steps)
    rows = [(i, float(p[0]), float(p[1])) for i, p in enumerate(orb.points)]
    _write_text(args.out, _csv(("step", "x", "y"), rows))
    if orb.escaped:
        sys.stderr.write("orbit truncated: coordinates overflowed\n")
    return 0


def _cmd_verify(parser, args) -> int:
    import json

    from .verify import run_suite

    spec = _spec_from_args(args)
    names = (None if args.suite == "all"
             else [s.strip() for s in args.suite.split(",") if s.strip()])
    seed = _resolve_seed(args)
    report = run_suite(names, k=args.k, seed=seed, spec_echo=spec.echo())
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        sys.stdout.write(f"{status} {c.name}: statistic={c.statistic:.6g} "
                         f"tolerance={c.tolerance:.6g}\n")
    sys.stdout.write(f"overall: {'PASS' if report.passed else 'FAIL'}\n")
    if args.json_path:
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        _write_text(args.json_path, text)
    return 0 if report.passed else 1


def _cmd_basin(parser, args) -> int:
    from .topology import basin_raster

    spec = _spec_from_args(args)
    raster = basin_raster(spec, tuple(args.window), args.res, args.res,
                          budget=args.budget, eps_in=args.eps_in, r_escape=args.r_escape)
    with open(args.out, "wb") as fh:
        fh.write(raster_to_pgm(raster))
    counts = raster.counts()
    sys.stdout.write(f"converged={counts['converged']} escaped={counts['escaped']} "
                     f"undecided={counts['undecided']}\n")
    return 0


def _cmd_curve(parser, args) -> int:
    import numpy as np

    from .topology import image_curve

    spec = _spec_from_args(args)
    if not math.isfinite(args.radius):  # the library would give NaN images
        raise ValueError(f"non-finite radius {args.radius!r}")
    curve = image_curve(spec, args.radius, args.samples)
    rows = np.column_stack([curve.thetas, curve.points]).tolist()
    _write_text(args.out, _csv(("theta", "x", "y"), rows))
    return 0


def _cmd_rotation(parser, args) -> int:
    from .topology import estimate_rotation

    spec = _spec_from_args(args)
    est = estimate_rotation(spec, _start(args), max_iters=args.iters)
    sys.stdout.write(f"slope={est.slope:.6f} "
                     f"rational={est.rational[0]}/{est.rational[1]}\n")
    return 0


def _cmd_unfold_scan(parser, args) -> int:
    from .analysis import continue_periodic
    from .maps import MapSpec, orbit_radius

    values = {name: _parse_range(parser, getattr(args, name), name)
              for name in ("alpha", "beta", "delta")}
    ranges = [name for name, v in values.items() if not isinstance(v, float)]
    if len(ranges) != 1:
        parser.error("exactly one of --alpha/--beta/--delta must be a range "
                     "(start:stop:count)")
    scan_name = ranges[0]
    specs = [MapSpec("g4", k=args.k, **{**values, scan_name: float(v)}) for v in values[scan_name]]
    rows = [(getattr(spec, scan_name), *orb.point, orb.residual, *map(abs, orb.multipliers))
            for spec, orb in zip(specs, continue_periodic(specs, (orbit_radius(args.k), 0.0), 4))]
    header = (scan_name, "x", "y", "residual", "mult1_mod", "mult2_mod")
    _write_text(args.out, _csv(header, rows))
    return 0


def _cmd_singularity(parser, args) -> int:
    import json

    from . import singularity as sg

    q = sg.build_Q()
    rank = sg.rank_exact(q.entries)
    rep = sg.codimension_check()
    codim = 18 - rep.dim_tangent
    sys.stdout.write(f"rank(Q)={rank} codimension={codim} "
                     f"complement={{{', '.join(rep.complement)}}}\n")
    if args.json_path:
        payload = {
            "rank": rank,
            "rows": q.row_labels,
            "columns": q.col_labels,
            "entries": [[str(v) for v in row] for row in q.entries],
            "folded_relations": {q.row_labels[i]: name
                                 for i, name in q.folded.items()},
            "tangent_dimension": rep.dim_tangent,
            "dimension_with_complement": rep.dim_with_v2,
            "dimension_with_alternate": rep.dim_with_v1,
            "memberships": rep.memberships,
            "complement": list(rep.complement),
            "codimension": codim,
            "invariant_relation_holds": sg.verify_invariant_relation(),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_text(args.json_path, text)
    ok = rank == 12 and rep.passed
    return 0 if ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "orbit": _cmd_orbit,
    "verify": _cmd_verify,
    "basin": _cmd_basin,
    "curve": _cmd_curve,
    "rotation": _cmd_rotation,
    "unfold-scan": _cmd_unfold_scan,
    "singularity": _cmd_singularity,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    # a bad value that argparse's types let through, or ZNMAP_SEED's
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"{args.command}: {exc}")
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3
    except RuntimeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
