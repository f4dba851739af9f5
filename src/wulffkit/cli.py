"""Command-line interface: shape-file operations and verification suites.

Subcommands
-----------
dual       polar transform of a shape file
hausdorff  Pompeiu-Hausdorff distance between two shape files
hull       spherical convex hull of a points file
separate   separating hemisphere witness for two disjoint shapes
verify     run property suites, write a CSV report and a summary
gen        generate a random shape file

Shape files use the JSON grammar that `body.ShapeSpec.from_json`
reads: an object with integer field "dim" (the sphere dimension n,
at least 1), field "generators" (a nonempty array of arrays of n+1
finite reals, none of them zero), and an optional string "label".
"""

import argparse
import sys

from . import harness, metric, transforms
from .body import ShapeSpec, load_shape
from .errors import WulffkitError

_GEN_KINDS = ("wulff", "convex")


def _body_from_file(path):
    spec = load_shape(path)
    return spec.to_body(), spec


def _emit_shape(spec, out_path):
    text = spec.to_json()
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_dual(args):
    body, spec = _body_from_file(args.shape_file)
    dual = transforms.polar(body)
    label = None if spec.label is None else f"{spec.label}_dual"
    _emit_shape(ShapeSpec.from_body(dual, label=label), args.output)
    return 0


def _cmd_hausdorff(args):
    a, _ = _body_from_file(args.shape_a)
    b, _ = _body_from_file(args.shape_b)
    value, bound, path = metric.hausdorff_with_bound(a, b)
    line = repr(float(value))
    if path == "sampled":
        line += f"  (sampled, error bound {bound!r})"
    print(line)
    return 0


def _cmd_hull(args):
    spec = load_shape(args.points_file)
    hull = transforms.spherical_hull(spec.generator_rows)
    label = None if spec.label is None else f"{spec.label}_hull"
    _emit_shape(ShapeSpec.from_body(hull, label=label), None)
    return 0


def _cmd_separate(args):
    a, _ = _body_from_file(args.shape_a)
    b, _ = _body_from_file(args.shape_b)
    q = metric.separate(a, b)
    print(" ".join(repr(float(x)) for x in q.vec))
    return 0


def _cmd_verify(args):
    names = harness.SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = []
    for name in names:
        cfg = harness.SuiteConfig(
            suite=name,
            trials=args.trials,
            dim=args.dim,
            seed=args.seed,
            tolerance=args.tol,
            sampling_resolution=args.resolution,
        )
        reports.extend(harness.run_suite(cfg))
    if args.out is not None:
        harness.write_csv(reports, args.out)
    print(harness.summarize(reports))
    failing = harness.first_failing_suite(reports)
    if failing is not None:
        print(f"first failing suite: {failing}", file=sys.stderr)
        return 1
    return 0


def _cmd_gen(args):
    pole = harness.pole_axis(args.dim)
    if args.kind == "wulff":
        body = harness.gen_wulff(pole, args.dim + 4, 0.9, args.seed)
        label = f"wulff-dim{args.dim}-seed{args.seed}"
    else:
        import numpy as np

        rng = np.random.default_rng(args.seed)
        kind = ("hull", "arc", "point", "wide_cap")[args.seed % 4]
        body = harness.gen_convex_body(pole, kind, rng)
        label = f"convex-{kind}-dim{args.dim}-seed{args.seed}"
    _emit_shape(ShapeSpec.from_body(body, label=label), args.output)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wulffkit",
        description="Spherical convex bodies: duality, distances, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="polar transform of a shape file")
    p.add_argument("shape_file", help="input shape file")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("hausdorff", help="Pompeiu-Hausdorff distance of two shapes")
    p.add_argument("shape_a")
    p.add_argument("shape_b")
    p.set_defaults(func=_cmd_hausdorff)

    p = sub.add_parser("hull", help="spherical convex hull of a points file")
    p.add_argument("points_file", help="shape file whose generators are the points")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("separate", help="separating hemisphere center for two shapes")
    p.add_argument("shape_a")
    p.add_argument("shape_b")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("verify", help="run property suites and report")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + harness.SUITE_NAMES,
        help="suite name or 'all' (default all)",
    )
    p.add_argument("--trials", type=int, default=10, help="trials per suite")
    p.add_argument("--dim", type=int, default=2, help="sphere dimension (1, 2, or 3)")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--tol", type=float, default=1e-8, help="pass tolerance")
    p.add_argument(
        "--resolution",
        type=float,
        default=None,
        help="sampling resolution in radians (default: per-dimension)",
    )
    p.add_argument("--out", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random shape file")
    p.add_argument("--kind", choices=_GEN_KINDS, default="wulff")
    p.add_argument("--dim", type=int, default=2, help="sphere dimension (1, 2, or 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WulffkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
