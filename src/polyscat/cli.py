"""Command-line front end.

Verbs::

    polyscat synth <config>      synthesize far-field data files
    polyscat recover <config>    run the full three-step recovery
    polyscat locate <config>     run only the location step
    polyscat check <obstacle>    admissibility report for an obstacle file

Exit code 0 on success; stage-tagged message on stderr and a nonzero code
otherwise.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import geometry, pipeline

_AXIS_DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, -1.0),
)


def _cmd_synth(args) -> int:
    config = pipeline.parse_config(args.config)
    written = pipeline.synthesize_dataset(config)
    for path in written:
        print(path)
    return 0


def _cmd_recover(args) -> int:
    config = pipeline.parse_config(args.config)
    report = pipeline.run_pipeline(config)
    print(f"effective normals: {len(report.effective)}")
    for j in range(len(report.effective)):
        nu = report.effective.normals[j]
        print(
            f"  nu=({nu[0]:+.4f}, {nu[1]:+.4f}, {nu[2]:+.4f})"
            f"  peak={report.effective.peak_values[j]:.4f}"
            f"  area={report.effective.areas[j]:.4f}"
        )
    print(f"offsets: {np.array2string(report.fit.offsets, precision=4)}")
    print(f"fit residual: {report.fit.residual:.3e} ({report.fit.iterations} iters)")
    print(
        "location: ({:.4f}, {:.4f}, {:.4f})  indicator {:.4f}".format(
            *report.location, report.indicator_value
        )
    )
    for path in report.files:
        print(path)
    return 0


def _cmd_locate(args) -> int:
    config = pipeline.parse_config(args.config)
    z, value, _ = pipeline.locate_obstacle(config)
    print(f"{z[0]:.6f} {z[1]:.6f} {z[2]:.6f} {value:.6f}")
    return 0


def _cmd_check(args) -> int:
    poly = geometry.load_obstacle(args.obstacle)
    params = geometry.AdmissibilityParams(
        h0=args.h0, h1=args.h1, h2=args.h2, h3=args.h3, h4=args.h4, h5=args.h5
    )
    report = geometry.check_admissibility(
        poly, params, [np.array(d) for d in _AXIS_DIRECTIONS]
    )
    print(report.summary())
    return 0 if report.all_ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyscat",
        description="Phaseless backscattering recovery of convex polyhedra",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_synth = sub.add_parser("synth", help="synthesize far-field data files")
    p_synth.add_argument("config")
    p_synth.set_defaults(func=_cmd_synth)

    p_rec = sub.add_parser("recover", help="run the full three-step recovery")
    p_rec.add_argument("config")
    p_rec.set_defaults(func=_cmd_recover)

    p_loc = sub.add_parser("locate", help="run only the location step")
    p_loc.add_argument("config")
    p_loc.set_defaults(func=_cmd_locate)

    p_chk = sub.add_parser("check", help="admissibility report for an obstacle")
    p_chk.add_argument("obstacle")
    for name, default in (
        ("h0", 0.05),
        ("h1", 10.0),
        ("h2", 0.3),
        ("h3", 0.1),
        ("h4", 10.0),
        ("h5", 0.1),
    ):
        p_chk.add_argument(f"--{name}", type=float, default=default)
    p_chk.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pipeline.PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
