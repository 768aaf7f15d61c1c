"""Command-line front end.

Verbs::

    polyscat synth <config>      write the data files recover and locate read
    polyscat recover <config>    run the full three-step recovery
    polyscat locate <config>     run only the location step
    polyscat check <config>      the faces step 1 can see, by the peak law

``check`` predicts step 1 from the obstacle alone.  A face ``nu`` lit by
the incident direction ``d`` peaks at its specular direction with the
value ``A |d . nu| / lambda_shape``, at ``2 asin |d . nu|`` from ``d``; it
is seen from ``d`` when step 1's own selection
(:func:`~polyscat.maxima.critical_mask`) keeps that peak.  It prints one
line per direction and lit face and one line per face naming the
directions that see it, and exits with code 3 when some face is seen from
none, since step 2 cannot rebuild it.

Exit code 0 on success; a config or obstacle error, an ``OSError`` or a
``ValueError`` naming its file or key, exits 1, and a failed pipeline stage,
a :class:`~polyscat.pipeline.PipelineError` naming the stage, exits 2, with
the message on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import geometry, maxima, pipeline


def _config_with_obstacle(path) -> pipeline.ExperimentConfig:
    """The config at ``path``, which must name an obstacle."""
    config = pipeline.parse_config(path)
    if config.obstacle is None:
        raise ValueError(f"{path}: missing 'obstacle'")
    return config


def _cmd_synth(args) -> int:
    config = _config_with_obstacle(args.config)
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
    config = _config_with_obstacle(args.config)
    poly = geometry.load_obstacle(config.obstacle)
    incident = np.array([wave.d for wave in config.shape_waves])
    # one row per direction and face it lights, direction after direction
    source, faces = np.nonzero([geometry.lit_faces(poly.normals, d) for d in incident])
    d, nu = incident[source], poly.normals[faces]
    c = -np.einsum("ij,ij->i", nu, d)  # |d . nu|, as lit faces have nu . d < 0
    # the peak law: each lit face peaks at its specular direction
    values = poly.areas[faces] * c / config.lambda_shape
    peaks = maxima.PeakSet(maxima.specular_direction(nu, d), values, source)
    seen = maxima.critical_mask(peaks, d, config.e_tol)
    angles = np.degrees(2.0 * np.arcsin(np.minimum(c, 1.0)))
    seen_by = [[] for _ in range(poly.num_faces)]
    for i, j, value, angle, kept in zip(source, faces, peaks.values, angles, seen):
        print(
            f"d{i} face {j}: peak {value:.4f} at {angle:.2f} deg from d,"
            f" {'seen' if kept else 'not seen'}"
        )
        if kept:
            seen_by[j].append(f"d{i}")
    for j, names in enumerate(seen_by):
        print(f"face {j}: seen from {' '.join(names) or 'no direction'}")
    return 0 if all(seen_by) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyscat",
        description="Phaseless backscattering recovery of convex polyhedra",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text, handler in (
        ("synth", "synthesize far-field data files", _cmd_synth),
        ("recover", "run the full three-step recovery", _cmd_recover),
        ("locate", "run only the location step", _cmd_locate),
        ("check", "the faces step 1 can see, by the peak law", _cmd_check),
    ):
        verb_parser = sub.add_parser(verb, help=help_text)
        verb_parser.add_argument("config")
        verb_parser.set_defaults(func=handler)
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
