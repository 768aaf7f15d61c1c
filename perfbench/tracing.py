"""In-memory span tracing around polyscat's public functions.

A :class:`Tracer` replaces module attributes with wrappers, at the place
where callers look them up (``pipeline`` calls ``maxima.find_local_maxima``
through the module; ``maxima`` calls its own imported ``synthesize``).
Each wrapper records a span ``[name, start, end, parent, run_id]``, a call
count and, when the call raises, an error count.  A name that no longer
exists is skipped, so its counters read 0 instead of crashing the
benchmark.  Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run_id]
        self.counts = Counter()
        self.run_id = 0
        self._stack = []
        self._patches = []

    def hook(self, module, attr, name, count=None, after=None):
        """Wrap ``module.attr`` in a span called ``name``.

        ``count`` names the call counter (default ``name + ".calls"``);
        ``after(add, args, kwargs, result)`` adds derived counts through
        ``add(key, n)``.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            return
        count = count or name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception:
                self._add(name + ".errors", 1)
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                self._add(count, 1)
            if after is not None:
                after(self._add, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def _add(self, key, n):
        self.counts[(self.run_id, key)] += n

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self, run_ids):
        """Summed counts and self times (``<name>.s``) over the given runs.

        Self time is a span's duration minus that of its direct children.
        """
        run_ids = set(run_ids)
        child = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run in run_ids:
                out[name + ".s"] += end - start - child[i]
        for (run, key), n in self.counts.items():
            if run in run_ids:
                out[key] += n
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _path_bytes(args, kwargs, index):
    """Size of the file named by a call's path argument, 0 if unknown."""
    path = kwargs.get("path", args[index] if len(args) > index else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install_polyscat_hooks(tracer):
    """Hook every layer the benchmark reports on."""
    from polyscat import forward, geometry, locator, maxima, minkowski, pipeline, sphgrid

    def saved_bytes(add, args, kwargs, result):
        add("forward.save_far_field.bytes", _path_bytes(args, kwargs, 1))

    def loaded_bytes(add, args, kwargs, result):
        add("forward.load_far_field.bytes", _path_bytes(args, kwargs, 0))

    def raw_peaks(add, args, kwargs, result):
        add("maxima.peaks_raw", len(result))
        add("maxima.failed_starts", int(getattr(result, "failed_starts", 0)))

    def selected_peaks(add, args, kwargs, result):
        add("maxima.peaks_selected", len(result))

    def synth_points(add, args, kwargs, result):
        add("sphgrid.synthesize.points", int(getattr(result, "size", 1)))

    def fit_iterations(add, args, kwargs, result):
        add("minkowski.fit_offsets.iterations", int(getattr(result, "iterations", 0)))
        add("minkowski.fit_offsets.unconverged", int(not getattr(result, "converged", True)))

    hooks = [
        (pipeline, "run_pipeline", "pipeline.run_pipeline", None, None),
        (sphgrid, "build_grid", "sphgrid.build_grid", None, None),
        (forward, "sample_phaseless", "forward.sample_phaseless", None, None),
        (forward, "save_far_field", "forward.save_far_field", None, saved_bytes),
        (forward, "load_far_field", "forward.load_far_field", None, loaded_bytes),
        (sphgrid, "sht_forward", "sphgrid.sht_forward", None, None),
        (maxima, "find_local_maxima", "maxima.find_local_maxima", None, raw_peaks),
        (maxima, "minimize", "maxima.minimize", "maxima.starts", None),
        (maxima, "synthesize", "sphgrid.synthesize", None, synth_points),
        (sphgrid, "synthesize", "sphgrid.synthesize", None, synth_points),
        (maxima, "select_critical_directions", "maxima.select_critical_directions",
         None, selected_peaks),
        (minkowski, "fit_offsets", "minkowski.fit_offsets", None, fit_iterations),
        (minkowski, "halfspace_intersection", "geometry.halfspace_intersection",
         "minkowski.intersections", None),
        (geometry, "halfspace_intersection", "geometry.halfspace_intersection", None, None),
        (locator, "locate", "locator.locate", None, None),
        (locator, "scan_indicator", "locator.scan_indicator", None, None),
    ]
    for module, attr, name, count, after in hooks:
        tracer.hook(module, attr, name, count=count, after=after)
