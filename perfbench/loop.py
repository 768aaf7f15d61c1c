"""The closed loop: one client runs a workload's operations one at a time,
times each and checks its output.  Untraced, a reference loop is timed
after every operation, to calibrate the run (see calibrate.py)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter

from calibrate import reference_seconds


class Outcome:
    """Result of one checked operation."""

    OK, FAILED, WRONG = "ok", "failed", "wrong"

    def __init__(self, status, quality=None, detail=""):
        self.status = status
        self.quality = quality or {}
        self.detail = detail


@dataclass
class Sample:
    seconds: float
    outcome: object
    traced: bool
    round: int
    position: int  # the operation's place in its round
    reference: float = 0.0  # reference loop seconds just after it; 0 when traced


def attempt(workload, op):
    """Time one operation, then check its output outside the timed part."""
    t0 = perf_counter()
    try:
        output = op()
    except Exception as exc:  # the library failed this operation: count it
        return perf_counter() - t0, Outcome(Outcome.FAILED, detail=repr(exc))
    seconds = perf_counter() - t0
    try:
        return seconds, workload.check(output)
    except Exception as exc:  # an output the check cannot read is not correct
        return seconds, Outcome(Outcome.WRONG, detail=f"check: {exc!r}")


def closed_loop(workload, seconds, tracer=None, hook=None, min_rounds=1):
    """Run rounds back to back until ``seconds`` have passed and at least
    ``min_rounds`` rounds are done.

    With a tracer, every operation runs untraced and then traced, with
    ``hook(tracer)`` installing the wrappers for the traced run, and every
    round repeats round 0's inputs, so that counts per operation repeat
    exactly from run to run.  Without one, a reference sample follows every
    operation and is kept with it.
    Returns the samples and the wall time.
    """
    samples = []
    start = perf_counter()
    for index in itertools.count():
        for position, op in enumerate(workload.round(index if tracer is None else 0)):
            took, outcome = attempt(workload, op)
            if tracer is None:
                reference = reference_seconds(took)
                samples.append(Sample(took, outcome, False, index, position, reference))
                continue
            samples.append(Sample(took, outcome, False, index, position))
            tracer.run_id += 1
            hook(tracer)
            try:
                samples.append(Sample(*attempt(workload, op), True, index, position))
            finally:
                tracer.uninstall()
        wall = perf_counter() - start
        if wall >= seconds and index + 1 >= min_rounds:
            return samples, wall
