"""Pieces shared by the three workloads: the pass/fail tally, the timed
round loop, and the description of a workload."""

import dataclasses
import math
import sys
import time
from typing import Callable


class Tally:
    """Operations attempted and failed.  ``wrong`` counts outputs that
    differ from their reference; ``failed`` also counts operations that
    raised instead of producing an output, and outputs that miss the
    tolerance asked for but stay within the accuracy the package's own
    tests accept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            print(f"FAIL {what}", file=sys.stderr)

    def error(self, what):
        self.attempted += 1
        self.failed += 1
        print(f"ERROR {what}", file=sys.stderr)

    def miss(self, what):
        self.attempted += 1
        self.failed += 1
        print(f"MISS {what}", file=sys.stderr)


def close(value, reference, tol):
    """|value - reference| <= tol * max(1, |reference|), the criterion the
    package's integrators and searches converge to."""
    return (math.isfinite(abs(value))
            and abs(value - reference) <= tol * max(1.0, abs(reference)))


@dataclasses.dataclass
class Part:
    """One timed kind of work.  ``run`` does one step and returns its
    outputs, ``check`` compares them with the references (untimed); a round
    is ``steps`` consecutive steps."""

    run: Callable[[], object]
    check: Callable[[object, Tally], None]
    min_rounds: int = 1
    steps: int = 1


@dataclasses.dataclass
class Workload:
    primary: Part
    secondary: Part
    trace_rounds: int = 1


def measure(work, seconds, tally, pacer, fixed_rounds=None):
    """Alternate primary and secondary steps, so that both parts see the
    same stretches of machine time.  With ``fixed_rounds`` run exactly that
    many rounds of each; otherwise keep going until ``seconds`` have passed
    and each part has its minimum number of rounds, then finish the open
    rounds.  Returns, per part, the wall and the paced time (see pace.py)
    of every round."""
    parts = (work.primary, work.secondary)
    spans = ([], [])
    start = time.perf_counter()
    while True:
        ran = False
        for part, samples in zip(parts, spans):
            rounds, partial = divmod(len(samples), part.steps)
            if fixed_rounds is not None:
                wanted = rounds < fixed_rounds
            else:
                wanted = (partial or rounds < part.min_rounds
                          or time.perf_counter() - start < seconds)
            if not wanted:
                continue
            t0 = time.perf_counter()
            out = part.run()
            samples.append((t0, time.perf_counter()))
            part.check(out, tally)
            ran = True
        if not ran:
            break
    result = []
    for part, samples in zip(parts, spans):
        steps = [pacer.durations(t0, t1) for t0, t1 in samples]
        rounds = [steps[i:i + part.steps]
                  for i in range(0, len(steps), part.steps)]
        result.append({
            "wall": [sum(w for w, _ in r) for r in rounds],
            "paced": [sum(p for _, p in r) for r in rounds],
        })
    return result
