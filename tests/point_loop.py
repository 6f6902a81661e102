"""The per-point reference of :func:`liesolve.verify.sampled`: the same skip
policy, one point at a time, with no lanes."""

import math

from liesolve import hyperdual as hd
from liesolve.verify import SKIPPED_ERRORS


def point_loop(fn, pts):
    """``(point, value)`` where ``hd.value(fn(*point))`` is finite, and the
    number of points where ``fn`` raised an error of ``SKIPPED_ERRORS`` or
    gave a non-finite value."""
    kept = []
    skipped = 0
    for pt in pts:
        try:
            v = hd.value(fn(*pt))
        except SKIPPED_ERRORS:
            skipped += 1
            continue
        if math.isfinite(v):
            kept.append((pt, v))
        else:
            skipped += 1
    return kept, skipped
