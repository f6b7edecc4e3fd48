"""S2 metrics — cell-size <-> level conversions for the QUADRATIC projection
(canonical C++ s2metrics values; the port's level_for_min_width ignores them,
src/cell_id.rs:725-745 / SURVEY §0).

A metric's value at level k is deriv / 2^k (LengthMetric) or deriv / 4^k
(AreaMetric).  Used for coverer max_level choice, kNN ring levels, tile
level picking.
"""

from __future__ import annotations

import math

import numpy as np

# LengthMetric derivs (radians at level 0), C++ s2metrics.cc (quadratic)
MIN_ANGLE_SPAN = 4.0 / 3.0
MAX_ANGLE_SPAN = 1.704897179199218452
AVG_ANGLE_SPAN = math.pi / 2.0
MIN_WIDTH = 2.0 * math.sqrt(2.0) / 3.0
MAX_WIDTH = MAX_ANGLE_SPAN
AVG_WIDTH = 1.434523672886099389
MIN_EDGE = 2.0 * math.sqrt(2.0) / 3.0
MAX_EDGE = MAX_ANGLE_SPAN
AVG_EDGE = 1.459213746386106062  # cited at /root/reference/src/cell_id.rs:59-95
MIN_DIAG = 8.0 * math.sqrt(2.0) / 9.0
MAX_DIAG = 2.438654594434021032
AVG_DIAG = 2.060422738998471683
# AreaMetric derivs (steradians at level 0)
MIN_AREA = 8.0 * math.sqrt(2.0) / 9.0
MAX_AREA = 2.635799256963161491
AVG_AREA = 4.0 * math.pi / 6.0

MAX_LEVEL = 30


def length_value(deriv: float, level) -> np.ndarray:
    return deriv / np.power(2.0, np.asarray(level, dtype=np.float64))


def level_for_max_value(deriv: float, value: float) -> int:
    """Smallest (coarsest-allowed) level where the metric <= value
    (C++ GetLevelForMaxValue: frexp-based, exact for powers of two)."""
    if value <= 0:
        return MAX_LEVEL
    m, e = math.frexp(value / deriv)
    level = max(0, min(MAX_LEVEL, -(e - 1)))
    return level


def level_for_min_value(deriv: float, value: float) -> int:
    """Largest (finest) level where the metric >= value."""
    if value <= 0:
        return MAX_LEVEL
    m, e = math.frexp(deriv / value)
    level = max(0, min(MAX_LEVEL, e - 1))
    return level


def closest_level(deriv: float, value: float) -> int:
    """Level whose metric is closest to value (C++ GetClosestLevel:
    level_for_max_value(sqrt(2) * value))."""
    return level_for_max_value(deriv, math.sqrt(2.0) * value)


def level_for_min_width(width_radians: float) -> int:
    """Canonical replacement for the port's placeholder: finest level whose
    min width is at least `width_radians`."""
    return level_for_min_value(MIN_WIDTH, width_radians)


def min_width_at_level(level: int) -> float:
    return MIN_WIDTH / (1 << level)
