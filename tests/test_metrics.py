"""S2 metrics (canonical quadratic values; the port's level helpers are
placeholders, src/cell_id.rs:725-760)."""

import math

from s2_geometry_rust_ray.functions import metrics


def test_metric_constants():
    assert abs(metrics.AVG_EDGE - 1.459213746386106062) < 1e-18
    assert abs(metrics.MIN_WIDTH - 2 * math.sqrt(2) / 3) < 1e-15
    assert metrics.MIN_WIDTH < metrics.AVG_WIDTH < metrics.MAX_WIDTH
    assert metrics.MIN_AREA < metrics.AVG_AREA < metrics.MAX_AREA


def test_level_roundtrips():
    for lvl in [0, 5, 12, 20, 30]:
        w = metrics.min_width_at_level(lvl)
        assert metrics.level_for_min_width(w) == lvl
        # a slightly larger requirement -> one level coarser
        if 0 < lvl:
            assert metrics.level_for_min_width(w * 1.01) == lvl - 1


def test_level_for_max_value():
    # value exactly at a level boundary maps to that level
    for lvl in [1, 7, 15]:
        v = metrics.AVG_EDGE / (1 << lvl)
        assert metrics.level_for_max_value(metrics.AVG_EDGE, v) == lvl
        assert metrics.level_for_max_value(metrics.AVG_EDGE, v * 0.99) == lvl + 1
    assert metrics.level_for_max_value(metrics.AVG_EDGE, 10.0) == 0
    assert metrics.level_for_max_value(metrics.AVG_EDGE, 0.0) == 30


def test_closest_level():
    # C++ GetClosestLevel: the level whose metric is nearest in log scale,
    # i.e. the switch to the coarser level sits at sqrt(2) x a level's value
    for lvl in [1, 7, 15]:
        v = metrics.AVG_EDGE / (1 << lvl)
        assert metrics.closest_level(metrics.AVG_EDGE, v) == lvl
        assert metrics.closest_level(metrics.AVG_EDGE, v * 1.41) == lvl
        assert metrics.closest_level(metrics.AVG_EDGE, v * 1.42) == lvl - 1
        assert metrics.closest_level(metrics.AVG_EDGE, v / 1.41) == lvl
        assert metrics.closest_level(metrics.AVG_EDGE, v / 1.42) == lvl + 1
    assert metrics.closest_level(metrics.AVG_EDGE, 10.0) == 0
