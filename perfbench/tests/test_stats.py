"""Order statistics."""

from __future__ import annotations

import pytest

from perfbench.stats import quantile, tail_supported, tick_quantile


def test_nearest_rank_quantile_and_tail_support():
    values = list(range(1, 1001))
    assert quantile(values, 0.50) == 500
    assert quantile(values, 0.99) == 990
    assert tail_supported(1000, 0.99) and not tail_supported(999, 0.99)


def test_tick_quantile_moves_by_the_share_that_crossed_a_tick():
    # 989 waits of at most one tick: the nearest-rank p99 is a whole tick
    # higher than with 991, but the interpolated one barely moves.
    low = sorted([0] * 900 + [1] * 89 + [2] * 11)
    high = sorted([0] * 900 + [1] * 91 + [2] * 9)
    assert (quantile(low, 0.99), quantile(high, 0.99)) == (2, 1)
    assert tick_quantile(low, 0.99) == pytest.approx(1 + 1 / 11)
    assert tick_quantile(high, 0.99) == pytest.approx(1 - 1 / 91)
    assert tick_quantile([3] * 10, 0.5) == pytest.approx(2.5)
