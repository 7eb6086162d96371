"""The shared store-lifecycle rules (stages/lifecycle.py) as pure
functions — no Ray, no files."""

import warnings

from clinical_trials_etl_ray.stages.lifecycle import growth_advice, partition_width


def test_partition_width_ceil_divides_and_clamps():
    assert partition_width(0, 10, 4, 100) == 4  # floor
    assert partition_width(-5, 10, 4, 100) == 4  # negative counts as empty
    assert partition_width(41, 10, 4, 100) == 5  # ceil(41 / 10)
    assert partition_width(50, 10, 4, 100) == 5  # exact multiple
    assert partition_width(10**9, 10, 4, 100) == 100  # cap


def _advice(rows, width, budget=10, cap=100):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        out = growth_advice(
            rows, width, budget, cap, lambda fullest, advised: f"{fullest}->{advised}"
        )
    return out, [str(x.message) for x in w]


def test_growth_advice_rule():
    # exactly 2 × budget in the fullest partition: no advice, no warning
    assert _advice({0: 20, 1: 20}, 2) == ((20, None), [])
    # one row over: advise ceil(total / budget) partitions and warn
    assert _advice({0: 21, 1: 20}, 2) == ((21, 5), ["21->5"])
    # already at the cap: nothing wider to advise
    assert _advice({0: 500}, 4, cap=4) == ((500, None), [])
    # the cap bounds the advice
    assert _advice({0: 500}, 2, cap=8) == ((500, 8), ["500->8"])
    # a width already wide enough for the total: no advice
    assert _advice({0: 30, 1: 0}, 3) == ((30, None), [])
    assert _advice({}, 1) == ((0, None), [])
