"""The summary arithmetic of tools/pairbench.py, on synthetic run records.

No benchmark runs here: the records are made up, and the command itself is
exercised only by hand.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairbench.py"
_SPEC = importlib.util.spec_from_file_location("pairbench", _PATH)
pairbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairbench)

METRICS = [{"name": "rate", "unit": "pts/s", "better": "higher", "bound": 0.24},
           {"name": "time", "unit": "ms", "better": "lower", "bound": 0.24}]


def _pairs(parent, change):
    """Pairs of records whose `rate` and `time` both read the given values."""
    return [{"seed": i, "first": "parent",
             "parent": {"end_to_end": {"rate": p, "time": p}},
             "change": {"end_to_end": {"rate": c, "time": c}}}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_medians_quartiles_and_ratio():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 4.0, 6.0, 8.0, 10.0]
    got = pairbench.summarize(_pairs(parent, change), METRICS)
    assert list(got) == ["rate", "time"]
    rate = got["rate"]
    assert rate["unit"] == "pts/s" and rate["better"] == "higher"
    assert rate["parent_median"] == 3.0 and rate["change_median"] == 6.0
    # linear interpolation between order statistics, as numpy.percentile
    assert rate["parent_quartiles"] == [2.0, 4.0]
    assert rate["change_quartiles"] == [4.0, 8.0]
    assert rate["change_over_parent"] == 2.0


def test_pairs_won_follow_the_direction_and_ties_count_for_neither():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [2.0, 2.0, 1.0, 5.0]  # higher, tie, lower, higher
    got = pairbench.summarize(_pairs(parent, change), METRICS)
    assert got["rate"]["pairs_change_better"] == 2
    assert got["time"]["pairs_change_better"] == 1


def test_even_count_median_and_quartiles():
    got = pairbench.summarize(_pairs([4.0, 1.0, 3.0, 2.0], [1.0] * 4), METRICS)["time"]
    assert got["parent_median"] == 2.5
    assert got["parent_quartiles"] == pytest.approx([1.75, 3.25])
    assert got["change_over_parent"] == pytest.approx(0.4)
    assert got["pairs_change_better"] == 3


@pytest.mark.parametrize("text, seeds", [("9601-9604", [9601, 9602, 9603, 9604]),
                                         ("7", [7]), ("1,5,9", [1, 5, 9])])
def test_seed_ranges_and_lists(text, seeds):
    assert pairbench.parse_seeds(text) == seeds
