"""Schedule digests: the wide grid of ``_schedule_golden`` is unchanged.

Each point re-runs and its canonical snapshot must hash to the digest
captured before the datapath ran its cycles inline (see the module
docstring of ``tests/aladdin/_schedule_golden.py`` for the grid).
"""

import pytest

from tests.aladdin._schedule_golden import digest, keys, load_golden, run

GOLDEN = load_golden()


def test_golden_covers_the_grid():
    assert sorted(GOLDEN) == sorted(keys())


@pytest.mark.parametrize("key", keys())
def test_schedule_matches_golden_digest(key):
    assert digest(run(key)) == GOLDEN[key], (
        f"{key}: the run's snapshot diverged from the schedule golden")
