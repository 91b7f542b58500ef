"""pytest set-up shared by the test modules."""

import time

import pytest

from fracstep.experiments import CoarsenSpec, run_coarsening

# oracles guards its arguments by assert; rewritten, those guards also run
# under python -O, which strips plain assert statements
pytest.register_assert_rewrite("oracles")


@pytest.fixture(scope="session")
def coarsen_runs():
    """({alpha: trajectory} of the strict quick coarsen at seed 7, the
    seconds they took): the acceptance criteria read every alpha, the
    golden digests the first three."""
    out = {}
    t0 = time.monotonic()
    for alpha in (0.4, 0.7, 0.9, 0.95, 0.97):
        traj, _ = run_coarsening(CoarsenSpec(alpha=alpha, seed=7).quick())
        out[alpha] = traj
    return out, time.monotonic() - t0
