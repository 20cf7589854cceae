import math

import pytest

from catlink import catqubit as cq
from catlink import pulseopt as po
from catlink import scenarios as sn


@pytest.fixture(scope="session")
def grape_pair():
    """Optimized drive and undrive schedules at K = 1 (shared by several
    suites; a few seconds of optimization)."""
    return sn._grape_cache(math.sqrt(2.0))


@pytest.fixture(scope="session")
def budgets_1e4_1e5(grape_pair):
    """Operation budgets for the two high-quality loss ratios."""
    out = {}
    for ratio in (1e4, 1e5):
        kerr, kappa = sn.TABLE_ROW_DEFAULTS[ratio]
        out[ratio] = sn.operation_budget(ratio, kerr=kerr, kappa=kappa)
    return out


@pytest.fixture(scope="session")
def gate_rows_1e3():
    """Gate report for the lowest-quality row (the cheapest full table)."""
    kerr, kappa = sn.TABLE_ROW_DEFAULTS[1e3]
    params = cq.CatQubitParams(kerr=kerr, kappa=kappa)
    return cq.gate_report(params, 10.0, 15.0)
