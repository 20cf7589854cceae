import math

import pytest

from catlink import catqubit as cq
from catlink import cli
from catlink import repeater as rp
from catlink import scenarios as sn
from catlink.config import load_config


@pytest.fixture(scope="session")
def grape_pair():
    """The optimized drive at K = 1 for the default ``[grape]`` settings,
    with its (problem, schedule) pairs for the drive and for its time
    reverse, the undrive (shared by several suites; about a second of
    optimization)."""
    return sn.grape_pair(math.sqrt(2.0), cli._grape_settings(load_config()))


@pytest.fixture(scope="session")
def budgets_1e4_1e5(grape_pair):
    """Operation budgets for the two high-quality rows of the default config."""
    config = load_config()
    return {ratio: sn.operation_budget(params, drive_ratio, coupling_ratio, "grape",
                                       cli._grape_settings(config))
            for ratio, params, drive_ratio, coupling_ratio in cli._row_params(config)
            if ratio in (1e4, 1e5)}


@pytest.fixture(scope="session")
def chain_and_link():
    """Builder of a chain on a budget's decay rates and of its link, with the
    default link values and, unless given, the derived operation time of the
    budget's default-config row (GRAPE ramps) for the chain's storage
    policy."""
    config = load_config()
    ratios = {params: (drive_ratio, coupling_ratio)
              for _, params, drive_ratio, coupling_ratio in cli._row_params(config)}

    def build(budget, operation_time_s=None, **chain_kwargs):
        kappa = budget.params.kappa
        chain = rp.ChainParams(kappa=kappa, kappa_eff=2.0 * kappa * budget.params.alpha**2,
                               **chain_kwargs)
        if operation_time_s is None:
            durations = sn.operation_durations(budget.params, *ratios[budget.params],
                                               config.get("grape", "duration_kt"))
            operation_time_s = sn.operation_time(durations, chain.storage_policy)
        return chain, rp.LinkParams(length_km=50.0, operation_time_s=operation_time_s)
    return build


@pytest.fixture(scope="session")
def gate_rows_1e3():
    """Gate-report records, by operation, for the lowest-quality row (the
    cheapest full table)."""
    kerr = sn.TABLE_ROW_DEFAULTS[1e3]
    params = cq.CatQubitParams(kerr=kerr, kappa=kerr / 1e3)
    return cq.gate_report([(params, 10.0, 15.0)])[0]
