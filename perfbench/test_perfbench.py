"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``
from the root of the source tree (about 10 s)."""

from __future__ import annotations

import os
import sys

import pytest

import layers
import run
import workloads

sys.path.insert(0, run.SRC)

import catlink.cli  # noqa: E402  (after the path insert)

ALIASES = ["catlink.transducer.integrate_rk45", "catlink.catqubit.evolve",
           "catlink.pulseopt.evolve", "catlink.scenarios.crossover",
           "catlink.cli.monte_carlo_time", "catlink.dynamics.integrate_rk45",
           "catlink.repeater.crossover", "catlink.cli.load_config",
           "catlink.dynamics.to_density_matrix"]


def _catlink_attributes() -> dict[tuple[str, str], object]:
    return {(name, attr): value for name, mod in sys.modules.items()
            if name.startswith("catlink") for attr, value in vars(mod).items()}


def test_tracer_wraps_every_alias_and_restores_originals():
    before = _catlink_attributes()
    write = catlink.cli._Report.write
    with layers.Tracer() as tracer:
        sites = set(tracer.patched_sites())
        assert set(ALIASES) <= sites
        assert catlink.scenarios.crossover is not before[("catlink.scenarios", "crossover")]
    after = _catlink_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert catlink.cli._Report.write is write


def test_tracer_counts_rhs_and_gap_evaluations():
    import numpy as np

    with layers.Tracer() as tracer:
        catlink.transducer.integrate_rk45(lambda t, y: -y, np.ones(2), [0.0, 1.0])
        catlink.scenarios.crossover(lambda L: 1e3 * 2.0 ** -(L / 10),
                                    lambda L: 2.0 ** -(L / 20), bracket=(1.0, 400.0))
    spans = [vars(s) for s in tracer.spans]
    metrics = layers.per_layer_metrics(spans, tracer.counters, 0.0)
    assert metrics["dynamics.integrate_rk45.calls"] == 1
    assert metrics["dynamics.integrate_rk45.rhs_evals"] > 7
    assert metrics["dynamics.integrate_rk45.us_per_rhs"] > 0
    assert metrics["repeater.crossover.gap_evals"] > 10
    assert metrics["pulseopt.grape_optimize.calls"] == 0


def test_self_time_excludes_children():
    spans = [{"name": "catqubit.cnot", "start": 0.0, "end": 10.0, "parent": -1},
             {"name": "qcore.tensor", "start": 1.0, "end": 3.0, "parent": 0},
             {"name": "qcore.identity", "start": 1.5, "end": 2.0, "parent": 1}]
    summary = layers.summarize(spans)
    assert summary["catqubit.cnot"] == {"busy_s": 10.0, "self_s": 8.0, "calls": 1}
    # the nested qcore call is inside another qcore span: counted once
    assert summary["qcore"]["busy_s"] == 2.0
    assert summary["qcore"]["calls"] == 1


def _write(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    return str(tmp_path)


@pytest.mark.parametrize("check, name, good, bad", [
    (workloads.check_gates, "gates.csv",
     "operation,K_rad_per_s,kappa_per_s,fidelity\ndrive,1000.0,1.0,0.99608\n",
     "operation,K_rad_per_s,kappa_per_s,fidelity\ndrive,1000.0,1.0,0.9930\n"),
    (workloads.check_transduce, "transduce.csv",
     "eta_transfer,converged\n0.99408,True\n",
     "eta_transfer,converged\n0.99408,False\n"),
    (workloads.check_mc, "mc.csv",
     "n,mc_mean_s,mc_stderr_s,formula_s,formula_over_mc\n0,1.0,0.01,1.0,1.0\n"
     "1,1.0,0.01,1.0,1.0\n2,1.0,0.01,1.07,1.07\n3,1.0,0.01,1.18,1.18\n",
     "n,mc_mean_s,mc_stderr_s,formula_s,formula_over_mc\n0,1.0,0.01,1.1,1.1\n"
     "1,1.0,0.01,1.0,1.0\n2,1.0,0.01,1.07,1.07\n3,1.0,0.01,1.18,1.18\n"),
    (workloads.check_crossover, "summary.json",
     '{"crossover_km": {"m1": 392.3, "m200": 250.3},'
     ' "final_fidelity": {"m1": 0.904, "m200": 0.903}}',
     '{"crossover_km": {"m1": 392.3, "m200": 250.3},'
     ' "final_fidelity": {"m1": 0.904, "m200": 0.88}}'),
])
def test_output_checks_accept_the_seed_values_and_reject_others(tmp_path, check, name,
                                                                 good, bad):
    (tmp_path / "good").mkdir()
    (tmp_path / "bad").mkdir()
    assert check(_write(tmp_path / "good", name, good)) == []
    assert check(_write(tmp_path / "bad", name, bad)) != []


def test_traced_run_writes_the_same_bytes_and_enters_the_predicted_layers():
    result = run.run_workload("mc_oracle", seed=11, seconds=1, trace=True)
    assert result["correct"], result
    assert result["metrics"]["repeater.monte_carlo_time.busy_s"]["value"] > 0
    assert result["metrics"]["pulseopt.grape_optimize.calls"]["value"] == 0


def test_span_predictions_catch_a_wrong_layer():
    w = workloads.WORKLOADS["mc_oracle"]
    spans = [{"name": "repeater.monte_carlo_time", "start": 0, "end": 1, "parent": -1},
             {"name": "config.load_config", "start": 0, "end": 1, "parent": -1},
             {"name": "pulseopt.grape_optimize", "start": 0, "end": 1, "parent": -1}]
    problems = run.span_problems(w, spans)
    assert problems == ["predicted layer cli.write was not entered",
                        "layer pulseopt.grape_optimize was entered, predicted bypassed"]


def test_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess

    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "gates",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(bench / "out")


def test_a_run_starts_executions_only_while_they_fit_in_the_window():
    assert run.another_fits([], elapsed=50.0, seconds=20.0)
    assert run.another_fits([2.0, 1.8, 2.2], elapsed=18.0, seconds=20.0)
    assert not run.another_fits([2.0, 1.8, 2.2], elapsed=18.1, seconds=20.0)
    # a workload longer than the window runs once
    assert not run.another_fits([49.0], elapsed=49.0, seconds=20.0)
