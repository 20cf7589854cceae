"""The benchmark's workloads: the catlink command each one runs, the check
its outputs must pass, and the layers its traced run must and must not
enter.

Tolerances are the acceptance tolerances of the paper's headline numbers.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

MC_TRIALS = 1_000_000
# n = 0 of the Monte-Carlo oracle has an exact closed form.  A 3-sigma test
# raises a false alarm in 0.27 % of seeds, so across the hundreds of seeds a
# benchmark campaign draws it would fail a correct program; 4.5 sigma keeps
# the false-alarm rate below 1e-5 per run.
MC_SIGMA = 4.5


def _read_csv(out_dir: str, name: str) -> list[dict[str, str]]:
    with open(os.path.join(out_dir, f"{name}.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _within(label: str, value: float, centre: float, tol: float) -> list[str]:
    if abs(value - centre) <= tol:
        return []
    return [f"{label} = {value!r}, outside {centre} +- {tol}"]


def check_crossover(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    for name, km, fid in (("m1", 387.0, 0.91), ("m200", 244.0, 0.92)):
        problems += _within(f"crossover_km[{name}]", summary["crossover_km"][name],
                            km, 0.15 * km)
        problems += _within(f"final_fidelity[{name}]", summary["final_fidelity"][name],
                            fid, 0.03)
    return problems


def check_gates(out_dir: str) -> list[str]:
    rows = [r for r in _read_csv(out_dir, "gates")
            if r["operation"] == "drive"
            and math.isclose(float(r["K_rad_per_s"]) / float(r["kappa_per_s"]), 1e3)]
    if len(rows) != 1:
        return [f"expected one drive row at K/kappa = 1e3, found {len(rows)}"]
    return _within("drive fidelity at K/kappa = 1e3", float(rows[0]["fidelity"]),
                   0.9962, 0.002)


def check_transduce(out_dir: str) -> list[str]:
    row = _read_csv(out_dir, "transduce")[0]
    problems = _within("eta_transfer", float(row["eta_transfer"]), 0.9904, 0.005)
    if row["converged"] != "True":
        problems.append("transducer bins not converged")
    return problems


def check_mc(out_dir: str) -> list[str]:
    problems = []
    rows = _read_csv(out_dir, "mc")
    if [int(r["n"]) for r in rows] != [0, 1, 2, 3]:
        return [f"expected nesting levels 0..3, got {[r['n'] for r in rows]}"]
    n0 = rows[0]
    deviation = abs(float(n0["mc_mean_s"]) - float(n0["formula_s"])) / float(n0["mc_stderr_s"])
    if deviation > MC_SIGMA:
        problems.append(f"n=0 Monte-Carlo mean is {deviation:.2f} sigma from the closed form")
    for r in rows:
        problems += _within(f"formula/MC at n={r['n']}", float(r["formula_over_mc"]), 1.0, 0.25)
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    check: Callable[[str], list[str]]
    # layers (span names or "qcore") the traced run must enter / must not enter
    uses: tuple[str, ...]
    bypasses: tuple[str, ...]
    args: tuple[str, ...] = ()
    # a seeded workload passes the benchmark seed to catlink; the others are
    # deterministic and ignore it
    seeded: bool = False

    def argv(self, seed: int, out_root: str) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.seeded else []
        return [self.command, "--out", out_root, *self.args, *seed_args]


_GRAPE = ("pulseopt.grape_optimize", "pulseopt.evaluate_pulse")
_GATES = ("catqubit.drive", "catqubit.undrive", "catqubit.gate_x", "catqubit.gate_z",
          "catqubit.gate_g", "catqubit.cnot")
_ODE = ("dynamics.integrate_rk45", "dynamics.evolve")
_ALWAYS = ("config.load_config", "cli.write")

WORKLOADS = {w.name: w for w in [
    Workload("crossover", "crossover", check_crossover,
             uses=_ALWAYS + _GRAPE + _ODE + ("catqubit.gate_x", "catqubit.gate_z",
                                            "catqubit.cnot", "scenarios.operation_budget",
                                            "repeater.crossover", "qcore"),
             bypasses=("transducer.spin_transfer_efficiency", "repeater.monte_carlo_time",
                       "catqubit.drive", "catqubit.undrive", "catqubit.gate_g")),
    Workload("gates", "gates", check_gates,
             uses=_ALWAYS + _GATES + _ODE + ("qcore",),
             bypasses=_GRAPE + ("transducer.spin_transfer_efficiency",
                                "repeater.monte_carlo_time", "repeater.crossover",
                                "scenarios.operation_budget")),
    Workload("transduce", "transduce", check_transduce,
             uses=_ALWAYS + ("transducer.spin_transfer_efficiency",
                             "dynamics.integrate_rk45"),
             bypasses=_GRAPE + _GATES + ("dynamics.evolve", "repeater.monte_carlo_time",
                                         "repeater.crossover", "scenarios.operation_budget",
                                         "qcore")),
    Workload("mc_oracle", "mc", check_mc,
             uses=_ALWAYS + ("repeater.monte_carlo_time",),
             bypasses=_GRAPE + _GATES + _ODE + ("transducer.spin_transfer_efficiency",
                                                "repeater.crossover",
                                                "scenarios.operation_budget", "qcore"),
             args=("--trials", str(MC_TRIALS)), seeded=True),
]}
