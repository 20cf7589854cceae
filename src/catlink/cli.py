"""Command-line front end.

Each subcommand validates the configuration, computes its report entirely in
memory, renders every file to text, and only then writes, each file through a
temporary file and ``os.replace``, so neither validation nor rendering
failures leave partial output.  Every invocation writes into
``<out>/<command>/`` a primary CSV (or JSON), a ``summary.json`` with the
headline numbers and the toolkit version, and a ``resolved_config.ini``
snapshot, and prints the summary to stdout.  Outputs are byte-identical
across reruns with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from typing import Any, Optional

import numpy as np

from . import __version__
from . import catqubit as cq
from . import pulseopt as po
from . import scenarios as sn
from . import transducer as td
from . import device as dv
from .config import ConfigError, RunConfig, load_config
from .repeater import (ChainParams, LinkParams, RateFidelityReport, crossover,
                       direct_transmission_rate, evaluate_chain, mean_time,
                       monte_carlo_time, rate_curve)

TWO_PI = 2.0 * math.pi
CONFIG_ENV_VAR = "CATLINK_CONFIG"


def _fmt(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


class _Report:
    """In-memory report: tables + summary, rendered in full, then written."""

    def __init__(self, command: str, config: RunConfig):
        self.command = command
        self.config = config
        self.tables: dict[str, tuple[list[str], list[list[Any]]]] = {}
        self.summary: dict[str, Any] = {"command": command,
                                        "catlink_version": __version__}

    def add_table(self, name: str, header: list[str], rows: list[list[Any]]):
        self.tables[name] = (header, rows)

    def write(self, out_root: str, fmt: str) -> str:
        """Render every file to a string, then replace each one atomically.

        A rendering error (say, an unserialisable summary value) therefore
        leaves the previous run's files untouched.
        """
        files: dict[str, str] = {}
        for name, (header, rows) in self.tables.items():
            if fmt == "csv":
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])
                files[f"{name}.csv"] = buf.getvalue()
            else:
                payload = [dict(zip(header, row)) for row in rows]
                files[f"{name}.json"] = json.dumps(payload, indent=2,
                                                   sort_keys=True) + "\n"
        self.summary["resolved_config"] = self.config.resolved_ini()
        files["summary.json"] = json.dumps(self.summary, indent=2, sort_keys=True,
                                           default=_json_default) + "\n"
        files["resolved_config.ini"] = self.config.resolved_ini()

        out_dir = os.path.join(out_root, self.command)
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            _write_text(os.path.join(out_dir, name), text)
        return out_dir


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_text(path: str, text: str) -> None:
    """Write through a temporary file in the same directory and os.replace it."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_params(config: RunConfig) -> list[tuple[float, cq.CatQubitParams, float, float]]:
    """(loss ratio, params, drive ratio, coupling ratio) per configured row.

    The only reader of the calibrated ``scenarios.TABLE_ROW_DEFAULTS``.
    """
    sec = config["catqubit"]
    rows = []
    for i, ratio in enumerate(sec["loss_ratios"]):
        if sec["kerr_hz"]:
            kerr = TWO_PI * sec["kerr_hz"][i]
        else:
            try:
                kerr = sn.TABLE_ROW_DEFAULTS[ratio]
            except KeyError:
                raise ConfigError(
                    f"[catqubit] loss_ratios: no default kerr for {ratio:g}; set kerr_hz")
        params = cq.CatQubitParams(kerr=kerr, kappa=kerr / ratio,
                                   alpha=sec["alpha"], dim=sec["dim"])
        rows.append((ratio, params, sec["drive_ratios"][i], sec["coupling_ratios"][i]))
    return rows


def _grape_settings(config: RunConfig) -> sn.GrapeSettings:
    sec = config["grape"]
    return sn.GrapeSettings(duration_kt=sec["duration_kt"], n_segments=sec["n_segments"],
                            amplitude_bound_k=sec["amplitude_bound_k"],
                            max_iters=sec["max_iters"],
                            seed=int(sec["seed"]) if sec["seed"] else None)


def _link_params(config: RunConfig) -> LinkParams:
    """The elementary link from every ``[link]`` key.

    Its 50 km length is the one ``mc`` simulates; ``rate_curve`` and
    ``evaluate_chain`` replace it.  ``operation_time_s = auto`` reads as
    1e-4 s here; the chain commands replace that with the budget's derived
    time (see ``_chain_runs``).
    """
    li = config["link"]
    t_o = li["operation_time_s"]
    return LinkParams(length_km=50.0, attenuation_km=li["attenuation_km"],
                      emission_probability=li["emission_probability"],
                      detection_efficiency=li["detection_efficiency"],
                      operation_time_s=1e-4 if t_o == "auto" else float(t_o),
                      fiber_speed_km_s=li["fiber_speed_km_s"],
                      per_round_emission=li["per_round_emission"])


def _chain_runs(config: RunConfig, entries: Optional[list[tuple[int, str]]] = None
                ) -> tuple[sn.OperationBudget, list[tuple[ChainParams, LinkParams]]]:
    """One (chain, link) pair per (multiplexing, storage policy) entry, by
    default the ``[chain]`` entries, and the budget of the ``[chain]
    loss_ratio`` row.

    Every model object is built, and so validated, before the budget runs.
    """
    ch, cq_sec = config["chain"], config["catqubit"]
    rows = {ratio: row for ratio, *row in _row_params(config)}
    if ch["loss_ratio"] not in rows:
        raise ConfigError(f"[chain] loss_ratio {ch['loss_ratio']:g} is not one of "
                          f"[catqubit] loss_ratios {cq_sec['loss_ratios']}")
    params, drive_ratio, coupling_ratio = rows[ch["loss_ratio"]]
    chains = [ChainParams(nesting_level=ch["nesting_level"], multiplexing=m,
                          swap_probability=ch["swap_probability"],
                          storage_policy=policy,
                          transfer_lifetime_s=ch["transfer_lifetime_s"],
                          kappa=params.kappa,
                          kappa_eff=2.0 * params.kappa * params.alpha**2)
              for m, policy in (entries or zip(ch["multiplexing"], ch["storage_policy"]))]
    link = _link_params(config)
    budget = sn.operation_budget(params, drive_ratio, coupling_ratio, ch["drive_method"],
                                 _grape_settings(config),
                                 drive_duration_kt=cq_sec["drive_duration_kt"],
                                 two_qubit_dim=cq_sec["two_qubit_dim"])
    auto = config.get("link", "operation_time_s") == "auto"
    return budget, [(chain, replace(link, operation_time_s=budget.operation_time(
        chain.storage_policy)) if auto else link) for chain in chains]


def _grape_diagnostics(config: RunConfig, report: _Report,
                       budget: sn.OperationBudget) -> None:
    """With ``[chain] drive_method = grape``, put the optimizer statistics of
    the budget's drive and undrive pulses into the summary's ``diagnostics``
    block (``grape_pair`` is cached, so nothing is optimized twice)."""
    if config.get("chain", "drive_method") != "grape":
        return
    pair = sn.grape_pair(budget.params.alpha, _grape_settings(config))
    report.summary["diagnostics"] = {"grape": {
        direction: {"iterations": result.n_iterations, "evaluations": result.evaluations,
                    "stop_reason": result.stop_reason, "converged": result.converged}
        for direction, (_, result) in zip(("drive", "undrive"), pair)}}


# -- subcommands ---------------------------------------------------------------


def cmd_gates(config: RunConfig) -> _Report:
    report = _Report("gates", config)
    header = ["operation", "K_rad_per_s", "kappa_per_s", "duration_s",
              "duration_Kt", "fidelity"]
    rows, diagnostics = [], []
    for ratio, params, drive_ratio, coupling_ratio in _row_params(config):
        table = cq.gate_report(params, drive_ratio, coupling_ratio,
                               drive_duration_kt=config.get("catqubit", "drive_duration_kt"),
                               dim_per_cavity=config.get("catqubit", "two_qubit_dim"))
        for r in table:
            rows.append([r.operation, r.kerr, r.kappa, r.duration_s,
                         r.duration_kt, r.fidelity])
        diagnostics.append({"K_over_kappa": ratio, "gates": {
            r.operation: {"leakage": r.leakage, "quadrature_gap": r.quadrature_gap,
                          "clip_excess": r.clip_excess}
            for r in table if r.leakage is not None}})
    report.add_table("gates", header, rows)
    report.summary["rows"] = len(rows)
    report.summary["diagnostics"] = diagnostics
    return report


def cmd_grape(config: RunConfig) -> _Report:
    report = _Report("grape", config)
    settings = _grape_settings(config)
    pair = sn.grape_pair(config.get("catqubit", "alpha"), settings)
    kappa = 1.0 / config.get("grape", "loss_ratio")  # K = 1

    for direction, (problem, result) in zip(("drive", "undrive"), pair):
        lossy = po.evaluate_pulse(problem, result.schedule, kappa=kappa)
        seg = result.schedule.segment_values
        dt = result.schedule.duration / settings.n_segments
        rows = [[k * dt, (k + 1) * dt,
                 float(np.real(seg["two_photon"][k])),
                 float(np.real(seg["two_photon_orthogonal"][k]))]
                for k in range(settings.n_segments)]
        report.add_table(f"pulse_{direction}",
                         ["t_start_over_K", "t_end_over_K", "E_p_over_K",
                          "E_p_perp_over_K"], rows)
        report.summary[direction] = {
            "optimized_fidelity": result.fidelity,
            "lossy_fidelity": lossy,
            "iterations": result.n_iterations,
            "evaluations": result.evaluations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
        }
    return report


def cmd_device(config: RunConfig) -> _Report:
    report = _Report("device", config)
    sec = config["device"]
    lists = {k: sec[k] for k in ("anharmonicity_hz", "coupling_hz",
                                 "cavity_decay_hz", "qubit_decay_hz")}
    n_rows = max(len(v) for v in lists.values())
    for key, vals in lists.items():
        if len(vals) not in (1, n_rows):
            raise ConfigError(f"[device] {key}: expected 1 or {n_rows} values")
    header = ["kappa_c_hz", "gamma_hz", "g_hz", "Delta_hz", "K_q_hz",
              "K_hz", "kappa_hz", "kappa_eff_hz"]
    rows = []
    for i in range(n_rows):
        pick = {k: (v[i] if len(v) == n_rows else v[0]) for k, v in lists.items()}
        dp = dv.DeviceParams(
            cavity_freq=TWO_PI * sec["cavity_freq_hz"],
            qubit_freq=TWO_PI * sec["qubit_freq_hz"],
            anharmonicity=TWO_PI * pick["anharmonicity_hz"],
            coupling=TWO_PI * pick["coupling_hz"],
            cavity_decay=TWO_PI * pick["cavity_decay_hz"],
            qubit_decay=TWO_PI * pick["qubit_decay_hz"],
        )
        derived = dv.derive_device(dp, cavity_levels=sec["cavity_levels"],
                                   qubit_levels=sec["qubit_levels"],
                                   fit_kappa_eff=sec["fit_kappa_eff"])
        rows.append([pick["cavity_decay_hz"], pick["qubit_decay_hz"],
                     pick["coupling_hz"], derived.detuning / TWO_PI,
                     pick["anharmonicity_hz"], derived.kerr / TWO_PI,
                     derived.kappa / TWO_PI, derived.kappa_eff / TWO_PI])
    report.add_table("device", header, rows)
    report.summary["rows"] = n_rows
    if rows:
        report.summary["K_over_kappa"] = [r[5] / r[6] for r in rows]
    return report


def cmd_transduce(config: RunConfig) -> _Report:
    report = _Report("transduce", config)
    sec = config["transducer"]
    rows = []
    for linewidth in sec["natural_linewidth_hz"]:
        params = td.TransducerParams(
            ensemble_coupling=TWO_PI * sec["ensemble_coupling_hz"],
            natural_linewidth=TWO_PI * linewidth,
            spin_decay=TWO_PI * sec["spin_decay_hz"],
            spin_dephasing=TWO_PI * sec["spin_dephasing_hz"],
            cavity_decay=TWO_PI * sec["cavity_decay_hz"],
            n_bins=sec["n_bins"], span_fwhm=sec["span_fwhm"],
            lineshape=sec["lineshape"], gamma2_model=sec["gamma2_model"],
            echo_efficiency=sec["echo_efficiency"],
            coupling_efficiency=sec["coupling_efficiency"])
        result = td.spin_transfer_efficiency(params)
        budget = td.transduction_budget(params, result)
        rows.append([linewidth, result.efficiency, result.cavity_population,
                     result.lost_population, budget, result.converged,
                     result.bin_drift])
    report.add_table("transduce",
                     ["natural_linewidth_hz", "eta_transfer", "cavity_residue",
                      "lost", "budget_p", "converged", "bin_drift"], rows)
    report.summary["eta_transfer"] = rows[0][1]
    report.summary["budget_p"] = rows[0][4]
    report.summary["bin_drift"] = rows[0][6]
    return report


_REPORT_HEADER = ["scenario", "L_km", "n", "m", "P0", "mean_time_s", "rate_per_s",
                  "C_R", "F_elem", "F_swap", "F_tot", "storage_policy",
                  "crossover_km"]


def _report_row(rep: RateFidelityReport) -> list[Any]:
    return [f"m{rep.multiplexing}", rep.length_km, rep.nesting_level, rep.multiplexing,
            rep.p0, rep.mean_time_s, rep.rate_per_s, rep.residual_coherence,
            rep.elementary_fidelity, rep.swap_fidelity, rep.final_fidelity,
            rep.storage_policy, rep.crossover_km if rep.crossover_km is not None else ""]


def _lengths(config: RunConfig) -> np.ndarray:
    ra = config["rates"]
    return np.linspace(ra["length_min_km"], ra["length_max_km"], ra["length_steps"])


def cmd_rates(config: RunConfig) -> _Report:
    report = _Report("rates", config)
    lengths = _lengths(config)
    budget, runs = _chain_runs(config)
    report.add_table("rates", _REPORT_HEADER, [
        _report_row(evaluate_chain(float(L), chain, link, budget.fidelities))
        for chain, link in runs for L in lengths])
    report.summary["scenarios"] = [f"m{chain.multiplexing}" for chain, _ in runs]
    report.summary["lengths_km"] = [float(lengths[0]), float(lengths[-1])]
    _grape_diagnostics(config, report, budget)
    return report


def cmd_crossover(config: RunConfig) -> _Report:
    report = _Report("crossover", config)
    ra = config["rates"]
    source_rate = config.get("comparators", "source_rate_hz")
    budget, runs = _chain_runs(config)
    reports = []
    for chain, link in runs:
        cross = crossover(rate_curve(chain, link),
                          lambda L: direct_transmission_rate(L, source_rate,
                                                             link.attenuation_km),
                          bracket=(ra["bracket_min_km"], ra["bracket_max_km"]))
        reports.append(evaluate_chain(cross, chain, link, budget.fidelities,
                                      crossover_km=cross))
    report.add_table("crossover", _REPORT_HEADER, [_report_row(rep) for rep in reports])
    report.summary["crossover_km"] = {f"m{rep.multiplexing}": rep.crossover_km
                                      for rep in reports}
    report.summary["final_fidelity"] = {f"m{rep.multiplexing}": rep.final_fidelity
                                        for rep in reports}
    _grape_diagnostics(config, report, budget)
    return report


def cmd_mc(config: RunConfig) -> _Report:
    report = _Report("mc", config)
    sec = config["mc"]
    ch = config["chain"]
    link = _link_params(config)
    rows = []
    for n in range(ch["nesting_level"] + 1):
        chain = ChainParams(nesting_level=n, swap_probability=ch["swap_probability"])
        mean, stderr = monte_carlo_time(chain, link, trials=sec["trials"],
                                        seed=sec["seed"])
        formula = mean_time(chain, link)
        rows.append([n, mean, stderr, formula, formula / mean])
    report.add_table("mc", ["n", "mc_mean_s", "mc_stderr_s", "formula_s",
                            "formula_over_mc"], rows)
    report.summary["trials"] = sec["trials"]
    report.summary["seed"] = sec["seed"]
    report.summary["formula_over_mc"] = {r[0]: r[4] for r in rows}
    return report


def cmd_figure6(config: RunConfig) -> _Report:
    report = _Report("figure6", config)
    lengths = _lengths(config)
    # the cat curves store in the cat basis; the curves set m themselves
    _, [(chain, link)] = _chain_runs(config, entries=[(1, "cat")])
    curves = sn.figure_rate_curves(lengths, chain, link, **config["comparators"])
    names = ["L_km", "direct", "cat_m200", "re_m200", "dlcz_m200",
             "cat_m1", "re_m1", "dlcz_m1"]
    rows = [[curves[name][i] for name in names] for i in range(len(lengths))]
    report.add_table("figure6", names, rows)
    report.summary["curves"] = names[1:]
    return report


COMMANDS = {
    "gates": cmd_gates,
    "grape": cmd_grape,
    "device": cmd_device,
    "transduce": cmd_transduce,
    "rates": cmd_rates,
    "crossover": cmd_crossover,
    "mc": cmd_mc,
    "figure6": cmd_figure6,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catlink",
        description="Kerr-cat repeater toolkit: gate tables, GRAPE pulses, device "
                    "estimation, transduction efficiency, rates and crossovers.")
    parser.add_argument("--version", action="version", version=f"catlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help=f"config file path (default: ${CONFIG_ENV_VAR} if set)")
        p.add_argument("--out", default=None, help="output directory root")
        if name in ("mc", "grape"):
            p.add_argument("--seed", type=int, default=None, help="override seed")
        if name == "mc":
            p.add_argument("--trials", type=int, default=None,
                           help="override Monte-Carlo trials")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="primary table format")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a single config key")
        if name == "grape":
            p.add_argument("--iters", type=int, default=None,
                           help="override GRAPE iteration cap")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        path = args.config or os.environ.get(CONFIG_ENV_VAR) or None
        config = load_config(path)
        overrides: dict[tuple[str, str], str] = {}
        for item in args.set:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
            target, raw = item.split("=", 1)
            section, key = target.split(".", 1)
            overrides[(section.strip(), key.strip())] = raw.strip()
        # flags go in after --set, so a flag wins and the snapshot records it;
        # only mc and grape take --seed, each for its own section
        flags = {"format": ("output", "format"), "trials": ("mc", "trials"),
                 "iters": ("grape", "max_iters"), "seed": (args.command, "seed")}
        for flag, key in flags.items():
            if getattr(args, flag, None) is not None:
                overrides[key] = str(getattr(args, flag))
        if overrides:
            config = config.with_overrides(overrides)
        report = COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_root = args.out or config.get("output", "directory")
    out_dir = report.write(out_root, config.get("output", "format"))
    summary = {k: v for k, v in report.summary.items() if k != "resolved_config"}
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    print(f"wrote {out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
